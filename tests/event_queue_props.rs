//! Property-based tests of the event queue: model-based equivalence
//! against a sorted reference under random push/drain scripts, plus the
//! frontier safety property — no event can be scheduled into the past.

use proptest::prelude::*;
use quarc_noc::sim::schedule::EventQueue;

/// Script horizon in cycles: offsets and clock advances range over a few
/// multiples of it, so near and far events interleave.
const HORIZON: u64 = 4096;

/// One step of a random queue script.
#[derive(Clone, Debug)]
enum Op {
    /// Push an event at `now + offset`.
    Push { offset: u64, id: u32 },
    /// Advance the clock by `advance` cycles and drain everything due.
    Drain { advance: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..5, 0u64..4 * HORIZON, 0u32..64).prop_map(|(kind, t, id)| {
        if kind < 3 {
            Op::Push { offset: t, id }
        } else {
            Op::Drain {
                advance: t % (3 * HORIZON),
            }
        }
    })
}

/// Execute `ops` against the queue and a sorted multiset reference.
/// Returns every popped `(time, id)` in pop order after a final
/// drain-to-empty.
fn run_script(ops: &[Op]) -> Result<Vec<(u64, u32)>, TestCaseError> {
    let mut queue = EventQueue::new();
    let mut model: Vec<(u64, u32)> = Vec::new();
    let mut now = 0u64;
    let mut popped = Vec::new();

    let drain = |queue: &mut EventQueue,
                 model: &mut Vec<(u64, u32)>,
                 popped: &mut Vec<(u64, u32)>,
                 now: u64|
     -> Result<(), TestCaseError> {
        loop {
            let due = queue.peek_time().filter(|&t| t <= now);
            match queue.pop_due(now) {
                Some(id) => {
                    let t = due.expect("pop_due returned an event peek_time did not announce");
                    // The reference: the minimum (time, id) still pending.
                    model.sort_unstable();
                    let expect = model.remove(0);
                    prop_assert_eq!((t, id), expect, "pop disagrees with the sorted reference");
                    popped.push((t, id));
                }
                None => {
                    prop_assert!(
                        model.first().is_none_or(|&(t, _)| t > now),
                        "queue withheld a due event at now={}",
                        now
                    );
                    return Ok(());
                }
            }
        }
    };

    for op in ops {
        match *op {
            Op::Push { offset, id } => {
                queue.push(now + offset, id);
                model.push((now + offset, id));
            }
            Op::Drain { advance } => {
                now += advance;
                drain(&mut queue, &mut model, &mut popped, now)?;
            }
        }
        prop_assert_eq!(
            queue.len(),
            model.len(),
            "length drifted from the reference"
        );
    }
    now = now.saturating_add(5 * HORIZON);
    drain(&mut queue, &mut model, &mut popped, now)?;
    prop_assert!(queue.is_empty(), "final drain left events behind");
    Ok(popped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pops_match_a_sorted_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let popped = run_script(&ops)?;
        // Pop order is globally non-decreasing in time and, within a
        // time, ascending in id.
        for w in popped.windows(2) {
            prop_assert!(
                w[0] <= w[1],
                "pop order regressed: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn no_event_is_ever_scheduled_into_the_past(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        behind in 1u64..HORIZON,
    ) {
        // Replay the script, then try to push strictly behind the drain
        // frontier (the time of the most recently popped event): the
        // queue must reject it by panicking, never silently accepting
        // an event the pop order can no longer honour.
        let popped = run_script(&ops)?;
        prop_assume!(popped.last().is_some_and(|&(t, _)| t > 0));
        let frontier = popped.last().unwrap().0;

        let mut queue = EventQueue::new();
        for (i, &(t, _)) in popped.iter().enumerate() {
            queue.push(t, i as u32);
        }
        let mut now = 0;
        while queue.pop_due(frontier).is_some() {
            now += 1;
        }
        prop_assert_eq!(now as usize, popped.len());

        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            queue.push(frontier - behind.min(frontier), 999);
        }));
        std::panic::set_hook(hook);
        prop_assert!(
            result.is_err(),
            "push at {} behind frontier {} was accepted",
            frontier - behind.min(frontier),
            frontier
        );
    }
}
