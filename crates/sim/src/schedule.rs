//! Event scheduling and traffic generation shared by the simulation
//! engines.
//!
//! Two pieces live here:
//!
//! * [`EventQueue`] — `(time, id)` events popped in lexicographic order
//!   (a `std` binary heap), so same-cycle events pop in ascending id
//!   order. The event engine keys the queue by node to find the next
//!   injection without scanning the network; ties popping in node order
//!   is what keeps its spawn order identical to the cycle engine's
//!   `for node in 0..n` loop.
//! * [`ArrivalStream`] — one node's source: the node's private RNG
//!   (seeded from the master seed and the node index), the cycle of its
//!   next arrival (`u64::MAX` = never again) and the process of the
//!   workload's [`TrafficSpec`] that schedules the one after it: the
//!   paper's memoryless source (`P(gap = k) = (1 − λ)^{k−1} λ`, exactly
//!   the waiting time of a per-cycle Bernoulli source), a bursty on/off
//!   source with the long-run mean matched to the nominal rate, or the
//!   deterministic replay of a recorded trace (see [`record_trace`]).
//!   Draws are made *per arrival*, never per cycle, so generation costs
//!   O(arrivals) however sparse the traffic is. Both engines consume the
//!   same streams and the per-arrival draw order (class, destination,
//!   next gap) is part of their deterministic contract, which is what
//!   makes their runs bit-identical under a shared seed. Under
//!   [`TrafficSpec::Geometric`] the streams are draw-for-draw identical
//!   to the pre-subsystem hard-coded source, so existing seeds keep their
//!   meaning.

use noc_topology::NodeId;
use noc_workloads::{TraceEntry, TraceKind, TrafficSpec, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A priority queue of `(time, id)` pairs.
///
/// `pop_due` pops events in `(time, id)` lexicographic order — the tuple
/// order of the heap's keys — so events scheduled for the same cycle come
/// out in ascending id order, a deterministic tie-break the engines rely
/// on.
///
/// The frontier (`cursor`) tracks the time of the most recently popped
/// event; `push` panics if asked to schedule behind it, so an engine bug
/// that a bare heap would silently reorder surfaces as a named invariant
/// violation here.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    /// Drain frontier: every pending event has `time >= cursor`.
    cursor: u64,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// An empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            cursor: 0,
            heap: BinaryHeap::with_capacity(cap),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `id` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies behind the drain frontier — i.e. the caller
    /// is scheduling an event into the past relative to events already
    /// popped, which the pop order could no longer honour.
    pub fn push(&mut self, time: u64, id: u32) {
        assert!(
            time >= self.cursor,
            "EventQueue invariant violated: event (time {time}, id {id}) scheduled into the \
             past behind the drain frontier {}",
            self.cursor
        );
        self.heap.push(Reverse((time, id)));
    }

    /// Earliest pending event time, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((time, _))| time)
    }

    /// Pop the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<u32> {
        if self.peek_time()? > now {
            return None;
        }
        let Reverse((time, id)) = self.heap.pop()?;
        self.cursor = time;
        Some(id)
    }
}

/// The class and destination of one generated message, drawn at arrival
/// time from the node's stream RNG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// A unicast to the sampled destination.
    Unicast(NodeId),
    /// A multicast operation over the node's configured destination set.
    Multicast,
}

/// Classify a freshly generated message: multicast with probability α,
/// otherwise a unicast to a pattern-sampled destination. Shared by every
/// stochastic process so the draw order (class, then destination) is
/// identical across processes — and identical to the pre-subsystem
/// source.
fn classify(rng: &mut SmallRng, wl: &Workload, n: usize, src: NodeId) -> Arrival {
    let alpha = wl.multicast_fraction;
    if alpha > 0.0 && rng.gen::<f64>() < alpha {
        Arrival::Multicast
    } else {
        Arrival::Unicast(wl.unicast_pattern.sample(n, src, rng))
    }
}

/// Sample a geometric gap on `{1, 2, …}` by inverse transform:
/// `gap = ⌈ln(1 − u) / ln_q⌉` where `ln_q = ln(1 − p)`, clamped to 1.
/// One RNG draw. `ln_q` must be negative (p > 0).
fn geometric_gap(rng: &mut SmallRng, ln_q: f64) -> u64 {
    let u: f64 = rng.gen();
    // u ∈ [0, 1) so 1 − u ∈ (0, 1] and the ratio is finite and ≥ 0.
    let k = ((1.0 - u).ln() / ln_q).ceil();
    if k < 1.0 {
        1
    } else {
        k as u64 // saturates at u64::MAX for astronomical gaps
    }
}

/// `ln(1 − p)` of a per-cycle firing probability, or `0.0` when the
/// probability is zero (or below f64 resolution) — the "disabled" marker
/// the geometric samplers test for.
fn ln_q(p: f64) -> f64 {
    if p > 0.0 {
        (1.0 - p).ln()
    } else {
        0.0
    }
}

/// Sample an on/off burst boundary: the size of the next burst (all but
/// its first arrival stashed in `remaining`) and the off-gap preceding
/// its first arrival.
fn boundary_gap(rng: &mut SmallRng, ln_q_burst: f64, ln_q_off: f64, remaining: &mut u64) -> u64 {
    let burst = if ln_q_burst < 0.0 {
        geometric_gap(rng, ln_q_burst)
    } else {
        1
    };
    *remaining = burst - 1;
    geometric_gap(rng, ln_q_off)
}

/// What schedules a stream's next arrival: one variant per
/// [`TrafficSpec`]. The on/off and trace states are boxed so a geometric
/// stream stays 56 bytes: a 64 Ki-node run holds one stream per node, and
/// inline they made its `Vec<ArrivalStream>` 5 MiB instead of 3.5 MiB.
#[derive(Debug)]
enum Process {
    /// The paper's memoryless source: geometric inter-arrival gaps at the
    /// workload's generation rate — one RNG draw per arrival instead of
    /// one Bernoulli draw per cycle, generating the identical process.
    /// The paper's sources are Poisson; a Bernoulli trial per cycle is its
    /// cycle-accurate discretisation, whose gaps are geometric and whose
    /// arrival counts converge to Poisson at the small per-cycle rates the
    /// sweeps use (λ ≤ ~0.05).
    Geometric {
        /// `ln(1 − λ)`.
        ln_q: f64,
    },
    /// A two-state bursty source: bursts of geometrically many messages
    /// (mean `burst_len`) spaced at geometric gaps of the peak rate,
    /// separated by geometric off-gaps sized so the long-run mean rate
    /// equals the workload's nominal rate (Wald's identity makes the
    /// match exact in expectation, so rate sweeps stay comparable with
    /// Poisson runs). One draw per in-burst arrival, three per burst
    /// boundary.
    OnOff(Box<OnOff>),
    /// Deterministic replay of the node's slice of a recorded trace:
    /// classes and destinations come from the trace, nothing is drawn.
    /// Arrivals still to come, latest first (the due one is last).
    #[allow(clippy::box_collection)] // a `Vec` inline is 24 bytes: see above
    Trace(Box<Vec<(u64, Arrival)>>),
}

/// The state of an on/off source.
#[derive(Debug)]
struct OnOff {
    /// `ln(1 − peak_rate)` — in-burst gap sampler.
    ln_q_on: f64,
    /// `ln(1 − 1/burst_len)` — burst-size sampler (`0.0` ⇒ size 1, no
    /// draw).
    ln_q_burst: f64,
    /// `ln(1 − 1/off_gap_mean)` — off-gap sampler.
    ln_q_off: f64,
    /// Arrivals left in the current burst after the one scheduled.
    remaining: u64,
}

/// One node's message source: the node's private RNG, the cycle of its
/// next arrival and the process that schedules the one after.
#[derive(Debug)]
pub struct ArrivalStream {
    rng: SmallRng,
    /// Cycle of the next arrival; `u64::MAX` = the stream never fires
    /// again (a zero or sub-resolution rate, or an exhausted trace).
    next: u64,
    process: Process,
}

/// Per-node seed mixing constant (kept from the original engine so seeds
/// keep their meaning across the refactor).
const NODE_SEED_MIX: u64 = 0xA076_1D64_78BD_642F;

/// The node's private RNG, seeded exactly as the pre-subsystem source
/// seeded it.
fn node_rng(master_seed: u64, node: usize) -> SmallRng {
    SmallRng::seed_from_u64(master_seed ^ (NODE_SEED_MIX.wrapping_mul(node as u64 + 1)))
}

impl ArrivalStream {
    /// Build node `node`'s memoryless stream under `master_seed` at `rate`
    /// messages/cycle — the [`TrafficSpec::Geometric`] process, kept as a
    /// named constructor for tests and micro-benchmarks.
    pub fn new(master_seed: u64, node: usize, rate: f64) -> Self {
        let mut rng = node_rng(master_seed, node);
        // A rate of zero (or small enough that `1 − rate == 1` in f64)
        // never fires and draws nothing.
        let ln_q = ln_q(rate);
        let next = if ln_q < 0.0 {
            geometric_gap(&mut rng, ln_q)
        } else {
            u64::MAX
        };
        ArrivalStream {
            rng,
            next,
            process: Process::Geometric { ln_q },
        }
    }

    /// Node `node`'s on/off stream: mean `burst_len` messages per burst at
    /// `peak_rate` inside bursts, matching a long-run mean of `rate`
    /// (`rate < peak_rate < 1`, `burst_len >= 1`: validated by
    /// [`TrafficSpec::validate`]). The first arrival opens the first burst
    /// after an off-gap measured from cycle 0.
    fn on_off(master_seed: u64, node: usize, burst_len: f64, peak_rate: f64, rate: f64) -> Self {
        let mut rng = node_rng(master_seed, node);
        // A zero mean rate, or one whose off-gap probability underflows
        // f64, never fires and draws nothing, like the geometric source.
        let ln_q_off = if rate > 0.0 {
            ln_q(1.0 / TrafficSpec::off_gap_mean(burst_len, peak_rate, rate))
        } else {
            0.0
        };
        // `burst_len = 1` means every burst has exactly one message: keep
        // the 0.0 "no draw" sentinel (ln_q(1.0) would be −∞ and waste a
        // draw on a deterministic outcome). With one message per burst
        // every gap is an off-gap of mean 1/rate, so the stream
        // degenerates to draw-for-draw the geometric source.
        let ln_q_burst = if burst_len > 1.0 {
            ln_q(1.0 / burst_len)
        } else {
            0.0
        };
        let mut remaining = 0;
        let next = if ln_q_off < 0.0 {
            boundary_gap(&mut rng, ln_q_burst, ln_q_off, &mut remaining)
        } else {
            u64::MAX
        };
        ArrivalStream {
            rng,
            next,
            process: Process::OnOff(Box::new(OnOff {
                ln_q_on: ln_q(peak_rate),
                ln_q_burst,
                ln_q_off,
                remaining,
            })),
        }
    }

    /// Build every node's stream for `wl` under `master_seed`, dispatching
    /// on the workload's [`TrafficSpec`]. This is the single construction
    /// path both engines use; under [`TrafficSpec::Geometric`] the streams
    /// are draw-for-draw identical to the pre-subsystem hard-coded source.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not fit the workload — the engines'
    /// documented construction contract; the experiment layer reports the
    /// same condition as a typed error before any engine is built.
    pub fn build_all(wl: &Workload, n: usize, master_seed: u64) -> Vec<ArrivalStream> {
        wl.traffic
            .validate(n, wl.gen_rate)
            .expect("traffic spec must fit the workload");
        match &wl.traffic {
            TrafficSpec::Geometric => (0..n)
                .map(|i| ArrivalStream::new(master_seed, i, wl.gen_rate))
                .collect(),
            TrafficSpec::OnOff {
                burst_len,
                peak_rate,
            } => (0..n)
                .map(|i| ArrivalStream::on_off(master_seed, i, *burst_len, *peak_rate, wl.gen_rate))
                .collect(),
            TrafficSpec::Trace { entries } => {
                let mut per_node: Vec<Vec<(u64, Arrival)>> = vec![Vec::new(); n];
                for e in entries.iter() {
                    let arrival = match e.kind {
                        TraceKind::Unicast { dst } => Arrival::Unicast(NodeId(dst)),
                        TraceKind::Multicast => Arrival::Multicast,
                    };
                    per_node[e.node as usize].push((e.cycle, arrival));
                }
                per_node
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut pending)| {
                        // Strictly increasing cycles per node:
                        // `TrafficSpec::validate` enforces the shape.
                        debug_assert!(pending.windows(2).all(|w| w[0].0 < w[1].0));
                        pending.reverse();
                        ArrivalStream {
                            rng: node_rng(master_seed, i),
                            next: pending.last().map_or(u64::MAX, |&(c, _)| c),
                            process: Process::Trace(Box::new(pending)),
                        }
                    })
                    .collect()
            }
        }
    }

    /// Cycle of the next arrival (`u64::MAX` when the stream is disabled
    /// or exhausted).
    #[inline]
    pub fn next_arrival(&self) -> u64 {
        self.next
    }

    /// Consume the arrival due now: classify it and schedule the next one.
    ///
    /// Callers must only invoke this when `next_arrival()` equals the
    /// current cycle; the draw order (class, destination, next gap) is
    /// part of the deterministic contract between the engines.
    pub fn pop(&mut self, wl: &Workload, n: usize, src: NodeId) -> Arrival {
        let rng = &mut self.rng;
        let (arrival, gap) = match &mut self.process {
            Process::Geometric { ln_q } => {
                let arrival = classify(rng, wl, n, src);
                (arrival, geometric_gap(rng, *ln_q))
            }
            Process::OnOff(on_off) => {
                let arrival = classify(rng, wl, n, src);
                let OnOff {
                    ln_q_on,
                    ln_q_burst,
                    ln_q_off,
                    remaining,
                } = &mut **on_off;
                let gap = if *remaining > 0 {
                    *remaining -= 1;
                    geometric_gap(rng, *ln_q_on)
                } else {
                    boundary_gap(rng, *ln_q_burst, *ln_q_off, remaining)
                };
                (arrival, gap)
            }
            Process::Trace(pending) => {
                let (_, arrival) = pending.pop().expect("popped only when due");
                self.next = pending.last().map_or(u64::MAX, |&(c, _)| c);
                return arrival;
            }
        };
        self.next = self.next.saturating_add(gap);
        arrival
    }
}

/// Record the complete arrival trace `wl` generates under `master_seed`
/// up to and including `horizon`, as [`TrafficSpec::Trace`] entries
/// sorted by `(cycle, node)`.
///
/// Generation is open-loop — arrival processes never observe network
/// state — so this standalone recording is exactly the sequence any
/// engine run with the same `(workload, seed)` generates: replaying the
/// trace of a finished run (with `horizon` = the run's final cycle)
/// reproduces that run bit-for-bit, which `tests/traffic_processes.rs`
/// enforces.
pub fn record_trace(wl: &Workload, n: usize, master_seed: u64, horizon: u64) -> Vec<TraceEntry> {
    let mut streams = ArrivalStream::build_all(wl, n, master_seed);
    let mut entries = Vec::new();
    for (node, stream) in streams.iter_mut().enumerate() {
        while stream.next_arrival() <= horizon {
            let cycle = stream.next_arrival();
            let kind = match stream.pop(wl, n, NodeId(node as u32)) {
                Arrival::Unicast(dst) => TraceKind::Unicast { dst: dst.0 },
                Arrival::Multicast => TraceKind::Multicast,
            };
            entries.push(TraceEntry {
                cycle,
                node: node as u32,
                kind,
            });
        }
    }
    entries.sort_by_key(|e| (e.cycle, e.node));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::Quarc;
    use noc_workloads::DestinationSets;

    #[test]
    fn event_queue_pops_in_time_then_id_order() {
        let mut q = EventQueue::new();
        for (t, id) in [(5u64, 2u32), (3, 9), (5, 0), (1, 4), (3, 1)] {
            q.push(t, id);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(1));
        let mut out = Vec::new();
        while let Some(id) = q.pop_due(u64::MAX) {
            out.push(id);
        }
        assert_eq!(out, vec![4, 1, 9, 0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(4, 2);
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.pop_due(4), Some(2));
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(10), Some(1));
        assert_eq!(q.pop_due(u64::MAX), None);
    }

    /// A horizon well past any engine's per-node gap at the swept rates.
    const HORIZON: u64 = 4096;

    #[test]
    fn near_and_far_events_pop_in_global_order() {
        // Times a few cycles and many horizons apart, pushed out of
        // order, must pop in global (time, id) order.
        let mut q = EventQueue::new();
        let events = [
            (2u64, 7u32),
            (HORIZON - 1, 3),
            (HORIZON + 5, 1),
            (HORIZON + 5, 0),
            (3 * HORIZON + 2, 9),
            (10 * HORIZON, 4),
        ];
        for (t, id) in events {
            q.push(t, id);
        }
        assert_eq!(q.len(), events.len());
        assert_eq!(q.peek_time(), Some(2));
        let mut out = Vec::new();
        while let Some(id) = q.pop_due(u64::MAX) {
            out.push(id);
        }
        assert_eq!(out, vec![7, 3, 0, 1, 9, 4]);
    }

    #[test]
    fn interleaved_pushes_keep_pop_order_after_wraps() {
        // Push-as-you-pop over several horizons: the queue must keep
        // honouring (time, id) order, including a push at the time of
        // the event just popped (the cycle is mid-drain).
        let mut q = EventQueue::new();
        q.push(0, 5);
        q.push(0, 9);
        assert_eq!(q.pop_due(0), Some(5));
        q.push(0, 7); // same-cycle push while the cycle drains
        assert_eq!(q.pop_due(0), Some(7));
        assert_eq!(q.pop_due(0), Some(9));
        // March the frontier forward with a sliding event set.
        let mut time = 1u64;
        for lap in 0..5u64 {
            let t = time + lap * (HORIZON / 2 + 3);
            q.push(t, lap as u32);
            q.push(t + 2 * HORIZON, 100 + lap as u32);
            time = t;
        }
        let mut last = (0u64, 0u32);
        let mut popped = 0;
        while let Some(t) = q.peek_time() {
            let id = q.pop_due(u64::MAX).unwrap();
            assert!(
                (t, id) > last,
                "pop order regressed: {:?} after {:?}",
                (t, id),
                last
            );
            last = (t, id);
            popped += 1;
        }
        assert_eq!(popped, 10);
    }

    #[test]
    fn sparse_far_apart_events_pop_in_order() {
        // 65 536 events at distinct times a million cycles apart, pushed
        // in a scrambled order (37 is coprime to 2^16), plus one at the
        // far end of the clock.
        const N: u64 = 65_536;
        let mut q = EventQueue::with_capacity(N as usize + 1);
        q.push(u64::MAX - 1, 0);
        for k in 0..N {
            let i = (k * 37) % N;
            q.push(i * 1_000_003, i as u32);
        }
        for i in 0..N {
            assert_eq!(q.peek_time(), Some(i * 1_000_003));
            assert_eq!(q.pop_due(i * 1_000_003), Some(i as u32));
        }
        assert_eq!(q.pop_due(u64::MAX - 2), None);
        assert_eq!(q.peek_time(), Some(u64::MAX - 1));
        assert_eq!(q.pop_due(u64::MAX - 1), Some(0));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn pushing_behind_the_frontier_panics() {
        let mut q = EventQueue::new();
        q.push(50, 1);
        assert_eq!(q.pop_due(50), Some(1));
        q.push(49, 2); // behind the drain frontier: an engine bug
    }

    fn test_workload(rate: f64, alpha: f64) -> Workload {
        let topo = Quarc::new(16).unwrap();
        let sets = DestinationSets::random(&topo, 4, 1);
        Workload::new(16, rate, alpha, sets).unwrap()
    }

    #[test]
    fn zero_rate_stream_never_fires() {
        let s = ArrivalStream::new(7, 3, 0.0);
        assert_eq!(s.next_arrival(), u64::MAX);
    }

    #[test]
    fn gaps_are_geometric_with_the_right_mean() {
        // Mean gap must be 1/λ; variance (1−λ)/λ² — check the mean within
        // a few standard errors over many draws.
        let wl = test_workload(0.05, 0.0);
        let mut s = ArrivalStream::new(11, 0, 0.05);
        let mut last = 0u64;
        let n = 20_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let next = s.next_arrival();
            assert!(next > last, "gaps are at least one cycle");
            sum += next - last;
            last = next;
            s.pop(&wl, 16, NodeId(0));
        }
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 20.0).abs() < 0.5,
            "mean gap {mean} should be ~1/λ = 20"
        );
    }

    #[test]
    fn class_mix_follows_alpha() {
        let wl = test_workload(0.1, 0.25);
        let mut s = ArrivalStream::new(13, 5, 0.1);
        let n = 20_000;
        let mut mc = 0usize;
        for _ in 0..n {
            match s.pop(&wl, 16, NodeId(5)) {
                Arrival::Multicast => mc += 1,
                Arrival::Unicast(d) => assert_ne!(d, NodeId(5)),
            }
        }
        let frac = mc as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "multicast fraction {frac}");
    }

    #[test]
    fn streams_are_deterministic_in_seed_and_node() {
        let wl = test_workload(0.02, 0.1);
        let mut a = ArrivalStream::new(42, 1, 0.02);
        let mut b = ArrivalStream::new(42, 1, 0.02);
        for _ in 0..100 {
            assert_eq!(a.next_arrival(), b.next_arrival());
            assert_eq!(a.pop(&wl, 16, NodeId(1)), b.pop(&wl, 16, NodeId(1)));
        }
        let fresh = ArrivalStream::new(42, 1, 0.02);
        let c = ArrivalStream::new(42, 2, 0.02);
        let d = ArrivalStream::new(43, 1, 0.02);
        assert_ne!(fresh.next_arrival(), u64::MAX);
        assert!(
            c.next_arrival() != fresh.next_arrival() || d.next_arrival() != fresh.next_arrival()
        );
    }

    #[test]
    fn build_all_geometric_matches_the_named_constructor() {
        // The dispatch path must be draw-for-draw the pre-subsystem
        // source: same seeds, same gaps, same classifications.
        let wl = test_workload(0.03, 0.1);
        let mut built = ArrivalStream::build_all(&wl, 16, 99);
        let mut named: Vec<ArrivalStream> =
            (0..16).map(|i| ArrivalStream::new(99, i, 0.03)).collect();
        for node in 0..16usize {
            for _ in 0..50 {
                assert_eq!(
                    built[node].next_arrival(),
                    named[node].next_arrival(),
                    "node {node}"
                );
                assert_eq!(
                    built[node].pop(&wl, 16, NodeId(node as u32)),
                    named[node].pop(&wl, 16, NodeId(node as u32))
                );
            }
        }
    }

    #[test]
    fn onoff_gaps_cluster_into_bursts() {
        let rate = 0.01;
        let wl = test_workload(rate, 0.0).with_traffic(TrafficSpec::OnOff {
            burst_len: 8.0,
            peak_rate: 0.5,
        });
        let mut streams = ArrivalStream::build_all(&wl, 16, 5);
        let s = &mut streams[0];
        let mut gaps = Vec::new();
        let mut last = 0u64;
        for _ in 0..20_000 {
            let next = s.next_arrival();
            assert!(next > last);
            gaps.push(next - last);
            last = next;
            s.pop(&wl, 16, NodeId(0));
        }
        // Bursty traffic: most gaps are short (in-burst, mean 2 cycles at
        // peak 0.5), a minority are long off-gaps. A memoryless source at
        // rate 0.01 would put ~60% of gaps above 50 cycles.
        let short = gaps.iter().filter(|&&g| g <= 10).count() as f64 / gaps.len() as f64;
        assert!(
            short > 0.75,
            "expected >75% in-burst gaps, got {short} short"
        );
        // Mean rate still matches the nominal rate.
        let mean_gap = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            (mean_gap - 1.0 / rate).abs() < 0.05 / rate,
            "mean gap {mean_gap} should be ~{}",
            1.0 / rate
        );
    }

    #[test]
    fn onoff_burst_one_degenerates_to_the_geometric_source() {
        // One message per burst: every gap is an off-gap of mean 1/rate,
        // sampled through the same inverse transform as the geometric
        // source — the streams must be draw-for-draw identical.
        let rate = 0.02;
        let wl = test_workload(rate, 0.1).with_traffic(TrafficSpec::OnOff {
            burst_len: 1.0,
            peak_rate: 0.5,
        });
        let mut onoff = ArrivalStream::build_all(&wl, 16, 77);
        let mut geo: Vec<ArrivalStream> =
            (0..16).map(|i| ArrivalStream::new(77, i, rate)).collect();
        for node in 0..16usize {
            let src = NodeId(node as u32);
            for _ in 0..200 {
                assert_eq!(onoff[node].next_arrival(), geo[node].next_arrival());
                assert_eq!(onoff[node].pop(&wl, 16, src), geo[node].pop(&wl, 16, src));
            }
        }
    }

    #[test]
    fn onoff_zero_rate_never_fires_and_draws_nothing() {
        let wl = test_workload(0.0, 0.0).with_traffic(TrafficSpec::OnOff {
            burst_len: 4.0,
            peak_rate: 0.5,
        });
        let streams = ArrivalStream::build_all(&wl, 16, 1);
        assert!(streams.iter().all(|s| s.next_arrival() == u64::MAX));
    }

    #[test]
    fn onoff_sub_resolution_rate_disables_the_stream() {
        // A mean rate below f64 resolution underflows the off-gap
        // probability; the stream must go quiet (like the geometric
        // source), not invert into an every-cycle injector.
        let wl = test_workload(1e-300, 0.0).with_traffic(TrafficSpec::OnOff {
            burst_len: 4.0,
            peak_rate: 0.5,
        });
        let streams = ArrivalStream::build_all(&wl, 16, 1);
        assert!(streams.iter().all(|s| s.next_arrival() == u64::MAX));
    }

    #[test]
    fn a_stream_is_56_bytes() {
        // The size `Process` boxes its on/off and trace states for.
        assert_eq!(std::mem::size_of::<ArrivalStream>(), 56);
    }

    #[test]
    fn trace_streams_replay_exactly() {
        let entries = vec![
            TraceEntry {
                cycle: 3,
                node: 0,
                kind: TraceKind::Unicast { dst: 5 },
            },
            TraceEntry {
                cycle: 3,
                node: 2,
                kind: TraceKind::Multicast,
            },
            TraceEntry {
                cycle: 9,
                node: 0,
                kind: TraceKind::Unicast { dst: 1 },
            },
        ];
        let wl = test_workload(0.01, 0.1).with_traffic(TrafficSpec::trace(entries));
        let mut streams = ArrivalStream::build_all(&wl, 16, 7);
        assert_eq!(streams[0].next_arrival(), 3);
        assert_eq!(streams[1].next_arrival(), u64::MAX);
        assert_eq!(streams[2].next_arrival(), 3);
        assert_eq!(
            streams[0].pop(&wl, 16, NodeId(0)),
            Arrival::Unicast(NodeId(5))
        );
        assert_eq!(streams[0].next_arrival(), 9);
        assert_eq!(streams[2].pop(&wl, 16, NodeId(2)), Arrival::Multicast);
        assert_eq!(streams[2].next_arrival(), u64::MAX);
        assert_eq!(
            streams[0].pop(&wl, 16, NodeId(0)),
            Arrival::Unicast(NodeId(1))
        );
        assert_eq!(streams[0].next_arrival(), u64::MAX);
    }

    #[test]
    fn recorded_trace_matches_the_live_streams() {
        let wl = test_workload(0.02, 0.2);
        let horizon = 5_000;
        let trace = record_trace(&wl, 16, 31, horizon);
        assert!(!trace.is_empty());
        assert!(trace
            .windows(2)
            .all(|w| { (w[0].cycle, w[0].node) < (w[1].cycle, w[1].node) }));
        assert!(trace.iter().all(|e| (1..=horizon).contains(&e.cycle)));
        // Replaying the recorded trace yields the same arrivals as the
        // live geometric streams, node by node.
        let replay_wl = wl.clone().with_traffic(TrafficSpec::trace(trace.clone()));
        let mut live = ArrivalStream::build_all(&wl, 16, 31);
        let mut replay = ArrivalStream::build_all(&replay_wl, 16, 31);
        for node in 0..16usize {
            let src = NodeId(node as u32);
            while replay[node].next_arrival() != u64::MAX {
                assert_eq!(live[node].next_arrival(), replay[node].next_arrival());
                assert_eq!(live[node].pop(&wl, 16, src), replay[node].pop(&wl, 16, src));
            }
            assert!(live[node].next_arrival() > horizon);
        }
    }

    #[test]
    #[should_panic(expected = "traffic spec must fit")]
    fn build_all_rejects_unrealizable_specs() {
        let wl = test_workload(0.4, 0.0).with_traffic(TrafficSpec::OnOff {
            burst_len: 4.0,
            peak_rate: 0.2,
        });
        let _ = ArrivalStream::build_all(&wl, 16, 1);
    }
}
