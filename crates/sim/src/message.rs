//! In-flight message state.
//!
//! The simulator does not materialise individual flits. A wormhole message
//! occupies a contiguous window of its path's channels; per hop it suffices
//! to count how many flits have traversed that channel
//! (`traversed[h]`). All flit-level behaviour follows:
//!
//! * buffer occupancy of hop `h` = `traversed[h] − traversed[h+1]`;
//! * the header has entered hop `h`'s buffer iff `traversed[h] ≥ 1`;
//! * the tail has left hop `h−1`'s buffer iff `traversed[h] == len`.

use noc_topology::{NodeId, Path};
use std::sync::Arc;

/// Dense message identifier (index into the simulator's slab).
pub type MsgId = u32;

/// "No message": the end of a waiter list. Never a live id — the arena
/// refuses to grow to the slot index whose low
/// [`Arena::INDEX_BITS`](crate::arena::Arena::INDEX_BITS) are all ones.
pub(crate) const NO_MSG: MsgId = u32::MAX;

/// "Not coasting": the [`ActiveMsg::coast`] of a message that steps.
pub(crate) const NO_COAST: u32 = u32::MAX;

/// Per-(channel, vc) resource state: a cv is either free or owned by one
/// message at one hop of its path, and headers that found it taken wait
/// in arrival order (the paper's non-preemptive FIFO arbitration).
///
/// The record holds only the two ends of that queue. The queue itself is
/// intrusive — each waiting message points at the one behind it through
/// [`ActiveMsg::next_waiter`] — which works because a header requests one
/// cv at a time (hop [`ActiveMsg::head`] of its path), so a message sits
/// in at most one list. Whether the owner can move a flit is not kept
/// here either: that is one bit of the channel's `ready` mask (see
/// `fabric.rs`), so selection reads a cv only to copy out the owner it
/// picked.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CvState {
    /// Owning message, or [`NO_MSG`] when the cv is free.
    pub(crate) owner: MsgId,
    /// The hop index of `owner`'s path this cv is (or is claimed as).
    pub(crate) hop: u16,
    /// `owner` holds the cv through a claim: a coasting header reserved it
    /// ahead of itself and is granted it, in closed form, on the cycle its
    /// window says ([`Coast::claimed_to`]). Until that claim is settled the
    /// cv counts as neither free nor owned.
    pub(crate) claimed: bool,
    /// First waiting header (next to be granted), or [`NO_MSG`].
    pub(crate) wait_head: MsgId,
    /// Last waiting header (where arrivals append), or [`NO_MSG`].
    pub(crate) wait_tail: MsgId,
}

impl CvState {
    /// A free cv nobody waits for.
    pub(crate) const FREE: CvState = CvState {
        owner: NO_MSG,
        hop: 0,
        claimed: false,
        wait_head: NO_MSG,
        wait_tail: NO_MSG,
    };

    /// The owning message and its hop, unless the cv is free or only
    /// claimed.
    #[inline]
    pub(crate) fn holder(&self) -> Option<(MsgId, u16)> {
        (self.owner != NO_MSG && !self.claimed).then_some((self.owner, self.hop))
    }

    /// Is the cv free: no owner and no claim?
    #[inline]
    pub(crate) fn is_free(&self) -> bool {
        self.owner == NO_MSG
    }
}

/// Dense multicast-operation identifier.
pub type OpId = u32;

/// Precomputed absorb schedule of a multicast stream: `(completion_hop,
/// target)` pairs in visit order. A target is absorbed when the stream's
/// tail has traversed `completion_hop` — for an intermediate target that is
/// the hop leaving the target's router (clone to the sink happens in the
/// same cycle as the forwarding, §3.3.2); for the final target it is the
/// ejection hop itself.
pub type AbsorbSchedule = Arc<[(u16, NodeId)]>;

/// Build the absorb schedule for a stream path and its visit-ordered
/// targets.
pub fn absorb_schedule(
    path: &Path,
    targets: &[NodeId],
    downstream_of: impl Fn(noc_topology::ChannelId) -> NodeId,
) -> AbsorbSchedule {
    let mut out = Vec::with_capacity(targets.len());
    let mut ti = 0usize;
    // Link hops are indices 1..len-1; the node entered by link hop j is
    // downstream(channel(j)); its completion hop is j + 1.
    for (j, hop) in path.hops[1..path.hops.len() - 1].iter().enumerate() {
        if ti >= targets.len() {
            break;
        }
        let node = downstream_of(hop.channel);
        if node == targets[ti] {
            out.push(((j + 2) as u16, node)); // hop index j+1, completion j+2
            ti += 1;
        }
    }
    assert_eq!(
        ti,
        targets.len(),
        "every target must lie on the stream path in visit order"
    );
    out.into()
}

/// An active (injected or queued) message.
#[derive(Clone, Debug)]
pub struct ActiveMsg {
    /// The full route (shared with the precomputed path tables).
    pub path: Arc<Path>,
    /// Message length in flits.
    pub len: u32,
    /// Generation cycle.
    pub gen: u64,
    /// Flits that have traversed each hop (`traversed.len() == path.len()`).
    pub traversed: Box<[u32]>,
    /// For multicast streams: the owning operation and absorb schedule.
    pub multicast: Option<StreamState>,
    /// Whether this message counts toward the statistics.
    pub tagged: bool,
    /// Hops granted so far: hops `..head` are or were owned, and hop
    /// `head` is the one the header requests next (it sits in that cv's
    /// waiter list from the request until the grant).
    pub(crate) head: u16,
    /// The header queued behind this one on the same cv, or [`NO_MSG`]
    /// (also when this message is not waiting at all).
    pub(crate) next_waiter: MsgId,
    /// Its index in the fabric's coasts, or [`NO_COAST`].
    pub(crate) coast: u32,
}

/// The window of a coasting message, one of two kinds.
///
/// * A *body*: its header has crossed its last hop and every hop the
///   tail has not crossed yet streams, alone among the ready cvs of its
///   channel. Hop `h` moves one flit per cycle until its tail crosses.
/// * A *claim* (`claimed_to > 0`): its header is on the way and holds
///   the cvs of hops `head ..= claimed_to` ahead of it, free when
///   claimed. The hop granted at `from` is `head − 1`; hop `k` of the
///   claim is granted on `from + k − (head − 1)` and moves a flit on
///   every cycle after, as every granted hop behind it does.
///
/// Selection and application skip it, and
/// [`Fabric`](crate::fabric::Fabric) adds its moves, grants and releases
/// in one closed-form step when the window is settled.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Coast {
    /// The coasting message.
    pub(crate) msg: MsgId,
    /// The last hop a claim holds; 0 for a body.
    pub(crate) claimed_to: u16,
    /// The cycle its counters stand at: it moves on `from + 1 ..`.
    pub(crate) from: u64,
    /// The window's last cycle: short of its first absorption or
    /// delivery, of a release a header waits for, and of the next warmup,
    /// measurement or deadline boundary, so every move in it shares one
    /// `measuring` verdict.
    pub(crate) until: u64,
}

impl Coast {
    /// Is it a claim, a header on its way?
    #[inline]
    pub(crate) fn is_claim(&self) -> bool {
        self.claimed_to != 0
    }
}

/// Multicast-specific message state.
#[derive(Clone, Debug)]
pub struct StreamState {
    /// The multicast operation this stream belongs to.
    pub op: OpId,
    /// Absorb schedule in visit order.
    pub absorbs: AbsorbSchedule,
    /// Next unabsorbed entry of `absorbs`.
    pub next_absorb: u16,
}

impl ActiveMsg {
    /// A unicast message over `path`.
    pub fn unicast(path: Arc<Path>, len: u32, gen: u64, tagged: bool) -> Self {
        let hops = path.len();
        ActiveMsg {
            path,
            len,
            gen,
            traversed: vec![0u32; hops].into_boxed_slice(),
            multicast: None,
            tagged,
            head: 0,
            next_waiter: NO_MSG,
            coast: NO_COAST,
        }
    }

    /// A multicast stream message.
    pub fn stream(
        path: Arc<Path>,
        len: u32,
        gen: u64,
        tagged: bool,
        op: OpId,
        absorbs: AbsorbSchedule,
    ) -> Self {
        ActiveMsg {
            multicast: Some(StreamState {
                op,
                absorbs,
                next_absorb: 0,
            }),
            ..ActiveMsg::unicast(path, len, gen, tagged)
        }
    }

    /// Buffer occupancy of hop `h` (flits that traversed `h` but not yet
    /// `h+1`).
    #[inline]
    pub fn occupancy(&self, h: usize) -> u32 {
        if h + 1 < self.path.len() {
            self.traversed[h] - self.traversed[h + 1]
        } else {
            0 // ejection buffer drains into the sink instantly
        }
    }

    /// Supply: is the next flit to cross hop `h` available upstream (at
    /// the source for hop 0, in hop `h − 1`'s buffer otherwise)?
    #[inline]
    pub(crate) fn has_supply(&self, h: usize) -> bool {
        if h == 0 {
            self.traversed[0] < self.len
        } else {
            self.traversed[h] < self.traversed[h - 1]
        }
    }

    /// Credit: does the buffer hop `h` feeds have room, at `buffer_depth`
    /// flits per buffer?
    #[inline]
    pub(crate) fn has_credit(&self, h: usize, buffer_depth: u32) -> bool {
        self.occupancy(h) < buffer_depth
    }

    /// Can the owner of hop `h` move a flit across it? A pure function of
    /// `traversed[h − 1 ..= h + 1]`, so the verdict only changes when one
    /// of those three counters does.
    #[inline]
    pub(crate) fn can_move(&self, h: usize, buffer_depth: u32) -> bool {
        self.has_supply(h) && self.has_credit(h, buffer_depth)
    }
}

/// A multicast operation: one generation event fanned out over up to `m`
/// port streams.
#[derive(Clone, Debug)]
pub struct MulticastOp {
    /// Source node of the operation.
    pub src: NodeId,
    /// Generation cycle.
    pub gen: u64,
    /// Destinations not yet absorbed (across all streams).
    pub remaining: u32,
    /// Cycle of the most recent absorption.
    pub last_absorb: u64,
    /// Whether the operation counts toward the statistics.
    pub tagged: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{NodeId, Quarc, Topology};

    #[test]
    fn a_cv_record_is_sixteen_bytes() {
        // One per cv: 458 752 of them at 65 536 nodes, where 4 bytes more
        // per record cost 1.75 MiB of peak RSS.
        assert_eq!(std::mem::size_of::<CvState>(), 16);
    }

    #[test]
    fn absorb_schedule_for_cross_left_stream() {
        let q = Quarc::new(16).unwrap();
        let streams = q.multicast_streams(NodeId(0), &[NodeId(8), NodeId(6), NodeId(5)]);
        let st = &streams[0];
        let net = q.network();
        let sched = absorb_schedule(&st.path, &st.targets, |c| net.downstream(c));
        // Path: inj(0), xl 0->8 (hop1), ccw 8->7 (hop2), ccw 7->6 (hop3),
        // ccw 6->5 (hop4), ej(5) (hop5).
        // Target 8 completes at hop 2, 6 at hop 4, 5 at hop 5 (ejection).
        assert_eq!(
            sched.as_ref(),
            &[(2, NodeId(8)), (4, NodeId(6)), (5, NodeId(5))]
        );
    }

    #[test]
    fn final_target_completes_at_ejection_hop() {
        let q = Quarc::new(16).unwrap();
        let streams = q.multicast_streams(NodeId(0), &[NodeId(2)]);
        let st = &streams[0];
        let net = q.network();
        let sched = absorb_schedule(&st.path, &st.targets, |c| net.downstream(c));
        let last = st.path.len() - 1;
        assert_eq!(sched.as_ref(), &[(last as u16, NodeId(2))]);
    }

    #[test]
    fn occupancy_and_completion() {
        let q = Quarc::new(16).unwrap();
        let path = Arc::new(q.unicast_path(NodeId(0), NodeId(2)));
        let mut m = ActiveMsg::unicast(path, 4, 10, true);
        m.traversed[0] = 3;
        m.traversed[1] = 1;
        assert_eq!(m.occupancy(0), 2);
        assert_eq!(m.occupancy(1), 1);
        // The ejection buffer drains into the sink as the tail completes.
        let last = m.path.len() - 1;
        m.traversed[last] = 4;
        assert_eq!(m.occupancy(last), 0);
    }

    #[test]
    #[should_panic(expected = "visit order")]
    fn absorb_schedule_rejects_off_path_targets() {
        let q = Quarc::new(16).unwrap();
        let streams = q.multicast_streams(NodeId(0), &[NodeId(2)]);
        let st = &streams[0];
        let net = q.network();
        // Node 9 is not on the clockwise stream to node 2.
        absorb_schedule(&st.path, &[NodeId(9)], |c| net.downstream(c));
    }
}
