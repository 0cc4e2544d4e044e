//! Channel descriptors.
//!
//! A *channel* is the unit of resource allocation in a wormhole-routed
//! network and the unit of queueing in the analytical model: the network is
//! "viewed as a network of queues, where each channel is modeled as an
//! M/G/1 queue" (paper, §2.1).

use crate::ids::{ChannelId, NodeId, PortId};
use serde::{Deserialize, Serialize};

/// The role a channel plays in the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelKind {
    /// Internal link from the local node (its transceiver / passive queue)
    /// into the router, one per port in a multi-port architecture.
    Injection,
    /// External link between two neighbouring routers.
    Link,
    /// Internal link from the router to the local sink, one per input
    /// direction in a multi-port architecture.
    Ejection,
}

/// A directed channel of the network.
///
/// For `Injection` and `Ejection` channels, `from == to == node`. For `Link`
/// channels, `from` is the upstream router and `to` the downstream router.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Channel {
    /// Dense identifier; equals the channel's index in the network table.
    pub id: ChannelId,
    /// Role of the channel.
    pub kind: ChannelKind,
    /// Source endpoint.
    pub from: NodeId,
    /// Destination endpoint.
    pub to: NodeId,
    /// Port (direction class) the channel belongs to. For a link, the output
    /// port of `from` it is wired to; for injection/ejection channels, the
    /// router port they serve.
    pub port: PortId,
    /// Number of virtual channels multiplexed on this physical channel.
    pub vcs: u8,
    /// Whether this link is the *dateline* of the ring it belongs to.
    ///
    /// Messages whose path traverses a dateline link switch from virtual
    /// channel 0 to virtual channel 1 at the dateline, breaking the cyclic
    /// channel dependency of ring topologies (deadlock avoidance).
    pub dateline: bool,
    /// Human-readable label, e.g. `"cw 3->4"`, used by the renderers.
    pub label: String,
}

impl Channel {
    /// Construct a link channel.
    pub fn link(
        id: ChannelId,
        from: NodeId,
        to: NodeId,
        port: PortId,
        vcs: u8,
        dateline: bool,
        label: impl Into<String>,
    ) -> Self {
        Channel {
            id,
            kind: ChannelKind::Link,
            from,
            to,
            port,
            vcs,
            dateline,
            label: label.into(),
        }
    }

    /// Construct an injection channel at `node` for `port`.
    pub fn injection(id: ChannelId, node: NodeId, port: PortId, label: impl Into<String>) -> Self {
        Channel {
            id,
            kind: ChannelKind::Injection,
            from: node,
            to: node,
            port,
            vcs: 1,
            dateline: false,
            label: label.into(),
        }
    }

    /// Construct an ejection channel at `node` for input direction `port`.
    pub fn ejection(id: ChannelId, node: NodeId, port: PortId, label: impl Into<String>) -> Self {
        Channel {
            id,
            kind: ChannelKind::Ejection,
            from: node,
            to: node,
            port,
            vcs: 1,
            dateline: false,
            label: label.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kinds() {
        let inj = Channel::injection(ChannelId(0), NodeId(3), PortId(1), "inj");
        assert_eq!(inj.kind, ChannelKind::Injection);
        assert_eq!(inj.from, inj.to);

        let link = Channel::link(
            ChannelId(1),
            NodeId(3),
            NodeId(4),
            PortId(0),
            2,
            false,
            "cw 3->4",
        );
        assert_eq!(link.kind, ChannelKind::Link);
        assert_eq!((link.from, link.to), (NodeId(3), NodeId(4)));
        assert_eq!(link.vcs, 2);

        let ej = Channel::ejection(ChannelId(2), NodeId(4), PortId(0), "ej");
        assert_eq!(ej.kind, ChannelKind::Ejection);
        assert_eq!((ej.from, ej.to), (NodeId(4), NodeId(4)));
    }

    #[test]
    fn dateline_flag_is_preserved() {
        let link = Channel::link(
            ChannelId(7),
            NodeId(15),
            NodeId(0),
            PortId(0),
            2,
            true,
            "cw 15->0",
        );
        assert!(link.dateline);
    }
}
