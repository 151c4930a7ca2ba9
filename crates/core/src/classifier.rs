//! The cross-layer frame classifier (paper §4.2.4).
//!
//! Decides which MAC queue an outgoing frame belongs in. This is the
//! layering violation at the heart of the paper: the MAC inspects IP and
//! TCP headers to recognize *pure TCP ACKs* (no payload, not part of
//! connection setup/teardown) and treats them as link-level broadcasts —
//! no RTS/CTS, no link ACK, eligible for prepending to any data frame.

use hydra_wire::{is_pure_tcp_ack, MacAddr};

use crate::queues::QueueKind;

/// Classification outcome for one outgoing MPDU payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Classification {
    /// Which queue the frame goes to.
    pub queue: QueueKind,
    /// Whether the subframe must carry the no-ACK flag (unicast address
    /// but broadcast service).
    pub no_ack: bool,
}

/// Counters for classifier decisions (reported in metrics).
#[derive(Debug, Clone, Default)]
pub struct ClassifierStats {
    /// Frames sent to the unicast queue.
    pub unicast: u64,
    /// True broadcast frames.
    pub broadcast: u64,
    /// Pure TCP ACKs rerouted to the broadcast queue.
    pub acks_classified: u64,
}

/// The classifier. Stateless except for counters.
#[derive(Debug, Default)]
pub struct Classifier {
    /// Statistics.
    pub stats: ClassifierStats,
}

impl Classifier {
    /// Creates a classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies an outgoing frame.
    ///
    /// * True broadcasts (`next_hop == MacAddr::BROADCAST`) always use the
    ///   broadcast queue.
    /// * If `ack_as_broadcast` is on and the payload is a pure TCP ACK,
    ///   it is placed in the broadcast queue with the no-ACK flag set but
    ///   keeps its unicast `next_hop` (receivers that are not addressed
    ///   decode and drop — paper §3.3).
    /// * Everything else is unicast.
    pub fn classify(&mut self, next_hop: MacAddr, payload: &[u8], ack_as_broadcast: bool) -> Classification {
        if next_hop.is_broadcast() {
            self.stats.broadcast += 1;
            return Classification { queue: QueueKind::Broadcast, no_ack: true };
        }
        if ack_as_broadcast && is_pure_tcp_ack(payload) {
            self.stats.acks_classified += 1;
            return Classification { queue: QueueKind::Broadcast, no_ack: true };
        }
        self.stats.unicast += 1;
        Classification { queue: QueueKind::Unicast, no_ack: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_wire::encap::{EncapProto, EncapRepr};
    use hydra_wire::tcp::{TcpFlags, TcpRepr};
    use hydra_wire::{build_tcp_packet, build_udp_packet, Ipv4Addr, UdpRepr};

    fn encap() -> EncapRepr {
        EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 2, packet_id: 1 }
    }

    fn pure_ack() -> Vec<u8> {
        let t = TcpRepr { src_port: 1, dst_port: 2, seq: 5, ack: 9, flags: TcpFlags::ACK, window: 1000 };
        build_tcp_packet(encap(), Ipv4Addr::new(10, 0, 0, 3), Ipv4Addr::new(10, 0, 0, 1), 64, &t, &[])
    }

    fn tcp_data() -> Vec<u8> {
        let t = TcpRepr { src_port: 1, dst_port: 2, seq: 5, ack: 9, flags: TcpFlags::ACK, window: 1000 };
        build_tcp_packet(encap(), Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 3), 64, &t, b"xyz")
    }

    #[test]
    fn pure_ack_classified_when_enabled() {
        let mut c = Classifier::new();
        let got = c.classify(MacAddr::from_node_id(1), &pure_ack(), true);
        assert_eq!(got.queue, QueueKind::Broadcast);
        assert!(got.no_ack);
        assert_eq!(c.stats.acks_classified, 1);
    }

    #[test]
    fn pure_ack_stays_unicast_when_disabled() {
        let mut c = Classifier::new();
        let got = c.classify(MacAddr::from_node_id(1), &pure_ack(), false);
        assert_eq!(got.queue, QueueKind::Unicast);
        assert!(!got.no_ack);
        assert!(is_pure_tcp_ack(&pure_ack()), "the unicast frame is a pure ACK");
        assert_eq!(c.stats.acks_classified, 0);
        assert_eq!(c.stats.unicast, 1);
    }

    #[test]
    fn data_is_unicast_even_when_enabled() {
        let mut c = Classifier::new();
        let got = c.classify(MacAddr::from_node_id(1), &tcp_data(), true);
        assert_eq!(got.queue, QueueKind::Unicast);
    }

    #[test]
    fn udp_is_unicast() {
        let mut c = Classifier::new();
        let payload = build_udp_packet(
            encap(),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            64,
            &UdpRepr { src_port: 1, dst_port: 2 },
            &[1, 2, 3],
        );
        assert_eq!(c.classify(MacAddr::from_node_id(1), &payload, true).queue, QueueKind::Unicast);
    }

    #[test]
    fn broadcast_address_always_broadcast_queue() {
        let mut c = Classifier::new();
        let got = c.classify(MacAddr::BROADCAST, b"beacon", false);
        assert_eq!(got.queue, QueueKind::Broadcast);
        assert!(got.no_ack);
        assert_eq!(c.stats.broadcast, 1);
    }
}
