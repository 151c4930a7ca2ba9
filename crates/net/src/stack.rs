//! The per-node network stack: send, receive, forward.

use hydra_wire::encap::{EncapProto, EncapRepr, HEADER_LEN as ENCAP_LEN};
use hydra_wire::ipv4::{IpProtocol, Ipv4Packet, Ipv4Repr, HEADER_LEN as IPV4_LEN};
use hydra_wire::tcp::TcpRepr;
use hydra_wire::udp::UdpRepr;
use hydra_wire::{Ipv4Addr, MacAddr};

use crate::routing::{ArpTable, RouteTable};

/// Per-node network configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// This node's IPv4 address.
    pub addr: Ipv4Addr,
    /// This node's id (stamped into the encap shim).
    pub node_id: u16,
    /// TTL for locally originated packets.
    pub default_ttl: u8,
}

impl NetConfig {
    /// Standard config for node `id`.
    pub fn for_node(id: u16) -> Self {
        NetConfig { addr: Ipv4Addr::from_node_id(id), node_id: id, default_ttl: 64 }
    }
}

/// Counters for the network layer.
#[derive(Debug, Clone, Default)]
pub struct NetCounters {
    /// Packets originated locally.
    pub sent: u64,
    /// Packets delivered to local L4.
    pub delivered: u64,
    /// Packets forwarded toward another node.
    pub forwarded: u64,
    /// Packets dropped: no route to destination.
    pub no_route: u64,
    /// Packets dropped: TTL expired.
    pub ttl_expired: u64,
    /// Packets dropped: malformed (failed parsing/checksum).
    pub malformed: u64,
}

/// What to do with a frame handed up by the MAC.
///
/// Delivered payloads borrow from the frame that was handed up: the
/// caller only reads them (TCP copies what it accepts into its own
/// receive buffer), so local delivery copies nothing here.
#[derive(Debug)]
pub enum NetVerdict<'a> {
    /// A TCP segment for this host.
    DeliverTcp {
        /// Validated IP header.
        ip: Ipv4Repr,
        /// Parsed TCP header.
        tcp: TcpRepr,
        /// Segment payload.
        payload: &'a [u8],
    },
    /// A UDP datagram for this host.
    DeliverUdp {
        /// Validated IP header.
        ip: Ipv4Repr,
        /// Parsed UDP header.
        udp: UdpRepr,
        /// Datagram payload.
        payload: &'a [u8],
    },
    /// A raw link-local payload (flooding traffic).
    DeliverRaw {
        /// Originating node id from the shim.
        src_node: u16,
        /// Raw payload.
        payload: &'a [u8],
    },
    /// Forward toward the destination: re-enqueue at the MAC.
    Forward {
        /// Next-hop MAC address.
        next_hop: MacAddr,
        /// Rewrapped MPDU payload (TTL decremented).
        mpdu_payload: Vec<u8>,
    },
    /// Dropped; the counters say why.
    Drop,
}

/// The network stack for one node.
#[derive(Debug)]
pub struct NetStack {
    cfg: NetConfig,
    /// Static routes (public so topology builders can fill it).
    pub routes: RouteTable,
    /// Static ARP (public for topology builders).
    pub arp: ArpTable,
    /// Statistics.
    pub counters: NetCounters,
    next_packet_id: u32,
}

impl NetStack {
    /// Creates a stack.
    pub fn new(cfg: NetConfig, routes: RouteTable, arp: ArpTable) -> Self {
        NetStack { cfg, routes, arp, counters: NetCounters::default(), next_packet_id: 0 }
    }

    /// This node's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.cfg.addr
    }

    fn fresh_packet_id(&mut self) -> u32 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    fn encap(&mut self, dst_node: u16) -> EncapRepr {
        EncapRepr {
            proto: EncapProto::Ipv4,
            src_node: self.cfg.node_id,
            dst_node,
            packet_id: self.fresh_packet_id(),
        }
    }

    /// Wraps a locally generated L4 segment for transmission. Returns the
    /// next-hop MAC and the MPDU payload, or `None` if no route exists.
    pub fn send_l4(
        &mut self,
        protocol: IpProtocol,
        dst: Ipv4Addr,
        l4_bytes: &[u8],
    ) -> Option<(MacAddr, Vec<u8>)> {
        self.send_l4_with(protocol, dst, l4_bytes.len(), |_, out| out.extend_from_slice(l4_bytes))
    }

    /// [`NetStack::send_l4`] for a segment that does not exist yet: the
    /// MPDU buffer is sized once for shim + IPv4 header + `l4_len`, the
    /// two headers are written, and `write_l4` appends the `l4_len`-byte
    /// segment straight after them (it gets the IPv4 header for the
    /// pseudo-header checksum). A sender that builds its segment here
    /// allocates one buffer per packet and writes each byte once.
    /// `write_l4` is not called when there is no route.
    ///
    /// # Panics
    /// Panics if `write_l4` appends anything but exactly `l4_len` bytes.
    pub fn send_l4_with(
        &mut self,
        protocol: IpProtocol,
        dst: Ipv4Addr,
        l4_len: usize,
        write_l4: impl FnOnce(&Ipv4Repr, &mut Vec<u8>),
    ) -> Option<(MacAddr, Vec<u8>)> {
        let Some(next_hop_ip) = self.route_for(dst) else {
            self.counters.no_route += 1;
            return None;
        };
        let Some(next_hop) = self.arp.resolve(next_hop_ip) else {
            self.counters.no_route += 1;
            return None;
        };
        let ip =
            Ipv4Repr { src: self.cfg.addr, dst, protocol, ttl: self.cfg.default_ttl, payload_len: l4_len };
        let encap = self.encap(u16::MAX);
        let mut out = Vec::with_capacity(ENCAP_LEN + IPV4_LEN + l4_len);
        out.resize(ENCAP_LEN + IPV4_LEN, 0);
        encap.emit(&mut out[..ENCAP_LEN]);
        ip.emit_header(&mut out[ENCAP_LEN..]);
        write_l4(&ip, &mut out);
        assert_eq!(out.len(), ENCAP_LEN + IPV4_LEN + l4_len, "L4 writer broke its length promise");
        self.counters.sent += 1;
        Some((next_hop, out))
    }

    /// Wraps a raw link-local broadcast (flooding beacon).
    pub fn send_raw_broadcast(&mut self, payload: &[u8]) -> (MacAddr, Vec<u8>) {
        let encap = EncapRepr {
            proto: EncapProto::Raw,
            src_node: self.cfg.node_id,
            dst_node: u16::MAX,
            packet_id: self.fresh_packet_id(),
        };
        self.counters.sent += 1;
        (MacAddr::BROADCAST, encap.wrap(payload))
    }

    fn route_for(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        if dst == self.cfg.addr {
            return Some(dst);
        }
        self.routes.next_hop(dst)
    }

    /// Processes an MPDU payload handed up by the MAC.
    pub fn receive<'a>(&mut self, mpdu_payload: &'a [u8]) -> NetVerdict<'a> {
        let Ok((encap, inner)) = EncapRepr::parse(mpdu_payload) else {
            self.counters.malformed += 1;
            return NetVerdict::Drop;
        };
        match encap.proto {
            EncapProto::Raw => {
                self.counters.delivered += 1;
                NetVerdict::DeliverRaw { src_node: encap.src_node, payload: inner }
            }
            EncapProto::Ipv4 => self.receive_ipv4(encap, inner),
        }
    }

    fn receive_ipv4<'a>(&mut self, encap: EncapRepr, inner: &'a [u8]) -> NetVerdict<'a> {
        let Ok(pkt) = Ipv4Packet::new_checked(inner) else {
            self.counters.malformed += 1;
            return NetVerdict::Drop;
        };
        let Ok(ip) = Ipv4Repr::parse(&pkt) else {
            self.counters.malformed += 1;
            return NetVerdict::Drop;
        };
        if ip.dst == self.cfg.addr || ip.dst.is_broadcast() {
            // `pkt.payload()`, sliced off `inner` so it outlives the view.
            return self.deliver_local(ip, &inner[IPV4_LEN..ip.packet_len()]);
        }
        // Forwarding path.
        if ip.ttl <= 1 {
            self.counters.ttl_expired += 1;
            return NetVerdict::Drop;
        }
        let Some(next_hop_ip) = self.routes.next_hop(ip.dst) else {
            self.counters.no_route += 1;
            return NetVerdict::Drop;
        };
        let Some(next_hop) = self.arp.resolve(next_hop_ip) else {
            self.counters.no_route += 1;
            return NetVerdict::Drop;
        };
        // Rewrap with decremented TTL; the encap shim (and its packet id,
        // which the MAC dedup uses) is preserved across hops. The one
        // copy this hop makes of the packet; the TTL is patched in it.
        let mut out = encap.wrap(&inner[..ip.packet_len()]);
        Ipv4Packet::new_unchecked(&mut out[ENCAP_LEN..]).decrement_ttl();
        self.counters.forwarded += 1;
        NetVerdict::Forward { next_hop, mpdu_payload: out }
    }

    fn deliver_local<'a>(&mut self, ip: Ipv4Repr, l4: &'a [u8]) -> NetVerdict<'a> {
        match ip.protocol {
            IpProtocol::Tcp => match TcpRepr::parse(&ip, l4) {
                Ok((tcp, payload)) => {
                    self.counters.delivered += 1;
                    NetVerdict::DeliverTcp { ip, tcp, payload }
                }
                Err(_) => {
                    self.counters.malformed += 1;
                    NetVerdict::Drop
                }
            },
            IpProtocol::Udp => match UdpRepr::parse(&ip, l4) {
                Ok((udp, payload)) => {
                    self.counters.delivered += 1;
                    NetVerdict::DeliverUdp { ip, udp, payload }
                }
                Err(_) => {
                    self.counters.malformed += 1;
                    NetVerdict::Drop
                }
            },
            IpProtocol::Unknown(_) => {
                self.counters.malformed += 1;
                NetVerdict::Drop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_wire::tcp::TcpFlags;
    use hydra_wire::{build_udp_packet, tcp};

    /// Builds a 3-node line 0-1-2 and returns node 1 (the relay).
    fn relay() -> NetStack {
        let mut routes = RouteTable::new();
        routes.add(Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(0));
        routes.add(Ipv4Addr::from_node_id(2), Ipv4Addr::from_node_id(2));
        NetStack::new(NetConfig::for_node(1), routes, ArpTable::for_nodes(3))
    }

    fn endpoint_stack(id: u16, via: u16, n: u16) -> NetStack {
        let mut routes = RouteTable::new();
        for other in 0..n {
            if other != id {
                routes.add(Ipv4Addr::from_node_id(other), Ipv4Addr::from_node_id(via));
            }
        }
        NetStack::new(NetConfig::for_node(id), routes, ArpTable::for_nodes(n))
    }

    fn tcp_segment_bytes(src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let ip = Ipv4Repr {
            src,
            dst,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            payload_len: tcp::HEADER_LEN + payload.len(),
        };
        let repr = TcpRepr { src_port: 1, dst_port: 2, seq: 0, ack: 0, flags: TcpFlags::ACK, window: 100 };
        let mut buf = vec![0u8; tcp::HEADER_LEN + payload.len()];
        repr.emit(&ip, payload, &mut buf);
        buf
    }

    #[test]
    fn send_l4_picks_next_hop() {
        let mut s = endpoint_stack(0, 1, 3);
        let seg = tcp_segment_bytes(Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2), b"x");
        let (mac, mpdu) = s.send_l4(IpProtocol::Tcp, Ipv4Addr::from_node_id(2), &seg).unwrap();
        assert_eq!(mac, MacAddr::from_node_id(1), "2 is reached via 1");
        assert_eq!(mpdu.len(), ENCAP_LEN + IPV4_LEN + seg.len());
        assert_eq!(s.counters.sent, 1);
    }

    #[test]
    fn send_without_route_fails() {
        let mut s = relay();
        let seg = tcp_segment_bytes(Ipv4Addr::from_node_id(1), Ipv4Addr::from_node_id(9), b"x");
        assert!(s.send_l4(IpProtocol::Tcp, Ipv4Addr::from_node_id(9), &seg).is_none());
        assert_eq!(s.counters.no_route, 1);
    }

    #[test]
    fn relay_forwards_with_ttl_decrement() {
        let mut src = endpoint_stack(0, 1, 3);
        let mut rel = relay();
        let seg = tcp_segment_bytes(Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2), b"data");
        let (_, mpdu) = src.send_l4(IpProtocol::Tcp, Ipv4Addr::from_node_id(2), &seg).unwrap();
        match rel.receive(&mpdu) {
            NetVerdict::Forward { next_hop, mpdu_payload } => {
                assert_eq!(next_hop, MacAddr::from_node_id(2));
                // TTL went 64 -> 63 and the IP checksum still verifies.
                let (_, inner) = EncapRepr::parse(&mpdu_payload).unwrap();
                let pkt = Ipv4Packet::new_checked(inner).unwrap();
                assert_eq!(pkt.ttl(), 63);
                assert!(pkt.verify_checksum());
            }
            v => panic!("expected Forward, got {v:?}"),
        }
        assert_eq!(rel.counters.forwarded, 1);
    }

    #[test]
    fn forwarding_preserves_packet_id() {
        let mut src = endpoint_stack(0, 1, 3);
        let mut rel = relay();
        let seg = tcp_segment_bytes(Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2), b"d");
        let (_, mpdu) = src.send_l4(IpProtocol::Tcp, Ipv4Addr::from_node_id(2), &seg).unwrap();
        let (orig_encap, _) = EncapRepr::parse(&mpdu).unwrap();
        let NetVerdict::Forward { mpdu_payload, .. } = rel.receive(&mpdu) else { panic!() };
        let (fwd_encap, _) = EncapRepr::parse(&mpdu_payload).unwrap();
        assert_eq!(fwd_encap.packet_id, orig_encap.packet_id);
        assert_eq!(fwd_encap.src_node, orig_encap.src_node);
    }

    #[test]
    fn destination_delivers_tcp() {
        let mut src = endpoint_stack(0, 1, 3);
        let mut dst = endpoint_stack(2, 1, 3);
        let seg = tcp_segment_bytes(Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2), b"hello");
        let (_, mpdu) = src.send_l4(IpProtocol::Tcp, Ipv4Addr::from_node_id(2), &seg).unwrap();
        match dst.receive(&mpdu) {
            NetVerdict::DeliverTcp { ip, tcp, payload } => {
                assert_eq!(ip.src, Ipv4Addr::from_node_id(0));
                assert_eq!(tcp.src_port, 1);
                assert_eq!(payload, b"hello");
            }
            v => panic!("expected DeliverTcp, got {v:?}"),
        }
    }

    #[test]
    fn udp_delivery() {
        let mut dst = endpoint_stack(2, 1, 3);
        let mpdu = build_udp_packet(
            EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 2, packet_id: 5 },
            Ipv4Addr::from_node_id(0),
            Ipv4Addr::from_node_id(2),
            64,
            &UdpRepr { src_port: 7, dst_port: 8 },
            b"dgram",
        );
        match dst.receive(&mpdu) {
            NetVerdict::DeliverUdp { udp, payload, .. } => {
                assert_eq!(udp.dst_port, 8);
                assert_eq!(payload, b"dgram");
            }
            v => panic!("expected DeliverUdp, got {v:?}"),
        }
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut rel = relay();
        let seg = tcp_segment_bytes(Ipv4Addr::from_node_id(0), Ipv4Addr::from_node_id(2), b"x");
        let ip = Ipv4Repr {
            src: Ipv4Addr::from_node_id(0),
            dst: Ipv4Addr::from_node_id(2),
            protocol: IpProtocol::Tcp,
            ttl: 1,
            payload_len: seg.len(),
        };
        let encap = EncapRepr { proto: EncapProto::Ipv4, src_node: 0, dst_node: 2, packet_id: 0 };
        let mut mpdu = vec![0u8; ENCAP_LEN + IPV4_LEN + seg.len()];
        encap.emit(&mut mpdu[..ENCAP_LEN]);
        ip.emit(&mut mpdu[ENCAP_LEN..]);
        mpdu[ENCAP_LEN + IPV4_LEN..].copy_from_slice(&seg);
        assert!(matches!(rel.receive(&mpdu), NetVerdict::Drop));
        assert_eq!(rel.counters.ttl_expired, 1);
    }

    #[test]
    fn raw_broadcast_roundtrip() {
        let mut src = endpoint_stack(0, 1, 3);
        let (mac, mpdu) = src.send_raw_broadcast(b"FLOOD");
        assert_eq!(mac, MacAddr::BROADCAST);
        let mut dst = relay();
        match dst.receive(&mpdu) {
            NetVerdict::DeliverRaw { src_node, payload } => {
                assert_eq!(src_node, 0);
                assert_eq!(payload, b"FLOOD");
            }
            v => panic!("expected DeliverRaw, got {v:?}"),
        }
    }

    #[test]
    fn malformed_input_counted() {
        let mut s = relay();
        assert!(matches!(s.receive(&[0xFF; 30]), NetVerdict::Drop));
        assert!(matches!(s.receive(&[]), NetVerdict::Drop));
        assert_eq!(s.counters.malformed, 2);
    }
}
