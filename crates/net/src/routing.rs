//! Static routing and address resolution.

use std::collections::HashMap;

use hydra_wire::{Ipv4Addr, MacAddr};

/// A static route table: destination host → next-hop host.
///
/// Host routes only — the experiment networks are a handful of nodes, and
/// Click on the testbed was configured the same way.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: HashMap<Ipv4Addr, Ipv4Addr>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a host route.
    pub fn add(&mut self, dst: Ipv4Addr, next_hop: Ipv4Addr) {
        self.routes.insert(dst, next_hop);
    }

    /// Looks up the next hop toward `dst`.
    pub fn next_hop(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.routes.get(&dst).copied()
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes are configured.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// Static IP ↔ MAC resolution (the simulation convention ties both to the
/// node id, so no ARP traffic is needed — matching the testbed's static
/// configuration).
///
/// The id-convention block (`10.0.x.y` ↔ `02:00:00:00:..`) is resolved
/// *by computation*, not by table: [`ArpTable::for_nodes`] is O(1) and
/// carries no per-node storage. The old map-backed form cost O(n) inserts
/// per node — O(n²) per world — which dominated world construction in the
/// thousand-node scaling sweeps.
#[derive(Debug, Clone)]
pub struct ArpTable {
    /// Nodes `0..conventional` resolve by the id convention.
    conventional: u16,
}

impl ArpTable {
    /// The standard table for nodes `0..n` using the id conventions.
    pub fn for_nodes(n: u16) -> Self {
        ArpTable { conventional: n }
    }

    /// Resolves an IP to a MAC address.
    pub fn resolve(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        if ip.is_broadcast() {
            return Some(MacAddr::BROADCAST);
        }
        // Invert the convention: `10.0.hi.lo` → id `hi << 8 | (lo - 1)`.
        // The round-trip comparison rejects every address the forward
        // mapping cannot produce (wrong prefix, `lo == 0` wraparound).
        let o = ip.octets();
        let id = ((o[2] as u16) << 8) | o[3].wrapping_sub(1) as u16;
        if id < self.conventional && Ipv4Addr::from_node_id(id) == ip {
            return Some(MacAddr::from_node_id(id));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_lookup() {
        let mut r = RouteTable::new();
        assert!(r.is_empty());
        r.add(Ipv4Addr::from_node_id(2), Ipv4Addr::from_node_id(1));
        assert_eq!(r.next_hop(Ipv4Addr::from_node_id(2)), Some(Ipv4Addr::from_node_id(1)));
        assert_eq!(r.next_hop(Ipv4Addr::from_node_id(5)), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn route_replace() {
        let mut r = RouteTable::new();
        r.add(Ipv4Addr::from_node_id(2), Ipv4Addr::from_node_id(1));
        r.add(Ipv4Addr::from_node_id(2), Ipv4Addr::from_node_id(3));
        assert_eq!(r.next_hop(Ipv4Addr::from_node_id(2)), Some(Ipv4Addr::from_node_id(3)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn route_many_unordered_inserts() {
        let mut r = RouteTable::new();
        for id in [9u16, 3, 7, 1, 5, 300, 258] {
            r.add(Ipv4Addr::from_node_id(id), Ipv4Addr::from_node_id(id + 1));
        }
        for id in [9u16, 3, 7, 1, 5, 300, 258] {
            assert_eq!(r.next_hop(Ipv4Addr::from_node_id(id)), Some(Ipv4Addr::from_node_id(id + 1)));
        }
        assert_eq!(r.next_hop(Ipv4Addr::from_node_id(2)), None);
    }

    #[test]
    fn arp_for_nodes() {
        let t = ArpTable::for_nodes(3);
        assert_eq!(t.resolve(Ipv4Addr::from_node_id(0)), Some(MacAddr::from_node_id(0)));
        assert_eq!(t.resolve(Ipv4Addr::from_node_id(2)), Some(MacAddr::from_node_id(2)));
        assert_eq!(t.resolve(Ipv4Addr::from_node_id(9)), None);
    }

    #[test]
    fn arp_for_nodes_matches_convention_exhaustively() {
        // The computed inverse must agree with the forward mapping for
        // every id, including the octet-boundary wraparound (id 255 maps
        // to 10.0.0.0, id 256 to 10.0.1.1).
        let n = 1500u16;
        let t = ArpTable::for_nodes(n);
        for id in 0..n {
            assert_eq!(t.resolve(Ipv4Addr::from_node_id(id)), Some(MacAddr::from_node_id(id)), "id {id}");
        }
        assert_eq!(t.resolve(Ipv4Addr::from_node_id(n)), None);
        assert_eq!(t.resolve(Ipv4Addr::new(192, 168, 0, 1)), None);
        assert_eq!(t.resolve(Ipv4Addr::new(10, 1, 0, 1)), None);
    }

    #[test]
    fn arp_broadcast() {
        let t = ArpTable::for_nodes(0);
        assert_eq!(t.resolve(Ipv4Addr::BROADCAST), Some(MacAddr::BROADCAST));
    }
}
