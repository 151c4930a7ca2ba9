//! Link-layer and network-layer addresses.

use core::fmt;
use core::str::FromStr;

use crate::error::WireError;

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A locally administered unicast address derived from a small node id.
    ///
    /// Node 0 → `02-00-00-00-00-00`, node 1 → `02-00-00-00-00-01`, ...
    /// (bit 1 of the first octet marks "locally administered", as the
    /// smoltcp examples do).
    pub const fn from_node_id(id: u16) -> MacAddr {
        MacAddr([0x02, 0x00, 0x00, 0x00, (id >> 8) as u8, id as u8])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", b[0], b[1], b[2], b[3], b[4], b[5])
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

/// An IPv4 address.
///
/// Defined locally (not `std::net::Ipv4Addr`) so the wire crate owns all
/// types appearing in its formats and can give them simulation-friendly
/// constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// The limited broadcast address 255.255.255.255.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr([0xFF; 4]);

    /// Creates an address from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// The experiment convention: node `n` lives at `10.0.0.n+1`.
    pub const fn from_node_id(id: u16) -> Self {
        Ipv4Addr([10, 0, (id >> 8) as u8, (id as u8).wrapping_add(1)])
    }

    /// Raw octets.
    pub const fn octets(&self) -> [u8; 4] {
        self.0
    }

    /// True for the limited broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

impl From<[u8; 4]> for Ipv4Addr {
    fn from(octets: [u8; 4]) -> Self {
        Ipv4Addr(octets)
    }
}

impl FromStr for Ipv4Addr {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, WireError> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for o in octets.iter_mut() {
            *o = parts.next().and_then(|p| p.parse().ok()).ok_or(WireError::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(WireError::Malformed);
        }
        Ok(Ipv4Addr(octets))
    }
}

/// A transport endpoint (address, port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// Port number.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub const fn new(addr: Ipv4Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_broadcast_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert_eq!(MacAddr::BROADCAST.octets()[0] & 0x01, 1, "the group bit is set");
    }

    #[test]
    fn mac_from_node_id_is_local_unicast() {
        let m = MacAddr::from_node_id(3);
        assert_eq!(m.octets()[0] & 0x01, 0, "unicast: the group bit is clear");
        assert!(!m.is_broadcast());
        assert_eq!(m.octets()[5], 3);
        assert_ne!(MacAddr::from_node_id(1), MacAddr::from_node_id(2));
    }

    #[test]
    fn mac_display() {
        assert_eq!(format!("{}", MacAddr::from_node_id(0x0102)), "02:00:00:00:01:02");
    }

    #[test]
    fn ipv4_from_node_id() {
        assert_eq!(Ipv4Addr::from_node_id(0), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(Ipv4Addr::from_node_id(2), Ipv4Addr::new(10, 0, 0, 3));
    }

    #[test]
    fn ipv4_parse_roundtrip() {
        let a: Ipv4Addr = "192.168.69.1".parse().unwrap();
        assert_eq!(a, Ipv4Addr::new(192, 168, 69, 1));
        assert_eq!(format!("{a}"), "192.168.69.1");
    }

    #[test]
    fn ipv4_parse_rejects_garbage() {
        assert!("1.2.3".parse::<Ipv4Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4Addr>().is_err());
        assert!("a.b.c.d".parse::<Ipv4Addr>().is_err());
        assert!("300.1.1.1".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 80);
        assert_eq!(format!("{e}"), "10.0.0.1:80");
    }
}
