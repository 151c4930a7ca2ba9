//! A simulated Hydra node: MAC + network stack + TCP + applications.

use hydra_app::{FileReceiver, FileSender, FloodSink, Flooder, UdpCbr, UdpSink};
use hydra_core::Mac;
use hydra_net::NetStack;
use hydra_sim::Instant;
use hydra_tcp::{SocketHandle, TcpStack};

/// The applications attached to one node. Concrete (not trait objects):
/// the paper's experiments use exactly these.
#[derive(Debug, Default)]
pub struct Apps {
    /// UDP CBR sources.
    pub udp_sources: Vec<UdpCbr>,
    /// UDP sink (any destination port).
    pub udp_sink: Option<UdpSink>,
    /// Broadcast flooder.
    pub flooder: Option<Flooder>,
    /// Flood beacon counter.
    pub flood_sink: FloodSink,
    /// TCP file senders with their sockets.
    pub file_tx: Vec<(FileSender, SocketHandle)>,
    /// TCP file receivers with their sockets.
    pub file_rx: Vec<(FileReceiver, SocketHandle)>,
}

/// One simulated node.
#[derive(Debug)]
pub struct Node {
    /// Node index.
    pub id: usize,
    /// The aggregation MAC.
    pub mac: Mac,
    /// IPv4 + static routing.
    pub net: NetStack,
    /// TCP sockets.
    pub tcp: TcpStack,
    /// Applications.
    pub apps: Apps,
    /// Next scheduled TCP wake (dedup).
    pub next_tcp_wake: Option<Instant>,
    /// Next scheduled app wake (dedup).
    pub next_app_wake: Option<Instant>,
    /// Receptions lost to collisions/half-duplex at this node.
    pub collisions_seen: u64,
    /// Frames dropped by the channel model before this receiver.
    pub channel_drops: u64,
}
