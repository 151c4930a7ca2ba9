//! Per-node TCP stack: socket table, demultiplexing, segment emission.

use hydra_sim::Instant;
use hydra_wire::ipv4::{IpProtocol, Ipv4Repr};
use hydra_wire::tcp::{self, TcpRepr};
use hydra_wire::{Endpoint, Ipv4Addr};

use crate::config::TcpConfig;
use crate::conn::Connection;

/// Handle to a socket in a [`TcpStack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(usize);

/// A TCP segment ready for the network layer.
#[derive(Debug)]
pub struct OutboundSegment {
    /// Destination IP (the network layer routes it).
    pub dst: Ipv4Addr,
    /// Serialized TCP header + payload, checksum filled.
    pub bytes: Vec<u8>,
}

/// The TCP sockets of one node.
#[derive(Debug)]
pub struct TcpStack {
    addr: Ipv4Addr,
    sockets: Vec<Connection>,
}

impl TcpStack {
    /// Creates a stack for a host at `addr`.
    pub fn new(addr: Ipv4Addr) -> Self {
        TcpStack { addr, sockets: Vec::new() }
    }

    /// This host's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Opens an active connection.
    pub fn connect(&mut self, cfg: TcpConfig, local_port: u16, remote: Endpoint, iss: u32) -> SocketHandle {
        let local = Endpoint::new(self.addr, local_port);
        self.sockets.push(Connection::connect(cfg, local, remote, iss));
        SocketHandle(self.sockets.len() - 1)
    }

    /// Opens a passive listener on `port` (single-accept: the first SYN
    /// claims it, which is all the experiments need).
    pub fn listen(&mut self, cfg: TcpConfig, port: u16, iss: u32) -> SocketHandle {
        let local = Endpoint::new(self.addr, port);
        self.sockets.push(Connection::listen(cfg, local, iss));
        SocketHandle(self.sockets.len() - 1)
    }

    /// Access a socket.
    pub fn socket(&mut self, h: SocketHandle) -> &mut Connection {
        &mut self.sockets[h.0]
    }

    /// Read-only access.
    pub fn socket_ref(&self, h: SocketHandle) -> &Connection {
        &self.sockets[h.0]
    }

    /// Dispatches an incoming, already-validated segment.
    pub fn on_segment(&mut self, now: Instant, ip: &Ipv4Repr, repr: &TcpRepr, payload: &[u8]) {
        let from = Endpoint::new(ip.src, repr.src_port);
        // Exact 4-tuple match first.
        if let Some(c) = self.sockets.iter_mut().find(|c| {
            c.local().port == repr.dst_port
                && c.remote() == from
                && !matches!(c.state(), crate::TcpState::Listen)
        }) {
            c.on_segment(now, repr, payload);
            return;
        }
        // Listener on the port.
        if let Some(c) = self
            .sockets
            .iter_mut()
            .find(|c| c.local().port == repr.dst_port && matches!(c.state(), crate::TcpState::Listen))
        {
            c.set_remote_addr(ip.src);
            c.on_segment(now, repr, payload);
        }
        // Else: no socket — silently dropped (no RST generation needed in
        // the closed experiment networks).
    }

    /// Runs expired timers on all sockets.
    pub fn on_tick(&mut self, now: Instant) {
        for c in &mut self.sockets {
            c.on_tick(now);
        }
    }

    /// Earliest deadline across sockets.
    pub fn poll_timeout(&self) -> Option<Instant> {
        self.sockets.iter().filter_map(|c| c.poll_timeout()).min()
    }

    /// Collects every segment any socket wants to send.
    pub fn poll_transmit(&mut self, now: Instant) -> Vec<OutboundSegment> {
        let src = self.addr;
        let mut out = Vec::new();
        self.poll_transmit_with(now, |seg| {
            let ip =
                Ipv4Repr { src, dst: seg.dst, protocol: IpProtocol::Tcp, ttl: 64, payload_len: seg.len() };
            let mut bytes = Vec::with_capacity(seg.len());
            seg.append(&ip, &mut bytes);
            out.push(OutboundSegment { dst: seg.dst, bytes });
        });
        out
    }

    /// Hands `send` every segment any socket wants to send, socket by
    /// socket, each still lying in its socket's send buffer: the caller
    /// serialises it ([`PendingSegment::append`]) straight into whatever
    /// packet buffer it goes out in — no intermediate `Vec` per segment.
    pub fn poll_transmit_with(&mut self, now: Instant, mut send: impl FnMut(PendingSegment<'_>)) {
        for c in &mut self.sockets {
            while let Some((repr, range)) = c.next_segment(now) {
                send(PendingSegment { dst: c.remote().addr, repr, payload: c.tx_pieces(range) });
            }
        }
    }
}

/// A segment a socket has decided to send, its payload still in the
/// socket's send ring (one slice, or two where it straddles the seam).
#[derive(Debug)]
pub struct PendingSegment<'a> {
    /// Destination IP (the network layer routes it).
    pub dst: Ipv4Addr,
    repr: TcpRepr,
    payload: (&'a [u8], &'a [u8]),
}

impl PendingSegment<'_> {
    /// Serialised length: TCP header + payload.
    #[allow(clippy::len_without_is_empty)] // a segment always has its header
    pub fn len(&self) -> usize {
        tcp::HEADER_LEN + self.payload.0.len() + self.payload.1.len()
    }

    /// Appends header + payload to `out`, checksum (over `ip`'s
    /// pseudo-header) filled: each payload byte is copied once, out of
    /// the send ring into its place in the packet.
    pub fn append(&self, ip: &Ipv4Repr, out: &mut Vec<u8>) {
        let at = out.len();
        out.resize(at + tcp::HEADER_LEN, 0);
        out.extend_from_slice(self.payload.0);
        out.extend_from_slice(self.payload.1);
        self.repr.emit_header(ip, &mut out[at..]);
    }
}
