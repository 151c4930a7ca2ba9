//! The TCP connection state machine.
//!
//! A deterministic, sans-IO TCP sufficient to reproduce the paper's
//! one-way file transfers and any loss patterns the MAC below produces:
//!
//! * three-way handshake and FIN teardown (full state diagram);
//! * cumulative ACKs — the property the paper exploits by broadcasting
//!   them without link-level recovery;
//! * sliding window bounded by peer window and congestion window;
//! * NewReno congestion control: slow start, congestion avoidance, fast
//!   retransmit on 3 dup-ACKs, fast recovery with partial-ACK handling;
//! * RFC 6298 RTO with Karn's rule and exponential backoff;
//! * out-of-order reassembly on the receive side;
//! * optional delayed ACKs (off in the paper's experiments).
//!
//! Drive it with [`Connection::on_segment`] / [`Connection::on_tick`] and
//! drain [`Connection::poll_transmit`]; schedule the next tick at
//! [`Connection::poll_timeout`].

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use hydra_sim::{Duration, Instant};
use hydra_wire::tcp::{TcpFlags, TcpRepr};
use hydra_wire::Endpoint;

use crate::config::TcpConfig;
use crate::seq;

/// Connection state (RFC 793 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open: waiting for a SYN.
    Listen,
    /// Active open: SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent.
    FinWait1,
    /// Our FIN is acknowledged.
    FinWait2,
    /// Peer closed first.
    CloseWait,
    /// Both closed; waiting for our FIN's ACK.
    LastAck,
    /// Simultaneous close.
    Closing,
    /// Draining duplicates before release.
    TimeWait,
    /// Fully closed (or aborted).
    Closed,
}

/// Transfer statistics.
#[derive(Debug, Clone, Default)]
pub struct ConnStats {
    /// Payload bytes handed to `send`.
    pub bytes_buffered: u64,
    /// Payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Payload bytes delivered to the application.
    pub bytes_received: u64,
    /// Segments emitted (all kinds).
    pub segments_sent: u64,
    /// Pure ACKs emitted.
    pub pure_acks_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast-retransmit events.
    pub fast_retransmits: u64,
    /// RTO events.
    pub timeouts: u64,
    /// Duplicate ACKs received.
    pub dup_acks_received: u64,
}

/// A run of send-buffer bytes as the ring holds it: one piece, or two
/// when the run straddles the ring's seam (the second is empty otherwise).
type Pieces<'a> = (&'a [u8], &'a [u8]);

/// One TCP connection.
#[derive(Debug)]
pub struct Connection {
    cfg: TcpConfig,
    state: TcpState,
    local: Endpoint,
    remote: Endpoint,

    // ---- send state ----
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    /// Bytes from `snd_una` onward (unacked + unsent).
    tx_buf: VecDeque<u8>,
    app_closed: bool,
    fin_sent: bool,
    syn_acked: bool,
    /// Emit (re)transmission of SYN / SYN-ACK on next poll.
    need_syn_tx: bool,

    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,
    in_fast_recovery: bool,
    recover: u32,
    /// A retransmission from `snd_una` is due on next poll.
    pending_retransmit: bool,

    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    rtt_probe: Option<(u32, Instant)>,
    rtx_deadline: Option<Instant>,
    rtx_count: u32,

    // ---- receive state ----
    rcv_nxt: u32,
    ooo: BTreeMap<u32, Vec<u8>>,
    /// In-order bytes the application has yet to take. Always drained
    /// whole, so it is handed over as it is, not copied out.
    rx_buf: Vec<u8>,
    ack_needed: bool,
    delayed_ack_deadline: Option<Instant>,
    fin_received: bool,
    time_wait_deadline: Option<Instant>,

    /// Statistics.
    pub stats: ConnStats,
}

impl Connection {
    /// Active open: emits a SYN on first poll.
    pub fn connect(cfg: TcpConfig, local: Endpoint, remote: Endpoint, iss: u32) -> Self {
        let mut c = Self::raw(cfg, local, remote, iss);
        c.state = TcpState::SynSent;
        c.need_syn_tx = true;
        c
    }

    /// Passive open on `local`; the remote is learned from the SYN.
    pub fn listen(cfg: TcpConfig, local: Endpoint, iss: u32) -> Self {
        let mut c = Self::raw(cfg, local, Endpoint::default(), iss);
        c.state = TcpState::Listen;
        c
    }

    fn raw(cfg: TcpConfig, local: Endpoint, remote: Endpoint, iss: u32) -> Self {
        let cwnd = cfg.initial_cwnd_segments * cfg.mss as u32;
        let ssthresh = cfg.initial_ssthresh;
        let rto = cfg.rto_initial;
        Connection {
            cfg,
            state: TcpState::Closed,
            local,
            remote,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            tx_buf: VecDeque::new(),
            app_closed: false,
            fin_sent: false,
            syn_acked: false,
            need_syn_tx: false,
            cwnd,
            ssthresh,
            dup_acks: 0,
            in_fast_recovery: false,
            recover: iss,
            pending_retransmit: false,
            srtt: None,
            rttvar: Duration::ZERO,
            rto,
            rtt_probe: None,
            rtx_deadline: None,
            rtx_count: 0,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            rx_buf: Vec::new(),
            ack_needed: false,
            delayed_ack_deadline: None,
            fin_received: false,
            time_wait_deadline: None,
            stats: ConnStats::default(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Local endpoint.
    pub fn local(&self) -> Endpoint {
        self.local
    }

    /// Remote endpoint (default until a listener receives its SYN).
    pub fn remote(&self) -> Endpoint {
        self.remote
    }

    /// True once the handshake completed.
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::CloseWait
        )
    }

    /// True when fully closed.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Free space in the send buffer.
    pub fn send_capacity(&self) -> usize {
        self.cfg.send_buffer.saturating_sub(self.tx_buf.len())
    }

    /// Unacknowledged + unsent bytes.
    pub fn bytes_outstanding(&self) -> usize {
        self.tx_buf.len()
    }

    /// Current congestion window (bytes), for instrumentation.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current retransmission timeout, for instrumentation.
    pub fn rto(&self) -> Duration {
        self.rto
    }

    fn recv_window(&self) -> u16 {
        self.cfg.recv_buffer.saturating_sub(self.rx_buf.len()).min(u16::MAX as usize) as u16
    }

    fn flight_size(&self) -> u32 {
        seq::sub(self.snd_nxt, self.snd_una)
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Buffers application data; returns bytes accepted.
    pub fn send(&mut self, data: &[u8]) -> usize {
        if self.app_closed || matches!(self.state, TcpState::Closed | TcpState::TimeWait | TcpState::LastAck)
        {
            return 0;
        }
        let n = data.len().min(self.send_capacity());
        self.tx_buf.extend(&data[..n]);
        self.stats.bytes_buffered += n as u64;
        n
    }

    /// Drains everything the receive side has reassembled in order.
    pub fn recv_drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.rx_buf)
    }

    /// Closes the send direction (FIN after buffered data drains).
    pub fn close(&mut self) {
        self.app_closed = true;
        if self.state == TcpState::Listen || self.state == TcpState::SynSent {
            self.state = TcpState::Closed;
        }
    }

    /// Hard abort.
    pub fn abort(&mut self) {
        self.state = TcpState::Closed;
    }

    /// True once the peer's FIN was received and all data delivered.
    pub fn peer_closed(&self) -> bool {
        self.fin_received && self.ooo.is_empty()
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// The earliest instant at which `on_tick` should run.
    pub fn poll_timeout(&self) -> Option<Instant> {
        let mut t: Option<Instant> = None;
        let mut consider = |d: Option<Instant>| {
            if let Some(d) = d {
                t = Some(t.map_or(d, |cur| cur.min(d)));
            }
        };
        consider(self.rtx_deadline);
        consider(self.delayed_ack_deadline);
        consider(self.time_wait_deadline);
        t
    }

    /// Processes any expired deadlines. Idempotent; safe to call early.
    pub fn on_tick(&mut self, now: Instant) {
        if let Some(d) = self.time_wait_deadline {
            if now >= d {
                self.time_wait_deadline = None;
                self.state = TcpState::Closed;
            }
        }
        if let Some(d) = self.delayed_ack_deadline {
            if now >= d {
                self.delayed_ack_deadline = None;
                self.ack_needed = true;
            }
        }
        if let Some(d) = self.rtx_deadline {
            if now >= d {
                self.rtx_deadline = None;
                self.on_rto(now);
            }
        }
    }

    fn on_rto(&mut self, now: Instant) {
        let has_unacked = self.flight_size() > 0
            || matches!(self.state, TcpState::SynSent | TcpState::SynReceived)
            || (self.fin_sent && !self.fin_acked());
        if !has_unacked {
            return;
        }
        self.stats.timeouts += 1;
        self.rtx_count += 1;
        if self.rtx_count > self.cfg.max_retransmits {
            self.state = TcpState::Closed;
            return;
        }
        // Karn: invalidate the RTT probe; back off the timer.
        self.rtt_probe = None;
        self.rto = (self.rto * 2).min(self.cfg.rto_max);
        match self.state {
            TcpState::SynSent | TcpState::SynReceived => {
                self.need_syn_tx = true;
            }
            _ => {
                // Classic loss response: collapse to one segment.
                let flight = self.flight_size().max(self.cfg.mss as u32);
                self.ssthresh = (flight / 2).max(2 * self.cfg.mss as u32);
                self.cwnd = self.cfg.mss as u32;
                self.in_fast_recovery = false;
                self.dup_acks = 0;
                self.pending_retransmit = true;
            }
        }
        self.arm_rtx(now);
    }

    fn arm_rtx(&mut self, now: Instant) {
        self.rtx_deadline = Some(now + self.rto);
    }

    fn fin_acked(&self) -> bool {
        // FIN occupies the last sequence number; acked when snd_una passed it.
        self.fin_sent && seq::ge(self.snd_una, self.snd_nxt)
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Produces the next segment to send, if any. Call repeatedly until
    /// `None`.
    pub fn poll_transmit(&mut self, now: Instant) -> Option<(TcpRepr, Vec<u8>)> {
        let (repr, range) = self.next_segment(now)?;
        let (head, tail) = self.tx_pieces(range);
        Some((repr, [head, tail].concat()))
    }

    /// `tx_buf[range]` lent as its two ring pieces (clamped to the
    /// buffer): the bytes stay in the send buffer.
    pub(crate) fn tx_pieces(&self, range: Range<usize>) -> Pieces<'_> {
        let (head, tail) = self.tx_buf.as_slices();
        let end = range.end.min(self.tx_buf.len());
        let start = range.start.min(end);
        let seam = head.len();
        (&head[start.min(seam)..end.min(seam)], &tail[start.saturating_sub(seam)..end.saturating_sub(seam)])
    }

    /// Decides the next segment: its header and which bytes of `tx_buf`
    /// it carries (an empty range for SYN / FIN / pure ACK).
    pub(crate) fn next_segment(&mut self, now: Instant) -> Option<(TcpRepr, Range<usize>)> {
        match self.state {
            TcpState::Closed | TcpState::Listen | TcpState::TimeWait => {
                // TimeWait may still need to ACK a retransmitted FIN.
                if self.state == TcpState::TimeWait && self.ack_needed {
                    return Some(self.emit_pure_ack());
                }
                None
            }
            TcpState::SynSent => {
                if self.need_syn_tx {
                    self.need_syn_tx = false;
                    self.arm_rtx(now);
                    if self.rtt_probe.is_none() {
                        self.rtt_probe = Some((seq::add(self.iss, 1), now));
                    }
                    self.stats.segments_sent += 1;
                    return Some((self.make_repr(self.iss, TcpFlags::SYN), 0..0));
                }
                None
            }
            TcpState::SynReceived => {
                if self.need_syn_tx {
                    self.need_syn_tx = false;
                    self.arm_rtx(now);
                    self.stats.segments_sent += 1;
                    return Some((self.make_repr(self.iss, TcpFlags::SYN.union(TcpFlags::ACK)), 0..0));
                }
                None
            }
            _ => self.poll_transmit_established(now),
        }
    }

    fn poll_transmit_established(&mut self, now: Instant) -> Option<(TcpRepr, Range<usize>)> {
        // 1. Retransmission from snd_una.
        if self.pending_retransmit {
            self.pending_retransmit = false;
            let flight_data = self.flight_data_len();
            if flight_data > 0 {
                let len = flight_data.min(self.cfg.mss);
                self.stats.retransmits += 1;
                self.stats.segments_sent += 1;
                self.rtt_probe = None; // Karn
                self.arm_rtx(now);
                let mut repr = self.make_repr(self.snd_una, TcpFlags::ACK);
                if self.all_data_would_be_sent(self.snd_una, len) {
                    repr.flags = repr.flags.union(TcpFlags::PSH);
                }
                self.clear_ack_state();
                return Some((repr, 0..len));
            } else if self.fin_sent && !self.fin_acked() {
                // Retransmit the FIN.
                self.stats.retransmits += 1;
                self.stats.segments_sent += 1;
                self.arm_rtx(now);
                let repr = self.make_repr(seq::add(self.snd_nxt, usize::MAX), TcpFlags::ACK);
                // snd_nxt already includes the FIN; its seq is snd_nxt - 1.
                let fin_seq = self.snd_nxt.wrapping_sub(1);
                let mut repr = TcpRepr { seq: fin_seq, ..repr };
                repr.flags = TcpFlags::FIN.union(TcpFlags::ACK);
                self.clear_ack_state();
                return Some((repr, 0..0));
            }
        }

        // 2. New data within the windows.
        if matches!(self.state, TcpState::Established | TcpState::CloseWait) && !self.fin_sent {
            let unsent = self.unsent_len();
            if unsent > 0 {
                let window = self.cwnd.min(self.snd_wnd.max(self.cfg.mss as u32));
                let in_flight = self.flight_size();
                let room = window.saturating_sub(in_flight) as usize;
                if room > 0 {
                    let len = unsent.min(self.cfg.mss).min(room);
                    if len > 0 {
                        let off = seq::sub(self.snd_nxt, self.snd_una) as usize;
                        let seq_no = self.snd_nxt;
                        self.snd_nxt = seq::add(self.snd_nxt, len);
                        if self.rtt_probe.is_none() {
                            self.rtt_probe = Some((self.snd_nxt, now));
                        }
                        if self.rtx_deadline.is_none() {
                            self.arm_rtx(now);
                        }
                        self.stats.segments_sent += 1;
                        let mut repr = self.make_repr(seq_no, TcpFlags::ACK);
                        if len == unsent {
                            repr.flags = repr.flags.union(TcpFlags::PSH);
                        }
                        self.clear_ack_state();
                        return Some((repr, off..off + len));
                    }
                }
            }
        }

        // 3. FIN once all data is out.
        if self.app_closed
            && !self.fin_sent
            && self.unsent_len() == 0
            && matches!(self.state, TcpState::Established | TcpState::CloseWait)
        {
            self.fin_sent = true;
            let fin_seq = self.snd_nxt;
            self.snd_nxt = seq::add(self.snd_nxt, 1);
            self.state = match self.state {
                TcpState::Established => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                s => s,
            };
            self.arm_rtx(now);
            self.stats.segments_sent += 1;
            let repr = TcpRepr {
                seq: fin_seq,
                flags: TcpFlags::FIN.union(TcpFlags::ACK),
                ..self.make_repr(fin_seq, TcpFlags::ACK)
            };
            self.clear_ack_state();
            return Some((repr, 0..0));
        }

        // 4. Pure ACK.
        if self.ack_needed {
            return Some(self.emit_pure_ack());
        }
        None
    }

    fn emit_pure_ack(&mut self) -> (TcpRepr, Range<usize>) {
        self.clear_ack_state();
        self.stats.segments_sent += 1;
        self.stats.pure_acks_sent += 1;
        (self.make_repr(self.snd_nxt, TcpFlags::ACK), 0..0)
    }

    fn clear_ack_state(&mut self) {
        self.ack_needed = false;
        self.delayed_ack_deadline = None;
    }

    fn make_repr(&self, seq_no: u32, flags: TcpFlags) -> TcpRepr {
        TcpRepr {
            src_port: self.local.port,
            dst_port: self.remote.port,
            seq: seq_no,
            ack: if flags.contains(TcpFlags::ACK) { self.rcv_nxt } else { 0 },
            flags,
            window: self.recv_window(),
        }
    }

    /// Bytes in `tx_buf` already transmitted but unacked (excludes FIN).
    fn flight_data_len(&self) -> usize {
        let flight = self.flight_size() as usize;
        let fin = usize::from(self.fin_sent);
        flight.saturating_sub(fin).min(self.tx_buf.len())
    }

    fn unsent_len(&self) -> usize {
        self.tx_buf.len().saturating_sub(self.flight_data_len())
    }

    fn all_data_would_be_sent(&self, seq_no: u32, len: usize) -> bool {
        seq::add(seq_no, len) == seq::add(self.snd_una, self.tx_buf.len())
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Processes an incoming segment.
    pub fn on_segment(&mut self, now: Instant, repr: &TcpRepr, payload: &[u8]) {
        if repr.flags.contains(TcpFlags::RST) {
            if self.state != TcpState::Listen {
                self.state = TcpState::Closed;
            }
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::Listen => self.on_listen(now, repr),
            TcpState::SynSent => self.on_syn_sent(now, repr),
            _ => self.on_synchronized(now, repr, payload),
        }
    }

    fn on_listen(&mut self, _now: Instant, repr: &TcpRepr) {
        if repr.flags.contains(TcpFlags::SYN) {
            self.remote = Endpoint { addr: self.remote.addr, port: repr.src_port };
            self.rcv_nxt = seq::add(repr.seq, 1);
            self.snd_wnd = repr.window as u32;
            self.state = TcpState::SynReceived;
            self.need_syn_tx = true;
        }
    }

    /// Lets the stack patch the peer address into a listener when the SYN
    /// arrives (the port comes from the segment, the address from IP).
    pub fn set_remote_addr(&mut self, addr: hydra_wire::Ipv4Addr) {
        self.remote.addr = addr;
    }

    fn on_syn_sent(&mut self, now: Instant, repr: &TcpRepr) {
        if repr.flags.contains(TcpFlags::SYN) && repr.flags.contains(TcpFlags::ACK) {
            if repr.ack != seq::add(self.iss, 1) {
                return; // bogus
            }
            self.rcv_nxt = seq::add(repr.seq, 1);
            self.snd_una = repr.ack;
            self.snd_nxt = repr.ack;
            self.snd_wnd = repr.window as u32;
            self.syn_acked = true;
            self.state = TcpState::Established;
            self.rtx_deadline = None;
            self.rtx_count = 0;
            self.take_rtt_sample(now, repr.ack);
            self.ack_needed = true; // completes the handshake
        } else if repr.flags.contains(TcpFlags::SYN) {
            // Simultaneous open (not used by the experiments but handled).
            self.rcv_nxt = seq::add(repr.seq, 1);
            self.state = TcpState::SynReceived;
            self.need_syn_tx = true;
        }
    }

    fn on_synchronized(&mut self, now: Instant, repr: &TcpRepr, payload: &[u8]) {
        if self.state == TcpState::SynReceived {
            if repr.flags.contains(TcpFlags::SYN) {
                // Duplicate SYN: re-send SYN-ACK.
                self.need_syn_tx = true;
                return;
            }
            if repr.flags.contains(TcpFlags::ACK) && repr.ack == seq::add(self.iss, 1) {
                self.snd_una = repr.ack;
                self.snd_nxt = seq::max(self.snd_nxt, repr.ack);
                self.snd_wnd = repr.window as u32;
                self.syn_acked = true;
                self.state = TcpState::Established;
                self.rtx_deadline = None;
                self.rtx_count = 0;
                // fall through to process any piggybacked data
            } else {
                return;
            }
        }

        if repr.flags.contains(TcpFlags::ACK) {
            self.handle_ack(now, repr);
        }
        if !payload.is_empty() {
            self.handle_data(now, repr.seq, payload);
        }
        if repr.flags.contains(TcpFlags::FIN) {
            self.handle_fin(now, repr, payload.len());
        }
    }

    fn handle_ack(&mut self, now: Instant, repr: &TcpRepr) {
        let ack = repr.ack;
        self.snd_wnd = repr.window as u32;
        if seq::gt(ack, self.snd_nxt) {
            return; // acks data we never sent
        }
        if seq::gt(ack, self.snd_una) {
            let acked = seq::sub(ack, self.snd_una) as usize;
            // Pop acked bytes (the FIN sequence slot is not in tx_buf).
            let data_acked = acked.min(self.tx_buf.len());
            self.tx_buf.drain(..data_acked);
            self.stats.bytes_acked += data_acked as u64;
            self.snd_una = ack;
            self.rtx_count = 0;
            self.take_rtt_sample(now, ack);

            if self.in_fast_recovery {
                if seq::ge(ack, self.recover) {
                    // Full ACK: leave recovery.
                    self.in_fast_recovery = false;
                    self.cwnd = self.ssthresh;
                    self.dup_acks = 0;
                } else {
                    // NewReno partial ACK: retransmit next hole, deflate.
                    self.pending_retransmit = true;
                    self.cwnd = self
                        .cwnd
                        .saturating_sub(acked as u32)
                        .saturating_add(self.cfg.mss as u32)
                        .max(self.cfg.mss as u32);
                }
            } else {
                self.dup_acks = 0;
                // Congestion window growth.
                let mss = self.cfg.mss as u32;
                if self.cwnd < self.ssthresh {
                    self.cwnd = self.cwnd.saturating_add(mss);
                } else {
                    self.cwnd = self
                        .cwnd
                        .saturating_add(((mss as u64 * mss as u64) / self.cwnd.max(1) as u64).max(1) as u32);
                }
            }

            // Retransmission timer: restart if data remains, clear if not.
            if self.flight_size() > 0 || (self.fin_sent && !self.fin_acked()) {
                self.arm_rtx(now);
            } else {
                self.rtx_deadline = None;
            }

            // FIN-driven transitions.
            if self.fin_acked() {
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => self.enter_time_wait(now),
                    TcpState::LastAck => self.state = TcpState::Closed,
                    _ => {}
                }
            }
        } else if ack == self.snd_una && self.flight_size() > 0 && repr.flags == TcpFlags::ACK {
            // Duplicate ACK.
            self.stats.dup_acks_received += 1;
            self.dup_acks += 1;
            let mss = self.cfg.mss as u32;
            if self.in_fast_recovery {
                self.cwnd = self.cwnd.saturating_add(mss); // inflation
            } else if self.dup_acks == 3 {
                self.stats.fast_retransmits += 1;
                let flight = self.flight_size();
                self.ssthresh = (flight / 2).max(2 * mss);
                self.cwnd = self.ssthresh + 3 * mss;
                self.recover = self.snd_nxt;
                self.in_fast_recovery = true;
                self.pending_retransmit = true;
            }
        }
    }

    fn take_rtt_sample(&mut self, now: Instant, ack: u32) {
        let Some((probe_seq, sent_at)) = self.rtt_probe else { return };
        if seq::ge(ack, probe_seq) {
            self.rtt_probe = None;
            let sample = now.saturating_duration_since(sent_at);
            match self.srtt {
                None => {
                    self.srtt = Some(sample);
                    self.rttvar = sample / 2;
                }
                Some(srtt) => {
                    // RFC 6298: alpha = 1/8, beta = 1/4 via integer math.
                    let delta = if sample > srtt { sample - srtt } else { srtt - sample };
                    self.rttvar = (self.rttvar * 3 + delta) / 4;
                    self.srtt = Some((srtt * 7 + sample) / 8);
                }
            }
            let srtt = self.srtt.unwrap();
            self.rto = (srtt + (self.rttvar * 4).max(Duration::from_millis(10)))
                .max(self.cfg.rto_min)
                .min(self.cfg.rto_max);
        }
    }

    fn handle_data(&mut self, _now: Instant, seq_no: u32, payload: &[u8]) {
        // Trim anything before rcv_nxt.
        let (seq_no, data): (u32, &[u8]) = if seq::lt(seq_no, self.rcv_nxt) {
            let skip = seq::sub(self.rcv_nxt, seq_no) as usize;
            if skip >= payload.len() {
                // Entirely old: pure duplicate, re-ACK immediately.
                self.ack_needed = true;
                return;
            }
            (self.rcv_nxt, &payload[skip..])
        } else {
            (seq_no, payload)
        };

        if seq_no == self.rcv_nxt {
            // Enforce the advertised window: accept at most what fits in
            // the receive buffer; the tail will be retransmitted once the
            // application drains (the sender probes a closed window with
            // one MSS at a time).
            let room = self.cfg.recv_buffer.saturating_sub(self.rx_buf.len());
            if room == 0 {
                self.ack_needed = true; // re-advertise the zero window
                return;
            }
            let take = data.len().min(room);
            self.accept_in_order(&data[..take]);
            // Pull contiguous out-of-order segments in.
            while let Some((&s, _)) = self.ooo.first_key_value() {
                if seq::gt(s, self.rcv_nxt) {
                    break;
                }
                let (s, d) = self.ooo.pop_first().unwrap();
                if seq::ge(self.rcv_nxt, seq::add(s, d.len())) {
                    continue; // fully duplicate
                }
                let skip = seq::sub(self.rcv_nxt, s) as usize;
                self.accept_in_order(&d[skip..]);
            }
            // ACK policy: immediate unless delayed ACKs are on.
            if self.cfg.delayed_ack && self.delayed_ack_deadline.is_none() && !self.ack_needed {
                self.delayed_ack_deadline = Some(_now + self.cfg.delayed_ack_timeout);
            } else {
                self.ack_needed = true;
            }
        } else {
            // Out of order: buffer (bounded by the window) and send an
            // immediate duplicate ACK.
            let buffered: usize = self.ooo.values().map(|v| v.len()).sum();
            if buffered + data.len() <= self.cfg.recv_buffer {
                self.ooo.entry(seq_no).or_insert_with(|| data.to_vec());
            }
            self.ack_needed = true;
        }
    }

    fn accept_in_order(&mut self, data: &[u8]) {
        self.rcv_nxt = seq::add(self.rcv_nxt, data.len());
        self.stats.bytes_received += data.len() as u64;
        self.rx_buf.extend_from_slice(data);
    }

    fn handle_fin(&mut self, now: Instant, repr: &TcpRepr, payload_len: usize) {
        let fin_seq = seq::add(repr.seq, payload_len);
        if fin_seq != self.rcv_nxt {
            // FIN beyond a hole: ignore until data arrives (dup ACK sent
            // already by handle_data). A retransmitted FIN is re-ACKed.
            if seq::lt(fin_seq, self.rcv_nxt) {
                self.ack_needed = true;
            }
            return;
        }
        self.rcv_nxt = seq::add(self.rcv_nxt, 1);
        self.fin_received = true;
        self.ack_needed = true;
        match self.state {
            TcpState::Established => self.state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                if self.fin_acked() {
                    self.enter_time_wait(now);
                } else {
                    self.state = TcpState::Closing;
                }
            }
            TcpState::FinWait2 => self.enter_time_wait(now),
            _ => {}
        }
    }

    fn enter_time_wait(&mut self, now: Instant) {
        self.state = TcpState::TimeWait;
        self.rtx_deadline = None;
        self.time_wait_deadline = Some(now + self.cfg.time_wait);
    }
}
