//! The MAC's dual transmit queues (paper §4.2.3).
//!
//! One queue for broadcast-classified frames (true broadcasts plus pure
//! TCP ACKs under BA), one for unicast frames. The assembler drains the
//! broadcast queue first, then gathers unicast frames for the head
//! destination — exactly the paper's transmit process.

use hydra_sim::Instant;
use hydra_wire::{MacAddr, Payload};

/// One frame waiting at the MAC.
#[derive(Debug, Clone)]
pub struct QueuedMpdu {
    /// Next-hop (receiver) MAC address; `MacAddr::BROADCAST` for true
    /// broadcasts.
    pub next_hop: MacAddr,
    /// Original source address (addr3).
    pub src: MacAddr,
    /// MPDU payload bytes (`shim | IP | L4` or `shim | raw`), shared
    /// with every other holder of the same packet.
    pub payload: Payload,
    /// True if this unicast-addressed frame must not be link-ACKed
    /// (broadcast-classified TCP ACK).
    pub no_ack: bool,
    /// When the frame entered the queue.
    pub enqueued_at: Instant,
}

/// Where an enqueued frame was placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// The broadcast queue.
    Broadcast,
    /// The unicast queue.
    Unicast,
}

/// Dual FIFO queues with drop-tail overflow.
#[derive(Debug)]
pub struct TxQueues {
    bcast: std::collections::VecDeque<QueuedMpdu>,
    ucast: std::collections::VecDeque<QueuedMpdu>,
    capacity: usize,
    /// Frames dropped due to a full queue (reported in metrics; the
    /// paper's §6.4.5 observes UA queue overflow in the star topology).
    pub overflow_drops: u64,
}

impl TxQueues {
    /// Creates queues with the given per-queue capacity.
    pub fn new(capacity: usize) -> Self {
        TxQueues {
            bcast: std::collections::VecDeque::new(),
            ucast: std::collections::VecDeque::new(),
            capacity,
            overflow_drops: 0,
        }
    }

    /// Enqueues a frame; returns the queue used, or `None` on overflow.
    pub fn push(&mut self, frame: QueuedMpdu, kind: QueueKind) -> Option<QueueKind> {
        let q = match kind {
            QueueKind::Broadcast => &mut self.bcast,
            QueueKind::Unicast => &mut self.ucast,
        };
        if q.len() >= self.capacity {
            self.overflow_drops += 1;
            return None;
        }
        q.push_back(frame);
        Some(kind)
    }

    /// Frames waiting in the broadcast queue.
    pub fn bcast_len(&self) -> usize {
        self.bcast.len()
    }

    /// Frames waiting in the unicast queue.
    pub fn ucast_len(&self) -> usize {
        self.ucast.len()
    }

    /// Total frames waiting.
    pub fn total_len(&self) -> usize {
        self.bcast.len() + self.ucast.len()
    }

    /// True if both queues are empty.
    pub fn is_empty(&self) -> bool {
        self.total_len() == 0
    }

    /// Peeks the head of the broadcast queue.
    pub fn peek_bcast(&self) -> Option<&QueuedMpdu> {
        self.bcast.front()
    }

    /// Pops the head of the broadcast queue.
    pub fn pop_bcast(&mut self) -> Option<QueuedMpdu> {
        self.bcast.pop_front()
    }

    /// The destination of the head unicast frame, if any.
    pub fn head_unicast_dest(&self) -> Option<MacAddr> {
        self.ucast.front().map(|f| f.next_hop)
    }

    /// Removes and returns the first queued unicast frame addressed to
    /// `dest` (the paper's gather step scans for same-destination frames,
    /// preserving relative order of the rest).
    pub fn take_unicast_for(&mut self, dest: MacAddr) -> Option<QueuedMpdu> {
        let idx = self.ucast.iter().position(|f| f.next_hop == dest)?;
        self.ucast.remove(idx)
    }

    /// Puts unicast frames back at the *front*, preserving their order
    /// (used when an assembled burst must be returned, e.g. on reset).
    pub fn unshift_unicast<I>(&mut self, frames: I)
    where
        I: IntoIterator<Item = QueuedMpdu>,
        I::IntoIter: DoubleEndedIterator,
    {
        for f in frames.into_iter().rev() {
            self.ucast.push_front(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(dst: u16) -> QueuedMpdu {
        QueuedMpdu {
            next_hop: MacAddr::from_node_id(dst),
            src: MacAddr::from_node_id(0),
            payload: vec![0; 10].into(),
            no_ack: false,
            enqueued_at: Instant::ZERO,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = TxQueues::new(10);
        for d in [1, 2, 1] {
            q.push(frame(d), QueueKind::Unicast);
        }
        assert_eq!(q.head_unicast_dest(), Some(MacAddr::from_node_id(1)));
        assert_eq!(q.take_unicast_for(MacAddr::from_node_id(1)).unwrap().next_hop, MacAddr::from_node_id(1));
        // Next matching 1 is the third frame; frame to 2 stays put.
        assert!(q.take_unicast_for(MacAddr::from_node_id(1)).is_some());
        assert_eq!(q.head_unicast_dest(), Some(MacAddr::from_node_id(2)));
    }

    #[test]
    fn overflow_drops_and_counts() {
        let mut q = TxQueues::new(2);
        assert!(q.push(frame(1), QueueKind::Unicast).is_some());
        assert!(q.push(frame(1), QueueKind::Unicast).is_some());
        assert!(q.push(frame(1), QueueKind::Unicast).is_none());
        assert_eq!(q.overflow_drops, 1);
        assert_eq!(q.ucast_len(), 2);
        // Broadcast queue has independent capacity.
        assert!(q.push(frame(1), QueueKind::Broadcast).is_some());
    }

    #[test]
    fn take_for_missing_dest_is_none() {
        let mut q = TxQueues::new(4);
        q.push(frame(1), QueueKind::Unicast);
        assert!(q.take_unicast_for(MacAddr::from_node_id(9)).is_none());
        assert_eq!(q.ucast_len(), 1);
    }

    #[test]
    fn unshift_preserves_order() {
        let mut q = TxQueues::new(10);
        q.push(frame(5), QueueKind::Unicast);
        let burst = vec![frame(1), frame(2)];
        q.unshift_unicast(burst);
        assert_eq!(q.head_unicast_dest(), Some(MacAddr::from_node_id(1)));
        q.take_unicast_for(MacAddr::from_node_id(1));
        assert_eq!(q.head_unicast_dest(), Some(MacAddr::from_node_id(2)));
    }

    #[test]
    fn lengths() {
        let mut q = TxQueues::new(10);
        assert!(q.is_empty());
        q.push(frame(1), QueueKind::Broadcast);
        q.push(frame(1), QueueKind::Unicast);
        assert_eq!(q.bcast_len(), 1);
        assert_eq!(q.ucast_len(), 1);
        assert_eq!(q.total_len(), 2);
        assert!(q.peek_bcast().is_some());
        assert!(q.pop_bcast().is_some());
        assert_eq!(q.total_len(), 1);
    }
}
