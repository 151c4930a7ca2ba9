//! On-air frame representation and airtime accounting.

use std::sync::Arc;

use core::ops::Deref;

use hydra_sim::Duration;
use hydra_wire::aggregate::SubframeSlot;
use hydra_wire::control::{ControlFrame, MAX_CONTROL_LEN};
use hydra_wire::phy_hdr::PhyHeader;
use hydra_wire::Payload;

use crate::profile::PhyProfile;
use crate::rates::Rate;

/// Shared per-subframe slot metadata: built once at assembly, then
/// reference-counted through every receiver's copy of the frame (the
/// channel model reads slots but never rewrites them). The assembler's
/// `Vec` is adopted as it is — `Arc<[_]>` would copy it into a second
/// allocation.
pub type SharedSlots = Arc<Vec<SubframeSlot>>;

/// A control frame's on-air bytes, held inline (at most
/// [`MAX_CONTROL_LEN`] of them — no heap block per RTS / CTS / ACK), plus
/// the frame itself for as long as the bytes are exactly what the sender
/// serialised.
///
/// While they are, [`OnAirControl::typed`] hands the receiver the frame
/// without a parse or a CRC pass: the FCS was computed over these very
/// bytes when they were built. The only way to change the bytes is
/// [`OnAirControl::damage`], which gives the typed form up for good — a
/// damaged copy has to get past [`ControlFrame::parse`] like any bytes
/// off a real radio, and fails its CRC there.
///
/// Packed, so that the 8-aligned `ControlFrame` beside 23 bytes does not
/// round the value up to 48 bytes and [`OnAirFrame`] past its size; the
/// fields are only ever copied in and out whole.
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(Rust, packed)]
pub struct OnAirControl {
    bytes: [u8; MAX_CONTROL_LEN],
    len: u8,
    typed: Option<ControlFrame>,
}

impl OnAirControl {
    /// Serialises `frame` (FCS included, computed once).
    pub fn new(frame: &ControlFrame) -> Self {
        let mut bytes = [0u8; MAX_CONTROL_LEN];
        let len = frame.emit(&mut bytes) as u8;
        OnAirControl { bytes, len, typed: Some(*frame) }
    }

    /// Wraps raw bytes of unknown provenance: never trusted, whatever
    /// they hold.
    ///
    /// # Panics
    /// Panics if `bytes` is longer than [`MAX_CONTROL_LEN`].
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= MAX_CONTROL_LEN, "{} bytes is no control frame", bytes.len());
        let mut buf = [0u8; MAX_CONTROL_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        OnAirControl { bytes: buf, len: bytes.len() as u8, typed: None }
    }

    /// The frame the sender built, while the bytes are still exactly the
    /// ones it serialised; `None` for damaged copies and raw bytes.
    pub fn typed(&self) -> Option<ControlFrame> {
        self.typed
    }

    /// The bytes, for the channel model to flip bits in; the copy is
    /// untyped from here on.
    pub fn damage(&mut self) -> &mut [u8] {
        self.typed = None;
        &mut self.bytes[..self.len as usize]
    }
}

impl Deref for OnAirControl {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl core::fmt::Debug for OnAirControl {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?}", &**self)
    }
}

/// A frame as it exists on the air.
///
/// Cloning is cheap: control frames are a small inline value, and an
/// aggregate's PSDU bytes and slot metadata are reference-counted
/// ([`Payload`] / [`SharedSlots`]), so fanning one transmission out to N
/// receivers bumps two counters per receiver instead of copying the
/// whole frame N times. The channel model only materialises a private
/// copy when it actually corrupts bytes (copy-on-corrupt, see
/// [`crate::channel::apply_channel`]).
#[derive(Debug, Clone)]
pub enum OnAirFrame {
    /// A standalone control frame (RTS/CTS/ACK) at the base rate.
    Control(OnAirControl),
    /// An aggregated data frame: dual-rate PHY header + PSDU.
    Aggregate {
        /// The dual-rate PHY header (paper Figure 2).
        phy_hdr: PhyHeader,
        /// The PSDU: broadcast subframes followed by unicast subframes.
        psdu: Payload,
        /// Byte-range metadata for each subframe (for the channel model
        /// and MAC accounting).
        slots: SharedSlots,
    },
}

// Control frames ride inline so they cost no heap block; that must not
// make every frame in flight, in a `MacOutput` or in the event loop's
// slab any bigger than the aggregate variant already made it.
const _: () = assert!(core::mem::size_of::<OnAirFrame>() <= 48);

impl OnAirFrame {
    /// A control frame from raw bytes (tests, bytes of unknown
    /// provenance): receivers always parse and CRC-check them.
    ///
    /// # Panics
    /// Panics if `bytes` is longer than any control frame.
    pub fn control(bytes: impl AsRef<[u8]>) -> Self {
        OnAirFrame::Control(OnAirControl::from_bytes(bytes.as_ref()))
    }

    /// The control frame `frame`, serialised once; receivers of an
    /// undamaged copy get it back typed.
    pub fn control_frame(frame: &ControlFrame) -> Self {
        OnAirFrame::Control(OnAirControl::new(frame))
    }

    /// An aggregate from freshly assembled parts.
    pub fn aggregate(phy_hdr: PhyHeader, psdu: impl Into<Payload>, slots: Vec<SubframeSlot>) -> Self {
        OnAirFrame::Aggregate { phy_hdr, psdu: psdu.into(), slots: Arc::new(slots) }
    }

    /// The broadcast-portion rate (base rate for control frames).
    pub fn bcast_rate(&self, profile: &PhyProfile) -> Rate {
        match self {
            OnAirFrame::Control(_) => profile.base_rate,
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                Rate::from_code(phy_hdr.bcast_rate).unwrap_or(profile.base_rate)
            }
        }
    }

    /// The unicast-portion rate (base rate for control frames).
    pub fn ucast_rate(&self, profile: &PhyProfile) -> Rate {
        match self {
            OnAirFrame::Control(_) => profile.base_rate,
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                Rate::from_code(phy_hdr.ucast_rate).unwrap_or(profile.base_rate)
            }
        }
    }

    /// Total PSDU/body bytes on the air (excluding preamble & PHY header).
    pub fn body_bytes(&self) -> usize {
        match self {
            OnAirFrame::Control(b) => b.len(),
            OnAirFrame::Aggregate { psdu, .. } => psdu.len(),
        }
    }

    /// Full airtime breakdown.
    pub fn airtime(&self, profile: &PhyProfile) -> Airtime {
        match self {
            OnAirFrame::Control(bytes) => Airtime {
                preamble: profile.preamble,
                phy_header: Duration::ZERO,
                bcast: Duration::ZERO,
                ucast: profile.time_for(bytes.len(), profile.base_rate),
            },
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                let br = Rate::from_code(phy_hdr.bcast_rate).unwrap_or(profile.base_rate);
                let ur = Rate::from_code(phy_hdr.ucast_rate).unwrap_or(profile.base_rate);
                Airtime {
                    preamble: profile.preamble,
                    phy_header: profile.phy_header_time(),
                    bcast: profile.time_for(phy_hdr.bcast_len as usize, br),
                    ucast: profile.time_for(phy_hdr.ucast_len as usize, ur),
                }
            }
        }
    }

    /// Total on-air samples of the PSDU (excluding preamble), the unit of
    /// the coherence budget.
    pub fn psdu_samples(&self, profile: &PhyProfile) -> u64 {
        match self {
            OnAirFrame::Control(b) => profile.samples_for(b.len(), profile.base_rate),
            OnAirFrame::Aggregate { phy_hdr, .. } => {
                let br = Rate::from_code(phy_hdr.bcast_rate).unwrap_or(profile.base_rate);
                let ur = Rate::from_code(phy_hdr.ucast_rate).unwrap_or(profile.base_rate);
                profile.samples_for(profile.phy_header_bytes, profile.base_rate)
                    + profile.samples_for(phy_hdr.bcast_len as usize, br)
                    + profile.samples_for(phy_hdr.ucast_len as usize, ur)
            }
        }
    }
}

/// Airtime of one frame, broken down for overhead accounting (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Airtime {
    /// Training sequences.
    pub preamble: Duration,
    /// The (dual-rate) PHY header at base rate.
    pub phy_header: Duration,
    /// Broadcast portion payload time.
    pub bcast: Duration,
    /// Unicast portion payload time.
    pub ucast: Duration,
}

impl Airtime {
    /// Total frame airtime.
    pub fn total(&self) -> Duration {
        self.preamble + self.phy_header + self.bcast + self.ucast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_wire::phy_hdr::RateCode;

    fn profile() -> PhyProfile {
        PhyProfile::hydra()
    }

    fn control_samples() -> [ControlFrame; 4] {
        let mut rng = hydra_sim::Rng::seed_from_u64(0xC7A1);
        let mut mac = || {
            let b = rng.next_u64().to_be_bytes();
            hydra_wire::MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]])
        };
        let (ra, ta) = (mac(), mac());
        let duration_us = rng.next_u64() as u16;
        [
            ControlFrame::Rts { duration_us, ra, ta },
            ControlFrame::Cts { duration_us, ra },
            ControlFrame::Ack { duration_us, ra },
            ControlFrame::BlockAck { duration_us, ra, bitmap: rng.next_u64() },
        ]
    }

    #[test]
    fn built_control_frames_arrive_typed_and_raw_bytes_never_do() {
        for f in control_samples() {
            let built = OnAirControl::new(&f);
            assert_eq!(&built[..], &f.to_bytes()[..], "same bytes on the air");
            assert_eq!(built.typed(), Some(f));
            // The same bytes with no provenance: parse them yourself.
            let raw = OnAirControl::from_bytes(&built);
            assert_eq!(raw.typed(), None);
            assert_eq!(ControlFrame::parse(&raw), Ok(f));
            let OnAirFrame::Control(c) = OnAirFrame::control(f.to_bytes()) else { panic!() };
            assert_eq!(c.typed(), None);
            let OnAirFrame::Control(c) = OnAirFrame::control_frame(&f) else { panic!() };
            assert_eq!(c.typed(), Some(f));
        }
    }

    #[test]
    fn a_damaged_control_frame_is_never_typed() {
        // Every byte position of every variant, every bit; and merely
        // asking for mutable access already gives the typed form up.
        for f in control_samples() {
            for pos in 0..f.on_air_len() {
                for bit in 0..8 {
                    let mut c = OnAirControl::new(&f);
                    c.damage()[pos] ^= 1 << bit;
                    assert_eq!(c.typed(), None, "{f:?} byte {pos} bit {bit}");
                    assert!(ControlFrame::parse(&c).is_err(), "{f:?} byte {pos} bit {bit}");
                }
            }
            let mut c = OnAirControl::new(&f);
            let _ = c.damage();
            assert_eq!(c.typed(), None);
            assert_eq!(ControlFrame::parse(&c), Ok(f), "untouched bytes still parse");
        }
    }

    #[test]
    #[should_panic(expected = "no control frame")]
    fn oversized_raw_control_bytes_are_refused() {
        let _ = OnAirFrame::control(vec![0; MAX_CONTROL_LEN + 1]);
    }

    #[test]
    fn control_airtime() {
        let f = OnAirFrame::control(vec![0; 20]); // RTS
        let a = f.airtime(&profile());
        assert_eq!(a.preamble, Duration::from_micros(170));
        assert_eq!(a.phy_header, Duration::ZERO);
        // 160 bits at 0.65 Mbps ≈ 246 µs.
        assert!((a.ucast.as_micros() as i64 - 246).abs() <= 1);
    }

    #[test]
    fn aggregate_airtime_uses_both_rates() {
        // 480 B broadcast at 0.65, 4392 B unicast at 2.6.
        let phy_hdr = PhyHeader {
            bcast_rate: Rate::R0_65.code(),
            ucast_rate: Rate::R2_60.code(),
            bcast_len: 480,
            ucast_len: 4392,
        };
        let f = OnAirFrame::aggregate(phy_hdr, vec![0; 4872], vec![]);
        let a = f.airtime(&profile());
        // 480*8/0.65e6 ≈ 5908 µs; 4392*8/2.6e6 ≈ 13514 µs.
        assert!((a.bcast.as_micros() as i64 - 5907).abs() <= 2, "{:?}", a.bcast);
        assert!((a.ucast.as_micros() as i64 - 13513).abs() <= 2, "{:?}", a.ucast);
        assert!(a.total() > a.bcast + a.ucast);
    }

    #[test]
    fn unknown_rate_code_falls_back_to_base() {
        let phy_hdr =
            PhyHeader { bcast_rate: RateCode(99), ucast_rate: RateCode(99), bcast_len: 0, ucast_len: 650 };
        let f = OnAirFrame::aggregate(phy_hdr, vec![0; 650], vec![]);
        assert_eq!(f.ucast_rate(&profile()), Rate::R0_65);
        // 650 B = 5200 bits at 0.65 = 8 ms.
        assert_eq!(f.airtime(&profile()).ucast, Duration::from_millis(8));
    }

    #[test]
    fn psdu_samples_includes_header_and_portions() {
        let p = profile();
        let phy_hdr = PhyHeader {
            bcast_rate: Rate::R1_30.code(),
            ucast_rate: Rate::R1_30.code(),
            bcast_len: 160,
            ucast_len: 1464,
        };
        let f = OnAirFrame::aggregate(phy_hdr, vec![0; 1624], vec![]);
        let expect = p.samples_for(8, Rate::R0_65)
            + p.samples_for(160, Rate::R1_30)
            + p.samples_for(1464, Rate::R1_30);
        assert_eq!(f.psdu_samples(&p), expect);
    }
}
