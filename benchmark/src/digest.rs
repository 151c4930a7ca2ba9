//! `sim_digest`: one number that moves when any simulated statistic
//! moves, and only then.
//!
//! FNV-1a over each job's `(stable_hash, rep, completed,
//! throughput_bps bits, per-flow bytes and bps bits, report)` in job
//! order — the fields `RunOutcome`'s `PartialEq` covers, so wall-clock
//! telemetry (`RunPerf`) can never disturb it. It is how "a speed-only
//! change left every simulated result identical" is checked: between
//! passes, between the cached and the simulated path, between thread
//! counts, and between two commits.

use hydra_netsim::{RunError, RunOutcome};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(OFFSET)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds one little-endian word in.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Folds one job's simulated result in.
    pub fn job(&mut self, stable_hash: u64, rep: u64, result: &Result<RunOutcome, RunError>) {
        self.word(stable_hash);
        self.word(rep);
        match result {
            Ok(o) => {
                self.word(u64::from(o.completed));
                self.word(o.throughput_bps.to_bits());
                for f in &o.per_flow {
                    self.word(f.bytes);
                    self.word(f.bps.to_bits());
                }
                // The report's Debug rendering prints every f64 with
                // its shortest round-trip digits, so it is as exact as
                // the bits themselves.
                self.bytes(format!("{:?}", o.report).as_bytes());
            }
            Err(e) => self.bytes(e.reason().as_bytes()),
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Digests are printed and compared as fixed-width hex.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut d = Digest::default();
        assert_eq!(hex(d.value()), "cbf29ce484222325");
        d.bytes(b"a");
        assert_eq!(hex(d.value()), "af63dc4c8601ec8c");
        let mut d = Digest::default();
        d.bytes(b"foobar");
        assert_eq!(hex(d.value()), "85944171f73967e8");
    }

    #[test]
    fn job_digest_sees_order_rep_and_failure() {
        let failed: Result<RunOutcome, RunError> = Err(RunError::Panicked("x".into()));
        let mut a = Digest::default();
        a.job(1, 1, &failed);
        a.job(2, 1, &failed);
        let mut b = Digest::default();
        b.job(2, 1, &failed);
        b.job(1, 1, &failed);
        assert_ne!(a, b, "job order is part of the digest");
        let mut c = Digest::default();
        c.job(1, 2, &failed);
        let mut d = Digest::default();
        d.job(1, 1, &failed);
        assert_ne!(c, d, "the replication index is part of the digest");
        // The message of a failure is not (it may carry addresses); its kind is.
        let mut e = Digest::default();
        e.job(1, 1, &Err(RunError::Panicked("y".into())));
        assert_eq!(d, e);
    }
}
