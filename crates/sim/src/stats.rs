//! Small statistics helpers shared by all layers' counters.

/// Running mean/min/max of a stream of f64 samples (Welford's algorithm
/// for numerically stable mean and variance).
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_basics() {
        let mut r = Running::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 4);
        assert!((r.mean() - 2.5).abs() < 1e-12);
        assert!((r.variance() - 1.25).abs() < 1e-12);
        assert_eq!(r.min(), 1.0);
        assert_eq!(r.max(), 4.0);
        assert!((r.sum() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn running_empty_is_zeroes() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
    }

    #[test]
    fn running_single_sample() {
        let mut r = Running::new();
        r.push(7.0);
        assert_eq!(r.mean(), 7.0);
        assert_eq!(r.variance(), 0.0);
    }
}
