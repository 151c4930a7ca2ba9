//! Small statistics helpers shared by all layers' counters.

use crate::time::Duration;

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

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
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

/// Accumulates spans of virtual time by category.
///
/// Used by the MAC to attribute airtime to payload / headers / control /
/// IFS / backoff, feeding the paper's Table 4.
#[derive(Debug, Clone, Default)]
pub struct TimeLedger {
    categories: Vec<(&'static str, Duration)>,
}

impl TimeLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `d` to `category`, creating it on first use.
    pub fn add(&mut self, category: &'static str, d: Duration) {
        // Callers pass a handful of `&'static str` constants, several
        // times per MAC event: the same constant is almost always the same
        // pointer and length, which one compare settles. Equal text at a
        // different address (the constant duplicated across codegen
        // units) still lands in the same row through the `==` pass.
        let found = self
            .categories
            .iter()
            .position(|(name, _)| core::ptr::eq(*name, category))
            .or_else(|| self.categories.iter().position(|(name, _)| *name == category));
        match found {
            Some(at) => self.categories[at].1 += d,
            None => self.categories.push((category, d)),
        }
    }

    /// Total for one category (zero if absent).
    pub fn get(&self, category: &str) -> Duration {
        self.categories.iter().find(|(n, _)| *n == category).map(|(_, d)| *d).unwrap_or(Duration::ZERO)
    }

    /// Sum over all categories.
    pub fn total(&self) -> Duration {
        self.categories.iter().fold(Duration::ZERO, |acc, (_, d)| acc + *d)
    }

    /// Sum over all categories except `excluded`.
    pub fn total_except(&self, excluded: &str) -> Duration {
        self.categories.iter().filter(|(n, _)| *n != excluded).fold(Duration::ZERO, |acc, (_, d)| acc + *d)
    }

    /// Iterates `(category, total)` pairs in first-use order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Duration)> + '_ {
        self.categories.iter().copied()
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &TimeLedger) {
        for (name, d) in other.iter() {
            self.add(name, d);
        }
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
        assert_eq!(r.stddev(), 0.0);
    }

    #[test]
    fn ledger_accumulates_by_category() {
        let mut l = TimeLedger::new();
        l.add("payload", Duration::from_micros(10));
        l.add("header", Duration::from_micros(5));
        l.add("payload", Duration::from_micros(10));
        assert_eq!(l.get("payload"), Duration::from_micros(20));
        assert_eq!(l.get("header"), Duration::from_micros(5));
        assert_eq!(l.get("missing"), Duration::ZERO);
        assert_eq!(l.total(), Duration::from_micros(25));
        assert_eq!(l.total_except("payload"), Duration::from_micros(5));
    }

    #[test]
    fn ledger_matches_by_text_when_the_address_differs() {
        // The fast path compares pointers; the same name at another
        // address must still land in its row, in first-use order.
        const PAYLOAD: &str = "payload";
        let elsewhere: &'static str = Box::leak(String::from("payload").into_boxed_str());
        assert!(!core::ptr::eq(PAYLOAD, elsewhere));
        let mut l = TimeLedger::new();
        l.add(PAYLOAD, Duration::from_micros(1));
        l.add("pay", Duration::from_micros(2)); // a prefix is a different category
        l.add(elsewhere, Duration::from_micros(4));
        l.add(PAYLOAD, Duration::from_micros(8));
        let rows: Vec<_> = l.iter().collect();
        assert_eq!(rows, vec![("payload", Duration::from_micros(13)), ("pay", Duration::from_micros(2))]);
    }

    #[test]
    fn ledger_merge() {
        let mut a = TimeLedger::new();
        a.add("x", Duration::from_micros(1));
        let mut b = TimeLedger::new();
        b.add("x", Duration::from_micros(2));
        b.add("y", Duration::from_micros(3));
        a.merge(&b);
        assert_eq!(a.get("x"), Duration::from_micros(3));
        assert_eq!(a.get("y"), Duration::from_micros(3));
    }
}
