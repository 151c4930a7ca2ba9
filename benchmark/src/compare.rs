//! `bench compare A.json B.json`: is B worse than A, row by row?
//!
//! One row per `(end-to-end metric, workload)`, each with both medians
//! and quartiles and a verdict:
//!
//! * `ok` — B's median is not worse than A's by more than the bound;
//! * `regressed` — it is;
//! * `unresolved` — the run-to-run spread of either side is wider than
//!   the bound and the two sides' samples interleave, so the difference
//!   of medians says nothing either way.
//!
//! Simulated results are compared exactly: a `sim_digest`, operation
//! count, failure count or `paper_err_pct` that differs fails the
//! comparison whatever the timings say.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::END_TO_END;
use crate::stats::Summary;
use crate::workloads::ALL;

/// The verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse by more than the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Spread wider than the bound and the samples interleave.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for a lower-is-better metric with relative `bound`.
pub fn verdict(a: &Summary, b: &Summary, bound: f64) -> Verdict {
    let worse_by = if a.median > 0.0 { (b.median - a.median) / a.median } else { 0.0 };
    let separated = b.max < a.min || b.min > a.max;
    if a.spread().max(b.spread()) > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One `(metric, workload)` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The metric's bound.
    pub bound: f64,
    /// A's samples, summarised.
    pub a: Summary,
    /// B's samples, summarised.
    pub b: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// One row per metric and workload.
    pub rows: Vec<Row>,
    /// Simulated results that differ (each fails the comparison).
    pub exact_differences: Vec<String>,
}

impl Report {
    /// True when nothing regressed and every simulated result is equal.
    /// (`unresolved` rows do not fail the comparison; they say more
    /// runs are needed.)
    pub fn passed(&self) -> bool {
        self.exact_differences.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }

    /// The table `bench compare` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<15} {:<14} {:<5} {:>11} {:>23} {:>11} {:>23} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "unit",
            "A median",
            "A [q1, q3] n",
            "B median",
            "B [q1, q3] n",
            "B vs A",
            "bound"
        );
        for r in &self.rows {
            let side = |s: &Summary| format!("[{:.5}, {:.5}] {}", s.q1, s.q3, s.n);
            let change = if r.a.median > 0.0 { 100.0 * (r.b.median - r.a.median) / r.a.median } else { 0.0 };
            let _ = writeln!(
                out,
                "{:<15} {:<14} {:<5} {:>11.5} {:>23} {:>11.5} {:>23} {:>+7.2}% {:>5.0}%  {}",
                r.workload,
                r.metric,
                r.unit,
                r.a.median,
                side(&r.a),
                r.b.median,
                side(&r.b),
                change,
                r.bound * 100.0,
                r.verdict.label()
            );
        }
        for d in &self.exact_differences {
            let _ = writeln!(out, "DIFFERENT: {d}");
        }
        let count = |v| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            out,
            "{} ok, {} regressed, {} unresolved, {} simulated difference(s): {}",
            count(Verdict::Ok),
            count(Verdict::Regressed),
            count(Verdict::Unresolved),
            self.exact_differences.len(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// The summary a result file stores for one metric of one workload.
fn summary(doc: &Value, workload: &str, metric: &str) -> Result<Summary, String> {
    let m = doc.at(&["workloads", workload, "metrics", metric]);
    // A failed accuracy probe prints `null`: read it as NaN so it can
    // never compare equal to a number.
    let field = |key: &str| m.and_then(|m| m.get(key)).map(|v| v.as_f64().unwrap_or(f64::NAN));
    let all = (field("n"), field("min"), field("q1"), field("value"), field("q3"), field("max"));
    match all {
        (Some(n), Some(min), Some(q1), Some(median), Some(q3), Some(max)) if n >= 1.0 => {
            Ok(Summary { n: n as usize, min, q1, median, q3, max })
        }
        _ => Err(format!("no summary of {metric} on {workload}")),
    }
}

/// Compares two `bench run` result documents.
pub fn compare(a: &Value, b: &Value) -> Result<Report, String> {
    for (side, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Value::as_str) != Some("hydra-benchmark.run.v1") {
            return Err(format!("{side} is not a `bench run` result"));
        }
        if doc.get("quick").and_then(Value::as_bool) != Some(false) {
            return Err(format!("{side} is a --quick run: one pass is a smoke test, not a measurement"));
        }
    }
    if a.get("seed") != b.get("seed") {
        return Err("A and B used different seeds: their simulated results are not comparable".to_string());
    }
    let mut report = Report { rows: Vec::new(), exact_differences: Vec::new() };
    for w in ALL.iter().map(|w| w.name()) {
        for key in ["sim_digest", "attempted", "failed"] {
            let (va, vb) = (a.at(&["workloads", w, key]), b.at(&["workloads", w, key]));
            if va.is_none() || va != vb {
                let show = |v: Option<&Value>| v.map_or("missing".to_string(), Value::compact);
                report.exact_differences.push(format!("{w}: {key} {} vs {}", show(va), show(vb)));
            }
        }
        for (side, doc) in [("A", a), ("B", b)] {
            if doc.at(&["workloads", w, "correct"]).and_then(Value::as_bool) != Some(true) {
                report
                    .exact_differences
                    .push(format!("{w}: {side} failed its own output checks (fail_share > 0)"));
            }
        }
        for m in &END_TO_END {
            let (sa, sb) = (summary(a, w, m.name)?, summary(b, w, m.name)?);
            if m.name == "paper_err_pct" && sa.median != sb.median {
                report.exact_differences.push(format!("{w}: paper_err_pct {} vs {}", sa.median, sb.median));
            }
            let verdict = verdict(&sa, &sb, m.bound);
            report.rows.push(Row {
                workload: w,
                metric: m.name,
                unit: m.unit,
                bound: m.bound,
                a: sa,
                b: sb,
                verdict,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::metric_json;
    use crate::json::obj;

    fn summarise(samples: &[f64]) -> Summary {
        Summary::of(samples).unwrap()
    }

    #[test]
    fn the_three_verdicts() {
        let base = summarise(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        // Within the bound: ok, in either direction.
        assert_eq!(verdict(&base, &summarise(&[1.05, 1.04, 1.06, 1.05, 1.05]), 0.10), Verdict::Ok);
        assert_eq!(verdict(&base, &summarise(&[0.5, 0.5, 0.5]), 0.10), Verdict::Ok);
        // Tight samples, median 20 % worse: regressed.
        assert_eq!(verdict(&base, &summarise(&[1.20, 1.21, 1.19, 1.20, 1.22]), 0.10), Verdict::Regressed);
        // Noisy samples that interleave: unresolved, whatever the medians say.
        let noisy_a = summarise(&[1.0, 1.4, 0.8, 1.3, 0.9]);
        let noisy_b = summarise(&[1.25, 1.5, 0.85, 1.45, 0.95]);
        assert_eq!(verdict(&noisy_a, &noisy_b, 0.10), Verdict::Unresolved);
        // Noisy but every B run beyond every A run: the spread no longer hides it.
        let far_b = summarise(&[2.0, 2.6, 1.9, 2.5, 2.2]);
        assert_eq!(verdict(&noisy_a, &far_b, 0.10), Verdict::Regressed);
        let better_b = summarise(&[0.5, 0.7, 0.4, 0.6, 0.55]);
        assert_eq!(verdict(&noisy_a, &better_b, 0.10), Verdict::Ok);
    }

    fn doc(wall: &[f64], digest: &str, quick: bool) -> Value {
        let workload = |_| {
            obj([
                ("correct", true.into()),
                ("attempted", 10u64.into()),
                ("failed", 0u64.into()),
                ("sim_digest", digest.into()),
                (
                    "metrics",
                    obj([
                        ("setup_s", metric_json("s", &[0.010, 0.011, 0.010])),
                        ("wall_s", metric_json("s", wall)),
                        ("peak_rss_mb", metric_json("MB", &[20.0])),
                        ("paper_err_pct", metric_json("%", &[12.5])),
                    ]),
                ),
            ])
        };
        obj([
            ("schema", "hydra-benchmark.run.v1".into()),
            ("quick", quick.into()),
            ("seed", 1u64.into()),
            ("workloads", Value::Obj(ALL.iter().map(|w| (w.name().to_string(), workload(w))).collect())),
        ])
    }

    #[test]
    fn documents_compare_row_by_row_and_exactly_where_simulated() {
        let a = doc(&[1.0, 1.01, 0.99], "aa", false);
        let same = compare(&a, &a).unwrap();
        assert_eq!(same.rows.len(), ALL.len() * END_TO_END.len());
        assert!(same.passed() && same.render().contains("PASS"));

        let slower = compare(&a, &doc(&[1.3, 1.31, 1.29], "aa", false)).unwrap();
        assert!(!slower.passed());
        assert_eq!(slower.rows.iter().filter(|r| r.verdict == Verdict::Regressed).count(), ALL.len());
        assert!(slower.render().contains("regressed"));

        let moved = compare(&a, &doc(&[1.0, 1.01, 0.99], "bb", false)).unwrap();
        assert!(!moved.passed(), "a digest difference fails the comparison");
        assert!(moved.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert_eq!(moved.exact_differences.len(), ALL.len());

        assert!(compare(&a, &doc(&[1.0], "aa", true)).unwrap_err().contains("quick"));
        assert!(compare(&obj([]), &a).unwrap_err().contains("not a `bench run` result"));
    }
}
