//! Output checks: which operations count as failed, and how far the
//! simulator is from the paper's own tables.

use hydra_bench::experiments::{table2_udp_specs, table4_time_overhead_specs};
use hydra_bench::{paper, CellResult, ExperimentRunner};
use hydra_netsim::{FlowTraffic, RunError, RunOutcome, ScenarioSpec};

/// Why one `(spec, replication)` operation counts as failed, if it does.
///
/// * it returned `Err(RunError)`;
/// * a flow delivered more bytes than it offered (a conservation break).
///
/// A transfer that misses its deadline is *not* a failed operation: it
/// is a simulated result (`--bin sweep` prints it as `(STUCK)` and
/// carries on), it is covered by `sim_digest`, and it does happen on the
/// shipped grids — see [`stranded`].
pub fn job_failure(spec: &ScenarioSpec, result: &Result<RunOutcome, RunError>) -> Option<String> {
    let outcome = match result {
        Ok(o) => o,
        Err(e) => return Some(format!("run error: {e}")),
    };
    // Window flows count what arrives inside `[warmup, warmup + duration]`,
    // which under overload includes backlog sent during the warm-up.
    let sending = (spec.warmup + spec.duration).as_secs_f64();
    for f in &outcome.per_flow {
        let offered = match f.flow.traffic {
            FlowTraffic::FileTransfer { bytes } => bytes as f64,
            // A span of `d` holds at most d/interval + 1 send instants;
            // on/off sources never send faster than their burst interval.
            FlowTraffic::Cbr { interval, payload } | FlowTraffic::OnOff { interval, payload, .. } => {
                ((sending / interval.as_secs_f64().max(1e-9)).floor() + 1.0) * payload as f64
            }
        };
        if f.bytes as f64 > offered {
            return Some(format!(
                "flow {}>{} delivered {} bytes but offered at most {offered}",
                f.flow.src, f.flow.dst, f.bytes
            ));
        }
    }
    None
}

/// True for a run that should have finished and did not: an
/// all-file-transfer spec on a clean channel with the paper's MAC
/// protections (no injected loss, RTS/CTS on, aggregates within the
/// paper's 5 KB cap) that ended `completed == false`. The `rts=off` and
/// oversized `max_agg` ablations exist to show transfers stranding, so
/// they are excluded. Reported as a count beside `fail_share`, because
/// about one seed in ten strands one star-topology cell of the shipped
/// grids for its whole 300 s horizon — a liveness question for the
/// simulator, which a benchmark must show, not hide or fail on.
pub fn stranded(spec: &ScenarioSpec, result: &Result<RunOutcome, RunError>) -> bool {
    let clean = spec.link_error.is_none() && spec.fault.is_none();
    let protected = spec.rts_cts && spec.sizing.is_none() && spec.max_aggregate <= paper::MAX_AGG_SIZE;
    let all_files = spec.effective_flows().iter().all(|f| f.traffic.is_file());
    clean && protected && all_files && result.as_ref().is_ok_and(|o| !o.completed)
}

/// Counts failed operations over a pass, keeping the first few reasons.
pub fn count_failures<'a>(
    jobs: impl Iterator<Item = (&'a ScenarioSpec, &'a Result<RunOutcome, RunError>)>,
) -> (u64, Vec<String>) {
    let (mut failed, mut reasons) = (0, Vec::new());
    for (spec, result) in jobs {
        if let Some(why) = job_failure(spec, result) {
            failed += 1;
            if reasons.len() < 5 {
                reasons.push(format!("{}: {why}", spec.to_scn()));
            }
        }
    }
    (failed, reasons)
}

/// The 20 specs `paper_err_pct` is defined over — Table 2's four UDP
/// cells, then Table 4's sixteen relay cells, row-major — with the
/// benchmark seed applied.
pub fn paper_specs(seed: u64) -> Vec<ScenarioSpec> {
    let grids = [table2_udp_specs(), table4_time_overhead_specs()];
    grids.into_iter().flatten().flatten().map(|s| s.with_seed(seed)).collect()
}

/// Mean of `|sim − paper| / paper`, in percent, over the 4 throughputs
/// of `paper::TABLE2` and the 16 relay time overheads of
/// `paper::TABLE4`; `cells` are [`paper_specs`]' results in order and
/// each simulated value is the mean over the cell's successful
/// replications. `None` if a cell has none. Simulated, so exactly
/// repeatable for a given seed: a change that only makes the simulator
/// faster must not move it at all.
pub fn paper_err_pct(cells: &[CellResult]) -> Option<f64> {
    let mut paper_values = Vec::with_capacity(20);
    for (_, na, ua, _) in paper::TABLE2 {
        paper_values.extend([na, ua]);
    }
    for (_, na, ua, ba, dba) in paper::TABLE4 {
        paper_values.extend([na, ua, ba, dba]);
    }
    if cells.len() != paper_values.len() {
        return None;
    }
    let mut sum = 0.0;
    for (i, (cell, paper)) in cells.iter().zip(&paper_values).enumerate() {
        let values: Vec<f64> = cell
            .ok_runs()
            .map(|r| if i < 4 { r.throughput_bps / 1e6 } else { r.report.time_overhead_pct(1) })
            .collect();
        if values.is_empty() {
            return None;
        }
        let sim = values.iter().sum::<f64>() / values.len() as f64;
        sum += (sim - paper).abs() / paper;
    }
    Some(100.0 * sum / paper_values.len() as f64)
}

/// Replications per cell of the accuracy probe. The shipped
/// `table2_udp.scn` / `table4_time_overhead.scn` declare one, but over 30
/// seeds the metric then scatters by 7.3 % (inter-quartile / median);
/// the mean of three brings that to 3.2 %, of five to 2.1 % — under a
/// third of the metric's bound — for about a second of simulation.
pub const PROBE_REPS: u64 = 5;

/// Runs [`paper_specs`] on a sequential runner, [`PROBE_REPS`] each.
pub fn run_paper_probe(seed: u64) -> Vec<CellResult> {
    ExperimentRunner::sequential().run_sweep(&paper_specs(seed), PROBE_REPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_netsim::{Policy, TopologyKind};
    use hydra_phy::Rate;
    use hydra_sim::Duration;

    fn tiny_udp() -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(20));
        spec.warmup = Duration::from_millis(100);
        spec.duration = Duration::from_millis(400);
        spec
    }

    #[test]
    fn a_healthy_run_passes_and_each_rule_can_fail() {
        let spec = tiny_udp();
        let ok = spec.try_run();
        assert_eq!(job_failure(&spec, &ok), None);

        let err: Result<RunOutcome, RunError> = Err(RunError::Panicked("boom".into()));
        assert!(job_failure(&spec, &err).unwrap().contains("run error"));

        let mut inflated = ok.clone().unwrap();
        inflated.per_flow[0].bytes = u64::MAX;
        assert!(job_failure(&spec, &Ok(inflated)).unwrap().contains("offered at most"));

        let jobs = [(&spec, &err), (&spec, &err)];
        let (failed, reasons) = count_failures(jobs.into_iter());
        assert_eq!((failed, reasons.len()), (2, 2));
    }

    #[test]
    fn stranded_means_unfinished_with_every_protection_in_place() {
        let tcp = ScenarioSpec::tcp(TopologyKind::Linear(1), Policy::Ba, Rate::R1_30);
        let mut unfinished = tiny_udp().run();
        unfinished.per_flow.clear();
        unfinished.completed = false;
        let unfinished = Ok(unfinished);
        assert!(stranded(&tcp, &unfinished));
        assert_eq!(job_failure(&tcp, &unfinished), None, "a missed deadline is a result, not a failure");
        // Under injected loss, or without the paper's MAC protections,
        // transfers are expected to strand.
        let mut lossy = tcp.clone();
        lossy.fault = Some((0.5, 0.0));
        let mut unprotected = tcp.clone();
        unprotected.rts_cts = false;
        let mut oversized = tcp.clone();
        oversized.max_aggregate = 14 * 1024;
        for spec in [&lossy, &unprotected, &oversized, &tiny_udp()] {
            assert!(!stranded(spec, &unfinished));
        }
        assert!(!stranded(&tcp, &Err(RunError::Panicked("boom".into()))));
    }

    #[test]
    fn paper_error_is_defined_over_twenty_cells() {
        assert_eq!(paper_specs(3).len(), 20);
        assert!(paper_specs(3).iter().all(|s| s.seed == 3));
        assert_eq!(paper_err_pct(&[]), None);
    }
}
