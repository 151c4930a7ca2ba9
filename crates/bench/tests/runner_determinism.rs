//! The runner's core guarantee: parallel execution of a fixed sweep
//! produces byte-identical table output to sequential execution — run
//! twice, so flaky scheduling would be caught.

use hydra_bench::{ExperimentRunner, Table};
use hydra_netsim::{
    FlowOutcome, FlowSpec, FlowTraffic, LinkErrorSpec, Policy, RunBudget, RunError, ScenarioSpec,
    TopologyKind,
};
use hydra_phy::{LinkErrorModel, Rate};
use hydra_sim::Duration;

/// A mixed TCP-foreground + CBR-background spec on the 2-hop chain
/// (both flows in one world — the per-flow traffic engine).
fn mixed_spec() -> ScenarioSpec {
    let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), Policy::Ba, Rate::R1_30);
    s.traffic = FlowTraffic::FileTransfer { bytes: 20 * 1024 };
    s.warmup = Duration::from_millis(500);
    s.duration = Duration::from_secs(2);
    s.add_flow(FlowSpec {
        src: 0,
        dst: 2,
        port: 9000,
        traffic: FlowTraffic::Cbr { interval: Duration::from_millis(20), payload: 160 },
    })
}

/// A small but heterogeneous sweep: TCP and UDP, two policies, two
/// topologies, both medium modes (the paper's shared domain and a
/// spatial chain wide enough for hidden terminals), and a mixed
/// TCP+CBR world. File sizes / windows trimmed so debug-mode CI stays
/// fast.
fn fixed_sweep() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for policy in [Policy::Ua, Policy::Ba] {
        let mut s = ScenarioSpec::tcp(TopologyKind::Linear(2), policy, Rate::R1_30);
        s.traffic = FlowTraffic::FileTransfer { bytes: 20 * 1024 };
        specs.push(s);
    }
    let mut star = ScenarioSpec::tcp(TopologyKind::Star, Policy::Ba, Rate::R2_60);
    star.traffic = FlowTraffic::FileTransfer { bytes: 10 * 1024 };
    specs.push(star);
    let mut udp =
        ScenarioSpec::udp(TopologyKind::Linear(1), Policy::Ua, Rate::R1_30, Duration::from_millis(10));
    udp.warmup = Duration::from_millis(500);
    udp.duration = Duration::from_secs(2);
    specs.push(udp);
    let mut spatial =
        ScenarioSpec::udp(TopologyKind::Linear(3), Policy::Ba, Rate::R0_65, Duration::from_millis(16))
            .spatial(7.0);
    spatial.warmup = Duration::from_millis(500);
    spatial.duration = Duration::from_secs(2);
    specs.push(spatial);
    specs.push(mixed_spec());
    specs
}

/// Folds a sweep's results into the rendered table the harness would
/// print — full float formatting, so any divergence shows up — beside
/// the summed `events_processed`, which `RunOutcome` equality (and so
/// the table) leaves out.
fn render(runner: &ExperimentRunner, seeds: u64) -> (String, u64) {
    let cells = runner.run_sweep(&fixed_sweep(), seeds);
    let events = cells.iter().flat_map(|c| c.ok_runs()).map(|r| r.perf.events_processed).sum();
    let mut t = Table::new("determinism probe", &["cell", "mean bps", "per-run bps", "per-flow bps", "TXs"]);
    for (i, cell) in cells.iter().enumerate() {
        t.row(vec![
            format!("{i}"),
            format!("{:.6}", cell.mean_throughput_bps()),
            cell.ok_runs().map(|r| format!("{:.6}", r.throughput_bps)).collect::<Vec<_>>().join(" "),
            cell.ok_runs()
                .map(|r| {
                    r.per_flow
                        .iter()
                        .map(|o| format!("{}:{}={:.6}", o.kind.label(), o.flow.port, o.bps))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join(" "),
            cell.ok_runs().map(|r| r.report.total_data_txs().to_string()).collect::<Vec<_>>().join(" "),
        ]);
        assert!(!cell.failed(), "determinism probe cell {i} failed: {}", cell.failed_label());
    }
    (t.render(), events)
}

#[test]
fn parallel_equals_sequential_twice() {
    // A fresh runner per render: a runner's second sweep of the same
    // specs is served from its store, and would compare a hit with the
    // run it came from.
    let reference = render(&ExperimentRunner::sequential(), 2);
    for round in 0..2 {
        assert_eq!(render(&ExperimentRunner::new(4), 2), reference, "parallel diverged on round {round}");
        assert_eq!(
            render(&ExperimentRunner::sequential(), 2),
            reference,
            "sequential not stable on round {round}"
        );
    }
}

#[test]
fn mixed_tcp_cbr_parallel_equals_sequential() {
    // The heterogeneous world specifically: full RunOutcome equality
    // (labeled per-flow results included) between a 4-thread and a
    // sequential runner, over two replications.
    let spec = mixed_spec();
    let par = ExperimentRunner::new(4).run_sweep(std::slice::from_ref(&spec), 2);
    let seq = ExperimentRunner::sequential().run_sweep(std::slice::from_ref(&spec), 2);
    assert_eq!(par[0].runs, seq[0].runs, "mixed TCP+CBR runs diverged between runners");
    assert!(!par[0].failed(), "mixed sweep must not fail");
    for run in par[0].ok_runs() {
        assert_eq!(run.per_flow.len(), 2);
        assert!(run.per_flow[0].flow.traffic.is_file());
        assert!(!run.per_flow[1].flow.traffic.is_file());
    }
}

/// A mixed TCP/CBR spec on a sparse random mesh that fragments into
/// several collision domains, with traffic in more than one of them.
fn mesh_mixed_spec() -> ScenarioSpec {
    let kind = TopologyKind::RandomMesh { nodes: 30, area_m: 80, seed: 2 };
    let mut s = ScenarioSpec::udp(kind, Policy::Ba, Rate::R1_30, Duration::from_millis(40)).spatial(1.0);
    s.warmup = Duration::from_millis(300);
    s.duration = Duration::from_secs(1);
    // Turn every other default CBR flow into a TCP file transfer so the
    // world mixes completion-driven and window-measured traffic.
    let mut flows = s.effective_flows();
    for f in flows.iter_mut().step_by(2) {
        f.traffic = FlowTraffic::FileTransfer { bytes: 6 * 1024 };
    }
    s.with_flow_specs(flows)
}

#[test]
fn each_collision_domain_runs_alone_as_in_the_full_world() {
    // A metamorphic relation: no frame, carrier-sense edge or channel
    // draw crosses a collision-domain boundary (each domain owns its
    // channel RNG stream, each link its error stream). So running only
    // one domain's flows must give those flows, and that domain's nodes,
    // exactly what they got in the full world — clean and under bursty
    // loss with duplication and reorder.
    let bursty = LinkErrorModel::GilbertElliott { p_gb: 0.05, p_bg: 0.45, ber_good: 0.0, ber_bad: 0.3 };
    for link_error in [None, Some(LinkErrorSpec { model: Some(bursty), dup: 0.1, reorder: 0.1 })] {
        let mut spec = mesh_mixed_spec();
        spec.link_error = link_error;
        let world = spec.build();
        let flows = spec.effective_flows();
        let full = spec.run();
        let mut domains: Vec<u32> = flows.iter().map(|f| world.component_of(f.src)).collect();
        domains.sort_unstable();
        domains.dedup();
        assert!(domains.len() > 1, "flows must span more than one domain");
        for d in domains {
            let (mine, expect): (Vec<FlowSpec>, Vec<FlowOutcome>) = flows
                .iter()
                .zip(&full.per_flow)
                .filter(|(f, _)| world.component_of(f.src) == d)
                .map(|(f, o)| (*f, o.clone()))
                .unzip();
            let alone = spec.clone().with_flow_specs(mine).run();
            assert_eq!(alone.per_flow, expect, "domain {d} ({link_error:?}): flow outcomes moved");
            for node in (0..world.nodes.len()).filter(|&i| world.component_of(i) == d) {
                assert_eq!(
                    alone.report.nodes[node], full.report.nodes[node],
                    "domain {d} ({link_error:?}): node {node}'s report moved"
                );
            }
        }
    }
}

#[test]
fn tables_are_byte_identical_at_any_width() {
    // The executor only decides what starts when and where; the
    // rendered table — full float formatting — must not move by a bit
    // at any thread count, and neither may the number of events it took.
    // 0 is the runner's one-per-CPU width.
    let reference = render(&ExperimentRunner::sequential(), 1);
    for threads in [0, 1, 2, 4, 8] {
        assert_eq!(render(&ExperimentRunner::new(threads), 1), reference, "{threads} threads diverged");
    }
}

#[test]
fn chaos_failures_are_identical_at_every_thread_count() {
    // A sweep with a panicking first cell and a budget-starved last
    // cell around healthy ones, two replications each: each failure
    // must stay confined to its own cell, and the whole pattern must
    // match the sequential reference at every width.
    let seeds = 2;
    let clean = ExperimentRunner::sequential().run_sweep(&fixed_sweep(), seeds);
    let mut specs = fixed_sweep();
    let last = specs.len() - 1;
    // `Mac::new` rejects a zero-byte aggregate inside `build()`; any
    // spec that panics inside build/run will do.
    specs[0].max_aggregate = 0;
    specs[last].budget = Some(RunBudget::events(50));
    let reference = ExperimentRunner::sequential().run_sweep(&specs, seeds);
    assert_eq!(reference[0].failed_label(), "FAILED(panic)");
    assert!(reference[0].runs.iter().all(|r| matches!(r, Err(RunError::Panicked(_)))));
    assert_eq!(reference[last].runs, vec![Err(RunError::BudgetExhausted { events: 50 }); 2]);
    for (cell, expect) in reference[1..last].iter().zip(&clean[1..last]) {
        assert_eq!(cell.runs, expect.runs, "a survivor differs from the clean sweep");
    }
    for threads in [2, 4, 8] {
        let cells = ExperimentRunner::new(threads).run_sweep(&specs, seeds);
        for (cell, expect) in cells.iter().zip(&reference) {
            assert_eq!(cell.runs, expect.runs, "chaos pattern diverged at {threads} threads");
        }
    }
}

#[test]
fn run_order_does_not_leak_between_cells() {
    // Running a cell alone gives the same outcome as running it inside
    // the full sweep: per-run RNG depends only on (spec hash, seed).
    let specs = fixed_sweep();
    let full = ExperimentRunner::new(4).run_sweep(&specs, 1);
    for (spec, in_sweep) in specs.iter().zip(&full) {
        let alone = ExperimentRunner::sequential().run_one(spec.clone());
        let first = in_sweep.first().expect("sweep run failed");
        assert_eq!(alone.throughput_bps, first.throughput_bps);
        assert_eq!(alone.report.total_data_txs(), first.report.total_data_txs());
    }
}
