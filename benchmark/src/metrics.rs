//! The metric tables: every end-to-end and per-layer metric by name,
//! unit and direction, with the prediction — written down before
//! measuring — of which end-to-end metric each layer row should move,
//! and on which workload. `BENCHMARK.json` at the repo root repeats the
//! names, units, directions and bounds; a unit test keeps the two in
//! step.

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// What is measured.
    pub definition: &'static str,
}

/// The end-to-end metrics. All are lower-is-better.
///
/// The fifth quantity users care about, `fail_share` (failed /
/// attempted operations, bound 0), is carried by the `attempted` and
/// `failed` fields every result has rather than by a row here: it is 0
/// on a healthy tree, and a metric that reads 0 has no relative bound.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        definition:
            "median over repetitions of the workload's input generation: read and parse_scn_file its \
                     .scn files, write the seed, stable_hash every spec, expand specs x seeds, create the \
                     store directory",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.20,
        definition: "median host wall time of one pass, tracing off",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
        definition: "the workload process's VmHWM from /proc/self/status at exit",
    },
    EndToEnd {
        name: "paper_err_pct",
        unit: "%",
        bound: 0.10,
        definition:
            "simulated: mean |sim - paper| / paper over the 4 throughputs of paper::TABLE2 and the 16 \
                     relay time overheads of paper::TABLE4, each the mean of 5 replications; exactly repeatable for a seed",
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Median of timed calls into a public function on fixed inputs.
    Kernel,
    /// Read from what one traced pass returned; repeats exactly for a seed.
    Count,
    /// Host time or memory of one traced pass (or of the set-up fill,
    /// for `sweep_warm`, whose passes simulate nothing).
    Host,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// `layer.metric`; the layer is the crate or module name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Where the number comes from.
    pub kind: Kind,
    /// Whether every workload reports it through the driver contract
    /// (`--trace 1`). Rows that exist on one workload only, or are too
    /// coarse to read differently on every run, are printed by
    /// `bench trace` alone.
    pub in_contract: bool,
    /// Prediction: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const fn row(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    kind: Kind,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, higher_is_better, kind, in_contract: true, moves }
}

const QUEUE: &str = "wall_s on mesh_1000 (p4096) and paper_cold (p64); none on sweep_warm";
const WIRE: &str =
    "wall_s on paper_cold; parse_aggregate more on lossy_burst (every corrupted copy re-parses \
                    checked); little on mesh_1000";
const PHY: &str =
    "wall_s on mesh_1000 (*_n1000), paper_cold (_n3, clean), lossy_burst (corrupt, link_error); \
                   peak_rss_mb on mesh_1000";
const CORE: &str = "wall_s on paper_cold and sweep_cold_par";
const CORE_LOSS: &str = "explains wall_s on lossy_burst";
const STALE: &str = "a stale-timer change must lower it and wall_s on paper_cold with sim_digest unchanged";
const APP: &str = "none: must be bit-identical across any speed-only change";
const BUILD: &str = "wall_s on mesh_1000 and paper_cold (many tiny builds)";
const INPUT: &str = "setup_s everywhere and wall_s on sweep_warm";
const ALLOC: &str = "wall_s on paper_cold; peak_rss_mb nowhere";
const EVENTS: &str = "wall_s on every simulating workload; 0 events on sweep_warm";
const WARM: &str = "wall_s and peak_rss_mb on sweep_warm only";
const PAR: &str = "wall_s on sweep_cold_par only";

/// The per-layer metrics, layer by layer.
pub const PER_LAYER: [PerLayer; 59] = [
    row("sim.queue_hold_ns_p64", "ns", false, Kind::Kernel, QUEUE),
    row("sim.queue_hold_ns_p4096", "ns", false, Kind::Kernel, QUEUE),
    row("sim.rng_next_ns", "ns", false, Kind::Kernel, "wall_s on paper_cold (small share)"),
    row("sim.queue_pops", "count", false, Kind::Count, QUEUE),
    row("sim.queue_overflow_promoted", "count", false, Kind::Count, QUEUE),
    row("wire.crc32_gib_s", "GiB/s", true, Kind::Kernel, WIRE),
    row("wire.build_aggregate_ns", "ns", false, Kind::Kernel, WIRE),
    row("wire.parse_aggregate_ns", "ns", false, Kind::Kernel, WIRE),
    row("wire.parse_trusted_ns", "ns", false, Kind::Kernel, WIRE),
    row("wire.build_tcp_packet_ns", "ns", false, Kind::Kernel, WIRE),
    row("wire.parse_mpdu_ns", "ns", false, Kind::Kernel, WIRE),
    row("phy.medium_build_ms_n1000", "ms", false, Kind::Kernel, PHY),
    row("phy.tx_fanout_ns_n1000", "ns", false, Kind::Kernel, PHY),
    row("phy.tx_fanout_ns_n3", "ns", false, Kind::Kernel, PHY),
    row("phy.apply_channel_clean_ns", "ns", false, Kind::Kernel, PHY),
    row("phy.apply_channel_corrupt_ns", "ns", false, Kind::Kernel, PHY),
    row("phy.link_error_frame_ns", "ns", false, Kind::Kernel, PHY),
    row("phy.collisions", "count", false, Kind::Count, APP),
    row("core.assemble_ns", "ns", false, Kind::Kernel, CORE),
    row("core.mac_rx_ns", "ns", false, Kind::Kernel, CORE),
    row("core.mac_cs_edge_ns", "ns", false, Kind::Kernel, CORE),
    row("core.stale_ratio", "ratio", false, Kind::Count, STALE),
    row("core.timer_rearms", "count", false, Kind::Count, STALE),
    row("core.data_txs", "count", false, Kind::Count, CORE),
    row("core.subframes_per_frame", "count", true, Kind::Count, APP),
    row("core.retries", "count", false, Kind::Count, CORE_LOSS),
    row("core.crc_drops", "count", false, Kind::Count, CORE_LOSS),
    row("net.receive_forward_ns", "ns", false, Kind::Kernel, "wall_s on paper_cold (small share)"),
    row("net.forwarded", "count", false, Kind::Count, "wall_s on paper_cold (small share)"),
    row(
        "tcp.segment_ack_ns",
        "ns",
        false,
        Kind::Kernel,
        "wall_s on paper_cold, lossy_burst; none on mesh_1000's CBR",
    ),
    row("app.goodput_mbps", "Mbps", true, Kind::Count, APP),
    row("app.flows_completed", "count", true, Kind::Count, APP),
    row("netsim.parse_scn_us_per_line", "us", false, Kind::Kernel, INPUT),
    row("netsim.stable_hash_us", "us", false, Kind::Kernel, INPUT),
    row("netsim.build_ms", "ms", false, Kind::Host, BUILD),
    row("netsim.run_ms", "ms", false, Kind::Host, EVENTS),
    row("netsim.build_share", "ratio", false, Kind::Host, BUILD),
    row("netsim.events_processed", "count", false, Kind::Count, EVENTS),
    row("netsim.events_per_s", "1/s", true, Kind::Host, "informative only: fewer events can be faster"),
    row("netsim.ns_per_event", "ns", false, Kind::Host, EVENTS),
    row("netsim.sim_s_per_wall_s", "ratio", true, Kind::Host, EVENTS),
    row("netsim.allocs_per_kevent", "count", false, Kind::Host, ALLOC),
    row("netsim.alloc_bytes_per_event", "B", false, Kind::Host, ALLOC),
    row("bench.runner.dispatch_us_per_job", "us", false, Kind::Host, "wall_s on paper_cold"),
    row("bench.runner.job_wall_p50_ms", "ms", false, Kind::Host, CORE),
    row(
        "bench.runner.job_wall_p99_ms",
        "ms",
        false,
        Kind::Host,
        "the slowest job sets the makespan: wall_s on sweep_cold_par",
    ),
    row("bench.runner.queue_wait_p50_ms", "ms", false, Kind::Host, PAR),
    row("bench.runner.steals", "count", false, Kind::Count, PAR),
    row("bench.runner.parallel_efficiency", "ratio", true, Kind::Host, PAR),
    PerLayer { in_contract: false, ..row("bench.runner.cpu_s", "s", false, Kind::Host, PAR) },
    row("bench.sweeps.open_ms", "ms", false, Kind::Host, WARM),
    row("bench.sweeps.lookup_ns", "ns", false, Kind::Host, WARM),
    row("bench.sweeps.append_us_per_record", "us", false, Kind::Host, PAR),
    row("bench.sweeps.store_mb", "MB", false, Kind::Host, WARM),
    row("bench.sweeps.hit_ratio", "ratio", true, Kind::Count, "1 on sweep_warm, 0 on sweep_cold_par"),
    PerLayer {
        in_contract: false,
        ..row("bench.sweeps.cold_fill_s", "s", false, Kind::Host, "set-up of sweep_warm")
    },
    row("bench.report.render_ms", "ms", false, Kind::Host, WARM),
    row("bench.warmup_pass_s", "s", false, Kind::Host, "set-up, every workload"),
    row("bench.trace_overhead_pct", "%", false, Kind::Host, "none: how far to trust the traced numbers"),
];

/// Looks a per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workloads::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16 && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        for m in &PER_LAYER {
            assert!(
                ["sim", "wire", "phy", "core", "net", "tcp", "app", "netsim", "bench"].contains(&m.layer())
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must agree.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let got: Vec<_> = list("workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let want: Vec<_> =
            workloads::ALL.iter().map(|w| (w.name().to_string(), w.why().to_string())).collect();
        assert_eq!(got, want);

        let got: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (text(m, "name"), text(m, "unit"), text(m, "better"), m.get("bound").and_then(Value::as_f64))
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), "lower".to_string(), Some(m.bound)))
            .collect();
        assert_eq!(got, want);

        let got: Vec<_> =
            list("per_layer").iter().map(|m| (text(m, "name"), text(m, "unit"), text(m, "better"))).collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .filter(|m| m.in_contract)
            .map(|m| {
                let better = if m.higher_is_better { "higher" } else { "lower" };
                (m.name.to_string(), m.unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(doc.get("paths").and_then(Value::as_arr).map(<[Value]>::len), Some(1));
    }
}
