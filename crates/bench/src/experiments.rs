//! The paper's tables and figures (§6), with this reproduction's
//! extensions and ablations: one per shipped `.scn` file.
//!
//! Each experiment is its checked-in file under `examples/sweeps/`,
//! compiled in, and the file is the table. Its spec lines are the grid,
//! its `#! caption=` titles the table, its `#! seeds=` sets the
//! replication count (unless `all --seeds` overrides it), its
//! `#! note=` lines are the footnotes and its `#! paper=` lines quote
//! the paper's numbers. A file with a table block (`#! rows=`,
//! `#! col=`, …; `docs/SCENARIO_FORMAT.md`) is drawn by [`render`],
//! which joins every (row, column) pair to the one spec line whose
//! fields match it — by value, so the lines may come in any order. A
//! file the grammar cannot draw keeps a named renderer of the same
//! signature, which reads its paper values and notes from the file
//! (`docs/REACH.md` says what each one needs). Absolute values depend on
//! testbed quirks we cannot recover; the *shapes* — who wins, by
//! roughly what factor, where crossovers fall — are the claims being
//! reproduced (docs/REPRODUCTION.md states the claim of each table).

use hydra_netsim::{
    parse_scn_file, FlowTraffic, Metric, Policy, RunOutcome, RunReport, ScenarioSpec, Selector, SweepFile,
    TopologyKind,
};
use hydra_phy::LinkErrorModel;

use crate::report::{bytes, mbps, pct, Table};
use crate::runner::{failure_lines, CellResult, ExperimentRunner};

/// Draws a file's tables from its cells: one per spec line, in file
/// order.
type Render = fn(&SweepFile, &[CellResult]) -> Vec<Table>;

/// Builds the registry: each entry is a sweep name, the text of
/// `examples/sweeps/<name>.scn` (so the two cannot disagree) and the
/// file's renderer.
macro_rules! sweep_files {
    ($($name:literal => $render:expr),* $(,)?) => {
        [$(($name, include_str!(concat!("../../../examples/sweeps/", $name, ".scn")), $render as Render)),*]
    };
}

/// Every shipped experiment, in the order `all` prints them; the name
/// selects it (`all NAME`).
const SHIPPED: [(&str, &str, Render); 25] = sweep_files![
    "fig07_agg_size" => render,
    "table2_udp" => render,
    "fig08_unicast_tcp" => render,
    "fig09_flooding" => render,
    "fig10_fixed_bcast" => render,
    "fig11_2hop" => fig11_2hop,
    "fig12_topologies" => fig12_topologies,
    "fig13_delayed" => render,
    "fig14_no_forward" => render,
    "table3_relay" => table3_relay,
    "table4_time_overhead" => render,
    "table5_6_7_star" => table5_6_7_star,
    "table8_frame_sizes" => table8_frame_sizes,
    "ext_topologies" => render,
    "ext_spatial_reuse" => render,
    "ext_spatial_rts" => render,
    "ext_mixed" => ext_mixed,
    "ext_scale" => ext_scale,
    "ext_burst" => ext_burst,
    "ablation_block_ack" => render,
    "ablation_rate_adaptive_sizing" => render,
    "ablation_dba_flush" => ablation_dba_flush,
    "ablation_rts_cts" => render,
    "ablation_delayed_ack" => render,
    "ablation_broadcast_position" => ablation_broadcast_position,
];

/// The shipped experiments' names, in print order.
pub fn names() -> impl Iterator<Item = &'static str> {
    SHIPPED.iter().map(|&(name, ..)| name)
}

fn path(name: &str) -> String {
    format!("examples/sweeps/{name}.scn")
}

/// Shipped sweep `name`'s file, parsed (strictly: directives included).
fn shipped(name: &str) -> SweepFile {
    let (_, text, _) =
        SHIPPED.iter().find(|(n, ..)| *n == name).unwrap_or_else(|| panic!("unknown shipped sweep `{name}`"));
    parse_scn_file(text).unwrap_or_else(|e| panic!("{}:{e}", path(name)))
}

/// Every shipped experiment grid as the spec list its file under
/// `examples/sweeps/` carries, in registry order.
pub fn shipped_sweeps() -> Vec<(&'static str, Vec<ScenarioSpec>)> {
    names().map(|name| (name, shipped(name).specs)).collect()
}

/// Table 2's cells: (NA, UA) per rate at the paper's operating points,
/// joined from the table block of `examples/sweeps/table2_udp.scn`.
pub fn table2_udp_specs() -> Vec<Vec<ScenarioSpec>> {
    grid_specs("table2_udp")
}

/// Table 4's grid: the paper's rates × NA/UA/BA/DBA on the 2-hop chain,
/// joined from the table block of
/// `examples/sweeps/table4_time_overhead.scn`.
pub fn table4_time_overhead_specs() -> Vec<Vec<ScenarioSpec>> {
    grid_specs("table4_time_overhead")
}

/// Shipped sweep `name`'s table block as rows of spec lines, one per
/// column.
fn grid_specs(name: &str) -> Vec<Vec<ScenarioSpec>> {
    let file = shipped(name);
    let cols = file.meta.table.as_ref().map_or(0, |t| t.cols.len());
    let rows = join(&file, &file.specs, |s| s);
    rows.into_iter().map(|(_, row)| row[..cols].iter().map(|s| (*s).clone()).collect()).collect()
}

/// The rows of `file`'s table block over `items` (one per spec line, in
/// file order; `spec` reads an item's line): each row's label and, per
/// selector — the columns', then the gain's numerator and denominator —
/// the one item of the row it matches. Rows ascend by the row key's
/// value. A block that does not join (a row and selector matching no
/// line, or two) panics naming the caption; a test holds every shipped
/// file to it.
fn join<'a, T>(
    file: &SweepFile,
    items: &'a [T],
    spec: impl Fn(&T) -> &ScenarioSpec,
) -> Vec<(String, Vec<&'a T>)> {
    let caption = file.meta.caption.as_deref().unwrap_or_default();
    let layout = file.meta.table.as_ref().unwrap_or_else(|| panic!("{caption}: no table block"));
    let gain = layout.gain.iter().flat_map(|(num, den)| [&num.select, den]);
    let selectors: Vec<&Selector> = layout.cols.iter().map(|c| &c.select).chain(gain).collect();
    let keys: Vec<(f64, String)> = items.iter().map(|item| layout.rows.1.row(spec(item))).collect();
    let mut rows: Vec<&(f64, String)> = keys.iter().collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    rows.dedup_by(|a, b| a.1 == b.1);
    let cell = |label: &str, (at, sel): (usize, &&Selector)| {
        let row = items.iter().zip(&keys).filter(|(_, key)| key.1 == label);
        let found: Vec<&T> = row.filter(|(item, _)| sel.matches(spec(item))).map(|(item, _)| item).collect();
        match found[..] {
            [item] => item,
            _ => panic!("{caption}: row `{label}`, selector {}: {} spec lines, not one", at + 1, found.len()),
        }
    };
    rows.iter()
        .map(|(_, label)| (label.clone(), selectors.iter().enumerate().map(|s| cell(label, s)).collect()))
        .collect()
}

/// Draws `file`'s table block from `cells` (one per spec line, in file
/// order): the renderer of every file the grammar expresses. A data
/// cell is the block's metric, the mean over the cell's successful
/// replications (`FAILED(reason)` when none succeeded), shown as
/// `paper / here` when a `#! paper=` line selects its spec, unless the
/// column gives the paper a column of its own. The gain column is `-`
/// when either side has a failed replication or the denominator is 0;
/// it is signed unless it stands beside the paper's gain.
pub fn render(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let rows = join(file, cells, |c| &c.spec);
    let Some(layout) = &file.meta.table else { unreachable!("join checked the block") };
    let (value, unit, precision) = metric(layout.metric);
    let show = |v: f64| format!("{v:.precision$}");
    let mut headers = vec![layout.rows.0.as_str()];
    for col in layout.cols.iter().chain(layout.gain.iter().map(|(num, _)| num)) {
        headers.extend(col.paper_header.as_deref());
        headers.push(&col.header);
    }
    let mut t = Table::new(caption(file), &headers);
    let paper = |cell: &CellResult| paper_of(file, &cell.spec).map(|v| v[0]);
    for (label, row) in rows {
        let mut out = vec![label];
        for (col, cell) in layout.cols.iter().zip(&row) {
            let here = mean(cell, value).map_or_else(|| cell.failed_label(), |m| show(m / unit));
            match (&col.paper_header, paper(cell)) {
                (Some(_), p) => out.extend([p.map_or_else(dash, show), here]),
                (None, Some(p)) if cell.first().is_some() => out.push(format!("{} / {here}", show(p))),
                (None, _) => out.push(here),
            }
        }
        if let (Some((g, _)), [.., num, den]) = (&layout.gain, &row[..]) {
            let here = gain(num, den, value);
            if g.paper_header.is_some() {
                let p = paper(num).zip(paper(den)).map(|(n, d)| (n / d - 1.0) * 100.0);
                out.extend([p, here].map(|g| g.map_or_else(dash, |g| format!("{g:.1}%"))));
            } else {
                out.push(here.map_or_else(dash, |g| format!("{g:+.1}%")));
            }
        }
        t.row(out);
    }
    noted(t, file)
}

/// Lists `file`, read from `path` and run at `seeds` replications, one
/// row per spec line in file order: the line, its mean throughput
/// (marked `(STUCK)` when a replication did not finish, or
/// `FAILED(reason)` when none succeeded) and every replication's
/// throughput. The table `all FILE.scn` prints.
pub fn listing(path: &str, file: &SweepFile, seeds: u64, cells: &[CellResult]) -> Table {
    let title = match &file.meta.caption {
        Some(caption) => format!("{caption} [{path} — {} scenarios × {seeds} seed(s)]", file.specs.len()),
        None => format!("{path} — {} scenarios × {seeds} seed(s)", file.specs.len()),
    };
    let mut t = Table::new(title, &["#", "scenario", "mean Mbps", "per-seed Mbps"]);
    for (i, cell) in cells.iter().enumerate() {
        let per_seed: Vec<String> = cell
            .runs
            .iter()
            .map(|r| match r {
                Ok(run) => mbps(run.throughput_bps),
                Err(e) => format!("FAILED({})", e.reason()),
            })
            .collect();
        let stuck = cell.ok_runs().any(|r| !r.completed);
        let mean = if stuck { format!("{} (STUCK)", cell.mean_cell()) } else { cell.mean_cell() };
        t.row(vec![i.to_string(), cell.spec.to_scn(), mean, per_seed.join(" ")]);
    }
    t.notes.extend(file.meta.notes.iter().cloned());
    t
}

fn caption(file: &SweepFile) -> String {
    file.meta.caption.clone().unwrap_or_default()
}

/// `t` with `file`'s notes after its own, as a renderer's result.
fn noted(mut t: Table, file: &SweepFile) -> Vec<Table> {
    t.notes.extend(file.meta.notes.iter().cloned());
    vec![t]
}

fn dash() -> String {
    "-".to_string()
}

/// A run's value of `metric`, what divides it for display (bit/s into
/// Mbps), and the displayed decimals.
type Value = fn(&RunOutcome) -> f64;
const THROUGHPUT: Value = |run| run.throughput_bps;
fn metric(metric: Metric) -> (Value, f64, usize) {
    match metric {
        Metric::Throughput => (THROUGHPUT, 1e6, 3),
        Metric::RelayOverhead => (|run| run.report.time_overhead_pct(1), 1.0, 1),
    }
}

/// The mean `value` over `cell`'s successful replications; `None` when
/// none succeeded.
fn mean(cell: &CellResult, value: impl Fn(&RunOutcome) -> f64) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0u32);
    for run in cell.ok_runs() {
        sum += value(run);
        n += 1;
    }
    (n > 0).then(|| sum / f64::from(n))
}

/// `num`'s mean over `den`'s, or `None` when either cell has a failed
/// replication or `den`'s mean is zero: a ratio with a failed or
/// starved side is no number, and prints `-`.
fn ratio(num: &CellResult, den: &CellResult, value: Value) -> Option<f64> {
    let (n, d) = (mean(num, value)?, mean(den, value)?);
    (!num.failed() && !den.failed() && d != 0.0).then(|| n / d)
}

/// [`ratio`] as a percentage gain.
fn gain(num: &CellResult, den: &CellResult, value: Value) -> Option<f64> {
    ratio(num, den, value).map(|r| (r - 1.0) * 100.0)
}

/// The values of the `#! paper=` line that selects `spec`.
fn paper_of<'a>(file: &'a SweepFile, spec: &ScenarioSpec) -> Option<&'a [f64]> {
    file.meta.paper.iter().find(|(sel, _)| sel.matches(spec)).map(|(_, v)| &v[..])
}

/// The one cell of `cells` whose spec `f` accepts.
fn pick<'a>(
    cells: impl IntoIterator<Item = &'a CellResult>,
    f: impl Fn(&ScenarioSpec) -> bool,
) -> &'a CellResult {
    let found: Vec<&CellResult> = cells.into_iter().filter(|c| f(&c.spec)).collect();
    match found[..] {
        [cell] => cell,
        _ => panic!("{} spec lines where one belongs", found.len()),
    }
}

/// The one cell of `row` per value of `key` in `values`.
fn by<'a, K: PartialEq, const N: usize>(
    row: &[&'a CellResult],
    key: impl Fn(&ScenarioSpec) -> K,
    values: [K; N],
) -> [&'a CellResult; N] {
    values.map(|v| pick(row.iter().copied(), |s| key(s) == v))
}

const POLICIES: [Policy; 3] = [Policy::Na, Policy::Ua, Policy::Ba];

/// `cells` grouped by `key`, in the order of each key's first line.
fn group<'a, K: PartialEq>(
    cells: impl IntoIterator<Item = &'a CellResult>,
    key: impl Fn(&ScenarioSpec) -> K,
) -> Vec<(K, Vec<&'a CellResult>)> {
    let mut groups: Vec<(K, Vec<&CellResult>)> = Vec::new();
    for cell in cells {
        let k = key(&cell.spec);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, members)) => members.push(cell),
            None => groups.push((k, vec![cell])),
        }
    }
    groups
}

/// The largest of the gains that could be computed, or `-` when none
/// could.
fn max_gain(gains: impl Iterator<Item = Option<f64>>) -> String {
    gains.flatten().reduce(f64::max).map_or_else(dash, |g| format!("{g:.1}%"))
}

/// Figures 11 and 12: the table block, its last note (the paper's gaps)
/// followed by the largest BA-over-UA gap measured on each of
/// `topologies`.
fn with_gaps(file: &SweepFile, cells: &[CellResult], words: &str, topologies: &[TopologyKind]) -> Vec<Table> {
    let cols = file.meta.table.as_ref().map_or(0, |t| t.cols.len());
    let rows = join(file, cells, |c| &c.spec);
    let gap = |topology| {
        let ba_over_ua = |row: &[&CellResult]| {
            let [ua, ba] =
                by(row, |s| (s.policy, s.topology), [(Policy::Ua, topology), (Policy::Ba, topology)]);
            gain(ba, ua, THROUGHPUT)
        };
        max_gain(rows.iter().map(|(_, row)| ba_over_ua(&row[..cols])))
    };
    let gaps: Vec<String> = topologies.iter().map(|&topology| gap(topology)).collect();
    let mut tables = render(file, cells);
    if let Some(note) = tables[0].notes.last_mut() {
        note.push_str(&format!("; measured {words}{}", gaps.join(" / ")));
    }
    tables
}

fn fig11_2hop(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    with_gaps(file, cells, "max gap ", &[TopologyKind::Linear(2)])
}

fn fig12_topologies(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    with_gaps(file, cells, "", &[TopologyKind::Linear(3), TopologyKind::Star])
}

/// Table 3: 2-hop relay averages, one row per spec line with a
/// `#! paper=` line, whose values are the paper's size (B), TXs
/// relative to NA (%) and size overhead (%).
fn table3_relay(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let headers = ["policy", "size paper", "size here", "TXs paper", "TXs here", "ovh paper", "ovh here"];
    let mut t = Table::new(caption(file), &headers);
    let na = pick(cells, |s| s.policy == Policy::Na);
    let na_base = na.first().map(|r| r.report.relay().tx_data_frames as f64);
    for cell in cells {
        let Some(&[p_size, p_tx, p_ovh]) = paper_of(file, &cell.spec) else { continue };
        let (size, txs, ovh) = match cell.first() {
            None => (cell.failed_label(), cell.failed_label(), cell.failed_label()),
            Some(run) => {
                let rel = run.report.relay();
                let txs = match na_base {
                    Some(base) => format!("{:.1}%", rel.tx_data_frames as f64 / base * 100.0),
                    // The NA baseline cell failed: the ratio is uncomputable.
                    None => na.failed_label(),
                };
                (bytes(rel.avg_frame_size()), txs, pct(rel.size_overhead(run.report.phy_header_bytes)))
            }
        };
        let name = cell.spec.policy.name().to_string();
        t.row(vec![name, bytes(p_size), size, format!("{p_tx:.1}%"), txs, format!("{p_ovh:.2}%"), ovh]);
    }
    noted(t, file)
}

/// Tables 5, 6, 7: relay frame size / size overhead / TXs relative to
/// NA, 2-hop vs star, one row per policy with `#! paper=` lines, whose
/// values are the paper's size (B), size overhead (%) and TXs (%).
fn table5_6_7_star(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let na = pick(cells, |s| s.policy == Policy::Na);
    let mut tables = [
        ("Table 5 — relay frame size (paper / here, B)", 0),
        ("Table 6 — relay size overhead (paper / here, %)", 2),
        ("Table 7 — relay TXs relative to NA (paper / here, %)", 1),
    ]
    .map(|(title, precision)| (Table::new(title, &["policy", "2-hop", "star"]), precision));
    let papered = cells.iter().filter(|c| paper_of(file, &c.spec).is_some());
    let pairs = group(papered, |s| s.policy);
    // Every column is a ratio against the shared NA baseline, so a
    // single failed cell makes the whole comparison uncomputable:
    // degrade all three tables explicitly rather than abort the grid.
    let bad = std::iter::once(na).chain(pairs.iter().flat_map(|(_, pair)| pair.iter().copied()));
    if let Some(bad) = bad.into_iter().find(|c| c.first().is_none()) {
        let label = bad.failed_label();
        for (t, _) in &mut tables {
            t.note(format!("unavailable: a replication {label}; rerun after the failure is fixed"));
        }
        return tables.map(|(t, _)| t).into();
    }
    fn report(c: &CellResult) -> &RunReport {
        &c.first().expect("no failures past the guard").report
    }
    let na2 = report(na).relay().tx_data_frames as f64;
    for (policy, pair) in &pairs {
        // Paper convention: star NA baseline = 2x the 2-hop NA count.
        let sides = by(pair, |s| s.topology, [TopologyKind::Linear(2), TopologyKind::Star])
            .map(|c| (paper_of(file, &c.spec).expect("a papered cell"), report(c)));
        let bases = [na2, na2 * 2.0];
        for (i, (t, precision)) in tables.iter_mut().enumerate() {
            let mut row = vec![policy.name().to_string()];
            for ((paper, r), base) in sides.iter().zip(bases) {
                let relay = r.relay();
                let here = [
                    relay.avg_frame_size(),
                    r.size_overhead(1) * 100.0,
                    relay.tx_data_frames as f64 / base * 100.0,
                ];
                row.push(format!("{:.p$} / {:.p$}", paper[i], here[i], p = *precision));
            }
            t.row(row);
        }
    }
    let [(mut size_t, _), (ovh_t, _), (mut tx_t, _)] = tables;
    size_t.note("paper: UA size barely changes 2-hop->star; BA grows (cross-session ACK aggregation)");
    // EXPERIMENTS.md does not exist; the note keeps its words because
    // tests/golden/experiments.txt pins every rendered byte.
    tx_t.note("star NA baseline follows the paper's 2x-2-hop convention (they had no star NA run; we do — see EXPERIMENTS.md)");
    vec![size_t, ovh_t, tx_t]
}

/// Table 8: average frame size at every node of the 2- and 3-hop
/// chains, one row per policy with `#! paper=` lines, whose values are
/// the paper's size (B) at each node of the line's chain.
fn table8_frame_sizes(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let headers =
        ["policy", "server(2)", "relay(2)", "client(2)", "server(3)", "relay1(3)", "relay2(3)", "client(3)"];
    let mut t = Table::new(caption(file), &headers);
    for (policy, pair) in group(cells.iter().filter(|c| paper_of(file, &c.spec).is_some()), |s| s.policy) {
        let chains = by(&pair, |s| s.topology, [TopologyKind::Linear(2), TopologyKind::Linear(3)]);
        // Both chains' runs, or neither: a failed cell marks its own
        // columns and dashes its partner's.
        let both = chains.iter().all(|c| c.first().is_some());
        let mut out = vec![policy.name().to_string()];
        for cell in chains {
            let paper = paper_of(file, &cell.spec).expect("a papered cell");
            out.extend(paper.iter().enumerate().map(|(node, p)| match cell.first() {
                Some(run) if both => format!("{p:.0} / {:.0}", run.report.nodes[node].avg_frame_size()),
                Some(_) => dash(),
                None => cell.failed_label(),
            }));
        }
        t.row(out);
    }
    noted(t, file)
}

/// A mixed-traffic row's label: flow 1's background load, or `none`.
fn background(spec: &ScenarioSpec) -> String {
    match spec.effective_flows().get(1).map(|f| f.traffic) {
        None => "none".to_string(),
        Some(FlowTraffic::Cbr { interval, payload }) => {
            let ms = interval.as_millis();
            let offered = payload as f64 * 8.0 / (ms as f64 / 1e3);
            format!("{payload}B/{ms}ms ({:.0} kb/s)", offered / 1e3)
        }
        Some(other) => other.to_string(),
    }
}

/// Extension, mixed traffic (docs/REPRODUCTION.md): one row per
/// background load, the transfer's and the background's goodput per
/// policy.
fn ext_mixed(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let headers = ["background", "NA tcp", "NA cbr", "UA tcp", "UA cbr", "BA tcp", "BA cbr", "BA/NA tcp"];
    let mut t = Table::new(caption(file), &headers);
    // Flow 0 is the transfer, flow 1 (when present) the background.
    let flow = |cell, idx: usize| mean(cell, |run| run.per_flow[idx].bps).unwrap_or(0.0);
    for (label, row) in group(cells, background) {
        let row = by(&row, |s| s.policy, POLICIES);
        let mut out = vec![label];
        for cell in row {
            if cell.first().is_none() {
                out.push(cell.failed_label());
                out.push(cell.failed_label());
                continue;
            }
            let starved = cell.ok_runs().any(|r| !r.completed);
            out.push(format!("{}{}", mbps(flow(cell, 0)), if starved { "*" } else { "" }));
            out.push(if cell.spec.effective_flows().len() > 1 { mbps(flow(cell, 1)) } else { dash() });
        }
        let (na, ba) = (flow(row[0], 0), flow(row[2], 0));
        out.push(if row[0].first().is_none() || row[2].first().is_none() {
            dash()
        } else if na > 0.0 {
            format!("{:+.1}%", (ba / na - 1.0) * 100.0)
        } else {
            "NA starved".into()
        });
        t.row(out);
    }
    noted(t, file)
}

/// Mean per-flow goodput (bit/s) over a cell's replications of one
/// flow class (`file` selects transfers vs CBR) — plus how many of
/// that class completed (file flows) or delivered anything (window
/// flows) in the first replication.
fn flow_class_stats(cell: &CellResult, file: bool) -> (f64, usize, usize) {
    let mut sum = 0.0;
    let mut count = 0;
    for run in cell.ok_runs() {
        for f in run.per_flow.iter().filter(|f| f.flow.traffic.is_file() == file) {
            sum += f.bps;
            count += 1;
        }
    }
    let Some(first_run) = cell.first() else {
        return (0.0, 0, 0);
    };
    let first = &first_run.per_flow;
    let total = first.iter().filter(|f| f.flow.traffic.is_file() == file).count();
    let good = first
        .iter()
        .filter(|f| f.flow.traffic.is_file() == file)
        .filter(|f| if file { f.completed_at.is_some() } else { f.bps > 0.0 })
        .count();
    (if count == 0 { 0.0 } else { sum / count as f64 }, good, total)
}

/// Extension, mesh scale (docs/REPRODUCTION.md): one row per mesh, the
/// per-flow TCP and CBR goodput per policy.
fn ext_scale(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let headers = ["mesh", "flows", "NA tcp", "UA tcp", "BA tcp", "NA cbr", "UA cbr", "BA cbr"];
    let mut t = Table::new(caption(file), &headers);
    for (topology, row) in group(cells, |s| s.topology) {
        let TopologyKind::RandomMesh { nodes, area_m, .. } = topology else {
            panic!("{}: every cell is a random mesh", caption(file))
        };
        let row = by(&row, |s| s.policy, POLICIES);
        let (_, _, tcp_n) = flow_class_stats(row[0], true);
        let (_, _, cbr_n) = flow_class_stats(row[0], false);
        let mut out = vec![format!("{nodes} nodes / {area_m} m"), format!("{tcp_n} tcp + {cbr_n} cbr")];
        for file_flows in [true, false] {
            out.extend(row.iter().map(|cell| {
                cell.cell_with(|_| {
                    let (bps, good, n) = flow_class_stats(cell, file_flows);
                    format!("{:.1} ({good}/{n})", bps / 1e3)
                })
            }));
        }
        t.row(out);
    }
    noted(t, file)
}

/// Extension, bursty channels (docs/REPRODUCTION.md): one row per loss
/// model, the first note computed from the Gilbert–Elliott rows.
fn ext_burst(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let model = |s: &ScenarioSpec| s.link_error.as_ref().and_then(|e| e.model);
    let mut t = Table::new(caption(file), &["loss model", "mean", "NA", "UA", "BA", "UA/NA"]);
    for (m, row) in group(cells, model) {
        let (label, mean) = match m {
            None => ("clean", dash()),
            Some(m) => {
                let label =
                    if matches!(m, LinkErrorModel::Independent { .. }) { "independent" } else { "bursty" };
                (label, format!("{:.0}%", m.stationary_loss() * 100.0))
            }
        };
        let row = by(&row, |s| s.policy, POLICIES);
        let mut out = vec![label.into(), mean];
        out.extend(row.iter().map(|c| c.mean_cell()));
        out.push(ratio(row[1], row[0], THROUGHPUT).map_or_else(dash, |r| format!("{r:.2}x")));
        t.row(out);
    }
    let bursty = cells.iter().find_map(|c| match model(&c.spec) {
        Some(m @ LinkErrorModel::GilbertElliott { p_gb, p_bg, .. }) => Some((m, p_gb, p_bg)),
        _ => None,
    });
    let (m, p_gb, p_bg) = bursty.unwrap_or_else(|| panic!("{}: no Gilbert–Elliott row", caption(file)));
    t.note(format!(
        "bursty = Gilbert–Elliott p_gb={p_gb}, p_bg={p_bg} ({:.0}% bad-state \
         occupancy, mean burst ~{:.1} frames), bad-state loss scaled to match the row's mean",
        m.stationary_bad() * 100.0,
        m.mean_burst_len().unwrap_or(f64::INFINITY)
    ));
    noted(t, file)
}

/// Ablation, DBA flush timeout: one row per DBA flush timeout, 2- and
/// 3-hop, with the BA baselines in the first note.
fn ablation_dba_flush(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    fn chains<'a>(row: &[&'a CellResult]) -> [&'a CellResult; 2] {
        by(row, |s| s.topology, [TopologyKind::Linear(2), TopologyKind::Linear(3)])
    }
    let of = |policy| cells.iter().filter(move |c| c.spec.policy == policy);
    let mut t = Table::new(caption(file), &["flush (ms)", "2-hop DBA", "3-hop DBA"]);
    for (flush, row) in group(of(Policy::Dba), |s| s.flush_timeout) {
        let [two, three] = chains(&row);
        let flush = flush.map_or_else(dash, |f| f.as_millis().to_string());
        t.row(vec![flush, two.mean_cell(), three.mean_cell()]);
    }
    let [two, three] = chains(&of(Policy::Ba).collect::<Vec<_>>());
    t.note(format!("BA baselines: 2-hop {}, 3-hop {} Mbps", two.mean_cell(), three.mean_cell()));
    noted(t, file)
}

/// Ablation, broadcast position: the per-portion CRC loss rates of each
/// spec line's first run, one row per line.
fn ablation_broadcast_position(file: &SweepFile, cells: &[CellResult]) -> Vec<Table> {
    let headers = ["max agg (KB)", "bcast CRC loss rate", "unicast portion drop rate"];
    let mut t = Table::new(caption(file), &headers);
    for cell in cells {
        let kb = cell.spec.max_aggregate / 1024;
        let Some(run) = cell.first() else {
            t.row(vec![format!("{kb}"), cell.failed_label(), cell.failed_label()]);
            continue;
        };
        let (mut b_ok, mut b_fail, mut u_ok, mut u_fail) = (0u64, 0u64, 0u64, 0u64);
        for n in &run.report.nodes {
            b_ok += n.bcast_ok + n.bcast_filtered;
            b_fail += n.bcast_crc_fail;
            u_ok += n.unicast_ok;
            u_fail += n.unicast_crc_drops;
        }
        let rate = |fail: u64, ok: u64| {
            if fail + ok == 0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", fail as f64 / (fail + ok) as f64 * 100.0)
            }
        };
        t.row(vec![format!("{kb}"), rate(b_fail, b_ok), rate(u_fail, u_ok)]);
    }
    noted(t, file)
}

/// Runs through `runner`, and prints as each is done, the shipped
/// experiments `names` selects, in registry order, then each of `files`
/// (a path and its parsed text) as its [`listing`], in the order given.
/// A file runs at `seeds` replications, else at its `#! seeds=`, else
/// at 3. Returns the printed text and one line per failed replication
/// (see [`failure_lines`]) under its experiment's name or file's path:
/// failures degrade cells, they never abort runs.
pub fn run_tables(
    runner: &ExperimentRunner,
    seeds: Option<u64>,
    names: &[String],
    files: &[(String, SweepFile)],
) -> (String, Vec<String>) {
    let (mut text, mut failures) = (String::new(), Vec::new());
    let mut run = |source: &str, file: &SweepFile, draw: &dyn Fn(&[CellResult], u64) -> Vec<Table>| {
        let seeds = seeds.or(file.meta.seeds).unwrap_or(3);
        let cells = runner.run_sweep(&file.specs, seeds);
        for t in draw(&cells, seeds) {
            let s = t.render();
            println!("{s}");
            text.push_str(&s);
            text.push('\n');
        }
        failures.extend(failure_lines(source, &cells));
    };
    for &(name, _, render) in SHIPPED.iter().filter(|(n, ..)| names.iter().any(|m| m == n)) {
        let file = shipped(name);
        run(name, &file, &|cells, _| render(&file, cells));
    }
    for (path, file) in files {
        if file.specs.is_empty() {
            eprintln!("{path}: no scenarios, skipping");
            continue;
        }
        run(path, file, &|cells, seeds| vec![listing(path, file, seeds, cells)]);
    }
    (text, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{Cat, Ledger};
    use hydra_netsim::{NodeReport, RunError, RunOutcome, RunPerf};
    use hydra_sim::{Duration, Instant};

    /// A successful run: `throughput_bps`, and three nodes whose time
    /// overhead is `overhead_ns` of every 1000 ns of airtime.
    fn run(throughput_bps: f64, overhead_ns: u64) -> Result<RunOutcome, RunError> {
        let mut ledger = Ledger::default();
        ledger.add(Cat::Payload, Duration::from_nanos(1000 - overhead_ns));
        ledger.add(Cat::Difs, Duration::from_nanos(overhead_ns));
        let node = |node| NodeReport { node, ledger, ..NodeReport::default() };
        let nodes = (0..3).map(node).collect();
        Ok(RunOutcome {
            completed: true,
            throughput_bps,
            per_flow: Vec::new(),
            report: RunReport { nodes, at: Instant::ZERO, collisions: 0, phy_header_bytes: 8 },
            perf: RunPerf::default(),
        })
    }

    fn mbps_run(mbps: f64) -> Result<RunOutcome, RunError> {
        run(mbps * 1e6, 0)
    }

    fn failed() -> Result<RunOutcome, RunError> {
        Err(RunError::BudgetExhausted { events: 10 })
    }

    /// Fabricated cells: one per spec line of `file`, its runs `runs(spec)`.
    fn fabricate(
        file: &SweepFile,
        runs: impl Fn(&ScenarioSpec) -> Vec<Result<RunOutcome, RunError>>,
    ) -> Vec<CellResult> {
        file.specs.iter().map(|spec| CellResult { spec: spec.clone(), runs: runs(spec) }).collect()
    }

    fn text(name: &str) -> &'static str {
        SHIPPED.iter().find(|(n, ..)| *n == name).expect("shipped").1
    }

    #[test]
    fn run_tables_logs_each_failed_replication_under_its_file_and_cell() {
        let line = "topo=linear:1 policy=ua rate=1.3 traffic=cbr:20ms:1045 duration=200ms";
        let stalled = format!("{line} budget=events:10");
        let file = |text: String| parse_scn_file(&text).unwrap();
        let files = [
            ("probe.scn".to_string(), file(format!("#! seeds=1\n{line}\n{line}\n{stalled}\n"))),
            ("other.scn".to_string(), file(format!("#! seeds=2\n{stalled}\n"))),
            ("empty.scn".to_string(), file("# nothing to run\n".to_string())),
        ];
        let (text, failures) = run_tables(&ExperimentRunner::sequential(), None, &[], &files);
        assert_eq!(
            failures,
            [
                "probe.scn:2 rep 1: run budget exhausted after 10 events",
                "other.scn:0 rep 1: run budget exhausted after 10 events",
                "other.scn:0 rep 2: run budget exhausted after 10 events",
            ]
        );
        // One listing per file with lines, each at its own `#! seeds=`.
        let titles: Vec<&str> = text.lines().filter(|l| l.starts_with("## ")).collect();
        assert_eq!(
            titles,
            ["## probe.scn — 3 scenarios × 1 seed(s)", "## other.scn — 1 scenarios × 2 seed(s)"]
        );
        // `--seeds` wins over the directive.
        let (text, failures) = run_tables(&ExperimentRunner::sequential(), Some(1), &[], &files[1..]);
        assert!(text.starts_with("## other.scn — 1 scenarios × 1 seed(s)\n"), "{text}");
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn a_listing_shows_every_replication_and_marks_stuck_and_failed_cells() {
        let lines = "#! note=fabricated numbers\n\
                     topo=linear:1 policy=ua rate=1.3 traffic=file:20480\n\
                     topo=linear:1 policy=ba rate=1.3 traffic=file:20480\n\
                     topo=linear:1 policy=na rate=1.3 traffic=file:20480\n\
                     topo=linear:1 policy=dba rate=1.3 traffic=file:20480\n";
        let stuck = |mbps| {
            let mut r = mbps_run(mbps);
            r.as_mut().unwrap().completed = false;
            r
        };
        let runs = |s: &ScenarioSpec| match s.policy {
            Policy::Ua => vec![mbps_run(0.5), mbps_run(0.25)],
            Policy::Ba => vec![mbps_run(1.0), stuck(0.5)],
            Policy::Na => vec![mbps_run(0.2), failed()],
            _ => vec![failed(), failed()],
        };
        let file = parse_scn_file(lines).unwrap();
        let t = listing("demo.scn", &file, 2, &fabricate(&file, runs));
        assert_eq!(t.title, "demo.scn — 4 scenarios × 2 seed(s)");
        assert_eq!(t.headers, ["#", "scenario", "mean Mbps", "per-seed Mbps"]);
        for (i, (row, spec)) in t.rows.iter().zip(&file.specs).enumerate() {
            assert_eq!(row[..2], [i.to_string(), spec.to_scn()]);
        }
        let numbers: Vec<[&str; 2]> = t.rows.iter().map(|r| [&*r[2], &*r[3]]).collect();
        assert_eq!(
            numbers,
            [
                ["0.375", "0.500 0.250"],
                ["0.750 (STUCK)", "1.000 0.500"],
                ["0.200", "0.200 FAILED(budget)"],
                ["FAILED(budget)", "FAILED(budget) FAILED(budget)"],
            ]
        );
        assert_eq!(t.notes, ["fabricated numbers"]);
        // A caption leads the title; the path and counts follow it.
        let file = parse_scn_file(&format!("#! caption=Demo\n{lines}")).unwrap();
        let t = listing("demo.scn", &file, 2, &fabricate(&file, runs));
        assert_eq!(t.title, "Demo [demo.scn — 4 scenarios × 2 seed(s)]");
    }

    #[test]
    fn a_failed_cell_prints_failed_and_a_ratio_with_a_failed_side_prints_a_dash() {
        let file = parse_scn_file(
            "#! rows=rate | rate\n#! col=fine | policy=ua\n#! col=stalled | policy=na\n\
             #! gain=gain | policy=ua / policy=na\n\
             topo=linear:1 policy=ua rate=1.3 traffic=cbr:20ms:1045 duration=200ms\n\
             topo=linear:1 policy=na rate=1.3 traffic=cbr:20ms:1045 duration=200ms budget=events:10\n",
        )
        .unwrap();
        let cells = ExperimentRunner::sequential().run_sweep(&file.specs, 2);
        assert!(cells[1].first().is_none(), "every replication of the stalled cell fails");

        let t = &render(&file, &cells)[0];
        assert_eq!(t.rows[0][1], mbps(cells[0].mean_throughput_bps()));
        assert_eq!(t.rows[0][2], "FAILED(budget)");
        assert_eq!(t.rows[0][3], "-");
        assert_eq!(gain(&cells[1], &cells[0], THROUGHPUT), None);
        assert_eq!(gain(&cells[0], &cells[0], THROUGHPUT), Some(0.0));
    }

    #[test]
    fn every_table_renders_from_all_failed_cells() {
        for (name, text, render) in SHIPPED {
            let file = parse_scn_file(text).unwrap();
            let tables = render(&file, &fabricate(&file, |_| vec![failed(), failed()]));
            let Some(layout) = &file.meta.table else {
                // A named renderer's table: each row shows the failure,
                // or the table says it cannot be drawn.
                for t in &tables {
                    let unavailable = t.notes.iter().any(|n| n.starts_with("unavailable"));
                    for row in &t.rows {
                        assert!(unavailable || row.iter().any(|c| c == "FAILED(budget)"), "{name}: {row:?}");
                    }
                }
                continue;
            };
            for row in &tables[0].rows {
                let mut at = 1;
                for col in &layout.cols {
                    // The paper's own column keeps the paper's value.
                    at += usize::from(col.paper_header.is_some());
                    assert_eq!(row[at], "FAILED(budget)", "{name}: {row:?}");
                    at += 1;
                }
                if let Some((g, _)) = &layout.gain {
                    at += usize::from(g.paper_header.is_some());
                    assert_eq!(row[at], "-", "{name}: {row:?}");
                }
            }
        }
    }

    #[test]
    fn every_shipped_selector_matches_exactly_one_spec_line() {
        for name in names() {
            let file = shipped(name);
            if let Some(layout) = &file.meta.table {
                // `join` panics unless every (row, selector) pair
                // matches one line, and every line is some column's.
                let rows = join(&file, &file.specs, |s| s);
                for spec in &file.specs {
                    let used = rows
                        .iter()
                        .any(|(_, row)| row[..layout.cols.len()].iter().any(|s| std::ptr::eq(*s, spec)));
                    assert!(used, "{name}: `{}` is in no column", spec.to_scn());
                }
            }
            for (select, _) in &file.meta.paper {
                let n = file.specs.iter().filter(|s| select.matches(s)).count();
                assert_eq!(n, 1, "{name}: paper line {select:?} matches {n} spec lines");
            }
        }
    }

    #[test]
    fn a_shuffled_file_renders_the_same_table() {
        let text = text("table4_time_overhead");
        let (directives, lines): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.starts_with('#'));
        // Every third line first, then the rest backwards.
        let mut shuffled: Vec<&str> = lines.iter().copied().step_by(3).collect();
        shuffled.extend(lines.iter().enumerate().rev().filter(|(i, _)| i % 3 != 0).map(|(_, l)| *l));
        assert_ne!(shuffled, lines);
        let shuffled = [directives, shuffled].concat().join("\n");
        // Each cell's numbers are a function of its spec alone.
        let numbers = |spec: &ScenarioSpec| {
            let h = spec.stable_hash() % 1000;
            vec![run(h as f64 * 1e3, h / 2)]
        };
        let draw = |text: &str| {
            let file = parse_scn_file(text).unwrap();
            render(&file, &fabricate(&file, numbers))[0].render()
        };
        assert_eq!(draw(text), draw(&shuffled));
    }

    #[test]
    fn an_inline_file_is_a_table_with_no_rust_of_its_own() {
        let file = parse_scn_file(
            "#! caption=Demo — BA vs UA by hops\n\
             #! seeds=2\n\
             #! rows=hops | topo\n\
             #! col=UA | policy=ua\n\
             #! col=BA paper, BA | policy=ba\n\
             #! gain=BA/UA | policy=ba / policy=ua\n\
             #! paper=topo=linear:3 policy=ba | 0.5\n\
             #! note=fabricated numbers\n\
             topo=linear:3 policy=ba rate=1.3 traffic=file:204800\n\
             topo=linear:2 policy=ua rate=1.3 traffic=file:204800\n\
             topo=linear:3 policy=ua rate=1.3 traffic=file:204800\n\
             topo=linear:2 policy=ba rate=1.3 traffic=file:204800\n",
        )
        .unwrap();
        let cells = fabricate(&file, |s| {
            let mbps = match (s.topology, s.policy) {
                (TopologyKind::Linear(2), Policy::Ua) => 1.0,
                (TopologyKind::Linear(2), _) => 1.1,
                (_, Policy::Ua) => 0.4,
                _ => 0.5,
            };
            vec![mbps_run(mbps), mbps_run(mbps)]
        });
        assert_eq!(
            render(&file, &cells)[0].render(),
            "## Demo — BA vs UA by hops\n\
             | hops | UA    | BA paper | BA    | BA/UA  |\n\
             |------|-------|----------|-------|--------|\n\
             | 2    | 1.000 | -        | 1.100 | +10.0% |\n\
             | 3    | 0.400 | 0.500    | 0.500 | +25.0% |\n\
             > fabricated numbers\n"
        );
    }

    #[test]
    fn a_cell_is_the_mean_of_its_replications_and_a_zero_denominator_prints_a_dash() {
        let file = shipped("ext_spatial_rts");
        // RTS/CTS on delivers 0.1 then 0.3 Mbps; off is starved.
        let cells = fabricate(&file, |s| {
            if s.rts_cts {
                vec![mbps_run(0.1), mbps_run(0.3)]
            } else {
                vec![mbps_run(0.0), mbps_run(0.0)]
            }
        });
        let t = &render(&file, &cells)[0];
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            assert_eq!(row[1..], ["0.200", "0.000", "-"]);
        }
    }

    #[test]
    fn the_max_gap_notes_take_the_largest_gap_that_could_be_computed() {
        let fig11 = shipped("fig11_2hop");
        // BA trails UA at every rate: the largest gap is negative.
        let trailing = fabricate(&fig11, |s| vec![mbps_run(if s.policy == Policy::Ba { 0.9 } else { 1.0 })]);
        let note = |t: &[Table]| t[0].notes.last().cloned().unwrap();
        assert_eq!(
            note(&fig11_2hop(&fig11, &trailing)),
            "paper: BA always >= UA, max gap ~10%; measured max gap -10.0%"
        );
        // No gap can be computed: a dash, not 0.0%.
        let none = fabricate(&fig11, |s| vec![if s.policy == Policy::Ba { failed() } else { mbps_run(1.0) }]);
        assert_eq!(
            note(&fig11_2hop(&fig11, &none)),
            "paper: BA always >= UA, max gap ~10%; measured max gap -"
        );
        let fig12 = shipped("fig12_topologies");
        let none = fabricate(&fig12, |s| vec![if s.policy == Policy::Ba { failed() } else { mbps_run(1.0) }]);
        assert!(note(&fig12_topologies(&fig12, &none)).ends_with("; measured - / -"));
    }

    #[test]
    fn table2_and_table4_specs_are_the_grids_the_benchmark_reads() {
        let grid =
            |rates: &[&str], policies: &[&str], traffic: &dyn Fn(&str) -> String| -> Vec<Vec<ScenarioSpec>> {
                let line = |rate: &str, policy: &str| {
                    ScenarioSpec::from_scn(&format!(
                        "topo=linear:2 policy={policy} rate={rate} traffic={}",
                        traffic(rate)
                    ))
                    .unwrap()
                };
                rates.iter().map(|r| policies.iter().map(|p| line(r, p)).collect()).collect()
            };
        let cbr = |rate: &str| format!("cbr:{}:1045", if rate == "0.65" { "30600us" } else { "17400us" });
        assert_eq!(table2_udp_specs(), grid(&["0.65", "1.3"], &["na", "ua"], &cbr));
        let file = |_: &str| "file:204800".to_string();
        let rates = ["0.65", "1.3", "1.95", "2.6"];
        assert_eq!(table4_time_overhead_specs(), grid(&rates, &["na", "ua", "ba", "dba"], &file));
    }

    #[test]
    fn the_benchmarks_paper_quotes_are_the_files_paper_lines() {
        let quote = |name: &str, rate: f64, policy: Policy| {
            let file = shipped(name);
            let spec = pick_spec(&file, |s| s.rate.mbps() == rate && s.policy == policy);
            let line = file.meta.paper.iter().find(|(sel, _)| sel.matches(spec));
            line.unwrap_or_else(|| panic!("{name}: no paper line for {rate} {policy:?}")).1[0]
        };
        for (rate, na, ua, gain) in crate::paper::TABLE2 {
            assert_eq!(
                (quote("table2_udp", rate, Policy::Na), quote("table2_udp", rate, Policy::Ua)),
                (na, ua)
            );
            // The file's paper gain is the ratio of its paper values.
            assert_eq!(format!("{:.1}", (ua / na - 1.0) * 100.0), format!("{gain:.1}"));
        }
        for (rate, na, ua, ba, dba) in crate::paper::TABLE4 {
            let q = |p| quote("table4_time_overhead", rate, p);
            assert_eq!([q(Policy::Na), q(Policy::Ua), q(Policy::Ba), q(Policy::Dba)], [na, ua, ba, dba]);
        }
    }

    /// The one spec line of `file` `f` accepts.
    fn pick_spec(file: &SweepFile, f: impl Fn(&ScenarioSpec) -> bool) -> &ScenarioSpec {
        let found: Vec<&ScenarioSpec> = file.specs.iter().filter(|s| f(s)).collect();
        assert_eq!(found.len(), 1);
        found[0]
    }
}
