//! Command line of the two binaries.
//!
//! `bench` is the entry point for everything:
//!
//! ```text
//! bench run     [--seed S] [--quick]     every workload, end to end, as JSON
//! bench trace   [--seed S] [--quick]     the traced run: per-layer table + out/trace.json
//! bench compare A.json B.json            verdict per (metric, workload)
//! bench --workload W --seed S --seconds T --trace 0|1     one workload, driver contract
//! ```
//!
//! `bench run` and `bench trace` start one child process per workload,
//! strictly one after another, so the load never exceeds the workload's
//! own thread count. The `trace` binary is the same code with
//! `hydra_sim::CountingAlloc` installed; only `bench` starts it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use crate::compare;
use crate::harness::{self, ChildOpts, Measured, PassBudget};
use crate::json::{self, obj, Value};
use crate::kernels::{self, KernelBudget};
use crate::metrics::{self, Kind, PER_LAYER};
use crate::procfs;
use crate::stats::median;
use crate::workloads::{Workload, ALL};

const USAGE: &str = "\
usage: bench run     [--seed S] [--quick]
       bench trace   [--seed S] [--quick]
       bench compare A.json B.json
       bench --workload NAME --seed S --seconds T --trace 0|1

run      runs the five workloads one after another, each in its own
         process, checks their outputs and prints every end-to-end
         metric (median, quartiles, samples) as JSON on stdout
trace    the traced run: one traced pass per workload plus the layer
         kernels; prints the per-layer metrics as JSON on stdout, the
         layer table on stderr, and writes benchmark/out/trace.json
         (needs the `trace` binary: build the package with --bins)
compare  compares two `bench run` outputs row by row; exits non-zero
         on a regression or on any difference in simulated results
--quick  1 pass, 3 set-up repetitions, 20 ms kernels; marked
         \"quick\": true and refused by compare
--seed   written into every generated spec's seed field (default 1)
";

/// Set-up of a measuring run: at least 15 repetitions, for at least 1 s.
const FULL_SETUP: (usize, f64) = (15, 1.0);
/// Set-up of a smoke run or of the reference run before a traced one.
const BRIEF_SETUP: (usize, f64) = (3, 0.0);
/// Kernel sampling of a full traced run.
const FULL_KERNELS: KernelBudget = KernelBudget { sample: Duration::from_millis(200), samples: 9 };
/// Kernel sampling of a `--quick` traced run.
const QUICK_KERNELS: KernelBudget = KernelBudget { sample: Duration::from_millis(20), samples: 9 };

/// The repository root: the benchmark package lives one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Flag values of one invocation.
#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
    kernels: bool,
    brief: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => a.quick = true,
                "--kernels" => a.kernels = true,
                "--brief" => a.brief = true,
                flag if flag.starts_with("--") => {
                    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    a.flags.push((flag.to_string(), value.clone()));
                }
                _ => a.positional.push(arg.clone()),
            }
        }
        Ok(a)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == flag).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag).map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))).transpose()
    }

    fn workload(&self, flag: &str) -> Result<Workload, String> {
        let name = self.get(flag).ok_or_else(|| format!("{flag} is required"))?;
        Workload::from_name(name).ok_or_else(|| {
            let names: Vec<_> = ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (one of: {})", names.join(", "))
        })
    }

    fn child_opts(&self, flag: &str, budget: PassBudget, setup: (usize, f64)) -> Result<ChildOpts, String> {
        Ok(ChildOpts {
            workload: self.workload(flag)?,
            seed: self.num("--seed")?.unwrap_or(1),
            budget,
            setup_reps: setup.0,
            setup_min_s: setup.1,
            root: repo_root(),
            out_dir: out_dir(),
        })
    }
}

/// Entry point of both binaries; `traced_binary` is true in `trace`,
/// where the counting allocator is installed.
pub fn main(traced_binary: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| {
        if traced_binary {
            traced_child(&args)
        } else {
            match args.positional.first().map(String::as_str) {
                Some("run") => run(&args),
                Some("trace") => trace(&args),
                Some("compare") => compare_files(&args),
                None if args.get("--child").is_some() => untraced_child(&args),
                None if args.get("--workload").is_some() => driver(&args),
                _ => Err(format!("nothing to do\n\n{USAGE}")),
            }
        }
    });
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------

/// `bench --child W --seed S --passes N [--brief]`: one workload's
/// end-to-end run; prints its report as the last line of stdout.
fn untraced_child(args: &Args) -> Result<ExitCode, String> {
    let passes = args.num("--passes")?.ok_or("--passes is required")?;
    let setup = if args.brief { BRIEF_SETUP } else { FULL_SETUP };
    let measured = harness::measure(&args.child_opts("--child", PassBudget::Passes(passes), setup)?)?;
    println!("{}", measured.to_json().compact());
    Ok(ExitCode::SUCCESS)
}

/// `trace --child W --seed S --untraced-wall-s X [--kernel-ms K]` or
/// `trace --kernels --kernel-ms K`: the traced run of one workload
/// and/or the kernels; prints its report as the last line of stdout.
fn traced_child(args: &Args) -> Result<ExitCode, String> {
    let mut report = obj([]);
    if args.get("--child").is_some() {
        let untraced = args.num("--untraced-wall-s")?.ok_or("--untraced-wall-s is required")?;
        let opts = args.child_opts("--child", PassBudget::Passes(1), BRIEF_SETUP)?;
        let traced = harness::trace_workload(&opts, untraced)?;
        report = traced.to_json();
        report.push("spans", traced.spans);
    } else if !args.kernels {
        return Err("the trace binary is started by `bench trace`; run that instead".to_string());
    }
    if let Some(ms) = args.num::<f64>("--kernel-ms")?.filter(|ms| *ms > 0.0) {
        let budget = KernelBudget { sample: Duration::from_secs_f64(ms / 1e3), samples: 9 };
        let rows = kernels::run_all(&budget, &repo_root())?;
        report.push(
            "kernels",
            Value::Obj(rows.into_iter().map(|r| (r.name.to_string(), r.value.into())).collect()),
        );
    }
    println!("{}", report.compact());
    Ok(ExitCode::SUCCESS)
}

/// Runs `exe args…`, passing its stderr through, and parses the last
/// line of its stdout as JSON. The child has ended when this returns.
fn spawn_json(exe: &Path, args: &[String]) -> Result<Value, String> {
    let what = format!("{} {}", exe.display(), args.join(" "));
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {what}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{what}: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{what}: printed nothing"))?;
    json::parse(last).map_err(|e| format!("{what}: {e}"))
}

fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))
}

/// The `trace` binary, built beside this one.
fn trace_exe() -> Result<PathBuf, String> {
    let exe = this_exe()?.with_file_name(format!("trace{}", std::env::consts::EXE_SUFFIX));
    if exe.exists() {
        Ok(exe)
    } else {
        Err(format!(
            "{} is missing; build both binaries first:\n  \
             cargo build --release --manifest-path benchmark/Cargo.toml --bins",
            exe.display()
        ))
    }
}

/// `--child W --seed S` followed by `rest`, as a child's argument list.
fn child_args(w: Workload, seed: u64, rest: &[&str]) -> Vec<String> {
    let seed = seed.to_string();
    ["--child", w.name(), "--seed", &seed].iter().chain(rest).map(|s| s.to_string()).collect()
}

// ---------------------------------------------------------------------
// bench run
// ---------------------------------------------------------------------

/// The commit of the enclosing git checkout, read from `.git` directly
/// (no `git` process; `unknown` outside a checkout).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(schema: &str, seed: u64, quick: bool) -> Value {
    let (nproc, cpu_model) = procfs::machine();
    obj([
        ("schema", schema.into()),
        ("quick", quick.into()),
        ("seed", seed.into()),
        ("commit", git_commit(&repo_root()).into()),
        ("machine", obj([("nproc", nproc.into()), ("cpu_model", cpu_model.into())])),
        ("load", "closed loop: the next (spec, replication) job starts when a runner worker is free".into()),
    ])
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.num("--seed")?.unwrap_or(1);
    let exe = this_exe()?;
    let mut workloads = Vec::new();
    for w in ALL {
        let passes = if args.quick { 1 } else { w.passes() };
        eprintln!("bench run: {} ({passes} passes at {} thread(s))", w.name(), w.threads());
        let mut child = child_args(w, seed, &["--passes", &passes.to_string()]);
        if args.quick {
            child.push("--brief".to_string());
        }
        workloads.push((w.name().to_string(), spawn_json(&exe, &child)?));
    }
    let get = |w: Workload, path: &[&str]| -> Option<&Value> {
        workloads.iter().find(|(name, _)| name == w.name()).and_then(|(_, v)| v.at(path))
    };

    // Checks no single process can make.
    let mut cross = Vec::new();
    let (warm, cold) =
        (get(Workload::SweepWarm, &["sim_digest"]), get(Workload::SweepColdPar, &["sim_digest"]));
    cross.push(obj([
        ("name", "warm_digest_equals_cold_parallel_digest".into()),
        ("ok", (warm.is_some() && warm == cold).into()),
        ("detail", "the cache changes cost, never results; 1 thread equals N threads".into()),
    ]));
    let errs: Vec<_> = ALL.iter().map(|&w| get(w, &["metrics", "paper_err_pct", "value"])).collect();
    cross.push(obj([
        ("name", "paper_err_pct_equal_in_every_process".into()),
        ("ok", errs.iter().all(|e| e.is_some() && *e == errs[0]).into()),
        ("detail", "the accuracy probe is simulated: five processes, one answer".into()),
    ]));
    let ok = cross.iter().all(|c| c.get("ok").and_then(Value::as_bool) == Some(true))
        && workloads.iter().all(|(_, w)| w.get("correct").and_then(Value::as_bool) == Some(true));

    for (name, w) in &workloads {
        let v = |m: &str| number(w.at(&["metrics", m, "value"]));
        eprintln!(
            "  {name:<15} wall_s {:>8.4}  setup_s {:>9.6}  peak_rss_mb {:>7.1}  paper_err_pct {:>6.3}  \
             failed {}/{} stranded {}  digest {}  {}",
            v("wall_s"),
            v("setup_s"),
            v("peak_rss_mb"),
            v("paper_err_pct"),
            number(w.get("failed")),
            number(w.get("attempted")),
            number(w.get("stranded_transfers")),
            w.get("sim_digest").and_then(Value::as_str).unwrap_or("?"),
            if w.get("correct").and_then(Value::as_bool) == Some(true) { "ok" } else { "CHECK FAILED" },
        );
    }
    let mut doc = header("hydra-benchmark.run.v1", seed, args.quick);
    doc.push("ok", ok.into());
    doc.push("cross_checks", Value::Arr(cross));
    doc.push("workloads", Value::Obj(workloads));
    print!("{}", doc.pretty());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

// ---------------------------------------------------------------------
// bench trace
// ---------------------------------------------------------------------

/// One workload's traced run: its untraced pass time from this binary,
/// then the traced child. Returns the child's report.
fn trace_one(w: Workload, seed: u64, untraced_wall_s: f64, kernel_ms: f64) -> Result<Value, String> {
    let (wall, kernel_ms) = (untraced_wall_s.to_string(), kernel_ms.to_string());
    spawn_json(&trace_exe()?, &child_args(w, seed, &["--untraced-wall-s", &wall, "--kernel-ms", &kernel_ms]))
}

/// The computed-share rows of the layer table: a kernel's unit cost
/// times a count the workload returned, as a share of the summed job
/// walls. Computed, not measured: spans inside the simulator are a
/// later change, and this is what that change will be checked against.
fn computed_shares(w: Workload, report: &Value, kernels: &Value) -> Vec<(String, f64)> {
    let count = |name: &str| report.at(&["counts", name]).and_then(Value::as_f64).unwrap_or(0.0);
    let kernel = |name: &str| kernels.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    let total_ms = count("job_wall_ms");
    if total_ms <= 0.0 {
        return Vec::new();
    }
    // The 1000-node cells hold thousands of events and fan out to
    // dozens of neighbours; every other world is a handful of nodes.
    let (hold, fanout) = match w {
        Workload::Mesh1000 => ("sim.queue_hold_ns_p4096", "phy.tx_fanout_ns_n1000"),
        _ => ("sim.queue_hold_ns_p64", "phy.tx_fanout_ns_n3"),
    };
    let mut rows = vec![("netsim.build (measured)".to_string(), count("build_ms"))];
    for (label, n, unit_ns) in [
        (format!("queue_pops x {hold}"), count("queue_pops"), kernel(hold)),
        (format!("txs x {fanout}"), count("txs"), kernel(fanout)),
        // The kernels assemble 8 and parse 5 subframes per call; frames in
        // a run carry fewer, and the work is per subframe (copy + CRC).
        (
            "subframes x core.assemble_ns / 8".to_string(),
            count("subframes"),
            kernel("core.assemble_ns") / 8.0,
        ),
        (
            "subframes x wire.parse_trusted_ns / 5".to_string(),
            count("subframes"),
            kernel("wire.parse_trusted_ns") / 5.0,
        ),
        (
            "forwarded x net.receive_forward_ns".to_string(),
            count("forwarded"),
            kernel("net.receive_forward_ns"),
        ),
        (
            "tcp_segments x tcp.segment_ack_ns".to_string(),
            count("tcp_segments"),
            kernel("tcp.segment_ack_ns"),
        ),
    ] {
        rows.push((label, n * unit_ns / 1e6));
    }
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("unattributed remainder".to_string(), (total_ms - attributed).max(0.0)));
    rows.into_iter().map(|(label, ms)| (label, 100.0 * ms / total_ms)).collect()
}

fn trace(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.num("--seed")?.unwrap_or(1);
    let (exe, tracer) = (this_exe()?, trace_exe()?);
    let kernel_budget = if args.quick { QUICK_KERNELS } else { FULL_KERNELS };
    let mut reports = Vec::new();
    for w in ALL {
        eprintln!("bench trace: {}", w.name());
        let passes = if args.quick { "1" } else { "3" };
        let untraced = spawn_json(&exe, &child_args(w, seed, &["--passes", passes, "--brief"]))?;
        let wall = untraced.at(&["metrics", "wall_s", "value"]).and_then(Value::as_f64);
        let wall = wall.ok_or("the untraced child reported no wall_s")?;
        reports.push((w, trace_one(w, seed, wall, 0.0)?));
    }
    eprintln!(
        "bench trace: kernels ({} ms x {} samples each)",
        kernel_budget.sample.as_millis(),
        kernel_budget.samples
    );
    let kernel_ms = (kernel_budget.sample.as_secs_f64() * 1e3).to_string();
    let kernels = spawn_json(&tracer, &["--kernels".to_string(), "--kernel-ms".to_string(), kernel_ms])?;
    let kernels = kernels.get("kernels").cloned().ok_or("the kernel child reported no kernels")?;

    // The layer table, on stderr.
    let names: Vec<_> = ALL.iter().map(|w| format!("{:>15}", w.name())).collect();
    eprintln!("\n{:<36} {:<6}{}", "per-layer metric", "unit", names.join(""));
    for m in &PER_LAYER {
        let cells: Vec<String> = match m.kind {
            Kind::Kernel => {
                vec![format!("{:>15.4}  (kernel: the same on every workload)", number(kernels.get(m.name)))]
            }
            _ => reports
                .iter()
                .map(|(_, r)| match r.at(&["metrics", m.name]).and_then(Value::as_f64) {
                    Some(v) => format!("{v:>15.4}"),
                    None => format!("{:>15}", "-"),
                })
                .collect(),
        };
        eprintln!("{:<36} {:<6}{}", m.name, m.unit, cells.join(""));
    }
    eprintln!("\ncomputed shares of summed job wall time (unit cost x count; computed, not measured)");
    let mut shares_json = Vec::new();
    for (w, report) in &reports {
        let shares = computed_shares(*w, report, &kernels);
        let source =
            if *w == Workload::SweepWarm { " (of the set-up fill; the passes simulate nothing)" } else { "" };
        eprintln!("  {}{source}", w.name());
        for (label, pct) in &shares {
            eprintln!("    {pct:>6.2} %  {label}");
        }
        shares_json.push((
            w.name().to_string(),
            Value::Obj(shares.into_iter().map(|(label, pct)| (label, pct.into())).collect()),
        ));
    }

    let mut doc = header("hydra-benchmark.trace.v1", seed, args.quick);
    doc.push("kernels", kernels);
    doc.push("computed_share_pct", Value::Obj(shares_json));
    // `trace.json` gets everything; stdout gets the same without the
    // span lists (a thousand lines per workload).
    let failed = reports.iter().any(|(_, r)| r.get("failed").and_then(Value::as_f64) != Some(0.0));
    let named = |reports: Vec<(Workload, Value)>| {
        Value::Obj(reports.into_iter().map(|(w, r)| (w.name().to_string(), r)).collect())
    };
    let mut full = doc.clone();
    full.push("workloads", named(reports.clone()));
    write_trace_json(&full)?;
    for (_, report) in &mut reports {
        if let Value::Obj(fields) = report {
            fields.retain(|(key, _)| key != "spans");
        }
    }
    doc.push("workloads", named(reports));
    print!("{}", doc.pretty());
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn number(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn write_trace_json(doc: &Value) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join("trace.json");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------
// bench compare
// ---------------------------------------------------------------------

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(format!("compare takes two result files\n\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let report = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", report.render());
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

// ---------------------------------------------------------------------
// The driver contract: one workload per invocation
// ---------------------------------------------------------------------

/// The last line of stdout under the driver contract.
fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Value)>) -> String {
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Value::Obj(metrics)),
    ])
    .compact()
}

fn report_failures(m: &Measured) {
    for c in m.checks.iter().filter(|c| !c.ok) {
        eprintln!("check failed: {}: {}", c.name, c.detail);
    }
    for r in &m.failure_reasons {
        eprintln!("operation failed: {r}");
    }
    if m.stranded > 0 {
        eprintln!("note: {} transfer(s) missed their deadline on a clean, protected channel", m.stranded);
    }
}

/// `bench --workload W --seed S --seconds T --trace 0|1`.
///
/// With `--trace 0` the workload is measured in this process for `T`
/// seconds of timed passes and every end-to-end metric is printed; with
/// `--trace 1` a shorter untraced measurement gives the reference pass
/// time, the `trace` binary makes the traced run with the kernels
/// scaled to the same budget, and every per-layer metric is printed.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let seconds: f64 = args.num("--seconds")?.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match args.get("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if !traced {
        let m =
            harness::measure(&args.child_opts("--workload", PassBudget::Seconds(seconds), FULL_SETUP)?)?;
        report_failures(&m);
        eprintln!("wall_s samples: {:?}", m.wall_s);
        let metrics = m
            .end_to_end()
            .into_iter()
            .map(|(name, samples)| {
                let unit = metrics::end_to_end(name).map_or("", |e| e.unit);
                (name.to_string(), obj([("value", median(&samples).into()), ("unit", unit.into())]))
            })
            .collect();
        println!("{}", driver_line(m.correct(), m.attempted, m.failed, metrics));
        return Ok(ExitCode::SUCCESS);
    }

    trace_exe()?;
    let third = seconds / 3.0;
    let opts = args.child_opts("--workload", PassBudget::Seconds(third), BRIEF_SETUP)?;
    let m = harness::measure(&opts)?;
    report_failures(&m);
    let kernel_count = PER_LAYER.iter().filter(|p| p.kind == Kind::Kernel).count();
    let kernel_ms = third * 1e3 / (kernel_count * FULL_KERNELS.samples) as f64;
    let report = trace_one(opts.workload, opts.seed, median(&m.wall_s), kernel_ms)?;
    let mut doc = header("hydra-benchmark.trace.v1", opts.seed, false);
    doc.push("workloads", obj([(opts.workload.name(), report.clone())]));
    write_trace_json(&doc)?;

    let failed = number(report.get("failed"));
    let metrics = PER_LAYER
        .iter()
        .filter(|p| p.in_contract)
        .map(|p| {
            let source = if p.kind == Kind::Kernel { "kernels" } else { "metrics" };
            let value = report.at(&[source, p.name]).cloned().unwrap_or(Value::Null);
            (p.name.to_string(), obj([("value", value), ("unit", p.unit.into())]))
        })
        .collect();
    println!("{}", driver_line(m.correct() && failed == 0.0, m.attempted, m.failed + failed as u64, metrics));
    Ok(ExitCode::SUCCESS)
}
