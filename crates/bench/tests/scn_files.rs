//! The `.scn` corpus tests: every shipped experiment grid round-trips
//! through the text format, and the files under `examples/sweeps/` are
//! exactly the registry the experiments compile in, each carrying the
//! caption and replication count its table needs.

use hydra_bench::experiments::shipped_sweeps;
use hydra_netsim::{parse_scn, parse_scn_file, ScenarioSpec, SweepFile};

fn sweeps_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sweeps")
}

fn read_sweep(name: &str) -> SweepFile {
    let path = sweeps_dir().join(format!("{name}.scn"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_scn_file(&text).unwrap_or_else(|e| panic!("{}:{e}", path.display()))
}

/// Round-trip guarantee over the whole shipped corpus: serialize →
/// parse → re-serialize is the identity on text, the value, and the
/// stable hash (and therefore every derived world seed / cache key).
#[test]
fn every_shipped_spec_round_trips() {
    let mut total = 0usize;
    for (name, specs) in shipped_sweeps() {
        for spec in &specs {
            let line = spec.to_scn();
            let back =
                ScenarioSpec::from_scn(&line).unwrap_or_else(|e| panic!("{name}: parse `{line}`: {e}"));
            assert_eq!(&back, spec, "{name}: value drift through `{line}`");
            assert_eq!(back.to_scn(), line, "{name}: text drift through `{line}`");
            assert_eq!(back.stable_hash(), spec.stable_hash(), "{name}: hash drift through `{line}`");
            total += 1;
        }
    }
    assert!(total > 250, "expected the full corpus, saw {total} specs");
}

/// The registry and the directory agree both ways: every shipped sweep
/// `<name>` is the file `examples/sweeps/<name>.scn`, and every `.scn`
/// there (except the hand-written CI smoke sweep) is a shipped sweep.
#[test]
fn every_sweep_file_is_registered() {
    let sweeps = shipped_sweeps();
    for (name, specs) in &sweeps {
        assert_eq!(&read_sweep(name).specs, specs, "{name}: the registry compiled in another file");
    }
    for entry in std::fs::read_dir(sweeps_dir()).expect("examples/sweeps exists") {
        let file = entry.unwrap().file_name().into_string().unwrap();
        let Some(name) = file.strip_suffix(".scn") else { continue };
        if name == "smoke" {
            continue;
        }
        assert!(sweeps.iter().any(|(n, _)| *n == name), "orphan sweep file examples/sweeps/{file}");
    }
}

/// The directives are the only source of each table's title and
/// replication count: every registered file declares one `caption` and
/// one `seeds` (duplicates are already parse errors), so a missing one
/// fails here rather than at render time in `--bin all`.
#[test]
fn registered_files_declare_a_caption_and_seeds() {
    for (name, _) in shipped_sweeps() {
        let meta = read_sweep(name).meta;
        assert!(meta.caption.as_deref().is_some_and(|c| !c.is_empty()), "{name}.scn: no `#! caption=`");
        assert!(meta.seeds.is_some(), "{name}.scn: no `#! seeds=`");
    }
}

/// The hand-written CI smoke sweep must stay parseable too, and carry
/// its sweep-level directives.
#[test]
fn smoke_file_parses() {
    let text = std::fs::read_to_string(sweeps_dir().join("smoke.scn")).expect("smoke.scn exists");
    let file = parse_scn_file(&text).expect("smoke.scn parses");
    assert!(!file.specs.is_empty());
    assert_eq!(file.meta.seeds, Some(2));
    assert!(file.meta.caption.as_deref().unwrap_or("").starts_with("Smoke"));
    // The directive-blind parser sees the same scenarios.
    assert_eq!(parse_scn(&text).unwrap(), file.specs);
}

/// Malformed sweep files die with the offending line number, not a
/// generic error (users hand-edit these).
#[test]
fn malformed_files_report_line_numbers() {
    let text = "# comment\ntopo=linear:2 policy=ba rate=1.3 traffic=file:1000\n\ntopo=linear:2 policy=ba rate=1.3 traffic=file:1000 surprise=1\n";
    let err = parse_scn(text).unwrap_err();
    assert_eq!(err.line, 4);
    assert!(err.msg.contains("unknown key"), "{err}");
}
