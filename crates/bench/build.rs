//! Emits `MODEL_FINGERPRINT`: FNV-1a over every source file of the
//! simulated model and of the result store's codec. The store file is
//! named by it, so a build reads only records that its own model wrote in
//! its own layout.

use std::path::Path;

/// The hashed sources, relative to the workspace root: every simulator
/// crate's `src` directory, the runner, which derives each run's world
/// seed, and the store's codec (`sweeps.rs`), so an edit to a `row!` list
/// or a column's spelling moves the fingerprint as a simulator edit does.
///
/// Every other type the codec writes lives in a crate listed here:
/// `NodeReport`, `FlowTraffic` and `FlowOutcome` (netsim), `Ledger` and
/// `Cat` (core), `Duration` and `Instant` (sim), and `crc32` (wire).
/// `experiments.rs` and `report.rs` are not hashed: editing a renderer
/// keeps every stored run.
const MODEL: [&str; 10] = [
    "crates/sim/src",
    "crates/wire/src",
    "crates/phy/src",
    "crates/core/src",
    "crates/net/src",
    "crates/tcp/src",
    "crates/app/src",
    "crates/netsim/src",
    "crates/bench/src/runner.rs",
    "crates/bench/src/sweeps.rs",
];

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("../..");
    let mut files = Vec::new();
    for path in MODEL {
        println!("cargo:rerun-if-changed={}", root.join(path).display());
        sources(&root, path.to_string(), &mut files);
    }
    files.sort();
    // Each file's path, then its bytes, each closed by a NUL: a rename or
    // an edit moves the hash.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in &files {
        let bytes = std::fs::read(root.join(file)).unwrap_or_else(|e| panic!("read {file}: {e}"));
        for b in file.bytes().chain([0]).chain(bytes).chain([0]) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let out = Path::new(&std::env::var("OUT_DIR").expect("cargo sets OUT_DIR")).join("model_fingerprint.rs");
    std::fs::write(out, format!("{hash:#018x}\n")).expect("write the fingerprint");
}

/// Pushes `path` (relative to `root`, `/`-separated) if it is a `.rs`
/// file, or every `.rs` file under it if it is a directory.
fn sources(root: &Path, path: String, files: &mut Vec<String>) {
    let full = root.join(&path);
    if full.is_dir() {
        let entries = std::fs::read_dir(&full).unwrap_or_else(|e| panic!("list {path}: {e}"));
        for entry in entries {
            let name = entry.expect("a directory entry").file_name();
            sources(root, format!("{path}/{}", name.to_string_lossy()), files);
        }
    } else if path.ends_with(".rs") {
        files.push(path);
    }
}
