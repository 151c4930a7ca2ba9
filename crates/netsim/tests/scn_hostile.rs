//! Hostile input through `parse_scn_file`: whatever the text, the
//! parser returns `Ok` — and then every spec survives `to_scn →
//! from_scn` with an equal value and an equal `stable_hash` — or an
//! `Err` carrying a line number inside the text. It never panics (the
//! suite runs in debug, so arithmetic overflow counts) and nothing here
//! builds or runs a world, so it never hangs either.

use proptest::prelude::*;

use hydra_netsim::{parse_scn_file, ScenarioSpec};

/// The property; the failure names the input.
fn check(text: &str) -> Result<(), TestCaseError> {
    let fail = |why: String| Err(TestCaseError::fail(format!("{why}\ninput: {text:?}")));
    match parse_scn_file(text) {
        Ok(file) => {
            for spec in &file.specs {
                let line = spec.to_scn();
                match ScenarioSpec::from_scn(&line) {
                    Ok(back) if back == *spec && back.stable_hash() == spec.stable_hash() => {}
                    Ok(back) => {
                        return fail(format!("`{line}` does not round-trip: {spec:?} became {back:?}"))
                    }
                    Err(e) => {
                        return fail(format!("`{line}` (canonical form of accepted input) is rejected: {e}"))
                    }
                }
            }
            Ok(())
        }
        Err(e) if (1..=text.lines().count()).contains(&e.line) => Ok(()),
        Err(e) => fail(format!("error `{e}` names a line outside the text")),
    }
}

/// A valid line for the soups and the reproducers to extend.
const BASE: &str = "topo=linear:2 policy=ba rate=1.3 traffic=file:20480";

/// Every `.scn` key with values it accepts and values just past what it
/// accepts.
const KEYS: &[(&str, &[&str])] = &[
    (
        "topo",
        &[
            "linear:1",
            "linear:65534",
            "linear:65535",
            "linear:18446744073709551615",
            "star",
            "cross",
            "grid:3x2",
            "grid:1x1",
            "grid:255x257",
            "grid:256x256",
            "grid:4294967296x4294967296",
            "grid:9223372036854775808x2",
            "mesh:30:80:2",
            "mesh:65535:1:1",
            "mesh:65536:1:1",
            "mesh:18446744073709551615:1:1",
            "mesh:1:1:1",
        ],
    ),
    ("policy", &["na", "ua", "ba", "dba", "ba-nofwd", "BA"]),
    ("rate", &["0.65", "1.3", "1.30", "6.5", "9.9"]),
    (
        "traffic",
        &[
            "file:0",
            "file:20480",
            "tcp:20480",
            "cbr:20ms:160",
            "cbr:20ms:4",
            "cbr:20ms:3",
            "cbr:0s:160",
            "cbr:1ns:4",
            "cbr:20ms",
            "onoff:3:1s:10ms:100",
            "onoff:0:1s:10ms:100",
        ],
    ),
    ("medium", &["shared", "spatial:7.0", "spatial:0.0", "spatial:1e308", "spatial:NaN", "spatial:-0.0"]),
    ("bcast", &["0.65", "6.5", "7"]),
    ("flows", &["0>2:5001", "0>2:5001,2>0:5002", "0>2:5001,1>2:5001", "0>0:1", "0>9:1", "0>2:65536"]),
    (
        "flow",
        &[
            "0>2:9000:cbr:20ms:160",
            "1>2:9001:onoff:3:1s:10ms:100",
            "2>0:9002:tcp:4096",
            "0>1:9003:file:1",
            "0>2:9000:cbr:0s:160",
            "0>2:9000:cbr:20ms:3",
            "0>2:9004:onoff:0:1s:10ms:100",
            "0>2:9005:onoff:1:0s:10ms:100",
        ],
    ),
    ("max_agg", &["5120", "11264", "160", "159", "0", "18446744073709551615"]),
    ("sizing", &["none", "fixed:5120", "fixed:160", "fixed:159", "budget:120000", "budget:1", "budget:0"]),
    ("ack", &["normal", "block", "none"]),
    ("rts", &["on", "off", "1"]),
    ("flush", &["0s", "5ms", "18446744073709551615ns", "18446744073709551615s"]),
    ("fault", &["0:0", "0.1:0.05", "1:1", "1.5:0", "0.1"]),
    (
        "link_error",
        &["ber:0.0001", "ge:0.1:0.2:0:0.5", "ber:0.1,dup:0.1,reorder:0.2", "dup:0.1,dup:0.1", "ber:2"],
    ),
    ("flood", &["500ms:32", "1ns:4", "0s:10", "20ms:3", "20ms", "20ms:18446744073709551616"]),
    ("budget", &["events:50", "wall:1s", "events:50,wall:1s", "events:0", "wall:0s", "events:1,events:2"]),
    ("warmup", &["0s", "2s", "18446744072s", "18446744073s", "18446744073709551615s"]),
    ("duration", &["0s", "20s", "18446744073709551615ns"]),
    ("seed", &["0", "1", "18446744073709551615", "18446744073709551616", "-1"]),
    ("tcp_mss", &["0", "1", "1357", "65536"]),
    ("tcp_recv_buf", &["0", "65535", "18446744073709551615"]),
    ("tcp_send_buf", &["0", "65535"]),
    ("tcp_init_cwnd", &["0", "2", "4294967295", "4294967296"]),
    ("tcp_ssthresh", &["0", "65535"]),
    ("tcp_rto_init", &["0s", "3s"]),
    ("tcp_rto_min", &["0s", "200ms"]),
    ("tcp_rto_max", &["0s", "60s"]),
    ("tcp_delayed_ack", &["on", "off"]),
    ("tcp_da_timeout", &["0s", "100ms"]),
    ("tcp_max_retx", &["0", "12"]),
    ("tcp_time_wait", &["0s", "1s"]),
];

/// Every `#!` directive with values it accepts and values just past
/// what it accepts (`seeds` is bounded by `MAX_SEEDS` = 100 000; the
/// table directives after `rows` need a `rows` line above them).
const DIRECTIVES: &[(&str, &[&str])] = &[
    ("seeds", &["1", "3", "100000", "100001", "0", "4294967296", "18446744073709551615"]),
    ("caption", &["Figure X", ""]),
    ("note", &["paper: BA > UA", ""]),
    ("rows", &["rate | rate", "hops | topo", "x | medium", "rate | shape", "rate", "|"]),
    ("metric", &["relay_overhead", "throughput", "goodput", ""]),
    (
        "col",
        &["NA | policy=na", "NA paper, NA | policy=na rate=1.3", "X | shape=round", "X | rate=9.9", "X |"],
    ),
    (
        "gain",
        &["g | policy=ba / policy=ua", "p, g | rts=on / rts=off", "g | policy=ba", "g | / ", "g | x / y"],
    ),
    (
        "paper",
        &[
            "policy=na | 0.25",
            "rate=0.65 | 1 2 3",
            "policy=na | NaN",
            "policy=na | inf",
            "policy=na |",
            "| 1",
        ],
    ),
];

/// Values no key wants.
const JUNK: &[&str] = &["", "=", ":", "::", "x", "0x10", "+1", "1e3", "∞", "\u{0}", "a=b", "#", "#!"];

/// The `.scn` files under `examples/sweeps`, as `(name, text)`.
fn shipped() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/sweeps");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("examples/sweeps exists")
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "scn"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable .scn file");
            (path.file_name().expect("file name").to_string_lossy().into_owned(), text)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 20, "the shipped sweeps are the mutation corpus");
    files
}

#[test]
fn the_key_table_names_only_real_keys() {
    // A key the parser no longer knows would turn its soups into
    // "unknown key" errors and test nothing.
    for (key, _) in KEYS {
        if let Err(e) = ScenarioSpec::from_scn(&format!("{BASE} {key}=?")) {
            assert!(!e.contains("unknown key"), "`{key}` is not a .scn key: {e}");
        }
    }
}

#[test]
fn the_key_table_names_every_documented_key() {
    // The format reference's Required, Optional and TCP tables, which a
    // unit test holds equal to the parser's own key table.
    let doc = include_str!("../../../docs/SCENARIO_FORMAT.md");
    let tables = &doc[doc.find("\n## Keys").expect("a Keys section")
        ..doc.find("\n## Stable-hash").expect("a hash section")];
    let documented: Vec<&str> =
        tables.lines().filter_map(|l| l.strip_prefix("| `")?.split('`').next()).collect();
    assert_eq!(documented.len(), 32, "the three key tables");
    for key in documented {
        assert!(KEYS.iter().any(|(k, _)| *k == key), "`{key}` has no hostile values");
    }
}

#[test]
fn shipped_sweeps_hold_the_property_unmutated() {
    for (name, text) in shipped() {
        let file = parse_scn_file(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!file.specs.is_empty(), "{name} has no scenario lines");
        check(&text).unwrap_or_else(|why| panic!("{name}: {why}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_with_a_line_number(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn key_value_soups_parse_or_fail_with_a_line_number(
        with_base in any::<bool>(),
        picks in proptest::collection::vec((0usize..KEYS.len(), any::<u16>(), 0u8..8), 0..7),
        directives in proptest::collection::vec((0usize..DIRECTIVES.len(), any::<u16>()), 0..3),
    ) {
        let mut head = String::from("# soup\n");
        for (key, value) in directives {
            let (key, values) = DIRECTIVES[key];
            head.push_str(&format!("#! {key}={}\n", values[usize::from(value) % values.len()]));
        }
        let mut line = String::from(if with_base { BASE } else { "" });
        for (key, value, junk) in picks {
            let (key, values) = KEYS[key];
            // One pick in eight takes a value no key wants.
            let pool = if junk == 0 { JUNK } else { values };
            line.push_str(&format!(" {key}={}", pool[usize::from(value) % pool.len()]));
        }
        check(&format!("{head}{line}\n"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_byte_mutations_of_every_shipped_line_parse_or_fail_with_a_line_number(salt in any::<u64>()) {
        // Each case mutates every line of every file once, at a
        // position and to a byte drawn from the case's own stream.
        let mut rng = proptest::TestRng::new(salt);
        for (name, text) in shipped() {
            for (i, line) in text.lines().enumerate().filter(|(_, line)| !line.is_empty()) {
                let mut bytes = line.as_bytes().to_vec();
                let at = rng.below(bytes.len() as u64) as usize;
                // Half the draws stay inside the format's own alphabet,
                // where a mutation is likeliest to still parse.
                bytes[at] = match rng.below(2) {
                    0 => b"0123456789:=,>x.-sm# "[rng.below(21) as usize],
                    _ => rng.below(256) as u8,
                };
                check(&String::from_utf8_lossy(&bytes))
                    .map_err(|why| TestCaseError::fail(format!("{why}\n{name} line {}, byte {at}", i + 1)))?;
            }
        }
    }
}

/// Parses `line` as line 2 of a file; returns the error it must be
/// rejected with.
fn rejected(line: &str) -> String {
    let e = parse_scn_file(&format!("# reproducer\n{line}\n")).expect_err(line);
    assert_eq!(e.line, 2, "{line}: {e}");
    e.msg
}

#[test]
fn a_zero_flood_interval_is_rejected_instead_of_hanging_the_run() {
    // Parsed, this spec spun forever inside one dispatch, where no
    // budget could stop it.
    assert_eq!(
        rejected(&format!("{BASE} flood=0s:10 budget=events:300000,wall:20s")),
        "flood interval must be positive"
    );
}

#[test]
fn topologies_beyond_the_16_bit_node_id_space_are_rejected() {
    for topo in [
        "grid:4294967296x4294967296",
        "grid:9223372036854775808x2",
        "linear:18446744073709551615",
        "mesh:18446744073709551615:1:1",
        "linear:65535",
        "grid:256x256",
        "mesh:65536:1:1",
    ] {
        let msg = rejected(&format!("topo={topo} policy=ba rate=1.3 traffic=file:20480"));
        assert_eq!(msg, format!("topology `{topo}` has more than 65535 nodes"));
    }
    for topo in ["linear:65534", "grid:255x257", "mesh:65535:1:1"] {
        let spec = ScenarioSpec::from_scn(&format!("topo={topo} policy=ba rate=1.3 traffic=file:20480"))
            .unwrap_or_else(|e| panic!("{topo}: {e}"));
        assert_eq!(spec.topology.node_count(), 65535);
    }
}

#[test]
fn malformed_directives_are_errors_with_their_line_number() {
    let block = "#! rows=rate | rate\n#! col=NA | policy=na\n";
    for (directives, line, msg) in [
        ("#! claim=BA >= UA\n", 2, "unknown directive `claim`"),
        (block, 0, ""),
        ("#! rows=rate | shape\n", 2, "unknown row key `shape`"),
        ("#! col=NA | policy=na\n", 2, "`col` directive before the `rows` one"),
        (&format!("{block}#! col=X | shape=round\n"), 4, "unknown key `shape`"),
        (&format!("{block}#! col=X | policy=zz\n"), 4, "unknown policy `zz`"),
        (&format!("{block}#! col=X | policy\n"), 4, "`policy` is not key=value"),
        (&format!("{block}#! col=X |\n"), 4, "empty selector"),
        (&format!("{block}#! gain=g | policy=ba\n"), 4, "expected `NUM / DEN` selectors"),
        (&format!("{block}#! gain=g | policy=ba / rate=1.4\n"), 4, "unknown rate `1.4`"),
        (&format!("{block}#! metric=goodput\n"), 4, "unknown metric `goodput`"),
        (&format!("{block}#! rows=hops | topo\n"), 4, "a second table block (`rows` directive)"),
        ("#! paper=rate=9.9 | 1\n", 2, "unknown rate `9.9`"),
        ("#! paper=policy=na | NaN\n", 2, "`NaN` is not finite"),
        ("#! paper=policy=na | -inf\n", 2, "`-inf` is not finite"),
        ("#! paper=policy=na | 1e999\n", 2, "`1e999` is not finite"),
        ("#! paper=policy=na | 0.25 x\n", 2, "bad number `x`"),
        ("#! paper=policy=na |\n", 2, "a paper line needs at least one value"),
        ("#! paper=policy=na 0.25\n", 2, "expected `paper=SELECTOR | VALUE...`"),
    ] {
        let text = format!("# reproducer\n{directives}{BASE}\n");
        match parse_scn_file(&text) {
            Ok(_) => assert_eq!(line, 0, "{text:?} parsed"),
            Err(e) => assert!(e.line == line && e.msg.starts_with(msg), "{text:?}: {e}"),
        }
    }
}

#[test]
fn settings_that_only_panicked_in_build_are_parse_errors() {
    assert_eq!(rejected(&format!("{BASE} flood=20ms:3")), "flood payload 3 is below the 4 B sequence header");
    assert_eq!(
        rejected("topo=linear:2 policy=ba rate=1.3 traffic=cbr:20ms:3"),
        "cbr payload 3 is below the 4 B sequence header"
    );
    assert_eq!(rejected(&format!("{BASE} max_agg=159")), "max aggregate below one subframe");
    // `build()` stops the clock 1 s past `warmup + duration`.
    for warmup in ["18446744073s", "18446744072s"] {
        assert_eq!(
            rejected(&format!(
                "topo=linear:1 policy=na rate=1.3 traffic=cbr:10ms:160 warmup={warmup} duration=1s"
            )),
            "the run horizon, warmup + duration + 1s, overflows the clock"
        );
    }
    // An aggregate sized by `sizing=` never reads `max_agg`.
    assert!(ScenarioSpec::from_scn(&format!("{BASE} max_agg=159 sizing=budget:120000")).is_ok());
}
