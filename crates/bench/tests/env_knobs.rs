//! Consistency sweep over every `HSQ_*` environment knob.
//!
//! The repo's convention: a *set but garbage* knob must fail the process
//! loudly, naming the variable — never silently fall back to a default
//! (a typo'd `HSQ_SKETCH=klll` silently running GK would corrupt a
//! benchmark with zero signal). This sweep drives every knob's
//! reader with garbage and with good values and checks both directions.
//!
//! Knob readers run at engine-construction time deep inside library
//! code, so the panic cannot be caught in-process per case. Instead the
//! sweep re-executes this test binary: the hidden `env_knob_probe` test
//! below (ignored, so it never runs in a normal `cargo test`) reads
//! `HSQ_KNOB_PROBE` to pick a knob reader and invokes it; the sweep
//! spawns one probe subprocess per case with a scrubbed `HSQ_*`
//! environment and asserts on its exit status and output.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;

/// Every knob the sweep scrubs before injecting a case: exactly the
/// `HSQ_*` names in the workspace's sources (`knob_list_matches_sources`
/// checks it). CI legs export several of these, and a leaked one would
/// cross-talk into an unrelated probe (e.g. a leaked `HSQ_SKETCH` flips
/// the `sketch` probe's unset case). `HSQ_BENCH_JSON` is scrubbed but
/// never probed: it is a free-form output path, so every value is
/// well-formed. `HSQ_CHAOS_SEED` is scrubbed but not probed either: only
/// the service crate's chaos test binary reads it, and it panics on
/// garbage itself (same loud-failure convention).
const ALL_KNOBS: &[&str] = &[
    "HSQ_SKETCH",
    "HSQ_BENCH_JSON",
    "HSQ_CHAOS_SEED",
    "HSQ_KNOB_PROBE",
];

/// The probe body: picks the knob reader named by `HSQ_KNOB_PROBE` and
/// invokes it. Hidden from normal runs by `#[ignore]`; the sweep runs it
/// via `--ignored --exact`.
#[test]
#[ignore = "subprocess probe for the env-knob sweep, not a standalone test"]
fn env_knob_probe() {
    let knob = std::env::var("HSQ_KNOB_PROBE").expect("probe needs HSQ_KNOB_PROBE");
    match knob.as_str() {
        "sketch" => {
            let k = hsq_sketch::SketchKind::from_env();
            println!("probe ok: sketch = {k:?}");
        }
        other => panic!("unknown probe {other:?}"),
    }
}

/// One probe subprocess: scrub every `HSQ_*` knob, set `vars`, run the
/// hidden probe for `knob`. Returns `(success, combined_output)`.
fn run_probe(knob: &str, vars: &BTreeMap<&str, &str>) -> (bool, String) {
    let exe = std::env::current_exe().expect("current test binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--exact", "env_knob_probe", "--ignored", "--nocapture"]);
    for k in ALL_KNOBS {
        cmd.env_remove(k);
    }
    cmd.env("HSQ_KNOB_PROBE", knob);
    for (k, v) in vars {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn probe");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

/// Assert the probe accepts this environment.
fn accepts(knob: &str, vars: &[(&str, &str)]) {
    let vars: BTreeMap<_, _> = vars.iter().copied().collect();
    let (ok, out) = run_probe(knob, &vars);
    assert!(ok, "probe {knob} rejected {vars:?}:\n{out}");
    assert!(
        out.contains("probe ok"),
        "probe {knob} exited 0 without running for {vars:?}:\n{out}"
    );
}

/// Assert the probe dies loudly, naming `var`, under this environment.
fn rejects(knob: &str, vars: &[(&str, &str)], var: &str) {
    let vars: BTreeMap<_, _> = vars.iter().copied().collect();
    let (ok, out) = run_probe(knob, &vars);
    assert!(!ok, "probe {knob} accepted garbage {vars:?}:\n{out}");
    assert!(
        out.contains(var),
        "probe {knob} failed on {vars:?} without naming {var}:\n{out}"
    );
}

#[test]
fn hsq_sketch_sweep() {
    accepts("sketch", &[]);
    accepts("sketch", &[("HSQ_SKETCH", "gk")]);
    accepts("sketch", &[("HSQ_SKETCH", "KLL")]);
    for garbage in ["klll", "gk2", "", "quantile"] {
        rejects("sketch", &[("HSQ_SKETCH", garbage)], "HSQ_SKETCH");
    }
}

/// Every `HSQ_*` name in the workspace's Rust sources, outside build
/// output and the separately built `hsq_benchmark/` package.
fn knobs_in_sources() -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let mut dirs = vec![Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read source dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !(name.starts_with('.') || name == "target" || name == "hsq_benchmark") {
                    dirs.push(path);
                }
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path).expect("read source");
                for (at, prefix) in text.match_indices("HSQ_") {
                    let tail: String = text[at + prefix.len()..]
                        .chars()
                        .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                        .collect();
                    if !tail.is_empty() {
                        found.insert(format!("{prefix}{tail}"));
                    }
                }
            }
        }
    }
    found
}

#[test]
fn knob_list_matches_sources() {
    let listed: BTreeSet<String> = ALL_KNOBS.iter().map(|k| k.to_string()).collect();
    assert_eq!(
        knobs_in_sources(),
        listed,
        "ALL_KNOBS must list exactly the HSQ_* names the workspace's sources use"
    );
}
