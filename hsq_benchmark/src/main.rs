//! `hsq_benchmark`: the repo's benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how to read the trace.
//!
//! ```text
//! cargo run --release --manifest-path hsq_benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke]
//! ```
//!
//! Without `--workload` every workload runs, each in a process of its own
//! so that `peak_rss_mb` is per workload.

mod metrics;
mod replay;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, percentile, Pct};
use workloads::{Opts, Rep};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
        };
        let mut argv = argv.peekable();
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!("unknown workload '{name}' (have {WORKLOADS:?})"));
                    }
                    args.workload = Some(name);
                }
                "--seed" => {
                    args.seed = value("a u64")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    args.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?
                }
                // A bare `--trace` turns tracing on; the driver passes 0 or 1.
                "--trace" => match argv.next_if(|v| v == "0" || v == "1") {
                    Some(v) => args.trace = v == "1",
                    None => args.trace = true,
                },
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(args)
    }
}

/// `<build dir>/hsq_benchmark`: data directories and trace files go beside
/// the build output, which is inside the checkout and ignored by git.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    // Cargo puts the binary in `<build dir>/<profile>`; a binary copied
    // elsewhere keeps its data beside itself.
    let in_profile_dir = dir
        .file_name()
        .is_some_and(|n| n == "release" || n == "debug");
    let build = dir.parent().filter(|_| in_profile_dir).unwrap_or(dir);
    Ok(build.join("hsq_benchmark"))
}

/// Peak resident set size of this process so far, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One reported value, with the sample count behind a percentile.
struct Value {
    value: f64,
    n: Option<usize>,
}

type Metrics = BTreeMap<&'static str, Value>;

/// The end-to-end metrics one repetition yields by itself (all but the
/// run-wide `rank_err_frac_max` and `peak_rss_mb`).
fn rep_metrics(rep: &Rep, min_beyond: usize) -> Result<Metrics, String> {
    let mut out = BTreeMap::new();
    let mut plain = |name, value| {
        out.insert(name, Value { value, n: None });
    };
    plain("setup_s", rep.setup_s);
    plain(
        "ingest_items_per_s",
        rep.ingest_weight as f64 / (rep.ingest_ns as f64 / 1e9),
    );
    let full_queries = rep.query_ns.len() as f64;
    plain("disk_reads_per_query", rep.reads as f64 / full_queries);
    plain(
        "round_trips_per_query",
        rep.round_trips as f64 / full_queries,
    );
    plain("write_amp", rep.write_amp);
    plain("summary_memory_words", rep.memory_words);
    for (name, samples, p, per_unit) in [
        ("step_close_p50_ms", &rep.close_ns, 0.50, 1e6),
        ("step_close_p95_ms", &rep.close_ns, 0.95, 1e6),
        ("query_p50_us", &rep.query_ns, 0.50, 1e3),
        ("query_p99_us", &rep.query_ns, 0.99, 1e3),
        ("window_query_p50_us", &rep.window_ns, 0.50, 1e3),
        ("window_query_p99_us", &rep.window_ns, 0.99, 1e3),
        ("epoch_open_p50_us", &rep.epoch_ns, 0.50, 1e3),
    ] {
        let Pct { value, n } =
            percentile(samples, p, min_beyond).map_err(|e| format!("{name}: {e}"))?;
        out.insert(
            name,
            Value {
                value: value / per_unit,
                n: Some(n),
            },
        );
    }
    Ok(out)
}

/// The run's result: what the last stdout line carries.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Every end-to-end metric, or every per-layer metric on a traced run.
    metrics: Vec<(Def, Value)>,
}

/// Run `workload` for about `seconds` of timed work (whole repetitions, at
/// least three; a traced run alternates untraced and traced ones), verify
/// every answer, and fold the repetitions into medians.
fn measure(workload: &str, args: &Args, scratch: PathBuf) -> Result<Outcome, String> {
    let opts = Opts {
        seed: args.seed,
        divisor: if args.smoke { 50 } else { 1 },
        scratch,
        min_beyond: if args.smoke { 0 } else { 10 },
    };
    let min_plain = if args.smoke || args.trace { 1 } else { 3 };
    // A finished repetition is reduced to its metrics at once, and equal
    // answer lists (the program is deterministic) are kept once, so what
    // the benchmark holds does not grow with the repetition count.
    let mut plain: Vec<Metrics> = Vec::new();
    let mut traced: Vec<(Metrics, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut last_tracer = None;
    let mut answer_lists: Vec<(Vec<verify::Answer>, u64)> = Vec::new();
    let (mut attempted, mut failed, mut timed_s) = (0, 0, 0.0);
    loop {
        let trace_this = args.trace && plain.len() > traced.len();
        let mut rep = workloads::run(workload, &opts, trace_this)?;
        timed_s += rep.timed_ns as f64 / 1e9;
        attempted += rep.attempted;
        failed += rep.failed;
        let answers = std::mem::take(&mut rep.answers);
        match answer_lists.iter_mut().find(|(seen, _)| *seen == answers) {
            Some((_, times)) => *times += 1,
            None => answer_lists.push((answers, 1)),
        }
        let metrics = rep_metrics(&rep, opts.min_beyond)?;
        if trace_this {
            traced.push((metrics, std::mem::take(&mut rep.layers)));
            last_tracer = rep.tracer.take();
        } else {
            plain.push(metrics);
        }
        let enough = plain.len() >= min_plain && traced.len() >= args.trace as usize;
        if enough && (args.smoke || timed_s >= args.seconds) {
            break;
        }
    }
    // Before verification, which holds the answers' reference counts.
    let rss = peak_rss_mb()?;

    let (mut gen, step_pairs) = workloads::input(workload, args.seed);
    let answers: Vec<&verify::Answer> = answer_lists.iter().flat_map(|(list, _)| list).collect();
    let times = answer_lists
        .iter()
        .flat_map(|(list, times)| std::iter::repeat_n(*times, list.len()));
    let fracs = verify::rank_err_fracs(&answers, |_| gen.take_pairs(step_pairs));
    let worst = fracs.iter().copied().fold(0.0, f64::max);
    for ((a, f), times) in answers.iter().zip(&fracs).zip(times) {
        if *f > 1.0 {
            eprintln!("rank error {f} of eps*W, {times} times: {a:?}");
            failed += times;
        }
    }

    let mut end_to_end: Vec<(Def, Value)> = Vec::new();
    for def in END_TO_END {
        let value = match def.0 {
            "rank_err_frac_max" => Value {
                value: worst,
                n: Some(fracs.len()),
            },
            "peak_rss_mb" => Value {
                value: rss,
                n: None,
            },
            name => Value {
                value: median(&plain.iter().map(|m| m[name].value).collect::<Vec<_>>()),
                n: plain[0][name].n,
            },
        };
        end_to_end.push((def, value));
    }
    println!(
        "workload {workload} seed {} repetitions {}",
        args.seed,
        plain.len()
    );
    for (i, metrics) in plain.iter().enumerate() {
        let values: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("{name}={}", v.value))
            .collect();
        println!("repetition {}: {}", i + 1, values.join(" "));
    }
    print_metrics(&end_to_end);
    println!("ops_attempted {attempted}");
    if !args.trace {
        println!("ops_failed {failed}");
        return Ok(Outcome {
            attempted,
            failed,
            metrics: end_to_end,
        });
    }

    // Tracing overhead: what the traced repetitions lost on the metric
    // this workload is about.
    let cost = |reps: Vec<&Metrics>| {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|m| match workload {
                "query_heavy" => m["query_p50_us"].value,
                _ => 1.0 / m["ingest_items_per_s"].value,
            })
            .collect();
        median(&per_rep)
    };
    let overhead = cost(traced.iter().map(|t| &t.0).collect()) / cost(plain.iter().collect()) - 1.0;

    let mut per_layer: Vec<(Def, Value)> = Vec::new();
    for def in PER_LAYER {
        let value = if def.0 == "trace.overhead_frac" {
            overhead
        } else {
            // A layer the workload never calls did no work: 0.
            let per_rep: Vec<f64> = traced
                .iter()
                .map(|(_, layers)| layers.get(def.0).copied().unwrap_or(0.0))
                .collect();
            median(&per_rep)
        };
        per_layer.push((def, Value { value, n: None }));
    }
    print_metrics(&per_layer);

    let tracer = last_tracer.expect("traced repetitions keep their spans");
    let own = tracer.self_times();
    let layer_ns: u64 = own
        .iter()
        .filter(|(name, _)| !name.starts_with("op."))
        .map(|(_, ns)| ns)
        .sum();
    let coverage = layer_ns as f64 / tracer.top_level_ns() as f64;
    println!("trace.coverage {coverage} frac (layer self time / traced end-to-end time)");
    for (name, ns) in &own {
        println!("trace.self_ms {name} {}", *ns as f64 / 1e6);
    }
    if !(0.9..=1.1).contains(&coverage) {
        eprintln!("layer self times cover {coverage} of the traced time, outside 10 %");
        failed += 1;
    }
    std::fs::create_dir_all(&opts.scratch)
        .map_err(|e| format!("{}: {e}", opts.scratch.display()))?;
    let path = opts.scratch.join(format!("trace-{workload}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    println!("ops_failed {failed}");
    Ok(Outcome {
        attempted,
        failed,
        metrics: per_layer,
    })
}

fn print_metrics(metrics: &[(Def, Value)]) {
    for ((name, unit, _), v) in metrics {
        match v.n {
            Some(n) => println!("{name} {} {unit} (n={n})", v.value),
            None => println!("{name} {} {unit}", v.value),
        }
    }
}

/// The result line: one JSON object, last on stdout.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|((name, unit, _), v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every workload, each in a child process.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for workload in WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hsq_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        None => run_all(&args),
        Some(workload) => scratch_root()
            .and_then(|scratch| measure(workload, &args, scratch))
            .and_then(|outcome| {
                if outcome.metrics.iter().any(|(_, v)| !v.value.is_finite()) {
                    return Err("a metric is not a finite number".to_string());
                }
                println!("{}", result_json(&outcome));
                Ok(outcome.failed == 0)
            }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hsq_benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let scratch = std::env::temp_dir().join(format!(
            "hsq-benchmark-test-{}-{workload}-{trace}",
            std::process::id()
        ));
        let args = Args {
            workload: Some(workload.to_string()),
            seed: 3,
            seconds: 0.0,
            trace,
            smoke: true,
        };
        let outcome = measure(workload, &args, scratch.clone()).expect("smoke run completes");
        // Only the trace file may remain: every data directory is gone.
        let left: Vec<_> = std::fs::read_dir(&scratch)
            .map(|d| d.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default();
        assert!(
            left.iter()
                .all(|f| f.to_string_lossy().starts_with("trace-")),
            "{workload} left {left:?} behind"
        );
        let _ = std::fs::remove_dir_all(scratch);
        outcome
    }

    #[test]
    fn every_workload_passes_at_smoke_scale() {
        for workload in WORKLOADS {
            let outcome = smoke(workload, false);
            assert_eq!(outcome.failed, 0, "{workload}");
            assert!(outcome.attempted > 0, "{workload}");
            let names: Vec<&str> = outcome.metrics.iter().map(|(d, _)| d.0).collect();
            let want: Vec<&str> = END_TO_END.iter().map(|d| d.0).collect();
            assert_eq!(names, want, "{workload}");
            for (def, v) in &outcome.metrics {
                assert!(
                    v.value.is_finite() && v.value > 0.0,
                    "{workload} {} = {}",
                    def.0,
                    v.value
                );
            }
            let json = result_json(&outcome);
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }

    #[test]
    fn traced_smoke_reports_every_layer_metric() {
        for workload in WORKLOADS {
            let outcome = smoke(workload, true);
            assert_eq!(outcome.failed, 0, "{workload}");
            let names: Vec<&str> = outcome.metrics.iter().map(|(d, _)| d.0).collect();
            let want: Vec<&str> = PER_LAYER.iter().map(|d| d.0).collect();
            assert_eq!(names, want, "{workload}");
            let spans = outcome
                .metrics
                .iter()
                .find(|(d, _)| d.0 == "trace.spans")
                .unwrap();
            assert!(spans.1.value > 0.0, "{workload} recorded no spans");
        }
    }

    #[test]
    fn arguments() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload query_heavy --seed 9 --seconds 3 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("query_heavy"), 9, 3.0, false)
        );
        assert!(parse("--trace 1").unwrap().trace);
        let a = parse("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
    }
}
