//! Layered benchmark of the GPU LSM reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest_durable|core_mixed|point_reads> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! One client thread drives one workload in a closed loop.  Every answer is
//! checked against a `BTreeMap` model outside the timed calls; a wrong
//! answer exits with code 1 and names the workload, the operation and the
//! key.  The last line of standard output is one JSON object holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See `perfbench/README.md`.

mod common;
mod core_mixed;
mod ingest_durable;
mod model;
mod point_reads;
mod trace;
mod util;
mod vfs;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Mismatch, Outcome, RunCfg};
use util::{peak_rss_mib, Budget};

/// End-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_mops", "Mop/s"),
    ("request_p50_us", "us"),
    ("request_tail_us", "us"),
    ("space_amp", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, as listed in `BENCHMARK.json`.  A layer a workload
/// does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("admission.submit_p50_us", "us"),
    ("admission.flush_tail_us", "us"),
    ("admission.queue_wait_p99_us", "us"),
    ("admission.apply_p99_us", "us"),
    ("admission.coalesce_frac", "frac"),
    ("admission.read_self_us", "us"),
    ("shard.split_updates_us", "us"),
    ("shard.split_lookups_us", "us"),
    ("shard.read_self_us", "us"),
    ("shard.placebo_frac", "frac"),
    ("vfs.wal_bytes_per_user_byte", "ratio"),
    ("vfs.snapshot_bytes_per_user_byte", "ratio"),
    ("vfs.fsyncs", "count"),
    ("vfs.fsync_busy_s", "s"),
    ("vfs.write_busy_s", "s"),
    ("vfs.errors", "count"),
    ("vfs.wal.write_bytes", "B"),
    ("vfs.wal.ops", "count"),
    ("vfs.wal.busy_s", "s"),
    ("vfs.wal.errors", "count"),
    ("vfs.manifest.write_bytes", "B"),
    ("vfs.manifest.ops", "count"),
    ("vfs.manifest.busy_s", "s"),
    ("vfs.manifest.errors", "count"),
    ("vfs.run.write_bytes", "B"),
    ("vfs.run.ops", "count"),
    ("vfs.run.busy_s", "s"),
    ("vfs.run.errors", "count"),
    ("vfs.dir.write_bytes", "B"),
    ("vfs.dir.ops", "count"),
    ("vfs.dir.busy_s", "s"),
    ("vfs.dir.errors", "count"),
    ("vfs.recovery_read_bytes", "B"),
    ("wal.runs_reused_frac", "frac"),
    ("wal.replayed_records", "count"),
    ("wal.recovery_s", "s"),
    ("lsm.update_p50_us", "us"),
    ("lsm.sort_busy_s", "s"),
    ("compaction.merge_busy_s", "s"),
    ("compaction.merge_steps", "count"),
    ("compaction.rewrite_amp", "ratio"),
    ("compaction.incremental_frac", "frac"),
    ("arena.high_water_mib", "MiB"),
    ("arena.recycle_frac", "frac"),
    ("lookup.busy_s", "s"),
    ("lookup.filter_skip_frac", "frac"),
    ("lookup.filter_probes_per_query", "count"),
    ("lookup.bulk_threshold", "count"),
    ("count.gather_busy_s", "s"),
    ("count.validate_busy_s", "s"),
    ("range.gather_busy_s", "s"),
    ("range.validate_busy_s", "s"),
    ("order.successor_busy_s", "s"),
    ("gpu_sim.record_ns", "ns"),
    ("gpu_sim.records_per_request", "count"),
    ("gpu_sim.bytes_per_op.update", "B/op"),
    ("gpu_sim.bytes_per_op.lookup", "B/op"),
    ("gpu_sim.bytes_per_op.count", "B/op"),
    ("gpu_sim.bytes_per_op.range", "B/op"),
    ("gpu_sim.bytes_per_op.successor", "B/op"),
    ("gpu_sim.modelled_update_mops", "Mop/s"),
    ("gpu_sim.modelled_lookup_mqps", "Mq/s"),
    ("gpu_sim.modelled_count_mqps", "Mq/s"),
    ("gpu_sim.modelled_range_mqps", "Mq/s"),
    ("trace.overhead_frac", "frac"),
];

type Workload = fn(&RunCfg) -> Result<Outcome, Mismatch>;

const WORKLOADS: &[(&str, Workload, u64)] = &[
    // (name, entry point, rounds in the self-test)
    ("ingest_durable", ingest_durable::run, 2),
    ("core_mixed", core_mixed::run, 2),
    ("point_reads", point_reads::run, 3000),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LSM_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; every structure is built from an explicit LsmConfig",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host nproc {nproc}; cpu {}; pool threads {}; pool sequential cutoff {}",
        cpu_model(),
        rayon::current_num_threads(),
        rayon::sequential_cutoff()
    );
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    if args.self_test {
        return self_test(args.seed);
    }
    let Some(name) = args.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let Some(&(name, run, _)) = WORKLOADS.iter().find(|w| w.0 == name) else {
        eprintln!("perfbench: unknown workload {name:?}");
        return ExitCode::from(2);
    };
    println!(
        "run workload {name}; seed {}; seconds {}; trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let cfg = RunCfg {
        workload: name,
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        trace: args.trace,
        reduced: false,
        out_dir: out_dir(),
    };
    let mut outcome = match run(&cfg) {
        Ok(o) => o,
        Err(Mismatch(msg)) => {
            eprintln!("perfbench: FAILED: {msg}");
            return ExitCode::from(1);
        }
    };
    outcome.report.put("peak_rss_mib", peak_rss_mib(), "MiB");
    for line in &outcome.info {
        println!("{line}");
    }
    if let Some(tracer) = &outcome.tracer {
        if args.trace {
            let path = out_dir().join(format!("trace-{name}-{}.jsonl", args.seed));
            match tracer.write_jsonl(&path) {
                Ok(()) => println!(
                    "info {} spans recorded, newest {} written to {}",
                    tracer.recorded(),
                    tracer.kept(),
                    path.display()
                ),
                Err(e) => {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    return ExitCode::from(1);
                }
            }
        }
    }
    match result_line(&cfg, &outcome) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Print every measured metric by name with its unit, then build the
/// result line from the metrics `BENCHMARK.json` lists for this mode.
fn result_line(cfg: &RunCfg, outcome: &Outcome) -> Result<String, String> {
    let report = &outcome.report;
    for (name, value, unit) in &report.entries {
        let kind = if PER_LAYER.iter().any(|m| m.0 == name) {
            "layer"
        } else {
            "e2e"
        };
        println!("{kind} {name} = {value} {unit}");
    }
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match report.get(name) {
            Some(v) => v,
            None if cfg.trace => {
                println!(
                    "layer {name} = 0 {unit} (not exercised by {})",
                    cfg.workload
                );
                0.0
            }
            None => return Err(format!("{} did not measure {name}", cfg.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        fields.join(", ")
    ))
}

/// Run each workload at reduced size twice with one seed and once with
/// another.  Counts that do not depend on thread timing must repeat
/// exactly; the second seed must change the inputs.
fn self_test(seed: u64) -> ExitCode {
    let mut ok = true;
    for &(name, run, rounds) in WORKLOADS {
        let cfg = |seed| RunCfg {
            workload: name,
            seed,
            budget: Budget::Rounds(rounds),
            trace: true,
            reduced: true,
            out_dir: out_dir(),
        };
        let runs: Result<Vec<Outcome>, Mismatch> = [seed, seed, seed + 1]
            .into_iter()
            .map(|s| run(&cfg(s)))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(Mismatch(msg)) => {
                println!("self-test {name}: FAILED: {msg}");
                ok = false;
                continue;
            }
        };
        for ((count, a), (_, b)) in runs[0].exact.iter().zip(&runs[1].exact) {
            let verdict = if a == b { "repeats" } else { "DIFFERS" };
            println!("self-test {name}: exact {count} {a} / {b} {verdict}");
            ok &= a == b;
        }
        let (d0, d1, d2) = (runs[0].inputs.0, runs[1].inputs.0, runs[2].inputs.0);
        let seeded = d0 == d1 && d0 != d2;
        println!(
            "self-test {name}: inputs seed {seed} {d0:016x} / {d1:016x}, seed {} {d2:016x} {}",
            seed + 1,
            if seeded { "ok" } else { "WRONG" }
        );
        ok &= seeded;
    }
    println!("self-test {}", if ok { "passed" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
