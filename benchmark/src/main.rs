//! The BENU benchmark: three workloads through the public API, every
//! output checked, end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload enum_q5_uk|fetch_q4_lj|serve_mix_as --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --sensitivity [--seed N] [--seconds S]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1
//! when any output check failed and 2 on bad arguments. See README.md.

mod batch;
mod inputs;
mod layers;
mod oracle;
mod serve;
mod stats;
mod trace;

use stats::{Ledger, Sheet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "run_s",
    "comm_bytes",
    "query_p50_s",
    "query_p95_s",
    "peak_rss_mib",
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 38] = [
    "plan.search_s",
    "plan.compile_s",
    "plan.cache_hit_rate",
    "kvstore.load_s",
    "kvstore.value_bytes",
    "kvstore.requests",
    "kvstore.keys",
    "kvstore.decode_ns_per_key",
    "cache.db.hit_rate",
    "cache.db.evictions",
    "cache.triangle.hit_rate",
    "graph.intersect_scalar_ns_per_pair",
    "graph.intersect_view_ns_per_pair",
    "engine.taskgen_s",
    "engine.tasks",
    "engine.exec_s",
    "engine.enu_candidates",
    "engine.int_executions",
    "engine.survivor_ratio",
    "engine.pool_hit_rate",
    "cluster.work_imbalance",
    "cluster.vtick_imbalance",
    "cluster.sched_overhead_s",
    "cluster.steals",
    "service.submit_s",
    "service.queue_depth",
    "service.chunk_waste_ratio",
    "service.vticks_p50",
    "obs.overhead_frac",
    "driver.late_s",
    "self_s.plan",
    "self_s.kvstore",
    "self_s.cache",
    "self_s.graph",
    "self_s.engine",
    "self_s.cluster",
    "self_s.service",
    "failed_frac",
];

/// The `run_s` and `comm_bytes` bounds of BENCHMARK.json: the
/// sensitivity check requires each switch to move its metric by more.
const RUN_S_BOUND: f64 = 0.25;
const COMM_BYTES_BOUND: f64 = 0.05;

const WORKLOADS: [&str; 3] = ["enum_q5_uk", "fetch_q4_lj", "serve_mix_as"];

/// What one workload run produced.
pub struct Run {
    pub sheet: Sheet,
    pub ledger: Ledger,
    /// A one-line description of the data graph.
    pub graph: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sensitivity: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sensitivity: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sensitivity" => args.sensitivity = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.sensitivity && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.sensitivity {
        return sensitivity(args.seed, args.seconds);
    }
    let started = Instant::now();
    let mut tracer = Tracer::new(args.trace);
    let mut run = match args.workload.as_str() {
        "enum_q5_uk" => batch::run(&batch::ENUM_Q5_UK, args.seed, args.seconds, &mut tracer),
        "fetch_q4_lj" => batch::run(&batch::FETCH_Q4_LJ, args.seed, args.seconds, &mut tracer),
        _ => serve::run(args.seed, args.seconds, &mut tracer),
    };
    let failed_frac = run.ledger.failed_frac();
    run.sheet.put(
        "failed_frac",
        "ratio",
        failed_frac,
        run.ledger.attempted() as usize,
    );
    let print = fingerprint(&args.workload, args.seed);

    println!(
        "benchmark {} seed {} trace {} on {}: {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.graph,
        started.elapsed().as_secs_f64()
    );
    println!("fingerprint {print}");
    if args.trace {
        let path = output_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path, &format!("{{\"fingerprint\": {print}}}")) {
            Ok(()) => println!(
                "trace: {} spans in {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut reported = Vec::new();
    for &name in names {
        let m = match run.sheet.metrics().iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => m.clone(),
            found => {
                run.ledger
                    .record(Err(format!("{name} was not measured: {found:?}")));
                stats::Metric {
                    name: name.to_string(),
                    unit: found.map_or("none", |m| m.unit),
                    value: 0.0,
                    samples: 0,
                }
            }
        };
        println!(
            "metric {:<36} {:>18.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
        reported.push(m);
    }
    println!(
        "failed_frac {failed_frac} ({} of {} operations)",
        run.ledger.failed(),
        run.ledger.attempted()
    );
    for why in run.ledger.failures() {
        eprintln!("check failed: {why}");
    }
    let correct = run.ledger.failed() == 0;
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.ledger.attempted(),
        run.ledger.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The process's peak resident set size so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traces go: beside the benchmark executable, inside the build
/// directory.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("benchmark-traces")))
        .unwrap_or_else(|| PathBuf::from("benchmark-traces"))
}

/// Host and build fingerprint, as a JSON object: core count, CPU model,
/// compiler, git commit (when the tree is a git checkout), a digest of
/// the crates' sources, and the run's seed.
fn fingerprint(workload: &str, seed: u64) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        command_output(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    let git_sha = if root.join(".git").exists() {
        command_output(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    }
    .unwrap_or_else(|| "none".into());
    let digest = source_digest(&root.join("crates"));
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \"cpu\": \"{}\", \
         \"rustc\": \"{}\", \"git_sha\": \"{}\", \"source_digest\": \"{digest:016x}\"}}",
        esc(&cpu),
        esc(&rustc),
        esc(&git_sha)
    )
}

/// Trimmed standard output of a command that succeeded.
fn command_output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the relative paths and contents of every `.rs` and
/// `Cargo.toml` file under `dir`, in path order.
fn source_digest(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") || path.ends_with("Cargo.toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut h = inputs::Fnv::default();
    for f in files {
        h.write(
            f.strip_prefix(dir)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(&bytes);
        }
    }
    h.0
}

/// The sensitivity check: two public configuration switches that must
/// move the metrics the benchmark gates. Unpooled engine buffers must
/// make `enum_q5_uk` slower than the `run_s` bound; the raw-u32 codec
/// must multiply `fetch_q4_lj`'s `comm_bytes`. Match counts must not
/// change. Exits 1 if either expectation fails.
fn sensitivity(seed: u64, seconds: f64) -> ExitCode {
    use benu_cluster::Cluster;
    use benu_kvstore::CodecKind;
    let mut ok = true;

    // Pooled vs unpooled buffers, alternating runs for `seconds` in all.
    let spec = batch::ENUM_Q5_UK;
    let g = inputs::seeded_graph(&spec.dataset.build(spec.scale), seed);
    let pattern = benu_pattern::queries::by_name(spec.pattern).expect("workload pattern exists");
    let arms: Vec<(Cluster, benu_plan::ExecutionPlan)> = [true, false]
        .iter()
        .map(|&pooled| {
            let spec = batch::Spec { pooled, ..spec };
            let cluster = Cluster::new(&g, spec.config(&g));
            let plan = cluster
                .plan_builder(&pattern)
                .compressed(spec.compressed)
                .best_plan();
            (cluster, plan)
        })
        .collect();
    let (mut times, mut counts) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let start = Instant::now();
    while times[1].len() < 3 || start.elapsed().as_secs_f64() < seconds {
        for (i, (cluster, plan)) in arms.iter().enumerate() {
            cluster.clear_caches();
            let t = Instant::now();
            let out = cluster.run(plan).expect("sensitivity run succeeds");
            times[i].push(t.elapsed().as_secs_f64());
            counts[i].push(out.total_matches);
        }
    }
    let (pooled, unpooled) = (stats::median(&times[0]), stats::median(&times[1]));
    let slowdown = unpooled / pooled - 1.0;
    let same = counts[0]
        .iter()
        .chain(&counts[1])
        .all(|&c| c == counts[0][0]);
    println!(
        "sensitivity enum_q5_uk pooled_buffers(false): run_s {unpooled:.4} s vs {pooled:.4} s pooled \
         (n={} each) = {:+.1}% (bound {:.0}%), matches identical: {same}",
        times[0].len(),
        slowdown * 100.0,
        RUN_S_BOUND * 100.0
    );
    ok &= same && slowdown > RUN_S_BOUND;

    // Delta-varint vs raw-u32 codec: communication volume, same counts.
    let spec = batch::FETCH_Q4_LJ;
    let g = inputs::seeded_graph(&spec.dataset.build(spec.scale), seed);
    let pattern = benu_pattern::queries::by_name(spec.pattern).expect("workload pattern exists");
    let mut outcomes = Vec::new();
    for codec in [CodecKind::DeltaVarint, CodecKind::RawU32] {
        let spec = batch::Spec { codec, ..spec };
        let cluster = Cluster::new(&g, spec.config(&g));
        let plan = cluster
            .plan_builder(&pattern)
            .compressed(spec.compressed)
            .best_plan();
        let t = Instant::now();
        let out = cluster.run(&plan).expect("sensitivity run succeeds");
        outcomes.push((
            out.communication_bytes(),
            out.total_matches,
            t.elapsed().as_secs_f64(),
        ));
    }
    let ratio = outcomes[1].0 as f64 / outcomes[0].0 as f64;
    let same = outcomes[0].1 == outcomes[1].1;
    println!(
        "sensitivity fetch_q4_lj codec raw-u32: comm_bytes {} vs {} delta-varint = {ratio:.3}x, \
         run_s {:.3} s vs {:.3} s, matches identical: {same}",
        outcomes[1].0, outcomes[0].0, outcomes[1].2, outcomes[0].2
    );
    ok &= same && ratio > 1.0 + COMM_BYTES_BOUND;
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in BENCHMARK.json must name the same
    /// metrics, and the sensitivity check must use the declared bounds.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"name\": ").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for name in WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} is not declared"
            );
        }
        for (name, bound) in [("run_s", RUN_S_BOUND), ("comm_bytes", COMM_BYTES_BOUND)] {
            let entry = format!("\"name\": \"{name}\",");
            let at = json.find(&entry).expect("metric declared");
            let rest = &json[at..];
            let declared: f64 = rest[rest.find("\"bound\": ").expect("bound") + 9..]
                .split(|c: char| c != '.' && !c.is_ascii_digit())
                .next()
                .and_then(|v| v.parse().ok())
                .expect("numeric bound");
            assert_eq!(declared, bound, "{name} bound");
        }
    }
}
