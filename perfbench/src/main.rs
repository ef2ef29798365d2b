//! `perfbench` — the repository's benchmark: one command that runs a named
//! workload from a seed, checks every output, and prints every metric by
//! name and unit.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo-cold|hit-mix|dyn-serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! untraced and then traced, prints the per-layer table, and reports the
//! per-layer metrics. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
//! when every output check passed. See `perfbench/NOTES.md`.

mod construct;
mod report;
mod stack;
mod steal;
mod sweep;
mod trace;
mod workloads;
mod zoo;

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// Metrics of a `--trace 0` run, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 9] = [
    "setup_s",
    "zoo_compile_s",
    "cpu_s_per_op",
    "pass_us.geomean",
    "req_per_s",
    "hit_us.local.p50",
    "hit_us.remote.p50",
    "hit_us.fabric.p50",
    "miss_ms.p50",
];

/// Metrics of a `--trace 1` run, as `BENCHMARK.json` lists them. The p99
/// tails come from the run's untraced half; they are listed here, without
/// a bound, because on a shared VM they drift between runs by more than
/// any bound the benchmark may set (see NOTES.md).
const PER_LAYER: [&str; 52] = [
    "hit_us.local.p99",
    "hit_us.remote.p99",
    "hit_us.fabric.p99",
    "miss_ms.p99",
    "core.tune_ms",
    "core.walk_us",
    "core.chain_skew",
    "core.steps",
    "core.benefit_evals",
    "core.chains",
    "core.step_us",
    "core.score_step_us",
    "core.choose_ns",
    "simgpu.simulate_us",
    "simgpu.simulate_calls",
    "etir.apply_us",
    "etir.stats_us",
    "models.compile_s.bert_small",
    "models.compile_s.mobilenet_v2",
    "models.compile_s.resnet50",
    "models.compile_s.gpt2",
    "models.unique_ops",
    "models.cpu_over_elapsed",
    "models.reported_over_elapsed",
    "schedcache.gpu_fp_us",
    "schedcache.op_fp_us",
    "schedcache.key_us",
    "schedcache.peek_us",
    "schedcache.neighbours_us",
    "schedcache.miss_share",
    "schedcache.warm_starts",
    "served.encode_us.compile",
    "served.encode_us.compiled",
    "served.decode_us.compile",
    "served.decode_us.compiled",
    "served.bytes.compile",
    "served.bytes.compiled",
    "served.ping_us",
    "served.queue_us.p99",
    "served.busy",
    "fabric.route_us",
    "fabric.hits",
    "fabric.misses",
    "fabric.failovers",
    "fabric.local_fallbacks",
    "fabric.rejected",
    "fabric.repairs",
    "fabric.put_us",
    "verify.verify_us",
    "verify.reverify_us",
    "verify.verdict_hit_ratio",
    "bench.trace_overhead",
];

const WORKLOADS: [&str; 3] = ["zoo-cold", "hit-mix", "dyn-serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Working space inside the working directory (sockets, stores), removed
/// on every exit path that unwinds.
struct TmpDir(std::path::PathBuf);

impl TmpDir {
    fn new() -> TmpDir {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = std::path::PathBuf::from(".perfbench-tmp")
            .join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create .perfbench-tmp");
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload zoo-cold|hit-mix|dyn-serve \
                 --seed N [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let tmp = TmpDir::new();
    let tracer = trace::Tracer::new(args.trace);
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
        tmp: &tmp.0,
    };
    let (mut m, mut tally) = match args.workload.as_str() {
        "zoo-cold" => workloads::zoo_cold(&ctx),
        "hit-mix" => workloads::hit_mix(&ctx),
        _ => workloads::dyn_serve(&ctx),
    };
    let wanted: &[&str] = if args.trace {
        sweep::fleet_metrics(&mut m);
        let spans = tracer.take_spans();
        sweep::span_metrics(&mut m, &trace::rows(&spans));
        let calls = sweep::walk_calls(&m);
        let (own, sweep) = spans.split_at(tracer.workload_len().min(spans.len()));
        for (title, part) in [("traced half of the workload", own), ("layer sweep", sweep)] {
            println!(
                "per-layer table: {title} ({}, seed {})",
                args.workload, args.seed
            );
            println!("{}\n", trace::render(part, &trace::rows(part), &calls));
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut out = report::Metrics::default();
    for name in wanted {
        match m.0.remove(*name) {
            Some(entry) => {
                out.0.insert(name.to_string(), entry);
            }
            None => tally.check(false, || format!("metric {name} was not measured")),
        }
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        out.json()
    );
    drop(tmp);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
