//! The three workloads. Each reports every end-to-end metric; where its own
//! traffic has no request of a kind (a zoo-cold run serves no hits, a
//! hit-mix run builds nothing after set-up), the metric is measured by a
//! short fixed probe on the workload's own kernels, as the notes describe.

use crate::construct;
use crate::report::{geomean, median, percentile, Metrics, Tally};
use crate::stack::{self, Daemon, HitRun, ModelReq, Path, Role, Stack, METHOD};
use crate::steal;
use crate::sweep;
use crate::trace::Tracer;
use crate::zoo;
use fabric::{FabricClient, FabricReport};
use gensor::{Gensor, GensorConfig};
use hardware::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schedcache::ScheduleCache;
use simgpu::{CompiledKernel, Tuner};
use std::collections::{HashMap, HashSet};
use std::path::Path as FsPath;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tensor_expr::OpSpec;

/// Quiet seconds of each half of a hit probe (one half early in the run,
/// one at its end): over 1000 samples per path in every window, so each
/// window's p99 has at least ten beyond it.
const PROBE: Duration = Duration::from_secs(5);
/// Each round of set-up (see `SetUps`) runs at least `SETUPS` times and
/// for at least `SETUP_S` seconds in all (at most `MAX_SETUPS` times).
const SETUPS: usize = 3;
const SETUP_S: f64 = 2.0;
/// hit-mix takes `miss_ms` from its set-up's banking constructions, so it
/// banks for longer to sample more of the host's speed.
const BANK_S: f64 = 5.0;
const MAX_SETUPS: usize = 15;

pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    pub tmp: &'a FsPath,
}

impl Ctx<'_> {
    fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// Timed-phase length: a traced run splits it into an untraced and a
    /// traced half.
    fn phase(&self) -> Duration {
        let s = if self.traced() {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }

    fn gensor(&self) -> GensorConfig {
        GensorConfig::default().with_seed(self.seed)
    }
}

/// Set-up runs of one workload: (seconds, steal %) each. A run sets up
/// once before its timed phase and once after it, so `setup_s` samples the
/// host at both ends of the run.
struct SetUps {
    runs: Vec<(f64, f64)>,
    /// Seconds each round spends at least.
    min_s: f64,
}

impl SetUps {
    fn new(min_s: f64) -> SetUps {
        SetUps {
            runs: Vec::new(),
            min_s,
        }
    }

    /// Run `make` until this round has [`SETUPS`] quiet runs and `min_s`
    /// seconds (one quiet run when traced; at most [`MAX_SETUPS`]), and
    /// keep the round's last result. `make` gets the run's index across
    /// rounds.
    fn round<T>(&mut self, traced: bool, mut make: impl FnMut(usize) -> T) -> T {
        let want = if traced { 1 } else { SETUPS };
        let (from, mut last) = (self.runs.len(), None);
        loop {
            let mine = &self.runs[from..];
            let quiet = mine.iter().filter(|i| i.1 <= steal::STEAL_MAX).count();
            let spent: f64 = mine.iter().map(|i| i.0).sum();
            let done = quiet >= want && (traced || spent >= self.min_s);
            if done || mine.len() >= if traced { 2 } else { MAX_SETUPS } {
                break;
            }
            drop(last.take());
            let (meter, t) = (steal::Meter::start(), Instant::now());
            last = Some(make(self.runs.len()));
            self.runs.push((t.elapsed().as_secs_f64(), meter.pct()));
        }
        last.expect("at least one set-up")
    }

    /// The quiet runs (or, when fewer, the 2 × [`SETUPS`] least stolen)
    /// and their median time.
    fn kept(&self) -> (Vec<usize>, f64) {
        let runs = &self.runs;
        let mut kept: Vec<usize> = (0..runs.len())
            .filter(|&i| runs[i].1 <= steal::STEAL_MAX)
            .collect();
        if kept.len() < 2 * SETUPS {
            let mut order: Vec<usize> = (0..runs.len()).collect();
            order.sort_by(|&a, &b| runs[a].1.total_cmp(&runs[b].1));
            kept = order.into_iter().take(2 * SETUPS).collect();
        }
        let mut times: Vec<f64> = kept.iter().map(|&i| runs[i].0).collect();
        (kept, median(&mut times))
    }
}

fn tails(m: &mut Metrics, name: &str, unit: &'static str, xs: &mut [f64]) {
    m.real(format!("{name}.p50"), percentile(xs, 0.50), unit);
    m.real(format!("{name}.p99"), percentile(xs, 0.99), unit);
}

/// p50 and p99, each the median over kept windows (see `steal`).
fn window_tails(m: &mut Metrics, name: &str, unit: &'static str, per_window: &[Vec<f64>]) {
    m.real(
        format!("{name}.p50"),
        steal::percentile_of_windows(per_window, 0.50),
        unit,
    );
    m.real(
        format!("{name}.p99"),
        steal::percentile_of_windows(per_window, 0.99),
        unit,
    );
}

fn hit_tails(m: &mut Metrics, run: &HitRun, paths: &[Path]) {
    for &p in paths {
        window_tails(
            m,
            &format!("hit_us.{}", p.name()),
            "us",
            &run.lat_us[p as usize],
        );
    }
}

/// Bank `keys` with `tuner`, in parallel as `compile_model` does.
fn bank(tuner: &dyn Tuner, keys: &[(OpSpec, GpuSpec)]) -> Vec<(OpSpec, GpuSpec, CompiledKernel)> {
    let kernels = simgpu::parallel_map(keys, |(op, spec)| tuner.compile(op, spec));
    keys.iter()
        .cloned()
        .zip(kernels)
        .map(|((op, spec), k)| (op, spec, k))
        .collect()
}

fn dedup_keys(keys: impl IntoIterator<Item = (OpSpec, GpuSpec)>) -> Vec<(OpSpec, GpuSpec)> {
    let mut out: Vec<(OpSpec, GpuSpec)> = Vec::new();
    for k in keys {
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

fn lookup(
    banked: &[(OpSpec, GpuSpec, CompiledKernel)],
) -> HashMap<(String, String), &CompiledKernel> {
    banked
        .iter()
        .map(|(op, spec, k)| ((op.label(), spec.name.clone()), k))
        .collect()
}

/// A model request per (graph, device) with the banked kernel of each op.
fn model_req(
    graph: &models::ModelGraph,
    spec: &GpuSpec,
    kernels: &HashMap<(String, String), &CompiledKernel>,
) -> ModelReq {
    let time_us = |op: &OpSpec| kernels[&(op.label(), spec.name.clone())].report.time_us;
    ModelReq {
        spec: spec.clone(),
        pass_us: zoo::pass_us(graph, time_us),
        ops: zoo::unique_ops(graph)
            .into_iter()
            .map(|op| {
                let k = kernels[&(op.label(), spec.name.clone())];
                (op, k.etir.clone())
            })
            .collect(),
    }
}

/// Local cache, one Unix-socket daemon and three TCP daemons, each holding
/// `banked` (the fabric on each key's two owners).
struct Serving {
    local: Arc<ScheduleCache>,
    unix: Daemon,
    fabric: Vec<Daemon>,
}

fn start_serving(
    tmp: &FsPath,
    tag: &str,
    cfg: &GensorConfig,
    banked: &[(OpSpec, GpuSpec, CompiledKernel)],
) -> Serving {
    let name = Gensor::with_config(cfg.clone()).name();
    let local = Arc::new(ScheduleCache::in_memory());
    let unix_cache = Arc::new(ScheduleCache::in_memory());
    for (op, spec, k) in banked {
        stack::install(&local, name, op, spec, k);
        stack::install(&unix_cache, name, op, spec, k);
    }
    let sock = tmp.join(format!("{tag}.sock"));
    let unix = Daemon::start(&sock.to_string_lossy(), unix_cache, cfg.clone());
    let fabric = stack::start_fabric(None, cfg);
    stack::install_on_owners(&fabric, name, banked);
    Serving {
        local,
        unix,
        fabric,
    }
}

impl Serving {
    fn serve_as(&mut self, role: Role) {
        for d in std::iter::once(&mut self.unix).chain(&mut self.fabric) {
            d.serve_as(role);
        }
    }

    fn stack<'a>(&self, fallback: &'a dyn Tuner) -> Stack<'a> {
        Stack {
            fallback,
            local: Some(self.local.clone()),
            unix: Some(self.unix.endpoint.clone()),
            peers: stack::endpoints(&self.fabric),
        }
    }

    /// Every request was a hit: no daemon ran a construction.
    fn check_no_builds(&self, tally: &mut Tally) {
        for d in std::iter::once(&self.unix).chain(&self.fabric) {
            let s = d.stats();
            tally.check(s.misses == 0 && s.shed == 0, || {
                format!("daemon {} built {} / shed {}", d.endpoint, s.misses, s.shed)
            });
        }
    }
}

/// One half of a hit probe: `banked` on a fresh local cache, Unix daemon
/// and fabric, requested as `groups` through `paths` for [`PROBE`] quiet
/// seconds. Half 0 runs early in the run, half 1 at its end.
#[allow(clippy::too_many_arguments)]
fn probe(
    ctx: &Ctx,
    tag: &str,
    half: u64,
    cfg: &GensorConfig,
    banked: &[(OpSpec, GpuSpec, CompiledKernel)],
    groups: &[Vec<ModelReq>],
    paths: &[Path],
    fallback: &dyn Tuner,
) -> HitRun {
    let mut serving = start_serving(ctx.tmp, &format!("{tag}{half}"), cfg, banked);
    serving.serve_as(Role::Probe);
    let mut run = stack::hit_loop(
        &serving.stack(fallback),
        groups,
        paths,
        ctx.seed ^ half,
        PROBE,
        &Tracer::new(false),
    );
    serving.check_no_builds(&mut run.tally);
    run
}

fn mean_latency_us(run: &HitRun) -> f64 {
    let all: Vec<f64> = run.all_us.concat();
    all.iter().sum::<f64>() / all.len() as f64
}

fn seeded_sample<T: Clone>(seed: u64, xs: &[T], k: usize) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.gen_range(0..i + 1));
    }
    idx.into_iter().take(k).map(|i| xs[i].clone()).collect()
}

// ---------------------------------------------------------------- zoo-cold

pub fn zoo_cold(ctx: &Ctx) -> (Metrics, Tally) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let spec = GpuSpec::rtx4090();
    let cfg = ctx.gensor();
    let gensor = Gensor::with_config(cfg.clone());
    let mut setups = SetUps::new(SETUP_S);
    let mut checks = Tally::default();
    let mut make = |_| {
        // The same tuner's schedules for small GEMM/conv/pool ops must
        // compute what the reference interpreter computes.
        for op in [
            OpSpec::gemm(48, 32, 40),
            OpSpec::conv2d(1, 4, 8, 8, 8, 3, 3, 1, 1),
            OpSpec::avg_pool2d(1, 4, 8, 8, 2, 2),
        ] {
            let r = interp::try_check_schedule(&gensor.compile(&op, &spec).etir);
            checks.check(r.is_ok(), || format!("interpreter mismatch: {r:?}"));
        }
        zoo::graphs(8)
    };
    let graphs = setups.round(ctx.traced(), &mut make);

    // Whole passes are the measured intervals here (see `steal`); the first
    // one's kernels are served back by a hit probe right after it.
    let target = ctx.phase().as_secs_f64();
    let (mut passes, mut items) = (Vec::new(), Vec::new());
    let mut timed_pass = |passes: &mut Vec<zoo::Pass>| {
        let meter = steal::Meter::start();
        let p = zoo::pass(&gensor, None, &graphs, &spec, &Tracer::new(false));
        items.push((p.elapsed_s, meter.pct()));
        passes.push(p);
        let elapsed: f64 = items.iter().map(|i| i.0).sum();
        steal::enough(&items, target, elapsed)
    };
    let mut done = timed_pass(&mut passes);
    let banked = dedup_banked(
        passes[0]
            .compiled
            .iter()
            .flat_map(|c| {
                c.kernels
                    .iter()
                    .map(|(_, k, _)| (k.etir.op.clone(), spec.clone(), k.clone()))
            })
            .collect(),
    );
    let kernels = lookup(&banked);
    let groups: Vec<Vec<ModelReq>> = graphs
        .iter()
        .map(|(_, g)| vec![model_req(g, &spec, &kernels)])
        .collect();
    let paths = [Path::Local, Path::Remote, Path::Fabric];
    let early = probe(ctx, "zoo", 0, &cfg, &banked, &groups, &paths, &gensor);
    while !done {
        done = timed_pass(&mut passes);
    }
    let keep = steal::select(&items, target);
    for p in &passes {
        zoo::check_pass(p, &passes[0], &spec, &mut tally);
    }
    let first = &passes[0];
    let kept: Vec<&zoo::Pass> = passes
        .iter()
        .zip(&keep)
        .filter(|(_, k)| **k)
        .map(|(p, _)| p)
        .collect();
    let mut pass_s: Vec<f64> = kept.iter().map(|p| p.elapsed_s).collect();
    let ops: usize = kept.iter().map(|p| p.ops()).sum();
    let elapsed: f64 = pass_s.iter().sum();
    let cpu: f64 = kept.iter().map(|p| p.cpu_s).sum();
    let zoo_compile_s = median(&mut pass_s);
    m.real("zoo_compile_s", zoo_compile_s, "s");
    m.real("req_per_s", ops as f64 / elapsed, "1/s");
    m.real("cpu_s_per_op", cpu / ops as f64, "s");
    let pass_us: Vec<f64> = first.compiled.iter().map(|c| c.pass_time_us).collect();
    m.real("pass_us.geomean", geomean(&pass_us), "sim_us");
    // Every compile in this workload is a construction.
    let mut build_ms: Vec<f64> = kept
        .iter()
        .flat_map(|p| p.compiled.iter())
        .flat_map(|c| c.kernels.iter().map(|(_, k, _)| k.wall_time_s * 1e3))
        .collect();
    tails(&mut m, "miss_ms", "ms", &mut build_ms);
    let late = probe(ctx, "zoo", 1, &cfg, &banked, &groups, &paths, &gensor);
    let probed = early.merge(late);
    tally.add(probed.tally);
    hit_tails(&mut m, &probed, &paths);
    sweep::fabric_shares(&mut m, &probed.fabric);
    setups.round(ctx.traced(), &mut make);
    tally.add(checks);
    m.real("setup_s", setups.kept().1, "s");

    if ctx.traced() {
        let (traced, walks) =
            construct::traced_pass(&gensor, &graphs, &spec, ctx.tracer, first, &mut tally);
        m.real(
            "bench.trace_overhead",
            traced.elapsed_s / zoo_compile_s,
            "ratio",
        );
        sweep::construction_metrics(&mut m, &graphs, &passes, &walks);
        sweep::layers(
            &mut m,
            &mut tally,
            ctx,
            &seeded_sample(ctx.seed, &banked, sweep::SAMPLE),
            &cfg,
            None,
        );
    }

    (m, tally)
}

fn dedup_banked(
    xs: Vec<(OpSpec, GpuSpec, CompiledKernel)>,
) -> Vec<(OpSpec, GpuSpec, CompiledKernel)> {
    let mut seen = HashSet::new();
    xs.into_iter()
        .filter(|(op, spec, _)| seen.insert((op.label(), spec.name.clone())))
        .collect()
}

// ----------------------------------------------------------------- hit-mix

pub fn hit_mix(ctx: &Ctx) -> (Metrics, Tally) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let devices = [GpuSpec::rtx4090(), GpuSpec::orin_nano()];
    // Banking needs schedules, not good ones: one chain per op. The bank
    // does not depend on the seed; the request mix does.
    let cfg = GensorConfig {
        chains: 1,
        ..GensorConfig::default()
    };
    let banker = Gensor::with_config(cfg.clone());
    let variants: Vec<Vec<(models::ModelGraph, GpuSpec)>> = zoo::graphs(1)
        .into_iter()
        .zip(zoo::graphs(8))
        .map(|((_, g1), (_, g8))| {
            devices
                .iter()
                .flat_map(|d| [(g1.clone(), d.clone()), (g8.clone(), d.clone())])
                .collect()
        })
        .collect();
    let keys = dedup_keys(variants.iter().flatten().flat_map(|(g, d)| {
        zoo::unique_ops(g)
            .into_iter()
            .map(move |op| (op, d.clone()))
    }));
    let mut setups = SetUps::new(BANK_S);
    let mut build_ms: Vec<Vec<f64>> = Vec::new();
    let mut make = |i| {
        let banked = bank(&banker, &keys);
        build_ms.push(banked.iter().map(|(_, _, k)| k.wall_time_s * 1e3).collect());
        let serving = start_serving(ctx.tmp, &format!("hit{i}"), &cfg, &banked);
        (banked, serving)
    };
    let (banked, mut serving) = setups.round(ctx.traced(), &mut make);
    serving.serve_as(Role::Workload);
    let kernels = lookup(&banked);
    let groups: Vec<Vec<ModelReq>> = variants
        .iter()
        .map(|vs| vs.iter().map(|(g, d)| model_req(g, d, &kernels)).collect())
        .collect();
    let paths = [Path::Local, Path::Remote, Path::Fabric];
    let stack = serving.stack(&banker);
    let timed =
        |tracer: &Tracer| stack::hit_loop(&stack, &groups, &paths, ctx.seed, ctx.phase(), tracer);
    let mut run = timed(&Tracer::new(false));
    serving.check_no_builds(&mut run.tally);
    tally.add(run.tally);

    m.real("req_per_s", run.windows.rate(&run.all_us), "1/s");
    m.real("cpu_s_per_op", run.windows.cpu_per_event(&run.all_us), "s");
    m.real("zoo_compile_s", median(&mut run.pass_s), "s");
    hit_tails(&mut m, &run, &paths);
    m.real("pass_us.geomean", geomean(&run.model_pass_us), "sim_us");
    let traced = ctx.traced().then(|| timed(ctx.tracer));
    serving.check_no_builds(&mut tally);
    let mut fabric = run.fabric.clone();
    fabric.extend(traced.iter().flat_map(|t| t.fabric.iter().copied()));
    sweep::fabric_shares(&mut m, &fabric);
    drop(serving);
    drop(setups.round(ctx.traced(), &mut make));
    // The only constructions of this workload are the set-up's banking.
    // Each op's build time is its median over the quiet set-ups.
    let (quiet, setup_s) = setups.kept();
    m.real("setup_s", setup_s, "s");
    let mut build_ms: Vec<f64> = (0..keys.len())
        .map(|op| median(&mut quiet.iter().map(|&i| build_ms[i][op]).collect::<Vec<_>>()))
        .collect();
    tails(&mut m, "miss_ms", "ms", &mut build_ms);
    if let Some(traced) = traced {
        tally.add(traced.tally);
        m.real(
            "bench.trace_overhead",
            mean_latency_us(&traced) / mean_latency_us(&run),
            "ratio",
        );
        let sample = seeded_sample(ctx.seed, &banked, sweep::SAMPLE);
        sweep::layers(&mut m, &mut tally, ctx, &sample, &cfg, Some(&devices[0]));
    }

    (m, tally)
}

// --------------------------------------------------------------- dyn-serve

/// Model requests that use a never-seen (batch, seq): ≈ that share of op
/// requests runs a construction.
const FRESH_SHARE: f64 = 0.10;
const BANKED_SEQS: [u64; 3] = [64, 128, 256];
const BATCHES: [u64; 2] = [1, 8];

fn dyn_graph(model: usize, batch: u64, seq: u64) -> models::ModelGraph {
    match model {
        0 => models::zoo::bert_small(batch, seq),
        _ => models::zoo::gpt2(batch, seq),
    }
}

/// One dyn-serve phase, split by kept window.
struct DynRun {
    windows: steal::Windows,
    /// Per kept window: hit µs, miss ms, and every request's µs.
    hit_us: Vec<Vec<f64>>,
    miss_ms: Vec<Vec<f64>>,
    all_us: Vec<Vec<f64>>,
    pass_s: Vec<f64>,
    /// Simulated forward-pass µs of each model request served.
    model_pass_us: Vec<f64>,
    /// Every op requested (kept window or not): the stores must hold them.
    requested: Vec<(OpSpec, GpuSpec)>,
    /// Each fabric client's report, at the end of the phase.
    fabric: Vec<FabricReport>,
    tally: Tally,
}

fn count(per_window: &[Vec<f64>]) -> usize {
    per_window.iter().map(Vec::len).sum()
}

/// One caller's raw record: (completion s, µs, hit?) per op request and
/// (completion s, duration s) per pass.
#[derive(Default)]
struct DynRecord {
    samples: Vec<(f64, f64, bool)>,
    passes: Vec<(f64, f64)>,
    models: Vec<(f64, f64)>,
    requested: Vec<(OpSpec, GpuSpec)>,
    fabric: FabricReport,
    tally: Tally,
}

/// Two closed-loop callers, each with its own fabric client, requesting
/// BERT-small and GPT-2 ops at seeded shapes; a fixed share of model
/// requests uses a shape nobody has seen, which misses.
fn dyn_loop(
    daemons: &[Daemon],
    fallback: &dyn Tuner,
    seed: u64,
    phase: u64,
    target: Duration,
    tracer: &Tracer,
) -> DynRun {
    let spec = GpuSpec::orin_nano();
    let peers = stack::endpoints(daemons);
    let ring = stack::ring_of(&peers);
    let (peers, ring, spec) = (&peers, &ring, &spec);
    let (records, windows) = stack::two_callers(target, |c, t0, stop| {
        let mut rng = StdRng::seed_from_u64(seed ^ (c + 1) << 40 ^ phase);
        let f =
            FabricClient::new(peers, METHOD, None, fallback).with_config(stack::client_config());
        let mut buf = tracer.buf();
        let verdicts = verify::VerdictCache::in_memory();
        let mut out = DynRecord::default();
        // Odd sequence lengths, disjoint per caller and phase:
        // never banked, never repeated.
        let mut fresh = 65 + 2 * c + 4 * phase;
        while !stop.load(Ordering::Relaxed) {
            let t_pass = Instant::now();
            let first = rng.gen_range(0..2usize);
            for model in [first, 1 - first] {
                let batch = BATCHES[rng.gen_range(0..BATCHES.len())];
                let seq = if rng.gen_bool(FRESH_SHARE) {
                    fresh += 8;
                    fresh
                } else {
                    BANKED_SEQS[rng.gen_range(0..BANKED_SEQS.len())]
                };
                let graph = dyn_graph(model, batch, seq);
                let mut pass_us = 0.0;
                for layer in graph.fused_layers() {
                    let op = layer.op.clone();
                    let req = tracer.id();
                    let a = f.report();
                    let t = Instant::now();
                    let call = buf.open("fabric.FabricClient.compile", 0, req);
                    let call_id = call.id();
                    let k = f.compile(&op, spec);
                    let b = f.report();
                    let hit = b.hits == a.hits + 1;
                    let miss = b.misses == a.misses + 1;
                    buf.close_as(
                        call,
                        if hit {
                            "fabric.FabricClient.compile(hit)"
                        } else {
                            "fabric.FabricClient.compile(miss)"
                        },
                    );
                    let secs = t.elapsed().as_secs_f64();
                    let clean = b.local == a.local
                        && b.failovers == a.failovers
                        && b.rejected == a.rejected;
                    if tracer.on() && hit {
                        stack::probe_request(
                            &mut buf,
                            Path::Fabric,
                            &op,
                            spec,
                            fallback.name(),
                            &k,
                            None,
                            Some(&f),
                            &verdicts,
                            call_id,
                            req,
                        );
                    } else if tracer.on() {
                        // The construction itself runs inside the
                        // daemon; re-measure what it started from.
                        let owner = stack::owners(ring, &op, spec)[0];
                        let d = daemons
                            .iter()
                            .find(|d| d.endpoint == owner)
                            .expect("owner daemon");
                        buf.time_probe("schedcache.neighbours", call_id, req, || {
                            std::hint::black_box(d.cache.neighbours(&op, spec, 3))
                        });
                        buf.time_probe("verify.verify", call_id, req, || {
                            std::hint::black_box(verify::verify_schedule(&k.etir, Some(spec)))
                        });
                    }
                    out.samples.push((t0.elapsed().as_secs_f64(), secs, hit));
                    let legal = verify::verify_schedule(&k.etir, Some(spec)).is_legal();
                    out.tally.check(clean && (hit || miss) && legal, || {
                        format!(
                            "fabric answer for {} failed (legal {legal}, report {b:?})",
                            op.label()
                        )
                    });
                    pass_us += k.report.time_us * layer.count as f64;
                    out.requested.push((op, spec.clone()));
                }
                out.models.push((t0.elapsed().as_secs_f64(), pass_us));
            }
            out.passes
                .push((t0.elapsed().as_secs_f64(), t_pass.elapsed().as_secs_f64()));
        }
        out.fabric = f.report();
        out
    });
    let events =
        |f: &dyn Fn(&DynRecord) -> Vec<(f64, f64)>| records.iter().flat_map(f).collect::<Vec<_>>();
    let pick = |hit: bool, scale: f64| {
        events(&|r| {
            r.samples
                .iter()
                .filter(|s| s.2 == hit)
                .map(|s| (s.0, s.1 * scale))
                .collect()
        })
    };
    let mut tally = Tally::default();
    let mut requested = Vec::new();
    for r in &records {
        tally.add(r.tally);
        requested.extend(r.requested.iter().cloned());
    }
    DynRun {
        hit_us: windows.split(pick(true, 1e6)),
        miss_ms: windows.split(pick(false, 1e3)),
        all_us: windows.split(events(&|r| {
            r.samples.iter().map(|s| (s.0, s.1 * 1e6)).collect()
        })),
        pass_s: windows.split(events(&|r| r.passes.clone())).concat(),
        model_pass_us: windows.split(events(&|r| r.models.clone())).concat(),
        requested,
        fabric: records.iter().map(|r| r.fabric).collect(),
        tally,
        windows,
    }
}

pub fn dyn_serve(ctx: &Ctx) -> (Metrics, Tally) {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let spec = GpuSpec::orin_nano();
    let cfg = ctx.gensor();
    // The starting bank does not depend on the seed; the request mix and
    // the daemons' constructions of new shapes do.
    let banker = Gensor::with_config(GensorConfig {
        chains: 1,
        ..GensorConfig::default()
    });
    let keys = dedup_keys((0..2).flat_map(|model| {
        BATCHES.iter().flat_map(move |&b| {
            BANKED_SEQS.iter().flat_map(move |&s| {
                zoo::unique_ops(&dyn_graph(model, b, s))
                    .into_iter()
                    .map(|op| (op, GpuSpec::orin_nano()))
            })
        })
    }));
    let mut setups = SetUps::new(SETUP_S);
    let mut make = |i| {
        let dir = ctx.tmp.join(format!("dyn{i}"));
        std::fs::create_dir_all(&dir).expect("create store dir");
        let daemons = stack::start_fabric(Some(&dir), &cfg);
        let banked = bank(&banker, &keys);
        stack::install_on_owners(&daemons, banker.name(), &banked);
        (banked, daemons, dir)
    };
    let (banked, mut daemons, dir) = setups.round(ctx.traced(), &mut make);
    for d in &mut daemons {
        d.serve_as(Role::Workload);
    }
    // Hit probe for the two paths this workload's traffic does not take.
    let kernels = lookup(&banked);
    let groups: Vec<Vec<ModelReq>> = (0..2)
        .map(|model| {
            BATCHES
                .iter()
                .flat_map(|&b| BANKED_SEQS.iter().map(move |&s| (b, s)))
                .map(|(b, s)| model_req(&dyn_graph(model, b, s), &spec, &kernels))
                .collect()
        })
        .collect();
    let paths = [Path::Local, Path::Remote];
    let early = probe(ctx, "dyn", 0, &cfg, &banked, &groups, &paths, &banker);
    let peers = stack::endpoints(&daemons);
    let mut run = dyn_loop(
        &daemons,
        &banker,
        ctx.seed,
        0,
        ctx.phase(),
        &Tracer::new(false),
    );
    let mut requested = std::mem::take(&mut run.requested);
    let mut fabric = run.fabric.clone();
    tally.add(run.tally);
    if ctx.traced() {
        let mut traced = dyn_loop(&daemons, &banker, ctx.seed, 1, ctx.phase(), ctx.tracer);
        tally.add(traced.tally);
        requested.append(&mut traced.requested);
        fabric.extend(traced.fabric.iter().copied());
        let mean_us = |r: &DynRun| {
            let all = r.all_us.concat();
            all.iter().sum::<f64>() / all.len() as f64
        };
        m.real(
            "bench.trace_overhead",
            mean_us(&traced) / mean_us(&run),
            "ratio",
        );
    }
    eprintln!(
        "perfbench: dyn-serve miss share {:.3} ({} of {} op requests)",
        count(&run.miss_ms) as f64 / count(&run.all_us) as f64,
        count(&run.miss_ms),
        count(&run.all_us)
    );

    // Each reopened store must hold exactly the keys routed to it: the
    // banked set plus every requested shape, on both owners.
    let ring = stack::ring_of(&peers);
    let mut expected: HashMap<String, HashSet<String>> = HashMap::new();
    for (op, spec) in banked
        .iter()
        .map(|(o, s, _)| (o, s))
        .chain(requested.iter().map(|(o, s)| (o, s)))
    {
        for ep in stack::owners(&ring, op, spec) {
            expected
                .entry(ep.to_string())
                .or_default()
                .insert(op.label());
        }
    }
    let endpoints = peers.clone();
    drop(daemons);
    for (i, ep) in endpoints.iter().enumerate() {
        let reopened =
            ScheduleCache::open(dir.join(format!("peer{i}.jsonl"))).expect("reopen store");
        let s = reopened.stats();
        let want = expected.get(ep).map_or(0, |k| k.len());
        tally.check(s.corrupt_lines == 0 && reopened.len() == want, || {
            format!(
                "store {i}: {} corrupt, {} keys, expected {want}",
                s.corrupt_lines,
                reopened.len()
            )
        });
    }

    sweep::fabric_shares(&mut m, &fabric);
    m.real("req_per_s", run.windows.rate(&run.all_us), "1/s");
    m.real("cpu_s_per_op", run.windows.cpu_per_event(&run.all_us), "s");
    m.real("zoo_compile_s", median(&mut run.pass_s), "s");
    window_tails(&mut m, "hit_us.fabric", "us", &run.hit_us);
    window_tails(&mut m, "miss_ms", "ms", &run.miss_ms);
    m.real("pass_us.geomean", geomean(&run.model_pass_us), "sim_us");
    let late = probe(ctx, "dyn", 1, &cfg, &banked, &groups, &paths, &banker);
    let probed = early.merge(late);
    tally.add(probed.tally);
    hit_tails(&mut m, &probed, &paths);
    drop(setups.round(ctx.traced(), &mut make));
    m.real("setup_s", setups.kept().1, "s");
    if ctx.traced() {
        let warm = GensorConfig {
            chains: (cfg.chains / 4).max(1),
            ..cfg.clone()
        };
        let sample = seeded_sample(ctx.seed, &banked, sweep::SAMPLE);
        sweep::layers(&mut m, &mut tally, ctx, &sample, &warm, Some(&spec));
    }

    (m, tally)
}
