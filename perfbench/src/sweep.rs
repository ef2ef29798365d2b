//! The traced run's per-layer figures.
//!
//! Spans from the workload's own loop carry most of them. A fixed sweep on
//! a seeded sample of the workload's banked kernels adds the rest, so every
//! layer metric is measured on every workload, and the frame bytes it
//! reports are exact: the sweep's work does not depend on how fast the
//! host is.

use crate::construct::{self, Walks};
use crate::report::{Metrics, Tally};
use crate::stack::{self, Daemon, FrameBytes, Role, FLEET, METHOD};
use crate::trace::{Row, Tracer};
use crate::workloads::Ctx;
use crate::zoo::{self, Pass};
use fabric::{ring_key, FabricReport};
use gensor::{Gensor, GensorConfig};
use hardware::GpuSpec;
use schedcache::{CacheKey, ScheduleCache};
use served::Client;
use simgpu::{CompiledKernel, Tuner};
use std::collections::BTreeMap;
use std::hint::black_box;
use tensor_expr::OpSpec;
use verify::{Provenance, VerdictCache};

/// Banked kernels the sweep samples per workload.
pub const SAMPLE: usize = 16;
/// Timed repetitions of each in-memory probe per sampled kernel.
const REPS: usize = 8;

/// `models.*` from untraced passes and the `core.*`/`simgpu.*` figures of
/// one traced pass's walks.
pub fn construction_metrics(
    m: &mut Metrics,
    graphs: &[(&'static str, models::ModelGraph)],
    passes: &[Pass],
    walks: &Walks,
) {
    for (i, (name, _)) in graphs.iter().enumerate() {
        let mut s: Vec<f64> = passes.iter().map(|p| p.model_s[i]).collect();
        m.real(
            format!("models.compile_s.{name}"),
            crate::report::median(&mut s),
            "s",
        );
    }
    let sum = |f: fn(&Pass) -> f64| passes.iter().map(f).fold(0.0, |a, x| a + x);
    let elapsed = sum(|p| p.elapsed_s);
    m.count("models.unique_ops", passes[0].ops() as u64, "count");
    m.real(
        "models.cpu_over_elapsed",
        sum(|p| p.cpu_s) / elapsed,
        "ratio",
    );
    m.real(
        "models.reported_over_elapsed",
        sum(|p| p.reported_s) / elapsed,
        "ratio",
    );
    m.count("core.chains", walks.chains, "count");
    m.count("core.steps", walks.steps, "count");
    m.count("core.benefit_evals", walks.benefit_evals, "count");
    m.count("simgpu.simulate_calls", walks.simulate_calls, "count");
    m.real(
        "core.walk_us",
        walks.walk_s * 1e6 / walks.chains as f64,
        "us",
    );
    m.real(
        "core.step_us",
        walks.walk_s * 1e6 / walks.steps as f64,
        "us",
    );
    let skew = walks.skew.iter().sum::<f64>() / walks.skew.len() as f64;
    m.real("core.chain_skew", skew, "ratio");
}

/// How many times the walks called each layer the walk probes sample.
pub fn walk_calls(m: &Metrics) -> Vec<(&'static str, u64)> {
    let get = |name| match m.get(name) {
        Some(crate::report::Value::Count(n)) => n,
        _ => 0,
    };
    let (steps, sims) = (get("core.steps"), get("simgpu.simulate_calls"));
    vec![
        ("core.score_step", steps),
        ("core.choose", steps),
        ("etir.apply", steps),
        ("simgpu.simulate", sims),
        ("etir.stats", sims),
    ]
}

/// The fixed sweep. With `construction`, it first compiles the zoo once
/// untraced and once traced with `cfg` on that device (zoo-cold measures
/// construction in its own loop instead).
pub fn layers(
    m: &mut Metrics,
    tally: &mut Tally,
    ctx: &Ctx,
    sample: &[(OpSpec, GpuSpec, CompiledKernel)],
    cfg: &GensorConfig,
    construction: Option<&GpuSpec>,
) {
    ctx.tracer.end_workload();
    let gensor = Gensor::with_config(cfg.clone());
    if let Some(spec) = construction {
        let graphs = zoo::graphs(8);
        let untraced = zoo::pass(&gensor, None, &graphs, spec, &Tracer::new(false));
        let (_, walks) =
            construct::traced_pass(&gensor, &graphs, spec, ctx.tracer, &untraced, tally);
        construction_metrics(m, &graphs, &[untraced], &walks);
    }

    let tracer = ctx.tracer;
    let mut buf = tracer.buf();
    let name = gensor.name();
    let local = ScheduleCache::in_memory();
    for (op, spec, k) in sample {
        stack::install(&local, name, op, spec, k);
    }
    let mut daemons: Vec<Daemon> = stack::start_fabric(None, cfg);
    for d in &mut daemons {
        d.serve_as(Role::Probe);
    }
    let peers = stack::endpoints(&daemons);
    let ring = stack::ring_of(&peers);
    let verdicts = VerdictCache::in_memory();
    let mut bytes = FrameBytes::default();
    for rep in 0..REPS {
        for (op, spec, k) in sample {
            let req = tracer.id();
            buf.time_probe("schedcache.gpu_fp", 0, req, || {
                black_box(schedcache::key::gpu_fingerprint(spec))
            });
            buf.time_probe("schedcache.op_fp", 0, req, || {
                black_box(schedcache::key::op_fingerprint(op))
            });
            buf.time_probe("schedcache.key", 0, req, || {
                black_box(CacheKey::new(op, spec, name))
            });
            let hit = buf.time_probe("schedcache.peek", 0, req, || local.peek(op, spec, name));
            buf.time_probe("schedcache.neighbours", 0, req, || {
                black_box(local.neighbours(op, spec, 3))
            });
            let (b, same) = stack::wire_probe(&mut buf, op, spec, k, 0, req);
            buf.time_probe("fabric.route", 0, req, || {
                black_box(
                    ring.route(ring_key(&CacheKey::new(op, spec, METHOD)), 2)
                        .len(),
                )
            });
            let legal = buf
                .time_probe("verify.verify", 0, req, || {
                    verify::verify_schedule(&k.etir, Some(spec))
                })
                .is_legal();
            if rep == 0 {
                bytes.compile += b.compile;
                bytes.compiled += b.compiled;
                tally.check(same, || {
                    format!("frames of {} do not round-trip", op.label())
                });
                tally.check(legal, || format!("banked {} is illegal", op.label()));
                tally.check(hit.is_some_and(|h| h.etir == k.etir), || {
                    format!("peek missed banked {}", op.label())
                });
                // First sighting: the re-verify below is the cached path.
                verdicts.verify_as(&k.etir, Some(spec), Provenance::RemotePeer);
            }
            buf.time_probe("verify.reverify", 0, req, || {
                black_box(verdicts.verify_as(&k.etir, Some(spec), Provenance::RemotePeer))
            });
        }
    }
    m.count("served.bytes.compile", bytes.compile, "B");
    m.count("served.bytes.compiled", bytes.compiled, "B");

    // Wire a fresh kernel to each key's primary and ping it.
    let mut clients: BTreeMap<&str, Client> = peers
        .iter()
        .map(|p| {
            let c = Client::connect_with(p.as_str(), stack::client_config())
                .expect("connect sweep daemon");
            (p.as_str(), c)
        })
        .collect();
    for (op, spec, k) in sample {
        let req = tracer.id();
        let primary = stack::owners(&ring, op, spec)[0];
        let c = clients.get_mut(primary).expect("primary client");
        let put = buf.time_probe("fabric.put", 0, req, || c.put(op, spec, METHOD, k));
        tally.check(matches!(put, Ok(true)), || {
            format!("put of {} not installed: {put:?}", op.label())
        });
        for _ in 0..4 {
            let ping = buf.time_probe("served.ping", 0, req, || c.ping());
            tally.check(ping.is_ok(), || format!("ping failed: {ping:?}"));
        }
    }
}

/// Figures read from the daemons that served the workload's timed phases,
/// counted from when their banking was installed (zoo-cold has none: there,
/// from its hit-probe and sweep daemons).
pub fn fleet_metrics(m: &mut Metrics) {
    let all = FLEET.lock().expect("fleet log poisoned");
    let own = all.iter().any(|d| d.role == Role::Workload);
    let fleet: Vec<_> = all
        .iter()
        .filter(|d| !own || d.role == Role::Workload)
        .collect();
    let sum = |f: fn(&stack::Served) -> u64| fleet.iter().map(|d| f(d)).sum::<u64>();
    let queue_p99 = fleet.iter().map(|d| d.queue_p99_us).max().unwrap_or(0);
    let (hits, misses) = (sum(|d| d.cache_hits), sum(|d| d.cache_misses));
    let (vh, vm) = (sum(|d| d.verdict_hits), sum(|d| d.verdict_misses));
    m.count("served.queue_us.p99", queue_p99, "us");
    m.count("served.busy", sum(|d| d.shed), "count");
    m.real(
        "schedcache.miss_share",
        ratio(misses, hits + misses),
        "ratio",
    );
    m.count("schedcache.warm_starts", sum(|d| d.warm_starts), "count");
    m.real("verify.verdict_hit_ratio", ratio(vh, vh + vm), "ratio");
}

/// The workload's own fabric outcomes, each as a share of its fabric
/// requests (answered remotely or by the local fallback).
pub fn fabric_shares(m: &mut Metrics, reports: &[FabricReport]) {
    let sum = |f: fn(&FabricReport) -> u64| reports.iter().map(f).sum::<u64>();
    let requests = sum(|r| r.remote) + sum(|r| r.local);
    for (name, n) in [
        ("fabric.hits", sum(|r| r.hits)),
        ("fabric.misses", sum(|r| r.misses)),
        ("fabric.failovers", sum(|r| r.failovers)),
        ("fabric.local_fallbacks", sum(|r| r.local)),
        ("fabric.rejected", sum(|r| r.rejected)),
        ("fabric.repairs", sum(|r| r.repairs)),
    ] {
        m.real(name, ratio(n, requests), "ratio");
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Mean span durations, by layer metric name.
pub fn span_metrics(m: &mut Metrics, rows: &BTreeMap<&'static str, Row>) {
    const US: [(&str, &str); 20] = [
        ("core.score_step", "core.score_step_us"),
        ("simgpu.simulate", "simgpu.simulate_us"),
        ("etir.apply", "etir.apply_us"),
        ("etir.stats", "etir.stats_us"),
        ("schedcache.gpu_fp", "schedcache.gpu_fp_us"),
        ("schedcache.op_fp", "schedcache.op_fp_us"),
        ("schedcache.key", "schedcache.key_us"),
        ("schedcache.peek", "schedcache.peek_us"),
        ("schedcache.neighbours", "schedcache.neighbours_us"),
        ("served.encode.compile", "served.encode_us.compile"),
        ("served.encode.compiled", "served.encode_us.compiled"),
        ("served.decode.compile", "served.decode_us.compile"),
        ("served.decode.compiled", "served.decode_us.compiled"),
        ("served.ping", "served.ping_us"),
        ("fabric.route", "fabric.route_us"),
        ("fabric.put", "fabric.put_us"),
        ("verify.verify", "verify.verify_us"),
        ("verify.reverify", "verify.reverify_us"),
        ("core.tune", "core.tune_ms"),
        ("core.choose", "core.choose_ns"),
    ];
    for (span, metric) in US {
        let Some(r) = rows.get(span) else { continue };
        let (v, unit) = match metric.rsplit('_').next() {
            Some("ms") => (r.mean_us() / 1e3, "ms"),
            Some("ns") => (r.mean_us() * 1e3, "ns"),
            _ => (r.mean_us(), "us"),
        };
        m.real(metric, v, unit);
    }
}
