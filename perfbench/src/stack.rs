//! The serving stack, in-process: daemons on their own threads, banked
//! kernels, and the closed-loop callers that request them through the three
//! deployment paths (`--cache`, `--remote`, `--peers`).

use crate::report::Tally;
use crate::trace::Tracer;
use etir::Etir;
use fabric::{ring_key, FabricClient, FabricReport, Membership};
use gensor::GensorConfig;
use hardware::GpuSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schedcache::{CacheKey, CachedTuner, Outcome, ScheduleCache};
use served::{
    BreakerConfig, ClientConfig, MethodRegistry, RemoteTuner, Request, Response, ServeStats,
    Server, ServerConfig, ServerHandle, WireKernel, WireOutcome,
};
use simgpu::{CompiledKernel, Tuner};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor_expr::OpSpec;
use verify::{Provenance, VerdictCache, VerdictStats};

/// The wire method name every request uses (what `--method gensor` sends).
pub const METHOD: &str = "gensor";

/// Whether a daemon serves the workload's own traffic or a probe's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Workload,
    Probe,
}

/// What one daemon served while it had a role: its counters at shutdown
/// less those at [`Daemon::serve_as`].
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub role: Role,
    pub queue_p99_us: u64,
    pub shed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub warm_starts: u64,
    pub verdict_hits: u64,
    pub verdict_misses: u64,
}

/// Every daemon this run stopped that had a role. Set-up daemons that were
/// thrown away never get one.
pub static FLEET: Mutex<Vec<Served>> = Mutex::new(Vec::new());

/// One `gensor serve` daemon on its own thread; shut down and joined on drop.
pub struct Daemon {
    pub endpoint: String,
    pub cache: Arc<ScheduleCache>,
    /// The role and the counters when it was given.
    role: Option<(Role, ServeStats, VerdictStats)>,
    handle: ServerHandle,
    join: Option<JoinHandle<std::io::Result<served::DrainReport>>>,
}

impl Daemon {
    pub fn start(listen: &str, cache: Arc<ScheduleCache>, cfg: GensorConfig) -> Daemon {
        let server = Server::bind(
            ServerConfig::new(listen),
            cache.clone(),
            MethodRegistry::standard_with_gensor(cfg),
        )
        .unwrap_or_else(|e| panic!("bind daemon on {listen}: {e}"));
        let endpoint = server.endpoint().to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Daemon {
            endpoint,
            cache,
            role: None,
            handle,
            join: Some(join),
        }
    }

    pub fn stats(&self) -> ServeStats {
        self.handle.stats()
    }

    /// From now on this daemon serves `role`: what it serves is recorded
    /// in [`FLEET`] when it stops. Call it once banking is installed, so
    /// the installs' verdicts are left out.
    pub fn serve_as(&mut self, role: Role) {
        self.role = Some((role, self.stats(), self.cache.verdicts().stats()));
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let stats = self.handle.stats();
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        let Some((role, s0, v0)) = self.role.take() else {
            return;
        };
        let v = self.cache.verdicts().stats();
        let served = Served {
            role,
            queue_p99_us: stats.queue_p99_us,
            shed: stats.shed - s0.shed,
            cache_hits: stats.cache.hits - s0.cache.hits,
            cache_misses: stats.cache.misses - s0.cache.misses,
            warm_starts: stats.cache.warm_starts - s0.cache.warm_starts,
            verdict_hits: v.hits - v0.hits,
            verdict_misses: v.misses - v0.misses,
        };
        if let Ok(mut fleet) = FLEET.lock() {
            fleet.push(served);
        }
    }
}

/// A client policy that fails fast: the benchmark counts any fallback as a
/// failed request, so it must not hide one behind long retries.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        retries: 2,
        connect_timeout: Duration::from_millis(500),
        backoff_base: Duration::from_millis(2),
        ..Default::default()
    }
}

/// Three TCP daemons forming a fabric (port 0; in-memory or store-backed).
pub fn start_fabric(stores: Option<&std::path::Path>, cfg: &GensorConfig) -> Vec<Daemon> {
    (0..3)
        .map(|i| {
            let cache = match stores {
                Some(dir) => ScheduleCache::open(dir.join(format!("peer{i}.jsonl")))
                    .expect("open daemon store"),
                None => ScheduleCache::in_memory(),
            };
            Daemon::start("tcp://127.0.0.1:0", Arc::new(cache), cfg.clone())
        })
        .collect()
}

pub fn endpoints(daemons: &[Daemon]) -> Vec<String> {
    daemons.iter().map(|d| d.endpoint.clone()).collect()
}

/// The replica set the fabric client routes `op` to (2 copies).
pub fn owners<'a>(ring: &'a fabric::Ring, op: &OpSpec, spec: &GpuSpec) -> Vec<&'a str> {
    ring.route(ring_key(&CacheKey::new(op, spec, METHOD)), 2)
}

pub fn ring_of(peers: &[String]) -> Arc<fabric::Ring> {
    Membership::new(peers, BreakerConfig::default()).ring()
}

/// Install `kernel` into `cache` under the daemon's cache key space.
pub fn install(cache: &ScheduleCache, name: &str, op: &OpSpec, spec: &GpuSpec, k: &CompiledKernel) {
    cache
        .install(op, spec, name, k.clone())
        .unwrap_or_else(|e| panic!("banked kernel for {} rejected: {e:?}", op.label()));
}

/// Bank each kernel on its two fabric owners.
pub fn install_on_owners(
    daemons: &[Daemon],
    name: &str,
    banked: &[(OpSpec, GpuSpec, CompiledKernel)],
) {
    let ring = ring_of(&endpoints(daemons));
    for (op, spec, k) in banked {
        for ep in owners(&ring, op, spec) {
            let d = daemons.iter().find(|d| d.endpoint == ep).expect("owner");
            install(&d.cache, name, op, spec, k);
        }
    }
}

/// The three deployment paths a model request can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Local,
    Remote,
    Fabric,
}

impl Path {
    pub fn name(self) -> &'static str {
        match self {
            Path::Local => "local",
            Path::Remote => "remote",
            Path::Fabric => "fabric",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Path::Local => "schedcache.CachedTuner.compile",
            Path::Remote => "served.RemoteTuner.compile",
            Path::Fabric => "fabric.FabricClient.compile",
        }
    }
}

/// One model's unique ops at one (batch, device), with the kernel banked
/// for each.
pub struct ModelReq {
    pub spec: GpuSpec,
    pub ops: Vec<(OpSpec, Etir)>,
    /// Simulated forward-pass µs of the model with these kernels.
    pub pass_us: f64,
}

/// Where the banked kernels live.
pub struct Stack<'a> {
    pub fallback: &'a dyn Tuner,
    pub local: Option<Arc<ScheduleCache>>,
    pub unix: Option<String>,
    pub peers: Vec<String>,
}

/// Run two closed-loop callers, `caller(index, phase start, stop flag)`,
/// while this thread watches for quiet windows, and stop them once
/// `target` seconds of those are measured (see [`crate::steal`]).
pub fn two_callers<R: Send>(
    target: Duration,
    caller: impl Fn(u64, Instant, &AtomicBool) -> R + Sync,
) -> (Vec<R>, crate::steal::Windows) {
    let t0 = Instant::now();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..2u64)
            .map(|c| {
                let (caller, stop) = (&caller, &stop);
                s.spawn(move || caller(c, t0, stop))
            })
            .collect();
        let windows = crate::steal::watch(t0, target, &stop);
        let records = hs
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        (records, windows)
    })
}

/// What the callers measured, split by kept window.
pub struct HitRun {
    pub windows: crate::steal::Windows,
    /// Request latency per path, µs, per kept window.
    pub lat_us: [Vec<Vec<f64>>; 3],
    /// Latency of every request, µs, per kept window.
    pub all_us: Vec<Vec<f64>>,
    /// Seconds per complete pass (every model group requested once).
    pub pass_s: Vec<f64>,
    /// Simulated forward-pass µs of each model request served.
    pub model_pass_us: Vec<f64>,
    /// Each fabric client's report, at the end of the run.
    pub fabric: Vec<FabricReport>,
    pub tally: Tally,
}

impl HitRun {
    /// Both runs' windows, as one run.
    pub fn merge(mut self, o: HitRun) -> HitRun {
        for (a, b) in self.lat_us.iter_mut().zip(o.lat_us) {
            a.extend(b);
        }
        self.all_us.extend(o.all_us);
        self.pass_s.extend(o.pass_s);
        self.model_pass_us.extend(o.model_pass_us);
        self.fabric.extend(o.fabric);
        self.tally.add(o.tally);
        self.windows.0.extend(o.windows.0);
        self
    }
}

/// One caller's raw record: (completion s since start, µs) per path, and
/// (completion s, duration s) per pass.
#[derive(Default)]
struct Record {
    samples: [Vec<(f64, f64)>; 3],
    passes: Vec<(f64, f64)>,
    models: Vec<(f64, f64)>,
    fabric: Option<FabricReport>,
    tally: Tally,
}

/// Two closed-loop callers. Each repeatedly runs a pass — every model group
/// once, in a seeded order, each at a seeded variant (batch, device) — and
/// sends each model request down the next path in `paths`, op by op, as
/// `gensor model X` does. Every answer must be a hit, ETIR-identical to the
/// banked kernel. Runs until `target` seconds of quiet windows are measured
/// (see [`crate::steal`]).
pub fn hit_loop(
    stack: &Stack,
    groups: &[Vec<ModelReq>],
    paths: &[Path],
    seed: u64,
    target: Duration,
    tracer: &Tracer,
) -> HitRun {
    let (records, windows) = two_callers(target, |c, t0, stop| {
        caller(
            stack,
            groups,
            paths,
            seed ^ (c + 1) << 32,
            c,
            t0,
            stop,
            tracer,
        )
    });
    let flat = |f: fn(&Record) -> Vec<(f64, f64)>| records.iter().flat_map(f).collect::<Vec<_>>();
    let by_path =
        |p: usize| windows.split(records.iter().flat_map(|r| r.samples[p].iter().copied()));
    let mut tally = Tally::default();
    for r in &records {
        tally.add(r.tally);
    }
    HitRun {
        lat_us: [by_path(0), by_path(1), by_path(2)],
        all_us: windows.split(flat(|r| r.samples.iter().flatten().copied().collect())),
        pass_s: windows.split(flat(|r| r.passes.clone())).concat(),
        model_pass_us: windows.split(flat(|r| r.models.clone())).concat(),
        fabric: records.iter().filter_map(|r| r.fabric).collect(),
        tally,
        windows,
    }
}

#[allow(clippy::too_many_arguments)]
fn caller(
    stack: &Stack,
    groups: &[Vec<ModelReq>],
    paths: &[Path],
    seed: u64,
    offset: u64,
    t0: Instant,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> Record {
    let mut rng = StdRng::seed_from_u64(seed);
    let name = stack.fallback.name();
    let local = stack
        .local
        .as_ref()
        .map(|c| CachedTuner::new(stack.fallback, c.clone()));
    let remote = stack.unix.as_ref().map(|s| {
        RemoteTuner::new(s.as_str(), METHOD, None, stack.fallback).with_config(client_config())
    });
    let fabric = (!stack.peers.is_empty()).then(|| {
        FabricClient::new(&stack.peers, METHOD, None, stack.fallback).with_config(client_config())
    });
    let verdicts = VerdictCache::in_memory();
    let mut buf = tracer.buf();
    let mut out = Record::default();
    let mut turn = offset;
    'run: loop {
        let t_pass = Instant::now();
        let mut order: Vec<usize> = (0..groups.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        for g in order {
            if stop.load(Ordering::Relaxed) {
                break 'run;
            }
            let m = &groups[g][rng.gen_range(0..groups[g].len())];
            let path = paths[turn as usize % paths.len()];
            turn += 1;
            for (op, want) in &m.ops {
                let spec = &m.spec;
                let req = tracer.id();
                let before = fabric.as_ref().map(|f| f.report());
                let t = Instant::now();
                let call = buf.open(path.span(), 0, req);
                let (got, hit) = match path {
                    Path::Local => {
                        let (k, o) = local
                            .as_ref()
                            .expect("local path needs a cache")
                            .compile_with_outcome(op, spec);
                        (k, o == Outcome::Hit)
                    }
                    Path::Remote => {
                        let r = remote.as_ref().expect("remote path needs a daemon");
                        let fell_back = r.report().local;
                        let k = r.compile(op, spec);
                        (k, r.report().local == fell_back)
                    }
                    Path::Fabric => {
                        let f = fabric.as_ref().expect("fabric path needs peers");
                        let k = f.compile(op, spec);
                        let (a, b) = (before.expect("report"), f.report());
                        let clean = b.local == a.local
                            && b.failovers == a.failovers
                            && b.rejected == a.rejected
                            && b.misses == a.misses
                            && b.hits == a.hits + 1;
                        (k, clean)
                    }
                };
                let call_id = call.id();
                buf.close(call);
                let us = t.elapsed().as_secs_f64() * 1e6;
                out.samples[path as usize].push((t0.elapsed().as_secs_f64(), us));
                out.tally.check(hit && got.etir == *want, || {
                    format!(
                        "{} answer for {} is not the banked hit",
                        path.name(),
                        op.label()
                    )
                });
                if tracer.on() {
                    let local = stack.local.as_deref();
                    probe_request(
                        &mut buf,
                        path,
                        op,
                        spec,
                        name,
                        &got,
                        local,
                        fabric.as_ref(),
                        &verdicts,
                        call_id,
                        req,
                    );
                }
            }
            out.models.push((t0.elapsed().as_secs_f64(), m.pass_us));
        }
        out.passes
            .push((t0.elapsed().as_secs_f64(), t_pass.elapsed().as_secs_f64()));
    }
    out.fabric = fabric.as_ref().map(|f| f.report());
    out
}

/// Re-measure, outside the call, the layers one hit passed through.
#[allow(clippy::too_many_arguments)]
pub fn probe_request(
    buf: &mut crate::trace::Buf,
    path: Path,
    op: &OpSpec,
    spec: &GpuSpec,
    name: &str,
    got: &CompiledKernel,
    local: Option<&ScheduleCache>,
    fabric: Option<&FabricClient>,
    verdicts: &VerdictCache,
    call: u32,
    req: u32,
) {
    buf.time_probe("schedcache.op_fp", call, req, || {
        black_box(schedcache::key::op_fingerprint(op))
    });
    buf.time_probe("schedcache.gpu_fp", call, req, || {
        black_box(schedcache::key::gpu_fingerprint(spec))
    });
    buf.time_probe("schedcache.key", call, req, || {
        black_box(CacheKey::new(op, spec, name))
    });
    match path {
        Path::Local => {
            let cache = local.expect("local cache");
            buf.time_probe("schedcache.peek", call, req, || {
                black_box(cache.peek(op, spec, name))
            });
        }
        Path::Remote | Path::Fabric => {
            wire_probe(buf, op, spec, got, call, req);
        }
    }
    if let (Path::Fabric, Some(f)) = (path, fabric) {
        buf.time_probe("fabric.route", call, req, || {
            let key = ring_key(&CacheKey::new(op, spec, METHOD));
            black_box(f.membership().ring().route(key, 2).len())
        });
        buf.time_probe("verify.reverify", call, req, || {
            black_box(verdicts.verify_as(&got.etir, Some(spec), Provenance::RemotePeer))
        });
    }
}

/// Frame bytes of one request/reply pair.
#[derive(Default, Clone, Copy)]
pub struct FrameBytes {
    pub compile: u64,
    pub compiled: u64,
}

/// Encode and decode the `Compile` request and `Compiled` reply of one hit
/// into memory, as the client and daemon do on the wire.
pub fn wire_probe(
    buf: &mut crate::trace::Buf,
    op: &OpSpec,
    spec: &GpuSpec,
    k: &CompiledKernel,
    call: u32,
    req: u32,
) -> (FrameBytes, bool) {
    let request = Request::Compile {
        op: op.clone(),
        gpu: spec.clone(),
        method: METHOD.to_string(),
        budget: None,
    };
    // A hit carries no tuning time (the daemon zeroes it), which also keeps
    // the frame's length independent of how long banking took.
    let hit = CompiledKernel {
        wall_time_s: 0.0,
        simulated_tuning_s: 0.0,
        ..k.clone()
    };
    let reply = Response::Compiled {
        outcome: WireOutcome::Hit,
        kernel: WireKernel::from(&hit),
    };
    let mut a = Vec::new();
    let mut b = Vec::new();
    buf.time_probe("served.encode.compile", call, req, || {
        served::proto::write_frame(&mut a, &request).expect("encode compile")
    });
    buf.time_probe("served.encode.compiled", call, req, || {
        served::proto::write_frame(&mut b, &reply).expect("encode compiled")
    });
    let back_a: Request = buf.time_probe("served.decode.compile", call, req, || {
        served::proto::read_frame(&mut a.as_slice()).expect("decode compile")
    });
    let back_b: Response = buf.time_probe("served.decode.compiled", call, req, || {
        served::proto::read_frame(&mut b.as_slice()).expect("decode compiled")
    });
    let bytes = FrameBytes {
        compile: a.len() as u64,
        compiled: b.len() as u64,
    };
    (bytes, back_a == request && back_b == reply)
}
