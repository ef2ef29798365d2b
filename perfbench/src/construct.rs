//! Construction, measured from outside.
//!
//! A traced zoo pass compiles with the real `Gensor` behind [`Timed`], which
//! only wraps each `Gensor::compile` in a `core.tune` span. [`walks`] then
//! measures the layers inside a tune: it runs each compiled op's walks again
//! with `Walk::run`, on the seeds `Gensor` gives its `chains_for` chains,
//! one `core.walk` span each, and feeds a few of the states each walk
//! harvested to `Policy::score_step`, `Policy::choose`, `Etir::apply`,
//! `simgpu::simulate` and `ScheduleStats::compute` as probes. The exact
//! counts come from the returned `WalkRecord`s.

use crate::report::{median, Tally};
use crate::trace::Tracer;
use crate::zoo::{self, Pass};
use etir::ScheduleStats;
use gensor::{Gensor, Walk, WalkRecord};
use hardware::GpuSpec;
use models::ModelGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simgpu::{CompiledKernel, Tuner};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use tensor_expr::OpSpec;

/// Harvested states probed per walk, spread evenly over its harvest.
const PROBES_PER_WALK: usize = 4;

/// `Gensor::compile`, each call under a `core.tune` span.
pub struct Timed<'t> {
    pub inner: &'t Gensor,
    pub tracer: &'t Tracer,
    /// The span every `core.tune` hangs under (the current model compile).
    pub parent: AtomicU32,
}

impl Tuner for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compile(&self, op: &OpSpec, spec: &GpuSpec) -> CompiledKernel {
        let req = self.tracer.id();
        let parent = self.parent.load(Ordering::Relaxed);
        self.tracer
            .buf()
            .time("core.tune", parent, req, || self.inner.compile(op, spec))
    }
}

/// What the measured walks did, summed over every walk.
#[derive(Debug, Default)]
pub struct Walks {
    pub chains: u64,
    pub steps: u64,
    pub benefit_evals: u64,
    /// Σ (steps + 1 + harvest size): one simulation per step and for the
    /// initial state, and one per harvested state in `pick_best`. A restart
    /// step simulates nothing but is counted, so this is an upper bound.
    pub simulate_calls: u64,
    pub walk_s: f64,
    /// Per op: the slowest walk ÷ the median walk.
    pub skew: Vec<f64>,
}

/// One traced zoo pass with `gensor` (its kernels must equal `first`'s),
/// then the walks of every op it compiled.
pub fn traced_pass(
    gensor: &Gensor,
    graphs: &[(&'static str, ModelGraph)],
    spec: &GpuSpec,
    tracer: &Tracer,
    first: &Pass,
    tally: &mut Tally,
) -> (Pass, Walks) {
    let timed = Timed {
        inner: gensor,
        tracer,
        parent: AtomicU32::new(0),
    };
    let traced = zoo::pass(&timed, Some(&timed.parent), graphs, spec, tracer);
    zoo::check_pass(&traced, first, spec, tally);
    let ops: Vec<OpSpec> = traced.etirs().into_iter().map(|e| e.op.clone()).collect();
    let walks = walks(gensor, &ops, spec, tracer);
    (traced, walks)
}

/// Run each op's walks as `Gensor` would (chain `i` on `seed + i`, in
/// parallel), timing each `Walk::run` and probing its harvest.
pub fn walks(gensor: &Gensor, ops: &[OpSpec], spec: &GpuSpec, tracer: &Tracer) -> Walks {
    let walk = &gensor.cfg.walk;
    let mut out = Walks::default();
    for op in ops {
        let req = tracer.id();
        let seeds: Vec<u64> = (0..gensor.chains_for(op))
            .map(|i| gensor.cfg.seed.wrapping_add(i as u64))
            .collect();
        let runs = simgpu::parallel_map(&seeds, |&seed| {
            let mut buf = tracer.buf();
            let span = buf.open("core.walk", 0, req);
            let t = Instant::now();
            let rec = walk.run(op, spec, &mut StdRng::seed_from_u64(seed));
            let secs = t.elapsed().as_secs_f64();
            let id = span.id();
            buf.close(span);
            probe(&mut buf, walk, &rec, spec, seed, id, req);
            (
                rec.steps as u64,
                rec.exact_benefit_evals,
                rec.top_results.len() as u64,
                secs,
            )
        });
        let mut secs: Vec<f64> = runs.iter().map(|r| r.3).collect();
        let slowest = secs.iter().cloned().fold(0.0, f64::max);
        out.skew.push(slowest / median(&mut secs));
        for (steps, evals, harvest, s) in runs {
            out.chains += 1;
            out.steps += steps;
            out.benefit_evals += evals;
            out.simulate_calls += steps + 1 + harvest;
            out.walk_s += s;
        }
    }
    out
}

/// Time the step layers on up to [`PROBES_PER_WALK`] harvested states,
/// each scored at the annealing progress of its place in the harvest.
fn probe(
    buf: &mut crate::trace::Buf,
    walk: &Walk,
    rec: &WalkRecord,
    spec: &GpuSpec,
    seed: u64,
    parent: u32,
    req: u32,
) {
    let top = &rec.top_results;
    let k = PROBES_PER_WALK.min(top.len());
    let mut rng = StdRng::seed_from_u64(seed);
    for j in 0..k {
        let i = j * top.len() / k;
        let e = &top[i];
        let t_norm = (i * 100 / top.len()) as u32;
        let scoring = buf.time_probe("core.score_step", parent, req, || {
            walk.policy.score_step(e, spec, t_norm)
        });
        let rows = scoring.rows;
        let pick = buf.time_probe("core.choose", parent, req, || {
            walk.policy.choose(&rows, &mut rng)
        });
        if let Some(p) = pick {
            buf.time_probe("etir.apply", parent, req, || {
                black_box(e.apply(&rows[p].action))
            });
        }
        let _ = buf.time_probe("simgpu.simulate", parent, req, || {
            black_box(simgpu::simulate(e, spec))
        });
        buf.time_probe("etir.stats", parent, req, || {
            black_box(ScheduleStats::compute(e))
        });
    }
}
