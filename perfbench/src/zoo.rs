//! Whole-model construction: the four evaluation models compiled with
//! `models::compile_model`, timed per model and per pass.

use crate::report::{cpu_s, Tally};
use crate::trace::Tracer;
use hardware::GpuSpec;
use models::{compile_model, CompiledModel, ModelGraph};
use simgpu::Tuner;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;
use tensor_expr::OpSpec;

/// The `gensor model` zoo: BERT-small, MobileNetV2, ResNet-50 and GPT-2 at
/// the CLI's sequence lengths, keyed by their metric-name suffix.
pub fn graphs(batch: u64) -> Vec<(&'static str, ModelGraph)> {
    vec![
        ("bert_small", models::zoo::bert_small(batch, 128)),
        ("mobilenet_v2", models::zoo::mobilenet_v2(batch)),
        ("resnet50", models::zoo::resnet50(batch)),
        ("gpt2", models::zoo::gpt2(batch, 1024)),
    ]
}

/// The ops a fusing compiler tunes for `graph`, in layer order.
pub fn unique_ops(graph: &ModelGraph) -> Vec<OpSpec> {
    graph.fused_layers().map(|l| l.op.clone()).collect()
}

/// Simulated forward-pass µs of `graph` from a kernel lookup.
pub fn pass_us(graph: &ModelGraph, time_us: impl Fn(&OpSpec) -> f64) -> f64 {
    graph
        .fused_layers()
        .map(|l| time_us(&l.op) * l.count as f64)
        .sum()
}

/// One pass over the zoo.
pub struct Pass {
    /// Elapsed seconds per model, in `graphs` order.
    pub model_s: Vec<f64>,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// Σ `CompiledModel::tuning_s` — what `models` reports as tuning time.
    pub reported_s: f64,
    pub compiled: Vec<CompiledModel>,
}

impl Pass {
    pub fn ops(&self) -> usize {
        self.compiled.iter().map(|c| c.kernels.len()).sum()
    }

    /// Every kernel's schedule, in order — what "identical passes" compares.
    pub fn etirs(&self) -> Vec<&etir::Etir> {
        self.compiled
            .iter()
            .flat_map(|c| c.kernels.iter().map(|(_, k, _)| &k.etir))
            .collect()
    }
}

/// Compile every model once with `tuner`, each under a
/// `models.compile_model` span whose id is published to `parent` (the
/// traced tuner hangs its `core.tune` spans there).
pub fn pass(
    tuner: &dyn Tuner,
    parent: Option<&AtomicU32>,
    graphs: &[(&'static str, ModelGraph)],
    spec: &GpuSpec,
    tracer: &Tracer,
) -> Pass {
    let mut buf = tracer.buf();
    let (t0, c0) = (Instant::now(), cpu_s());
    let mut model_s = Vec::new();
    let mut compiled = Vec::new();
    for (_, g) in graphs {
        let span = buf.open("models.compile_model", 0, tracer.id());
        let t = Instant::now();
        if let Some(p) = parent {
            p.store(span.id(), Ordering::Relaxed);
        }
        let cm = compile_model(tuner, g, spec);
        model_s.push(t.elapsed().as_secs_f64());
        buf.close(span);
        compiled.push(cm);
    }
    Pass {
        model_s,
        elapsed_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_s() - c0,
        reported_s: compiled.iter().map(|c| c.tuning_s).sum(),
        compiled,
    }
}

/// Every kernel of `p` must pass the verifier for `spec`, and every
/// schedule must equal `first`'s (construction is deterministic per seed).
pub fn check_pass(p: &Pass, first: &Pass, spec: &GpuSpec, tally: &mut Tally) {
    for cm in &p.compiled {
        for (layer, k, _) in &cm.kernels {
            let vr = verify::verify_schedule(&k.etir, Some(spec));
            tally.check(vr.is_legal(), || {
                format!("{} {layer}: illegal schedule\n{}", cm.model, vr.render())
            });
        }
    }
    let (a, b) = (first.etirs(), p.etirs());
    tally.check(a.len() == b.len(), || {
        "passes compiled different op counts".into()
    });
    for (x, y) in a.iter().zip(&b) {
        tally.check(x == y, || {
            format!("pass differs from pass 1 on {}", x.op.label())
        });
    }
}
