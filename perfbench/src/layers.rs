//! The traced leg's per-layer readings: windows over the spans and
//! counters `wg_trace` already emits, and the benchmark's own replay of
//! sampled iterations through the model, autograd and optimizer APIs.

use std::collections::HashMap;
use std::sync::Arc;

use wg_autograd::{Adam, Optimizer, Tape};
use wg_graph::{GlobalId, MultiGpuGraph};
use wg_mem::{global_gather_planned, plan_gather, RowPlan};
use wg_sample::{sample_minibatch_into, GraphAccess, MiniBatch, MultiGpuAccess, SampleScratch};
use wg_tensor::ops::softmax_cross_entropy_into;
use wg_tensor::{BlockCsr, Matrix};
use wg_trace::{Event, ThreadTrace};
use wholegraph::prelude::*;

use crate::report::Report;
use crate::stats::ratio;
use crate::system::System;
use crate::timeline::Timeline;

/// Span totals and counter sums accumulated over one or more traced
/// intervals.
#[derive(Default)]
pub struct Window {
    /// name → (calls, total ns)
    spans: HashMap<&'static str, (u64, u64)>,
    counters: HashMap<String, f64>,
}

impl Window {
    /// Start recording metrics, and spans if asked, into a fresh
    /// registry.
    pub fn begin(&mut self, spans: bool) {
        wg_trace::metrics::reset();
        wg_trace::enable_metrics();
        if spans {
            wg_trace::enable_spans();
        }
    }

    /// Stop recording and fold what was recorded into the window; the
    /// drained threads are kept for the Chrome trace.
    pub fn end(&mut self, keep: &mut Vec<ThreadTrace>) {
        wg_trace::disable_all();
        for (name, v) in wg_trace::metrics::snapshot().counters {
            *self.counters.entry(name).or_default() += v;
        }
        let threads = wg_trace::drain();
        for ev in threads.iter().flat_map(|t| &t.events) {
            if let Event::Span { name, dur_ns, .. } = *ev {
                let e = self.spans.entry(name).or_default();
                e.0 += 1;
                e.1 += dur_ns;
            }
        }
        keep.extend(threads);
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Mean duration of the named span, in ms (0 if it never fired).
    pub fn span_ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |&(n, ns)| ratio(ns as f64, n as f64) / 1e6)
    }

    /// The sampling and gather layers over this window, given the seeds
    /// it sampled from and the iterations (or serving batches) it ran.
    pub fn sample_and_gather(&self, seeds: f64, iterations: f64, report: &mut Report) {
        let edges = self.counter("sample.edges_sampled");
        let rows = self.counter("mem.gather.rows");
        report.metric(
            "wg_sample.ms_per_call",
            self.span_ms("sample.minibatch"),
            "ms",
        );
        report.metric(
            "wg_sample.edges_per_call",
            ratio(edges, self.counter("sample.minibatches")),
            "edges",
        );
        report.metric(
            "wg_sample.unique_ratio",
            ratio(self.counter("sample.input_nodes"), seeds + edges),
            "ratio",
        );
        report.metric(
            "wg_mem.gather_ms_per_call",
            self.span_ms("mem.gather"),
            "ms",
        );
        report.metric(
            "wg_mem.cache_hit_ratio",
            ratio(self.counter("mem.cache.hits"), rows),
            "ratio",
        );
        report.metric(
            "wg_mem.remote_rows_ratio",
            ratio(self.counter("mem.gather.remote_rows"), rows),
            "ratio",
        );
        report.metric(
            "wg_mem.disk_rows_ratio",
            ratio(self.counter("mem.storage.rows"), rows),
            "ratio",
        );
        report.metric(
            "wg_mem.disk_bytes_per_iter",
            ratio(self.counter("mem.storage.bytes"), iterations),
            "B",
        );
    }
}

/// Check the gather accounting identities over a window that covered
/// whole training epochs: every sampled input row is gathered once, cache
/// hits and misses partition the rows, and the uncached bytes split
/// exactly into DSM-served and disk-served bytes.
pub fn check_identities(w: &Window, row_bytes: f64, cached: bool, report: &mut Report) {
    let rows = w.counter("mem.gather.rows");
    let hits = w.counter("mem.cache.hits");
    let disk_rows = w.counter("mem.storage.rows");
    let mut ok = report.check(
        "gathered rows == sampled input rows",
        rows > 0.0 && rows == w.counter("sample.input_nodes"),
    );
    if cached {
        ok &= report.check(
            "cache hits + misses == gathered rows",
            hits + w.counter("mem.cache.misses") == rows,
        );
    }
    let uncached = w.counter("pipeline.gather.feature_bytes") - hits * row_bytes;
    let dsm = (rows - hits - disk_rows) * row_bytes;
    ok &= report.check(
        "dsm + disk bytes == uncached bytes",
        dsm + w.counter("mem.storage.bytes") == uncached,
    );
    if !ok {
        report.failed += 1;
    }
}

/// Host time per iteration of the model's forward pass, the tape's
/// backward pass and the optimizer step.
pub struct ModelTimes {
    pub forward_ms: f64,
    pub backward_ms: f64,
    pub step_ms: f64,
}

/// Replay up to `iters` of node 0's epoch-0 batches: sample them from a
/// DSM store of the same graph, gather their features, then time
/// `GnnModel::forward`, `Tape::backward` and `Optimizer::step` on a model
/// built with the workload's configuration.
pub fn replay_model(system: &System, iters: usize, tl: &mut Timeline) -> ModelTimes {
    let ds = system.dataset();
    let cfg = system.config();
    let machine = Machine::new(MachineConfig::dgx_like(system.gpus()));
    let store = MultiGpuGraph::build(
        machine.cost(),
        machine.num_gpus(),
        &ds.graph,
        &ds.features,
        ds.feature_dim,
        &machine.memory(),
    )
    .expect("replay store fits simulated memory");
    let access = MultiGpuAccess::new(&store);
    let sampler = SamplerConfig {
        fanouts: cfg.fanouts.clone(),
        seed: cfg.seed,
    };
    let gnn = GnnConfig {
        kind: cfg.model,
        in_dim: ds.feature_dim,
        hidden: cfg.hidden,
        num_classes: ds.num_classes,
        num_layers: cfg.num_layers,
        heads: cfg.heads,
        dropout: cfg.dropout,
    };
    let mut model = GnnModel::new(gnn, cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut tape = Tape::new();
    let mut scratch = SampleScratch::default();
    let mut mb = MiniBatch::empty();
    let mut blocks: Vec<Arc<BlockCsr>> = Vec::new();
    let mut plan = RowPlan::default();
    let (mut rows, mut feats, mut labels, mut losses) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let spec = machine.spec(wg_sim::DeviceId::Gpu(0)).clone();
    let (mut fwd, mut bwd, mut step) = (0.0, 0.0, 0.0);
    let batches = system.batches(0);
    let n = batches.len().min(iters);
    for (i, batch) in batches.iter().take(n).enumerate() {
        let handles: Vec<u64> = batch.iter().map(|&v| access.handle_of(v)).collect();
        sample_minibatch_into(
            &access,
            &handles,
            &sampler,
            0,
            i as u64,
            &mut scratch,
            &mut mb,
        );
        wholegraph::convert::minibatch_blocks_into(&mb, &mut blocks);
        rows.clear();
        rows.extend(
            mb.input_nodes()
                .iter()
                .map(|&h| store.feature_row_of_global(GlobalId::from_raw(h))),
        );
        plan_gather(store.features(), &rows, &mut plan);
        feats.clear();
        feats.resize(rows.len() * ds.feature_dim, 0.0);
        global_gather_planned(
            store.features(),
            &plan,
            &mut feats,
            0,
            machine.cost(),
            &spec,
        );
        labels.clear();
        labels.extend(batch.iter().map(|&v| ds.labels[v as usize]));
        let input = Matrix::from_vec(rows.len(), ds.feature_dim, feats.clone());
        tape.reset();
        let t = tl.start();
        let out = model.forward(&mut tape, &blocks, input, true, cfg.seed ^ i as u64);
        fwd += tl.end("replay.forward", t);
        let (r, c) = (tape.value(out).rows(), tape.value(out).cols());
        let mut grad = tape.alloc(r, c);
        softmax_cross_entropy_into(tape.value(out), &labels, &mut grad, &mut losses);
        let t = tl.start();
        model.params.zero_grads();
        tape.backward(out, grad, &mut model.params);
        bwd += tl.end("replay.backward", t);
        let t = tl.start();
        opt.step(&mut model.params);
        step += tl.end("replay.step", t);
    }
    let per_iter_ms = |s: f64| s * 1e3 / n.max(1) as f64;
    ModelTimes {
        forward_ms: per_iter_ms(fwd),
        backward_ms: per_iter_ms(bwd),
        step_ms: per_iter_ms(step),
    }
}
