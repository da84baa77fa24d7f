//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds one workload from its seed, trains it in a closed loop, serves
//! it in an open loop on the simulated clock, checks the outputs, and
//! prints every metric with its unit. `--trace 0` reports the end-to-end
//! metrics with tracing off; `--trace 1` reports the per-layer metrics
//! and writes a Chrome trace. The last line of stdout is the JSON result;
//! the exit code is non-zero when an output check fails. README.md
//! documents the workloads and metrics.

mod alloc;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod system;
mod timeline;

use std::path::Path;

use host::HostShape;
use layers::Window;
use report::Report;
use stats::{median, ratio};
use system::{Epoch, System, Workload};
use timeline::Timeline;
use wg_trace::ThreadTrace;

const USAGE: &str = "usage: perfbench --workload <sage-dsm|gat-tiered|serve-zipf|multinode-4> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";
/// Where results, Chrome traces and the storage tier's spill files go,
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";
/// Set-up runs this many times per run; its median is reported.
const SETUP_REPEATS: usize = 5;
/// Share of `--seconds` given to timed training epochs; serving host
/// replays get the rest.
const TRAIN_SHARE: f64 = 0.5;
const MIN_TIMED_EPOCHS: usize = 2;
const MIN_REPLAYS: usize = 3;
/// Iterations the traced leg replays through the model.
const MODEL_REPLAY_ITERS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// State shared by the phases of one run.
struct Run {
    args: Args,
    tl: Timeline,
    report: Report,
    /// Drained `wg_trace` threads, for the traced leg's Chrome trace.
    threads: Vec<ThreadTrace>,
    setups: Vec<system::SetupTimes>,
}

impl Run {
    /// Build the workload's system, timing its set-up.
    fn build(&mut self) -> System {
        let (sys, t) = system::build(self.args.workload, self.args.seed, &mut self.tl);
        self.setups.push(t);
        sys
    }

    /// Drop the measured system and time the remaining set-up repeats.
    /// They come last so that memory peaks over a single build.
    fn repeat_setup(&mut self, sys: System) {
        drop(sys);
        for _ in 1..SETUP_REPEATS {
            drop(self.build());
        }
    }

    fn epoch(&mut self, sys: &mut System, epoch: u64, span: &str) -> (Epoch, f64) {
        let t = self.tl.start();
        let e = sys.train_epoch(epoch);
        let dt = self.tl.end(span, t);
        self.report.attempted += e.iterations as u64;
        (e, dt)
    }

    fn traffic(&self, sys: &System) -> serve::Traffic {
        serve::Traffic {
            nodes: sys.dataset().num_nodes(),
            seed: self.args.seed,
            skew: self.args.workload.query_skew(),
        }
    }

    /// Serve the nominal timeline once and check a sample of its answers
    /// against sequential serving.
    fn serve_nominal(
        &mut self,
        sys: &mut System,
        eng: &mut wg_serve::ServeEngine,
        window: Option<&mut Window>,
    ) -> (Vec<wg_serve::Request>, wg_serve::ServeReport) {
        let traffic = self.traffic(sys);
        let pipe = sys.serving();
        let reqs = serve::traffic(traffic, serve::NOMINAL_QPS, serve::NOMINAL_REQUESTS, None);
        let t = self.tl.start();
        let r = match window {
            Some(w) => {
                w.begin(true);
                let r = serve::serve(pipe, eng, &reqs, &mut self.report);
                w.end(&mut self.threads);
                r
            }
            None => serve::serve(pipe, eng, &reqs, &mut self.report),
        };
        self.tl.end("serve.nominal", t);
        serve::account(&r, &mut self.report);
        let t = self.tl.start();
        let bad = serve::sequential_mismatches(pipe, &r, &mut self.report);
        self.tl.end("check.sequential_serving", t);
        self.report
            .check("coalesced answers equal sequential serving", bad == 0);
        self.report.failed += bad as u64;
        println!(
            "serving at {} qps: {} requests answered (p99 has {} beyond it)",
            serve::NOMINAL_QPS,
            r.admitted,
            r.admitted / 100
        );
        (reqs, r)
    }

    /// The untimed warm-up: epoch 0 under `rayon::run_sequential`, with
    /// metrics on so the gather accounting identities are checked over
    /// it. Its loss and accuracy bits are the reference the first timed
    /// epoch must reproduce; the training state is reset after it.
    fn reference_epoch(&mut self, sys: &mut System) -> Epoch {
        let mut w = Window::default();
        w.begin(false);
        let t = self.tl.start();
        let r = rayon::run_sequential(|| sys.train_epoch(0));
        self.tl.end("train.warmup.sequential", t);
        w.end(&mut Vec::new());
        self.report.attempted += r.iterations as u64;
        let row_bytes = (sys.dataset().feature_dim * std::mem::size_of::<f32>()) as f64;
        let cached = sys.config().resolved_cache().is_some();
        layers::check_identities(&w, row_bytes, cached, &mut self.report);
        sys.reset();
        r
    }

    /// Epoch 0 again, on the pool and timed: the warm-up's replay after
    /// `reset_training_state` must reproduce its bits.
    fn first_epoch(&mut self, sys: &mut System, reference: &Epoch) -> (Epoch, f64) {
        let (e, dt) = self.epoch(sys, 0, "train.epoch");
        if !self.report.check(
            "epoch 0 on the pool reproduces the sequential reference's loss and accuracy bits",
            e.bits() == reference.bits(),
        ) {
            self.report.failed += e.iterations as u64;
        }
        (e, dt)
    }

    /// The untraced leg: every end-to-end metric.
    fn untraced(&mut self) {
        let mut sys = self.build();
        let seeds = sys.dataset().train.len() as f64;
        let reference = self.reference_epoch(&mut sys);
        // Memory peaks over set-up and a full epoch; read it before any
        // loop whose length depends on host speed, since the allocator's
        // footprint keeps drifting with every extra epoch.
        let peak_rss = host::peak_rss_mib().unwrap_or(f64::NAN);
        // Everything simulated is measured from a state that depends on
        // the seed alone: after the warm-up and the first timed epoch,
        // before any loop whose length depends on host speed.
        let train_budget = TRAIN_SHARE * self.args.seconds;
        let (first, dt) = self.first_epoch(&mut sys, &reference);
        let (mut rates, mut trained) = (vec![seeds / dt], dt);
        let mut eng = serve::engine();
        let (nominal, sim) = self.serve_nominal(&mut sys, &mut eng, None);

        let mut next = 1;
        while trained < train_budget || rates.len() < MIN_TIMED_EPOCHS {
            let (_, dt) = self.epoch(&mut sys, next, "train.epoch");
            rates.push(seeds / dt);
            trained += dt;
            next += 1;
        }
        let (mut rps, mut served) = (Vec::new(), 0.0);
        while served < self.args.seconds - train_budget || rps.len() < MIN_REPLAYS {
            let t = self.tl.start();
            let r = serve::serve(sys.serving(), &mut eng, &nominal, &mut self.report);
            let dt = self.tl.end("serve.replay", t);
            serve::account(&r, &mut self.report);
            rps.push(r.admitted as f64 / dt);
            served += dt;
        }
        self.repeat_setup(sys);

        let r = &mut self.report;
        let setup: Vec<f64> = self
            .setups
            .iter()
            .map(|s| s.generate_s + s.build_s)
            .collect();
        r.metric("setup_s", median(&setup), "s");
        r.metric("train_seeds_per_s", median(&rates), "seeds/s");
        r.metric("sim_epoch_ms", first.epoch_time.as_millis(), "ms");
        r.metric("serve_host_rps", median(&rps), "req/s");
        r.metric("serve_sim_p50_us", serve::latency_us(&sim, 0.5), "us");
        r.metric("serve_sim_p99_us", serve::latency_us(&sim, 0.99), "us");
        r.metric("peak_rss_mb", peak_rss, "MiB");
        println!(
            "timed: {} training epochs, {} serving replays; failed_ratio {}",
            rates.len(),
            rps.len(),
            ratio(r.failed as f64, r.attempted as f64)
        );
    }

    /// The traced leg: every per-layer metric, and a Chrome trace.
    fn traced(&mut self) {
        let mut sys = self.build();
        let seeds = sys.dataset().train.len() as f64;
        let reference = self.reference_epoch(&mut sys);
        let (first, dt) = self.first_epoch(&mut sys, &reference);

        // Serving, from the same seed-determined state as the untraced leg.
        let mut serve_w = Window::default();
        let (_, sim) = self.serve_nominal(&mut sys, &mut serve::engine(), Some(&mut serve_w));
        let replay = serve::replay_batches(sys.serving(), &sim, &mut self.tl);
        self.report.check(
            "replayed batches reproduce every answer",
            replay.mismatches == 0,
        );
        self.report.failed += replay.mismatches as u64;
        let t = self.tl.start();
        let traffic = self.traffic(&sys);
        let max_qps = serve::max_qps(sys.serving(), traffic, &mut self.report);
        self.tl.end("serve.capacity", t);

        // The next epoch runs untraced too and counts heap allocations,
        // once every pool worker has touched its scratch.
        let a0 = alloc::count();
        let (e, dt1) = self.epoch(&mut sys, 1, "train.epoch");
        let allocs = (alloc::count() - a0) as f64 / e.iterations as f64;

        // Traced and untraced epochs alternate, for the probes' overhead.
        let budget = TRAIN_SHARE * self.args.seconds;
        let (mut plain, mut traced, mut spent) = (vec![dt, dt1], Vec::new(), dt + dt1);
        let mut train_w = Window::default();
        let (mut traced_iters, mut next) = (0, 2);
        loop {
            train_w.begin(true);
            let (e, dt) = self.epoch(&mut sys, next, "train.epoch.traced");
            train_w.end(&mut self.threads);
            traced.push(dt);
            traced_iters += e.iterations;
            spent += dt;
            next += 1;
            if spent >= budget {
                break;
            }
            let (_, dt) = self.epoch(&mut sys, next, "train.epoch");
            plain.push(dt);
            spent += dt;
            next += 1;
        }
        let model = layers::replay_model(&sys, MODEL_REPLAY_ITERS, &mut self.tl);
        let imbalance = sys.train_imbalance();
        self.repeat_setup(sys);

        let r = &mut self.report;
        let gen: Vec<f64> = self.setups.iter().map(|s| s.generate_s).collect();
        let build: Vec<f64> = self.setups.iter().map(|s| s.build_s).collect();
        r.metric("wg_graph.generate_s", median(&gen), "s");
        r.metric("pipeline.build_s", median(&build), "s");
        r.metric(
            "pipeline.sample_ms_per_iter",
            train_w.span_ms("pipeline.sample"),
            "ms",
        );
        r.metric(
            "pipeline.gather_ms_per_iter",
            train_w.span_ms("pipeline.gather"),
            "ms",
        );
        r.metric(
            "pipeline.train_ms_per_iter",
            train_w.span_ms("pipeline.train"),
            "ms",
        );
        r.metric("pipeline.allocs_per_iter", allocs, "count");
        if self.args.workload.serves_first() {
            serve_w.sample_and_gather(sim.unique_rows as f64, sim.batches as f64, r);
        } else {
            train_w.sample_and_gather(seeds * traced.len() as f64, traced_iters as f64, r);
        }
        r.metric("wg_gnn.forward_ms_per_iter", model.forward_ms, "ms");
        r.metric("wg_autograd.backward_ms_per_iter", model.backward_ms, "ms");
        r.metric("wg_autograd.step_ms_per_iter", model.step_ms, "ms");
        r.metric(
            "multinode.halo_bytes_per_epoch",
            first.halo_bytes as f64,
            "B",
        );
        r.metric(
            "multinode.sync_bytes_per_epoch",
            first.sync_bytes as f64,
            "B",
        );
        r.metric(
            "multinode.sync_share",
            ratio(first.sync_time.as_secs(), first.epoch_time.as_secs()),
            "ratio",
        );
        r.metric("multinode.train_imbalance", imbalance, "ratio");
        let (wait50, wait_mean, service50) = serve::waits_us(&sim);
        r.metric(
            "wg_serve.batch_size_mean",
            ratio(sim.batched_rows as f64, sim.batches as f64),
            "requests",
        );
        r.metric("wg_serve.dedup_factor", sim.dedup_factor(), "ratio");
        r.metric("wg_serve.sim_queue_wait_us_p50", wait50, "us");
        r.metric("wg_serve.sim_queue_wait_us_mean", wait_mean, "us");
        r.metric("wg_serve.sim_service_us_p50", service50, "us");
        r.metric("wg_serve.coalesce_us_per_batch", replay.coalesce_us, "us");
        r.metric("wg_serve.forward_ms_per_batch", replay.forward_ms, "ms");
        r.metric("serve_sim_max_qps", max_qps, "req/s");
        let e = &first.report;
        r.metric("sim.sample_ms", e.sample_time.as_millis(), "ms");
        r.metric("sim.gather_ms", e.gather_time.as_millis(), "ms");
        r.metric("sim.train_ms", e.train_time.as_millis(), "ms");
        r.metric("sim.comm_ms", e.comm_time.as_millis(), "ms");
        r.metric(
            "sim.storage_share",
            ratio(e.storage_time.as_secs(), e.gather_time.as_secs()),
            "ratio",
        );
        r.metric(
            "sim.storage_exposed_share",
            ratio(e.storage_exposed_time.as_secs(), e.epoch_time.as_secs()),
            "ratio",
        );
        let occ = &e.occupancy;
        r.metric(
            "sim.idle_ratio",
            ratio(occ.idle.as_secs(), (occ.busy + occ.idle).as_secs()),
            "ratio",
        );
        r.metric(
            "wg_trace.overhead_ratio",
            median(&traced) / median(&plain),
            "ratio",
        );
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let out = Path::new(OUT_DIR);
    let tmp = out.join("tmp");
    if let Err(e) =
        std::fs::create_dir_all(&tmp).and_then(|_| std::fs::create_dir_all(out.join("results")))
    {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    // The storage tier spills to the temporary directory: keep it inside
    // the directory the benchmark runs in. Set before any thread starts.
    let tmp = std::fs::canonicalize(&tmp).expect("temporary directory just created");
    std::env::set_var("TMPDIR", &tmp);

    let host = HostShape::detect();
    let (name, seed, trace) = (args.workload.name(), args.seed, args.trace);
    println!(
        "perfbench workload {name} seed {seed} seconds {} trace {}",
        args.seconds, trace as u8
    );
    println!("host {}", host.to_json());
    let mut run = Run {
        args,
        tl: Timeline::default(),
        report: Report::default(),
        threads: Vec::new(),
        setups: Vec::new(),
    };
    if trace {
        run.traced();
        let path = out.join(format!("trace-{name}-seed{seed}.json"));
        match run.tl.write_chrome(&path, &run.threads) {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => {
                run.report
                    .check(&format!("write {}: {e}", path.display()), false);
            }
        }
    } else {
        run.untraced();
    }
    let report = run.report;
    report.print_metrics();
    let json = report.json();
    let saved = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"host\": {}, \"result\": {json}}}\n",
        trace as u8,
        host.to_json()
    );
    let path = out
        .join("results")
        .join(format!("{name}-seed{seed}-trace{}.json", trace as u8));
    if let Err(e) = std::fs::write(&path, saved) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{json}");
    std::process::exit(if report.correct() { 0 } else { 1 });
}
