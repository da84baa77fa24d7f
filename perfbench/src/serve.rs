//! The open-loop serving leg: Poisson arrivals on the simulated clock,
//! Zipf-skewed or uniform query nodes, coalesced micro-batches of at most
//! 64 requests and 1 ms. Latency counts from each request's due (arrival)
//! time.

use std::collections::HashMap;

use wg_serve::{ArrivalProcess, Request, ServeConfig, ServeEngine, ServeReport, TrafficConfig};
use wholegraph::prelude::*;

use crate::report::Report;
use crate::stats::{median, quantile};

/// The nominal offered rate, in simulated requests per second.
pub const NOMINAL_QPS: f64 = 50_000.0;
/// Requests in the nominal timeline: p99 then has 10 samples beyond it.
pub const NOMINAL_REQUESTS: usize = 1000;
/// The serving latency limit on p99 that `serve_sim_max_qps` meets.
const LIMIT_MS: f64 = 2.0;
const MAX_BATCH: usize = 64;
const MAX_DELAY_MS: f64 = 1.0;
/// Requests per capacity probe.
const PROBE_REQUESTS: usize = 400;
/// Per-request deadline during capacity probes; a request finishing
/// later counts as expired.
const PROBE_DEADLINE_MS: f64 = 10.0;
/// Log-space bisection steps after the ×2 bracket (to 2^(1/8) ≈ 9% apart).
const BISECT_STEPS: usize = 3;
/// The capacity search stays within NOMINAL_QPS / 64 … NOMINAL_QPS × 64.
const SEARCH_OCTAVES: i32 = 6;

/// The coalescing engine every workload serves with.
pub fn engine() -> ServeEngine {
    ServeEngine::new(ServeConfig::coalesced(
        MAX_BATCH,
        SimTime::from_millis(MAX_DELAY_MS),
    ))
}

/// What a workload's serving traffic looks like.
#[derive(Clone, Copy)]
pub struct Traffic {
    pub nodes: usize,
    pub seed: u64,
    /// Zipf exponent of the query nodes (0 = uniform).
    pub skew: f64,
}

/// The arrival timeline at `rate` (same gaps, rescaled, at every rate).
pub fn traffic(t: Traffic, rate: f64, requests: usize, deadline: Option<SimTime>) -> Vec<Request> {
    TrafficConfig {
        requests,
        process: ArrivalProcess::Poisson { rate_qps: rate },
        zipf_s: t.skew,
        num_nodes: t.nodes as u64,
        seed: t.seed ^ 0x5e77e,
        deadline,
    }
    .generate()
}

/// Run a timeline and check its admission accounting.
pub fn serve(
    pipe: &mut Pipeline,
    eng: &mut ServeEngine,
    reqs: &[Request],
    report: &mut Report,
) -> ServeReport {
    let r = eng.run(pipe, reqs);
    report.check(
        "admitted + shed == offered",
        r.admitted + r.shed == r.offered && r.offered == reqs.len(),
    );
    r
}

/// Count a nominal-rate run: every offered request is attempted; shed and
/// expired ones failed.
pub fn account(r: &ServeReport, report: &mut Report) {
    report.attempted += r.offered as u64;
    report.failed += (r.shed + r.expired) as u64;
}

/// Simulated latency quantile of a run, in µs.
pub fn latency_us(r: &ServeReport, q: f64) -> f64 {
    r.latency_quantile(q).map_or(f64::NAN, SimTime::as_micros)
}

/// Serve a sample of the run's requests one at a time (the sequential
/// engine) and count those whose prediction or logits checksum differs
/// from the coalesced run's.
pub fn sequential_mismatches(pipe: &mut Pipeline, r: &ServeReport, report: &mut Report) -> usize {
    const SAMPLE: usize = 64;
    let step = (r.completions.len() / SAMPLE).max(1);
    let sample: Vec<_> = r.completions.iter().step_by(step).take(SAMPLE).collect();
    let reqs: Vec<Request> = sample
        .iter()
        .enumerate()
        .map(|(i, c)| Request {
            id: c.id,
            node: c.node,
            arrival: SimTime::from_secs(i as f64),
            deadline: None,
        })
        .collect();
    let mut seq = ServeEngine::new(ServeConfig::sequential());
    let s = serve(pipe, &mut seq, &reqs, report);
    account(&s, report);
    let by_id: HashMap<u64, (u32, u64)> = s
        .completions
        .iter()
        .map(|c| (c.id, (c.pred, c.logits_checksum)))
        .collect();
    sample
        .iter()
        .filter(|c| by_id.get(&c.id) != Some(&(c.pred, c.logits_checksum)))
        .count()
}

/// One capacity probe: whether the rate meets the limit, and its load —
/// the larger of p99 over the limit and the server's utilization (offered
/// rate × mean service time per request). A load of 1 or more means p99
/// misses the limit or the backlog grows without bound.
struct Probe {
    ok: bool,
    load: f64,
}

fn probe(pipe: &mut Pipeline, t: Traffic, rate: f64, report: &mut Report) -> Probe {
    let deadline = Some(SimTime::from_millis(PROBE_DEADLINE_MS));
    let reqs = traffic(t, rate, PROBE_REQUESTS, deadline);
    let r = serve(pipe, &mut engine(), &reqs, report);
    let p99_ms = r
        .latency_quantile(0.99)
        .map_or(f64::INFINITY, SimTime::as_millis);
    let busy: f64 = r
        .completions
        .chunk_by(|a, b| a.batch == b.batch)
        .map(|b| (b[0].finish - b[0].start).as_secs())
        .sum();
    let utilization = rate * busy / r.admitted as f64;
    let load = (p99_ms / LIMIT_MS).max(utilization);
    Probe {
        ok: r.shed == 0 && r.expired == 0 && p99_ms <= LIMIT_MS && utilization < 1.0,
        load: if r.shed == 0 && r.expired == 0 {
            load
        } else {
            f64::INFINITY
        },
    }
}

/// The highest offered rate whose simulated p99 stays within the limit
/// with nothing shed, nothing expired and no growing backlog: a ×2
/// bracket from the nominal rate, a log-space bisection, then a
/// log-linear interpolation of where the load crosses 1.
pub fn max_qps(pipe: &mut Pipeline, t: Traffic, report: &mut Report) -> f64 {
    let lo_cap = NOMINAL_QPS / 2f64.powi(SEARCH_OCTAVES);
    let hi_cap = NOMINAL_QPS * 2f64.powi(SEARCH_OCTAVES);
    let first = probe(pipe, t, NOMINAL_QPS, report);
    let (mut lo, mut hi) = (NOMINAL_QPS, NOMINAL_QPS);
    let (mut lo_p, mut hi_p);
    if first.ok {
        lo_p = first;
        loop {
            hi = lo * 2.0;
            hi_p = probe(pipe, t, hi, report);
            if !hi_p.ok || hi >= hi_cap {
                break;
            }
            lo = hi;
            lo_p = hi_p;
        }
    } else {
        hi_p = first;
        loop {
            lo = hi / 2.0;
            lo_p = probe(pipe, t, lo, report);
            if lo_p.ok || lo <= lo_cap {
                break;
            }
            hi = lo;
            hi_p = lo_p;
        }
    }
    if !report.check("a probed rate meets the serving limit", lo_p.ok) {
        return lo;
    }
    if hi_p.ok {
        return hi;
    }
    for _ in 0..BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        let p = probe(pipe, t, mid, report);
        if p.ok {
            (lo, lo_p) = (mid, p);
        } else {
            (hi, hi_p) = (mid, p);
        }
    }
    if hi_p.load.is_finite() && hi_p.load > lo_p.load {
        let f = (1.0 - lo_p.load) / (hi_p.load - lo_p.load);
        lo * (hi / lo).powf(f.clamp(0.0, 1.0))
    } else {
        lo
    }
}

/// Per-batch host timings of the coalescer and the forward pass, from
/// replaying a run's batches, plus the requests whose replayed answer
/// differs from the run's.
pub struct BatchReplay {
    pub coalesce_us: f64,
    pub forward_ms: f64,
    pub mismatches: usize,
}

/// Replay `r`'s batches, in order and with their compositions, through
/// `Coalescer::coalesce` and `Pipeline::serve_forward`.
pub fn replay_batches(
    pipe: &mut Pipeline,
    r: &ServeReport,
    tl: &mut crate::timeline::Timeline,
) -> BatchReplay {
    let gpus = pipe.machine().num_gpus() as u64;
    let mut coalescer = wg_serve::Coalescer::default();
    let (mut nodes, mut preds, mut sums) = (Vec::new(), Vec::new(), Vec::new());
    let (mut coalesce_s, mut forward_s) = (Vec::new(), Vec::new());
    let mut mismatches = 0;
    for batch in r.completions.chunk_by(|a, b| a.batch == b.batch) {
        nodes.clear();
        nodes.extend(batch.iter().map(|c| c.node));
        let t = tl.start();
        coalescer.coalesce(&nodes);
        coalesce_s.push(tl.end("replay.coalesce", t));
        preds.clear();
        sums.clear();
        let rank = (batch[0].batch % gpus) as u32;
        let t = tl.start();
        pipe.serve_forward(coalescer.unique(), rank, &mut preds, &mut sums);
        forward_s.push(tl.end("replay.serve_forward", t));
        mismatches += batch
            .iter()
            .enumerate()
            .filter(|(i, c)| {
                let row = coalescer.map()[*i] as usize;
                (preds[row], sums[row]) != (c.pred, c.logits_checksum)
            })
            .count();
    }
    BatchReplay {
        coalesce_us: median(&coalesce_s) * 1e6,
        forward_ms: median(&forward_s) * 1e3,
        mismatches,
    }
}

/// Simulated queue wait (start − arrival: its median and mean) and the
/// median batch service time (finish − start) of a run, in µs. The wait's
/// p99 is not used: while the server keeps up, every batch's first
/// request waits exactly the 1 ms window, which pins p99 to it.
pub fn waits_us(r: &ServeReport) -> (f64, f64, f64) {
    let waits: Vec<f64> = r
        .completions
        .iter()
        .map(|c| (c.start - c.arrival).as_micros())
        .collect();
    let service: Vec<f64> = r
        .completions
        .chunk_by(|a, b| a.batch == b.batch)
        .map(|b| (b[0].finish - b[0].start).as_micros())
        .collect();
    (
        quantile(&waits, 0.5),
        waits.iter().sum::<f64>() / waits.len() as f64,
        quantile(&service, 0.5),
    )
}
