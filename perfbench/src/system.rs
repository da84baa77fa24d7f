//! The four workloads and the system each one trains and serves: a
//! single [`Pipeline`] or a [`MultiNode`] cluster, built from the seed.

use std::sync::Arc;

use wg_graph::NodeId;
use wholegraph::prelude::*;

/// Every workload generates an ogbn-products stand-in at 1/60 of paper
/// size: 40k nodes, 3.2k training seeds.
const SCALE: u64 = 60;
const BATCH: usize = 512;
const FANOUT: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SageDsm,
    GatTiered,
    ServeZipf,
    Multinode4,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SageDsm,
        Workload::GatTiered,
        Workload::ServeZipf,
        Workload::Multinode4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SageDsm => "sage-dsm",
            Workload::GatTiered => "gat-tiered",
            Workload::ServeZipf => "serve-zipf",
            Workload::Multinode4 => "multinode-4",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether serving, not training, is the path the workload exists
    /// for: its sampling and gather layers are then read off the serving
    /// replay instead of the training epochs.
    pub fn serves_first(self) -> bool {
        self == Workload::ServeZipf
    }

    /// Zipf exponent of the served query nodes. Only `serve-zipf` skews
    /// its traffic; the other workloads serve uniform queries, so their
    /// serving figures average over the graph instead of hinging on which
    /// nodes a seed happens to make hot.
    pub fn query_skew(self) -> f64 {
        match self {
            Workload::ServeZipf => 1.1,
            _ => 0.0,
        }
    }

    fn profile(self) -> DegreeProfile {
        match self {
            Workload::GatTiered => DegreeProfile::PowerLaw { alpha: 1.05 },
            _ => DegreeProfile::Uniform,
        }
    }

    fn config(self, ds: &SyntheticDataset, seed: u64) -> PipelineConfig {
        let (model, layers, hidden) = match self {
            Workload::GatTiered => (ModelKind::Gat, 3, 64),
            Workload::ServeZipf => (ModelKind::GraphSage, 2, 128),
            Workload::SageDsm | Workload::Multinode4 => (ModelKind::GraphSage, 3, 128),
        };
        let mut cfg = PipelineConfig::paper(Framework::WholeGraph, model).with_seed(seed);
        cfg.num_layers = layers;
        cfg.hidden = hidden;
        cfg.heads = 4;
        cfg.fanouts = vec![FANOUT; layers];
        cfg.batch_size = BATCH;
        // Tiers are always pinned, so ambient WG_CACHE_* and
        // WG_STORAGE_BUDGET_ROWS never change what a workload measures.
        let n = ds.num_nodes();
        match self {
            Workload::SageDsm | Workload::Multinode4 => {
                cfg.with_cache(0, CacheMode::Static).with_storage(0)
            }
            Workload::GatTiered => cfg
                .with_cache(n / 10, CacheMode::Static)
                .with_storage(ds.storage_budget_rows(0.5))
                .with_exec(ExecMode::Overlapped),
            Workload::ServeZipf => cfg.with_cache(n / 10, CacheMode::Clock).with_storage(0),
        }
    }
}

#[allow(clippy::large_enum_variant)] // one system per run; boxing buys nothing
pub enum System {
    Single(Pipeline),
    Multi(MultiNode),
}

/// Seconds spent generating the dataset and building the system.
pub struct SetupTimes {
    pub generate_s: f64,
    pub build_s: f64,
}

/// Generate the workload's dataset from `seed` and build its system.
pub fn build(w: Workload, seed: u64, tl: &mut crate::timeline::Timeline) -> (System, SetupTimes) {
    let t = tl.start();
    let ds = Arc::new(SyntheticDataset::generate_with_profile(
        DatasetKind::OgbnProducts,
        SCALE,
        seed,
        w.profile(),
    ));
    let generate_s = tl.end("setup.generate", t);
    let t = tl.start();
    let cfg = w.config(&ds, seed);
    let system = if w == Workload::Multinode4 {
        let cluster = MultiNodeConfig::new(4).with_gpus(2);
        System::Multi(MultiNode::new(ds, cfg, cluster).expect("cluster fits simulated memory"))
    } else {
        let machine = Machine::new(MachineConfig::dgx_like(4));
        System::Single(Pipeline::new(machine, ds, cfg).expect("pipeline fits simulated memory"))
    };
    let build_s = tl.end("setup.build", t);
    (
        system,
        SetupTimes {
            generate_s,
            build_s,
        },
    )
}

/// What one epoch produced, for single and multi-node systems alike.
pub struct Epoch {
    pub loss: f32,
    pub accuracy: f64,
    pub iterations: usize,
    /// Simulated epoch time (the slowest node's, on a cluster).
    pub epoch_time: SimTime,
    /// The simulated phase breakdown (the slowest node's, on a cluster).
    pub report: EpochReport,
    pub halo_bytes: u64,
    pub sync_bytes: u64,
    pub sync_time: SimTime,
}

impl Epoch {
    /// Loss and accuracy bit patterns: the values the checks compare.
    pub fn bits(&self) -> (u32, u64) {
        (self.loss.to_bits(), self.accuracy.to_bits())
    }
}

impl System {
    pub fn train_epoch(&mut self, epoch: u64) -> Epoch {
        match self {
            System::Single(p) => {
                let r = p.train_epoch(epoch);
                Epoch {
                    loss: r.loss,
                    accuracy: r.train_accuracy,
                    iterations: r.executed_iterations,
                    epoch_time: r.epoch_time,
                    report: r,
                    halo_bytes: 0,
                    sync_bytes: 0,
                    sync_time: SimTime::ZERO,
                }
            }
            System::Multi(m) => {
                let r = m.train_epoch(epoch);
                let slowest = r
                    .per_node
                    .iter()
                    .filter_map(|n| n.report)
                    .max_by(|a, b| a.epoch_time.as_secs().total_cmp(&b.epoch_time.as_secs()))
                    .expect("every node trains");
                Epoch {
                    loss: r.loss,
                    accuracy: r.train_accuracy,
                    iterations: r.executed_iterations,
                    epoch_time: r.epoch_time,
                    report: slowest,
                    halo_bytes: r.per_node.iter().map(|n| n.halo_bytes).sum(),
                    sync_bytes: r.sync_bytes,
                    sync_time: r.sync_time,
                }
            }
        }
    }

    /// Restore every replica's parameters, optimizer and clocks to their
    /// just-built state, keeping warm buffers and cache contents.
    pub fn reset(&mut self) {
        match self {
            System::Single(p) => p.reset_training_state(),
            System::Multi(m) => {
                for k in 0..m.config().nodes {
                    m.pipeline_mut(k).reset_training_state();
                }
            }
        }
    }

    /// The pipeline requests are served from (node 0's replica on a
    /// cluster, so its gathers pay the halo exchange).
    pub fn serving(&mut self) -> &mut Pipeline {
        match self {
            System::Single(p) => p,
            System::Multi(m) => m.pipeline_mut(0),
        }
    }

    fn pipeline(&self) -> &Pipeline {
        match self {
            System::Single(p) => p,
            System::Multi(m) => m.pipeline(0),
        }
    }

    pub fn dataset(&self) -> &SyntheticDataset {
        self.pipeline().dataset()
    }

    pub fn config(&self) -> &PipelineConfig {
        self.pipeline().config()
    }

    /// GPUs of one replica's machine.
    pub fn gpus(&self) -> u32 {
        self.pipeline().machine().num_gpus()
    }

    /// Node 0's batches of `epoch`, in training order.
    pub fn batches(&self, epoch: u64) -> Vec<Vec<NodeId>> {
        match self {
            System::Single(p) => p.epoch_batches(epoch),
            System::Multi(m) => m.local_batches(0, epoch),
        }
    }

    /// Largest training shard over the ideal one (1 on a single node).
    pub fn train_imbalance(&self) -> f64 {
        match self {
            System::Single(_) => 1.0,
            System::Multi(m) => m.plan().train_imbalance(),
        }
    }
}
