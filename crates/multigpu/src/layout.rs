//! The partition seam: what one superstep needs from a Section 4 policy.
//!
//! [`CuldaTrainer`](crate::CuldaTrainer) runs Algorithm 1's host loop once
//! for either policy; a [`Layout`], chosen at construction, supplies what
//! depends on how the corpus is cut: (1) the per-worker body over the
//! units a worker owns; (2) the unit that migrates on a loss, with its
//! byte size — a document chunk or a word range, whose mutable state
//! travels as a [`ChunkState`] inside the owning [`GpuWorker`], keyed by a
//! global unit id; (3) the sync and its follow-on hooks: the
//! log-likelihood document term, the count audit and the assignment
//! rebuild after a restore. [`DocLayout`] is the paper's
//! partition-by-document; [`crate::word::WordLayout`] partition-by-word.

use crate::api::PartitionPolicy;
use crate::config::TrainerConfig;
use crate::partition::PartitionedCorpus;
use crate::schedule::{chunk_owner, chunk_state_bytes, plan_partition, MemoryPlan};
use crate::sync::{sync_phi, sync_phi_replicas, SyncReport};
use crate::worker::GpuWorker;
use culda_corpus::Corpus;
use culda_gpusim::memory::{AtomicU16Buf, Reservation};
use culda_gpusim::{GpuCluster, Link, SimFault};
use culda_metrics::LdaLoglik;
use culda_sampler::{
    auto_tokens_per_block, build_block_map, BlockWork, ChunkState, IterationPlan, PhiModel,
    PlanReport, Priors,
};

/// What a body needs to know about the superstep it runs in.
pub(crate) struct StepCtx<'a> {
    pub cfg: &'a TrainerConfig,
    pub iteration: u32,
    /// This iteration's resolved p* fill path.
    pub sparse: bool,
    /// The host↔device link chunk staging runs over.
    pub host_link: &'a Link,
}

/// One partition policy, as the superstep engine sees it.
pub(crate) trait Layout: Send + Sync {
    /// The Section 4 policy this layout implements.
    fn policy(&self) -> PartitionPolicy;

    /// Trace-name stem of the payload the sync merges (`"phi"`, `"theta"`).
    fn payload(&self) -> &'static str;

    /// Whether units stage through host memory every superstep (`M > 1`).
    fn staged(&self) -> bool {
        false
    }

    /// The document partition and its memory plan, under
    /// partition-by-document.
    fn documents(&self) -> Option<(&PartitionedCorpus, &MemoryPlan)> {
        None
    }

    /// Modelled device bytes of unit `u` — what a migration moves.
    fn unit_bytes(&self, u: usize, cfg: &TrainerConfig) -> u64;

    /// The iteration body over every unit `w` owns. Books the per-GPU
    /// phases on success; on a fault the units may be mid-iteration, and
    /// the caller restores a snapshot before retrying.
    fn run(&self, w: &mut GpuWorker, step: &StepCtx) -> Result<PlanReport, SimFault>;

    /// Runs the units at local slots `locals` on top of the body `w`
    /// already ran this superstep (the rebalance path). Books nothing:
    /// the caller charges it as recovery.
    fn rerun(
        &self,
        w: &mut GpuWorker,
        locals: &[usize],
        step: &StepCtx,
    ) -> Result<PlanReport, SimFault>;

    /// The global ϕ snapshot the next bodies read.
    fn global_phi<'a>(&'a self, workers: &'a [GpuWorker]) -> &'a PhiModel;

    /// Merges one node's alive workers' contributions into the model the
    /// next superstep reads, and returns the modelled cost.
    fn sync(&mut self, alive: &[&GpuWorker], link: &Link, cfg: &TrainerConfig) -> SyncReport;

    /// Adds unit `u`'s word–topic counts under assignments `z` to `phi`.
    fn accumulate(&self, u: usize, z: &AtomicU16Buf, phi: &PhiModel);

    /// Rebuilds unit `u`'s own derived state from freshly restored
    /// assignments (nothing, where that state is global and the sync
    /// recounts it).
    fn restore_unit(&self, _u: usize, _state: &mut ChunkState, _num_topics: usize) {}

    /// Audits the document–topic counts; panics on a violation.
    fn audit(&self, states: &[&ChunkState]);

    /// Folds the per-document log-likelihood terms into `acc`.
    fn doc_terms(&self, states: &[&ChunkState], eval: &LdaLoglik, acc: f64) -> f64;
}

/// Everything a layout's constructor hands the engine.
pub(crate) struct Parts {
    pub layout: Box<dyn Layout>,
    pub workers: Vec<GpuWorker>,
    pub peer_link: Link,
    pub host_link: Link,
}

/// One flat device pool with globally unique ids `0..N·G`: `cfg.nodes`
/// boxes of `cfg.platform`, with the configured peer link and host
/// executor count. `with_gpus` caps at the installed count, so the pool
/// widens a clone directly.
pub(crate) fn device_pool(cfg: &TrainerConfig) -> GpuCluster {
    let mut pool = cfg.platform.clone();
    pool.num_gpus = cfg.nodes * cfg.platform.num_gpus;
    let mut cluster = GpuCluster::from_platform(&pool);
    if let Some(link) = cfg.peer_link {
        cluster.peer_link = link;
    }
    if let Some(n) = cfg.host_workers {
        cluster = cluster.with_workers(n);
    }
    cluster
}

/// Partition-by-document: token-balanced chunks of documents, dealt
/// round-robin over the workers; each worker sums its chunks into its
/// own ϕ write replica, and the sync merges the replicas.
pub(crate) struct DocLayout {
    part: PartitionedCorpus,
    /// `M` chunks per GPU (`M > 1` stages chunks out of core), `C` in all.
    plan: MemoryPlan,
    _residency: Vec<Reservation>,
}

impl DocLayout {
    /// Plans `M`, partitions and sorts the corpus, initializes random
    /// assignments, builds the initial model, deals chunks to workers
    /// round-robin, and charges the initial host→device transfers
    /// (Algorithm 1, lines 7–9).
    pub(crate) fn build(corpus: &Corpus, cfg: &TrainerConfig) -> Parts {
        // The chunk plan comes from the *per-node* platform: C = M × G,
        // independent of the node count.
        let (part, plan) = plan_partition(corpus, cfg);
        let cluster = device_pool(cfg);
        let g = cluster.num_gpus();
        let priors = Priors::paper(cfg.num_topics);

        // Random init per chunk; chunk id in the seed keeps streams apart.
        let states: Vec<ChunkState> = part
            .chunks
            .iter()
            .enumerate()
            .map(|(i, ch)| ChunkState::init_random(ch, cfg.num_topics, cfg.seed ^ (i as u64) << 32))
            .collect();

        // Block maps sized to saturate the device (≥ 2 blocks per SM).
        let min_blocks = 2 * cfg.platform.gpu.sm_count as usize;
        let block_maps: Vec<Vec<BlockWork>> = part
            .chunks
            .iter()
            .map(|ch| {
                if ch.num_tokens() == 0 {
                    // A chunk of only-empty documents has nothing to sample
                    // (possible when a corpus ends in empty docs).
                    return Vec::new();
                }
                let tpb = cfg
                    .tokens_per_block
                    .unwrap_or_else(|| auto_tokens_per_block(ch.num_tokens(), min_blocks));
                build_block_map(ch, tpb)
            })
            .collect();

        // Two ϕ buffers per GPU (read snapshot + write accumulator).
        let mk_phi = || PhiModel::zeros(cfg.num_topics, part.vocab_size, priors);
        let read_phi: Vec<PhiModel> = (0..g).map(|_| mk_phi()).collect();
        let write_phi: Vec<PhiModel> = (0..g).map(|_| mk_phi()).collect();

        // Build the initial model: accumulate each chunk into its owner's
        // write replica, sync (data only — setup is not timed, matching the
        // paper's per-iteration metric), then snapshot into the read side.
        for (i, ch) in part.chunks.iter().enumerate() {
            culda_sampler::accumulate_phi_host(ch, &states[i].z, &write_phi[chunk_owner(i, g)]);
        }
        let write_refs: Vec<&PhiModel> = write_phi.iter().collect();
        let _ = sync_phi_replicas(&write_refs, &cfg.platform.gpu, &cluster.peer_link, cfg);
        drop(write_refs);
        for (r, w) in read_phi.iter().zip(&write_phi) {
            r.copy_from(w);
        }

        // Reserve device residency and charge the initial transfers.
        let phi_bytes = 2 * cfg.phi_device_bytes(part.vocab_size);
        let mut residency = Vec::new();
        for d in &cluster.devices {
            residency.push(
                d.reserve(phi_bytes)
                    .expect("plan guaranteed the model fits"),
            );
        }
        if plan.m == 1 {
            for i in 0..part.num_chunks() {
                let owner = chunk_owner(i, g);
                let bytes = chunk_state_bytes(&part, i, cfg.num_topics);
                residency.push(
                    cluster.devices[owner]
                        .reserve(bytes)
                        .expect("plan guaranteed chunks fit"),
                );
                // Setup transfer: advances the clock (reset below) but is
                // not a per-iteration phase — Table 5 is iteration-only.
                cluster.host_to_device(owner, bytes);
            }
            cluster.barrier();
        }
        cluster.reset_clocks();

        // Hand each device its worker and deal the chunks round-robin
        // (worker `w` owns global chunks `w, w+G, w+2G, …`).
        let GpuCluster {
            devices,
            peer_link,
            host_link,
        } = cluster;
        let mut workers: Vec<GpuWorker> = devices
            .into_iter()
            .zip(read_phi)
            .zip(write_phi)
            .map(|((device, read), write)| GpuWorker::new(device, read, write))
            .collect();
        for (i, (state, map)) in states.into_iter().zip(block_maps).enumerate() {
            workers[chunk_owner(i, g)].push_chunk(i, state, map);
        }
        Parts {
            layout: Box::new(DocLayout {
                part,
                plan,
                _residency: residency,
            }),
            workers,
            peer_link,
            host_link,
        }
    }
}

impl Layout for DocLayout {
    fn policy(&self) -> PartitionPolicy {
        PartitionPolicy::Document
    }

    fn payload(&self) -> &'static str {
        "phi"
    }

    fn staged(&self) -> bool {
        self.plan.m > 1
    }

    fn documents(&self) -> Option<(&PartitionedCorpus, &MemoryPlan)> {
        Some((&self.part, &self.plan))
    }

    fn unit_bytes(&self, u: usize, cfg: &TrainerConfig) -> u64 {
        chunk_state_bytes(&self.part, u, cfg.num_topics)
    }

    fn run(&self, w: &mut GpuWorker, step: &StepCtx) -> Result<PlanReport, SimFault> {
        let k = step.cfg.num_topics;
        let plan = if self.plan.m == 1 {
            IterationPlan::resident(k)
        } else {
            IterationPlan::out_of_core(k).with_prefetch(step.cfg.prefetch)
        };
        w.try_run_iteration(
            &self.part,
            step.cfg,
            plan,
            step.iteration,
            step.host_link,
            step.sparse,
        )
    }

    fn rerun(
        &self,
        w: &mut GpuWorker,
        locals: &[usize],
        step: &StepCtx,
    ) -> Result<PlanReport, SimFault> {
        w.try_run_chunks(locals, &self.part, step.cfg, step.iteration, step.sparse)
    }

    fn global_phi<'a>(&'a self, workers: &'a [GpuWorker]) -> &'a PhiModel {
        // All alive read replicas are identical; dead workers drop out of
        // the sync.
        workers
            .iter()
            .find(|w| w.alive)
            .expect("at least one worker is alive")
            .read_replica()
    }

    fn sync(&mut self, alive: &[&GpuWorker], link: &Link, cfg: &TrainerConfig) -> SyncReport {
        let write_refs: Vec<&PhiModel> = alive.iter().map(|w| w.write_replica()).collect();
        sync_phi(&write_refs, &cfg.platform.gpu, link, cfg)
    }

    fn accumulate(&self, u: usize, z: &AtomicU16Buf, phi: &PhiModel) {
        culda_sampler::accumulate_phi_host(&self.part.chunks[u], z, phi);
    }

    fn restore_unit(&self, u: usize, state: &mut ChunkState, num_topics: usize) {
        state.theta = culda_sampler::build_theta_host(&self.part.chunks[u], &state.z, num_topics);
    }

    fn audit(&self, states: &[&ChunkState]) {
        for (ci, state) in states.iter().enumerate() {
            culda_sampler::validate::check_chunk_consistency(&self.part.chunks[ci], state, None);
        }
    }

    fn doc_terms(&self, states: &[&ChunkState], eval: &LdaLoglik, mut acc: f64) -> f64 {
        for (ci, state) in states.iter().enumerate() {
            let chunk = &self.part.chunks[ci];
            for d in 0..chunk.num_docs {
                let (_, vals) = state.theta.row(d);
                acc += eval.doc_term(vals.iter().copied(), chunk.doc_len(d) as u64);
            }
        }
        acc
    }
}
