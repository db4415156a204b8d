//! The end-to-end CuLDA_CGS trainer (Figure 3b + Algorithm 1), on one
//! node or many, under either Section 4 partition policy.
//!
//! The trainer owns one [`GpuWorker`] per GPU; each worker owns its
//! device and the units (document chunks or word ranges) dealt to it,
//! and, under partition-by-document, its double-buffered ϕ replica pair.
//! Per iteration the trainer fans the per-GPU iteration bodies out over
//! real host threads ([`crate::worker::run_workers`]), joins them at the
//! synchronization (the Figure 4 reduce/broadcast), and merges the
//! per-worker phase accounts into the system [`Breakdown`]. What depends
//! on the policy — the body, the unit that migrates, the sync payload —
//! comes from the `Layout` (`layout.rs`) chosen at construction; the
//! superstep itself is one loop for both.
//!
//! Following Section 6.2, ϕ is updated *before* θ so the inter-GPU
//! synchronization overlaps the θ update — the simulated clocks model
//! exactly that overlap: `iteration_end = max(θ_done, sync_start +
//! sync_time)`.
//!
//! Each GPU holds **two** ϕ buffers: a read replica (the global model
//! snapshot produced by the previous sync) and a write replica (this
//! iteration's local counts). They swap after the sync. This is what
//! double-buffered multi-GPU implementations do, and it gives a strong
//! testable property: for a fixed chunk count `C`, training is
//! bit-identical whether those chunks run on 1, 2, or 4 GPUs — and whether
//! the per-GPU bodies run sequentially or concurrently — because the
//! sampler RNG streams are keyed by global token index and every kernel
//! reads only the previous iteration's snapshot.
//!
//! With `M > 1` (out-of-core), each GPU pipelines its `M` chunks through
//! the H2D → compute → D2H engines (WorkSchedule2), and the iteration time
//! is the pipeline makespan instead of the kernel sum.
//!
//! **Nodes.** `cfg.nodes = N` boxes of `cfg.platform` run AD-LDA one level
//! up ("Scalable Inference for Latent Dirichlet Allocation"): the
//! workers form one flat list with globally unique device ids, node `n`
//! owning workers `n·G .. (n+1)·G`. Each superstep every node runs its
//! bodies and its intra-node sync exactly as a lone node does; then, for
//! `N > 1` only, each node's summed replica is encoded as a sparse
//! [`DeltaPayload`], the payloads merge up a reduce tree over the
//! inter-node link ([`reduce_payloads`]), and the merged global payload
//! is stored into every replica. The chunk layout is planned once from
//! the per-node platform (`C = M × G`, independent of `N`), so the
//! trained model is bit-identical for any node count; only the modelled
//! time differs. Partition-by-word runs on one node.
//!
//! **Failure.** Each worker is its own failure domain under either policy
//! and at any node count: retry with backoff, then unit migration — to
//! the survivors on the lost worker's own node, or, once a whole node is
//! gone, to the other nodes' workers ([`CuldaTrainer::fail_node`] drains
//! a node on demand).

use crate::api::PartitionPolicy;
use crate::config::{SamplingMode, SyncMode, TrainerConfig};
use crate::delta::DeltaPayload;
use crate::error::{CuldaError, RecoveryStats};
use crate::layout::{DocLayout, Layout, StepCtx};
use crate::partition::PartitionedCorpus;
use crate::schedule::MemoryPlan;
use crate::sync::{reduce_payloads, SyncReport, SyncTotals};
use crate::word::WordLayout;
use crate::worker::{run_workers_traced, trace_staging, GpuWorker};
use culda_corpus::Corpus;
use culda_gpusim::{FaultPlan, Link, ProfileLog};
use culda_metrics::{
    Breakdown, GpuBreakdowns, IterationStat, Json, LdaLoglik, MetricsRegistry, Phase, RunHistory,
    TraceSink, NODE_TID_BASE, SIM_PID, SYNC_TID,
};
use culda_sampler::{
    choose_sparse_sampling, BlockWork, ChunkState, PhiDelta, PhiModel, PlanReport,
};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Result of a completed training run.
#[derive(Debug)]
pub struct TrainOutcome {
    /// Per-iteration timing and scoring.
    pub history: RunHistory,
    /// Accumulated per-phase simulated time (Table 5's input).
    pub breakdown: Breakdown,
    /// Final joint log-likelihood per token (always scored at the end).
    pub final_loglik_per_token: f64,
    /// What fault recovery did (all-zero for fault-free runs).
    pub recovery: RecoveryStats,
}

/// The CuLDA trainer: a corpus partitioned over the per-GPU workers of
/// `cfg.nodes` nodes — by document (the paper's policy) unless built with
/// [`Self::try_with_policy`].
pub struct CuldaTrainer {
    /// Run configuration (`cfg.platform` is one node's box).
    pub cfg: TrainerConfig,
    layout: Box<dyn Layout>,
    num_units: usize,
    vocab_size: usize,
    num_tokens: u64,
    workers: Vec<GpuWorker>,
    gpus_per_node: usize,
    peer_link: Link,
    host_link: Link,
    node_link: Link,
    history: RunHistory,
    breakdown: Breakdown,
    profile: ProfileLog,
    iteration: u32,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    faults: Option<Arc<FaultPlan>>,
    recovery: RecoveryStats,
    sync_totals: SyncTotals,
}

impl CuldaTrainer {
    /// Prepares a partition-by-document run: plans `M`, partitions and
    /// sorts the corpus, initializes random assignments, builds the
    /// initial model, assigns chunks to workers round-robin, and charges
    /// the initial host→device transfers (Algorithm 1, lines 7–9).
    ///
    /// Panics on an invalid configuration; fallible callers use
    /// [`Self::try_new`].
    pub fn new(corpus: &Corpus, cfg: TrainerConfig) -> Self {
        Self::try_new(corpus, cfg).unwrap_or_else(|e| panic!("invalid TrainerConfig: {e}"))
    }

    /// Fallible counterpart of [`Self::new`]: a degenerate configuration
    /// comes back as [`CuldaError::Config`] instead of a panic.
    pub fn try_new(corpus: &Corpus, cfg: TrainerConfig) -> Result<Self, CuldaError> {
        Self::try_with_policy(PartitionPolicy::Document, corpus, cfg)
    }

    /// Prepares a run under `policy`: partition-by-document as in
    /// [`Self::new`], or partition-by-word — one token-balanced word range
    /// per GPU, single-node only ([`CuldaError::Invalid`] otherwise).
    pub fn try_with_policy(
        policy: PartitionPolicy,
        corpus: &Corpus,
        cfg: TrainerConfig,
    ) -> Result<Self, CuldaError> {
        cfg.validate()?;
        let parts = match policy {
            PartitionPolicy::Document => DocLayout::build(corpus, &cfg),
            PartitionPolicy::Word => WordLayout::build(corpus, &cfg)?,
        };
        let vocab_size = parts.layout.global_phi(&parts.workers).vocab_size;
        let units = parts.workers.iter().flat_map(|w| &w.states);
        let num_tokens = units.clone().map(|s| s.z.len() as u64).sum();
        Ok(Self {
            node_link: cfg.effective_node_link(),
            gpus_per_node: cfg.platform.num_gpus,
            cfg,
            layout: parts.layout,
            num_units: units.count(),
            vocab_size,
            num_tokens,
            workers: parts.workers,
            peer_link: parts.peer_link,
            host_link: parts.host_link,
            history: RunHistory::new(),
            breakdown: Breakdown::new(),
            profile: ProfileLog::new(),
            iteration: 0,
            trace: None,
            metrics: None,
            faults: None,
            recovery: RecoveryStats::default(),
            sync_totals: SyncTotals::default(),
        })
    }

    /// The partition policy this trainer runs.
    pub fn policy(&self) -> PartitionPolicy {
        self.layout.policy()
    }

    /// Arms fault injection: every worker device consults `plan` on its
    /// fallible launch/transfer paths, and [`Self::try_step`] recovers
    /// from whatever fires (retry with backoff; unit migration on a
    /// permanent loss). Without a plan attached, stepping never snapshots
    /// state and is byte-for-byte the fault-free trainer.
    pub fn attach_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for w in &self.workers {
            w.device.attach_faults(plan.clone());
        }
        self.faults = Some(plan);
    }

    /// Run-level intra-node sync traffic and timing totals, summed over
    /// every node (bytes moved at their encoded size, dense-baseline
    /// bytes, payload nonzeros, seconds).
    pub fn sync_totals(&self) -> SyncTotals {
        self.sync_totals
    }

    /// What fault recovery has done so far in this run.
    pub fn recovery(&self) -> RecoveryStats {
        let mut r = self.recovery;
        if let Some(p) = &self.faults {
            r.faults_injected = p.injected();
        }
        r
    }

    /// Number of workers still alive (== GPU count until a permanent
    /// fault exhausts some worker's retry budget or a node fails).
    pub fn num_alive(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// Number of nodes still taking part in supersteps: a node is alive
    /// while any of its workers is.
    pub fn num_alive_nodes(&self) -> usize {
        (0..self.cfg.nodes).filter(|&n| self.node_alive(n)).count()
    }

    /// Attaches observability sinks to the trainer and all worker devices:
    /// every kernel launch then emits a trace span and records metrics,
    /// iteration bodies get host-side spans, and the sync is drawn on its
    /// own track with flow events from/to the participating devices. Pass
    /// `None` to leave a domain unobserved. Tracing never perturbs RNG
    /// streams, execution order, or the simulated clocks.
    pub fn attach_observability(
        &mut self,
        trace: Option<Arc<TraceSink>>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) {
        for w in &self.workers {
            if let Some(t) = &trace {
                w.device.attach_trace(t.clone());
            }
            if let Some(m) = &metrics {
                w.device.attach_metrics(m.clone());
            }
        }
        self.trace = trace;
        self.metrics = metrics;
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<Arc<TraceSink>> {
        self.trace.clone()
    }

    /// The attached metrics registry, if any.
    pub fn metrics_registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.clone()
    }

    /// The chosen memory plan (`M`, `C`, byte budgets — per node).
    ///
    /// # Panics
    /// Under partition-by-word, which plans no document chunks.
    pub fn plan(&self) -> &MemoryPlan {
        self.documents().1
    }

    /// The partitioned corpus.
    ///
    /// # Panics
    /// Under partition-by-word, which cuts the corpus into word ranges.
    pub fn partition(&self) -> &PartitionedCorpus {
        self.documents().0
    }

    fn documents(&self) -> (&PartitionedCorpus, &MemoryPlan) {
        self.layout
            .documents()
            .expect("partition-by-word has no document chunks")
    }

    /// Number of GPU workers across every node.
    pub fn num_gpus(&self) -> usize {
        self.workers.len()
    }

    /// The per-GPU workers of every node, in device order (read access
    /// for tests and examples).
    pub fn workers(&self) -> &[GpuWorker] {
        &self.workers
    }

    /// Per-unit assignment state (a chunk's z and θ, or a word range's z)
    /// in **global unit order**, reassembled from the owning workers.
    pub fn states(&self) -> Vec<&ChunkState> {
        let mut out: Vec<Option<&ChunkState>> = vec![None; self.num_units];
        for w in &self.workers {
            for (local, &gi) in w.chunk_ids.iter().enumerate() {
                out[gi] = Some(&w.states[local]);
            }
        }
        out.into_iter()
            .map(|s| s.expect("every unit has an owner"))
            .collect()
    }

    /// The current global ϕ snapshot.
    pub fn global_phi(&self) -> &PhiModel {
        self.layout.global_phi(&self.workers)
    }

    /// Timing/scoring history so far.
    pub fn history(&self) -> &RunHistory {
        &self.history
    }

    /// Accumulated phase breakdown so far (system view: all GPUs summed).
    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// Per-GPU phase attribution: each worker's own kernel and transfer
    /// time. The sync is a shared phase and appears only in the system
    /// [`Self::breakdown`].
    pub fn per_gpu_breakdowns(&self) -> GpuBreakdowns {
        GpuBreakdowns::new(self.workers.iter().map(|w| w.breakdown.clone()).collect())
    }

    /// Per-kernel launch log (an `nvprof`-style profile of the run),
    /// merged from the per-device logs in device order each iteration.
    pub fn profile(&self) -> &ProfileLog {
        &self.profile
    }

    /// Iterations completed so far.
    pub fn iterations_done(&self) -> u32 {
        self.iteration
    }

    /// Worker indices of node `n`.
    fn node_range(&self, n: usize) -> Range<usize> {
        n * self.gpus_per_node..(n + 1) * self.gpus_per_node
    }

    fn node_alive(&self, n: usize) -> bool {
        self.workers[self.node_range(n)].iter().any(|w| w.alive)
    }

    /// Latest clock among the *alive* workers' devices in `range` (a
    /// dead device's clock is frozen at its point of loss).
    fn now(&self, range: Range<usize>) -> f64 {
        self.workers[range]
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.device.now())
            .fold(0.0f64, f64::max)
    }

    /// Current system time: the latest alive clock on any node.
    fn system_time(&self) -> f64 {
        self.now(0..self.workers.len())
    }

    /// Barrier: every alive device's clock advances to the latest (the
    /// per-iteration join of Algorithm 1).
    fn barrier(&self) -> f64 {
        let t = self.system_time();
        for w in self.workers.iter().filter(|w| w.alive) {
            w.device.advance_to(t);
        }
        t
    }

    /// The worker index and worker-local slot of a global unit id. A
    /// search, not arithmetic: rebalancing can move units off the
    /// round-robin layout.
    fn unit_slot(&self, global_id: usize) -> (usize, usize) {
        for (wi, w) in self.workers.iter().enumerate() {
            if let Some(local) = w.chunk_ids.iter().position(|&gi| gi == global_id) {
                return (wi, local);
            }
        }
        panic!("unit {global_id} has no owner");
    }

    /// Restores a checkpointed state: overwrites every unit's assignments,
    /// rebuilds θ and ϕ from them, and sets the iteration counter — the
    /// back-end of `crate::resume`. Timing state (clocks, history,
    /// breakdown) restarts from zero; the *chain* continues bit-identically
    /// because the RNG streams are keyed by `(seed, iteration, token)`, so
    /// a checkpoint resumes at any node count.
    ///
    /// Returns `Err` (and leaves the trainer unusable) on shape mismatch.
    pub fn restore_assignments(
        &mut self,
        iteration: u32,
        z_per_unit: &[Vec<u16>],
    ) -> Result<(), String> {
        if z_per_unit.len() != self.num_units {
            return Err(format!(
                "{} units supplied, trainer has {}",
                z_per_unit.len(),
                self.num_units
            ));
        }
        for (u, z) in z_per_unit.iter().enumerate() {
            let (wi, local) = self.unit_slot(u);
            if z.len() != self.workers[wi].states[local].z.len() {
                return Err(format!("unit {u} token-count mismatch"));
            }
            if let Some(&bad) = z.iter().find(|&&v| v as usize >= self.cfg.num_topics) {
                return Err(format!("assignment {bad} out of range"));
            }
            let state = &mut self.workers[wi].states[local];
            for (t, &v) in z.iter().enumerate() {
                state.z.store(t, v);
            }
            self.layout.restore_unit(u, state, self.cfg.num_topics);
        }
        self.iteration = iteration;
        self.history = RunHistory::new();
        self.breakdown = Breakdown::new();
        self.profile.clear();
        // Rebuild the model the way a superstep leaves it: each worker
        // holds its units' counts, and the superstep's own sync path —
        // per node, then across nodes — merges them. Unlike `new()`'s
        // untimed setup sync, this one replaces an iteration-time sync
        // the original run performed, so it is charged: resumed runs
        // profile identically to fresh ones. It is not a superstep, so
        // attached observability neither draws nor counts it.
        for w in &mut self.workers {
            w.breakdown = Breakdown::new();
            w.device.reset_clock();
            w.device.clear_profile();
            if let Some(write) = &w.write_phi {
                write.clear();
                for (&u, state) in w.chunk_ids.iter().zip(&w.states) {
                    self.layout.accumulate(u, &state.z, write);
                }
            }
        }
        let ready = vec![0.0; self.workers.len()];
        let (trace, metrics) = (self.trace.take(), self.metrics.take());
        self.sync_all(0.0, &ready);
        (self.trace, self.metrics) = (trace, metrics);
        for w in &mut self.workers {
            if let (Some(read), Some(write)) = (&w.read_phi, &w.write_phi) {
                read.copy_from(write);
            }
            w.device.reset_clock();
        }
        Ok(())
    }

    /// Runs one full iteration over the corpus; returns its stats.
    ///
    /// Execution shape (Figure 3b): every worker runs its iteration body
    /// on its own host thread; the host joins them, starts the sync at
    /// `max(ϕ_done)` (it overlaps the already-executed θ updates), and
    /// swaps each worker's replica pair.
    ///
    /// Panics on an unrecoverable fault; resilient callers use
    /// [`Self::try_step`].
    pub fn step(&mut self) -> IterationStat {
        self.try_step()
            .unwrap_or_else(|e| panic!("unrecoverable training fault: {e}"))
    }

    /// Like [`step`](Self::step) but runs every worker's iteration body on
    /// the calling thread, one after another — the pre-worker-layer
    /// execution shape. Simulated time and results are identical to
    /// [`step`](Self::step); only host wall-clock differs. Exists for the
    /// sequential-vs-concurrent benchmark and regression tests.
    pub fn step_sequential(&mut self) -> IterationStat {
        self.try_step_impl(false)
            .unwrap_or_else(|e| panic!("unrecoverable training fault: {e}"))
    }

    /// Fallible [`step`](Self::step): one full superstep with fault
    /// recovery, in four stages — the iteration bodies with retry, the
    /// rebalance of lost workers, each node's intra-node sync, and (for
    /// `N > 1` only) the node-level Δϕ reduce/broadcast applied to every
    /// replica.
    ///
    /// Each worker is its own failure domain. A worker whose iteration
    /// body hits an injected fault restores its pre-iteration snapshot of
    /// its units and retries after exponential backoff, up to
    /// `cfg.retry.max_attempts` tries; the body is idempotent against the
    /// read snapshot, so a successful retry is bit-identical to a
    /// fault-free run. A worker that exhausts its budget is declared lost:
    /// its units migrate round-robin to the survivors on its node (or,
    /// when none is left there, to every other node's workers), which
    /// re-run the migrated bodies against the same snapshot (commutative
    /// count adds keep the summed model bit-identical), and the sync
    /// continues over the survivors. Errors surface only when recovery is
    /// impossible: [`CuldaError::AllWorkersLost`], a fault during the
    /// rebalance itself, or a worker panic (a bug, not a fault).
    pub fn try_step(&mut self) -> Result<IterationStat, CuldaError> {
        self.try_step_impl(true)
    }

    fn try_step_impl(&mut self, concurrent: bool) -> Result<IterationStat, CuldaError> {
        let wall_start = std::time::Instant::now();
        let t0 = self.system_time();
        let iteration = self.iteration;
        // Fault coordinates are (device, epoch); the trainer's epoch is
        // the iteration number.
        for w in &self.workers {
            w.device.set_epoch(iteration);
        }
        // Resolve this iteration's p* fill path before the fan-out: every
        // worker must model the same choice, and auto reads the previous
        // iteration's global snapshot, so the decision is deterministic
        // across GPU counts, node counts and unit layouts. Either path
        // computes bit-identical samples.
        let sparse = match self.cfg.sampling_mode {
            SamplingMode::Dense => false,
            SamplingMode::Sparse => true,
            SamplingMode::Auto => {
                choose_sparse_sampling(&self.global_phi().phi, self.cfg.phi_elem_bytes() as usize)
            }
        };
        let step = StepCtx {
            cfg: &self.cfg,
            iteration,
            sparse,
            host_link: &self.host_link,
        };
        let layout = &*self.layout;
        let faulty = self.faults.is_some();
        let retry = self.cfg.retry;
        let trace = self.trace.clone();
        let metrics = self.metrics.clone();

        // One worker's failure domain: the iteration body plus its retry
        // loop, run on the worker's own host thread. Returns the plan
        // report, retries performed, and simulated recovery seconds.
        let body = |i: usize, w: &mut GpuWorker| -> Result<(PlanReport, u32, f64), CuldaError> {
            if !w.alive {
                return Ok((PlanReport::default(), 0, 0.0));
            }
            if !faulty {
                // Fault-free fast path: no snapshot, no recovery state.
                return Ok((layout.run(w, &step)?, 0, 0.0));
            }
            let snap = w.snapshot_states();
            let mut attempt = 1u32;
            let mut recovery_seconds = 0.0;
            loop {
                let before = w.device.now();
                match layout.run(w, &step) {
                    Ok(r) => return Ok((r, attempt - 1, recovery_seconds)),
                    Err(fault) => {
                        // Time burned by the failed attempt (zero for a
                        // pre-body launch fault, partial for corruption).
                        let wasted = w.device.now() - before;
                        w.restore_states(&snap);
                        if attempt >= retry.max_attempts {
                            w.breakdown.add(Phase::Recovery, wasted);
                            return Err(CuldaError::WorkerLost {
                                device: i,
                                attempts: attempt,
                            });
                        }
                        let backoff = retry.backoff_seconds(attempt);
                        let retry_at = w.device.now();
                        w.device.advance(backoff);
                        w.breakdown.add(Phase::Recovery, wasted + backoff);
                        recovery_seconds += wasted + backoff;
                        if let Some(sink) = &trace {
                            sink.span_sim(
                                w.device.id as u32,
                                "worker.retry",
                                "recovery",
                                retry_at,
                                w.device.now(),
                                vec![
                                    ("attempt".into(), Json::from(attempt as usize)),
                                    ("fault".into(), Json::Str(fault.to_string())),
                                ],
                            );
                        }
                        if let Some(reg) = &metrics {
                            reg.counter("worker.retry").inc();
                        }
                        attempt += 1;
                    }
                }
            }
        };
        // A panicking body (a bug, not an injected fault) is caught at the
        // fan-out boundary so the other workers' results survive.
        let guarded = |i: usize, w: &mut GpuWorker| {
            catch_unwind(AssertUnwindSafe(|| body(i, w)))
                .unwrap_or(Err(CuldaError::WorkerPanicked { device: i }))
        };

        // Nodes run one after another; each node's G workers run their
        // full iteration bodies concurrently, one host thread apiece.
        let label = format!("iter {iteration}");
        let mut results = Vec::with_capacity(self.workers.len());
        for (n, node) in self.workers.chunks_mut(self.gpus_per_node).enumerate() {
            let base = n * node.len();
            let node_body = |i: usize, w: &mut GpuWorker| guarded(base + i, w);
            if concurrent {
                results.extend(run_workers_traced(
                    node,
                    trace.as_deref(),
                    &label,
                    node_body,
                ));
            } else {
                results.extend(node.iter_mut().enumerate().map(|(i, w)| node_body(i, w)));
            }
        }

        // Sort the joined results into reports and lost workers. Anything
        // other than a retry-exhausted loss is fatal.
        let mut reports: Vec<PlanReport> = Vec::with_capacity(results.len());
        let mut lost: Vec<usize> = Vec::new();
        for (i, res) in results.into_iter().enumerate() {
            match res {
                Ok((r, retries, rec_s)) => {
                    self.recovery.retries += u64::from(retries);
                    self.breakdown.add(Phase::Recovery, rec_s);
                    reports.push(r);
                }
                Err(CuldaError::WorkerLost { attempts, .. }) => {
                    self.recovery.retries += u64::from(attempts - 1);
                    self.recovery.workers_lost += 1;
                    self.workers[i].alive = false;
                    lost.push(i);
                    reports.push(PlanReport::default());
                }
                Err(e) => return Err(e),
            }
        }

        // Merge per-worker accounts in device order (deterministic).
        let staged = self.layout.staged();
        for (w, r) in self.workers.iter_mut().zip(&reports) {
            self.breakdown.add(Phase::Sampling, r.sampling_seconds);
            self.breakdown.add(Phase::UpdatePhi, r.phi_seconds);
            self.breakdown.add(Phase::UpdateTheta, r.theta_seconds);
            if staged {
                self.breakdown
                    .add(Phase::Transfer, r.exposed_transfer_seconds);
            }
            self.profile.merge(&w.device.take_profile());
        }

        // Surface the staging pipeline: per-chunk copy/kernel spans with
        // flow arrows (the visible prefetch overlap) and the fraction of
        // copy time this iteration's pipelines hid under compute.
        if staged {
            if let Some(sink) = &self.trace {
                for (w, r) in self.workers.iter().zip(&reports).filter(|(w, _)| w.alive) {
                    trace_staging(
                        sink,
                        w.device.id as u32,
                        iteration,
                        &w.staged_chunk_ids(),
                        r,
                    );
                }
            }
            if let Some(reg) = &self.metrics {
                let total: f64 = reports.iter().map(|r| r.transfer_seconds_total).sum();
                let hidden: f64 = reports
                    .iter()
                    .map(|r| r.transfer_seconds_total * r.overlap_fraction)
                    .sum();
                reg.gauge("oocore.overlap_fraction").set(if total > 0.0 {
                    hidden / total
                } else {
                    0.0
                });
            }
        }

        // Each node's sync starts once every GPU of the node finished its
        // ϕ update and overlaps the (already-executed) θ updates. After a
        // rebalance the migrated units land last, so the sync waits for
        // everything.
        let ready: Vec<f64> = if lost.is_empty() {
            reports.iter().map(|r| r.phi_done_at).collect()
        } else {
            // Permanent losses: migrate the dead workers' units to the
            // survivors and re-run their bodies before the sync.
            self.rebalance(&lost, iteration, sparse)?;
            // Rebalance kernels left launch records behind.
            for w in self.workers.iter_mut().filter(|w| w.alive) {
                self.profile.merge(&w.device.take_profile());
            }
            self.workers.iter().map(|w| w.device.now()).collect()
        };
        let delta_density = self.sync_all(t0, &ready);

        // θ stragglers past the sync keep their clocks; the barrier picks
        // them up.
        let t_end = self.barrier();

        // The freshly-summed write replicas become next iteration's read
        // snapshots.
        for w in self.workers.iter_mut().filter(|w| w.alive) {
            w.swap_replicas();
        }

        if let Some(reg) = &self.metrics {
            // Sampling-path gauges: which p* fill ran, and the ϕ occupancy
            // that drives the auto decision (census of the freshly-summed
            // global model).
            reg.gauge("sampling.sparse")
                .set(if sparse { 1.0 } else { 0.0 });
            let (dense_rows, sparse_rows, nnz) = self.global_phi().phi.format_census();
            reg.gauge("phi.rows.dense").set(dense_rows as f64);
            reg.gauge("phi.rows.sparse").set(sparse_rows as f64);
            reg.gauge("phi.nnz_per_row")
                .set(nnz as f64 / self.vocab_size as f64);
        }

        self.iteration += 1;
        let scored =
            self.cfg.score_every > 0 && self.iteration.is_multiple_of(self.cfg.score_every);
        let stat = IterationStat {
            iteration: self.iteration - 1,
            tokens: self.num_tokens,
            sim_seconds: t_end - t0,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            loglik_per_token: scored.then(|| self.loglik_per_token()),
            delta_density,
            sampling_sparse: Some(sparse),
        };
        self.history.push(stat);
        Ok(stat)
    }

    /// The sync stage of a superstep (and of a restore): each alive
    /// node's intra-node sync, starting at the latest of `t0` and its
    /// alive workers' `ready` times, then — for `N > 1` only — the
    /// node-level reduce/broadcast. Returns the mean Δϕ density of the
    /// intra-node payloads that shipped (`None` when none did), which is
    /// also the `sync.density` gauge, as `sync.compression_ratio` is the
    /// intra-node syncs' summed dense bytes over bytes moved — the same
    /// payload at every node count. The node-level payload's are the
    /// `cluster.sync.*` gauges.
    fn sync_all(&mut self, t0: f64, ready: &[f64]) -> Option<f64> {
        let phi_cells = (self.vocab_size * self.cfg.num_topics) as f64;
        let mut densities: Vec<f64> = Vec::new();
        let mut intra = SyncTotals::default();
        let mut node_ready: Vec<(usize, f64)> = Vec::with_capacity(self.cfg.nodes);
        for n in 0..self.cfg.nodes {
            let range = self.node_range(n);
            let alive: Vec<&GpuWorker> = self.workers[range.clone()]
                .iter()
                .filter(|w| w.alive)
                .collect();
            if alive.is_empty() {
                continue;
            }
            let sync_start = self.workers[range.clone()]
                .iter()
                .zip(&ready[range])
                .filter(|(w, _)| w.alive)
                .map(|(_, &t)| t)
                .fold(t0, f64::max);
            let sync = self.layout.sync(&alive, &self.peer_link, &self.cfg);
            self.breakdown.add(Phase::SyncPhi, sync.total_seconds());
            self.sync_totals.absorb(&sync);
            intra.absorb(&sync);
            let sync_end = sync_start + sync.total_seconds();
            for w in &alive {
                w.device.advance_to(sync_end);
            }
            // Δϕ nonzero density of the shipped payload — only meaningful
            // when a sparse payload actually shipped.
            if sync.mode == SyncMode::Delta && alive.len() > 1 {
                densities.push(sync.nnz as f64 / phi_cells);
            }
            if let Some(sink) = &self.trace {
                self.trace_node_sync(sink, n, ready, sync_start, &sync);
            }
            if let Some(reg) = &self.metrics {
                reg.counter("sync.rounds").add(sync.rounds as u64);
                reg.counter("sync.bytes").add(sync.bytes_moved);
                reg.counter("sync.nnz").add(sync.nnz);
                reg.histogram("sync.seconds").record(sync.total_seconds());
            }
            node_ready.push((n, sync_end));
        }
        let density =
            (!densities.is_empty()).then(|| densities.iter().sum::<f64>() / densities.len() as f64);

        // The node level: every node's sum travels as one Δϕ payload.
        if self.cfg.nodes > 1 {
            let inter = self.sync_nodes(&node_ready, t0);
            if let (Some(reg), true) = (&self.metrics, node_ready.len() > 1) {
                reg.gauge("cluster.sync.density")
                    .set(inter.nnz as f64 / phi_cells);
            }
        }
        if let Some(reg) = &self.metrics {
            reg.gauge("sync.compression_ratio")
                .set(intra.compression_ratio());
            if let Some(d) = density {
                reg.gauge("sync.density").set(d);
            }
        }
        density
    }

    /// Draws node `n`'s intra-node sync. It overlaps the θ-update kernels
    /// (`sync_start = max(ϕ_done)` can precede a device's last θ span), so
    /// it cannot sit on a device track without breaking B/E nesting: one
    /// node draws on the dedicated sync track, a cluster on one track per
    /// node (node syncs overlap each other). Names follow the payload:
    /// `phi_sync`/`phi_reduce`/… or `theta_sync`/`theta_reduce`/….
    fn trace_node_sync(
        &self,
        sink: &TraceSink,
        n: usize,
        ready: &[f64],
        sync_start: f64,
        sync: &SyncReport,
    ) {
        let range = self.node_range(n);
        let sources: Vec<(u32, f64)> = self.workers[range.clone()]
            .iter()
            .zip(&ready[range])
            .filter(|(w, _)| w.alive)
            .map(|(w, &t)| (w.device.id as u32, t))
            .collect();
        if sources.len() < 2 {
            return;
        }
        let payload = self.layout.payload();
        let (tid, name) = if self.cfg.nodes == 1 {
            (SYNC_TID, format!("{payload}_sync"))
        } else {
            (NODE_TID_BASE + n as u32, "node_sync".to_string())
        };
        let sync_end = sync_start + sync.total_seconds();
        let args = vec![
            ("reduce_s".into(), Json::Num(sync.reduce_seconds)),
            ("broadcast_s".into(), Json::Num(sync.broadcast_seconds)),
            ("rounds".into(), Json::from(sync.rounds)),
            ("gpus".into(), Json::from(sources.len())),
            ("mode".into(), Json::Str(sync.mode.to_string())),
            ("bytes".into(), Json::from(sync.bytes_moved)),
            ("nnz".into(), Json::from(sync.nnz)),
        ];
        let name = format!("{name} iter {}", self.iteration);
        trace_tree(
            sink,
            tid,
            &name,
            (sync_start, sync_end),
            args,
            payload,
            &sources,
        );
        for &(device, _) in &sources {
            sink.instant_sim(device, &format!("{payload}_ready"), "sync", sync_end);
        }
    }

    /// The node-level superstep sync (`N > 1`, partition-by-document):
    /// each alive node's summed replica becomes one Δϕ payload — its rows
    /// are the union of the node's dirty-row bitmaps, which covers every
    /// row the sum can be nonzero in (counts are non-negative) — and the
    /// payloads merge up the reduce tree over the node link, starting
    /// once the last node is ready. The merged global payload is stored
    /// into every alive write replica, valid because each replica's node
    /// sum is a cell-subset of the global sum.
    fn sync_nodes(&mut self, node_ready: &[(usize, f64)], t0: f64) -> SyncReport {
        let inter_start = node_ready.iter().map(|&(_, t)| t).fold(t0, f64::max);
        let payloads: Vec<DeltaPayload> = node_ready
            .iter()
            .map(|&(n, _)| {
                let alive: Vec<&GpuWorker> = self.workers[self.node_range(n)]
                    .iter()
                    .filter(|w| w.alive)
                    .collect();
                // Each replica's own dirty-row bitmap resets with the
                // replica clear, so it matches this iteration's counts.
                let union = PhiDelta::new(self.vocab_size);
                for w in &alive {
                    for v in w.delta().touched_rows() {
                        union.mark_row(v);
                    }
                }
                DeltaPayload::from_replica(alive[0].write_replica(), &union)
            })
            .collect();
        let shape = self.global_phi();
        let (global, inter) = reduce_payloads(
            payloads,
            shape,
            &self.cfg.platform.gpu,
            &self.node_link,
            &self.cfg,
        );
        let inter_end = inter_start + inter.total_seconds();
        // With one node left its replicas already hold the sum.
        if node_ready.len() > 1 {
            for w in self.workers.iter().filter(|w| w.alive) {
                global.apply_to(w.write_replica());
            }
        }
        self.breakdown.add(Phase::SyncPhi, inter.total_seconds());
        for w in self.workers.iter().filter(|w| w.alive) {
            w.device.advance_to(inter_end);
        }

        if let Some(sink) = &self.trace {
            let sources: Vec<(u32, f64)> = node_ready
                .iter()
                .map(|&(n, ready)| (NODE_TID_BASE + n as u32, ready))
                .collect();
            let args = vec![
                ("nodes".into(), Json::from(node_ready.len())),
                ("bytes".into(), Json::from(inter.bytes_moved)),
                ("nnz".into(), Json::from(inter.nnz)),
                ("rounds".into(), Json::from(inter.rounds)),
            ];
            let name = format!("cluster_sync iter {}", self.iteration);
            trace_tree(
                sink,
                SYNC_TID,
                &name,
                (inter_start, inter_end),
                args,
                "node",
                &sources,
            );
        }
        if let Some(reg) = &self.metrics {
            reg.counter("cluster.sync.bytes").add(inter.bytes_moved);
            reg.counter("cluster.sync.nnz").add(inter.nnz);
            reg.gauge("cluster.sync.compression_ratio")
                .set(inter.compression_ratio());
            reg.histogram("cluster.sync.seconds")
                .record(inter.total_seconds());
            reg.gauge("cluster.nodes_alive")
                .set(node_ready.len() as f64);
        }
        inter
    }

    /// Marks every worker of `node` dead and drains its units
    /// round-robin (ascending global id) to the other nodes' workers, each
    /// migration charged as one unit-state transfer over the inter-node
    /// link to the receiving device. The migrated units run on their new
    /// owners from the next superstep; the model stays bit-identical
    /// because unit placement never enters the RNG keying.
    pub fn fail_node(&mut self, node: usize) -> Result<(), CuldaError> {
        if node >= self.cfg.nodes {
            return Err(CuldaError::Invalid(format!(
                "node {node} out of range (cluster has {})",
                self.cfg.nodes
            )));
        }
        if !self.node_alive(node) {
            return Err(CuldaError::Invalid(format!("node {node} is already dead")));
        }
        let lost: Vec<usize> = self
            .node_range(node)
            .filter(|&i| self.workers[i].alive)
            .collect();
        for &i in &lost {
            self.workers[i].alive = false;
        }
        self.recovery.workers_lost += lost.len() as u64;
        self.migrate(&lost).map(drop)
    }

    /// Moves every unit of the (already dead) `lost` workers to
    /// survivors, in ascending global unit id — deterministic. A node
    /// with a survivor keeps its units: they go round-robin to its own
    /// survivors over the host link. A node with none left is drained
    /// round-robin to every other node's survivors over the node link.
    /// Each transfer is charged to the receiving device as recovery time.
    /// Returns, per worker, the local slots of the units it received.
    fn migrate(&mut self, lost: &[usize]) -> Result<Vec<Vec<usize>>, CuldaError> {
        if self.num_alive() == 0 {
            return Err(CuldaError::AllWorkersLost);
        }
        let mut added: Vec<Vec<usize>> = vec![Vec::new(); self.workers.len()];
        for n in 0..self.cfg.nodes {
            let range = self.node_range(n);
            let mut units: Vec<(usize, ChunkState, Vec<BlockWork>)> = Vec::new();
            for &li in lost.iter().filter(|&&li| range.contains(&li)) {
                units.extend(self.workers[li].drain_chunks());
            }
            if units.is_empty() {
                continue;
            }
            units.sort_by_key(|&(gi, ..)| gi);
            let survivors: Vec<usize> = range.clone().filter(|&i| self.workers[i].alive).collect();
            let (targets, link) = if survivors.is_empty() {
                // The node lost its last worker.
                if let Some(sink) = &self.trace {
                    let now = self.system_time();
                    sink.instant_sim(NODE_TID_BASE + n as u32, "node_failed", "recovery", now);
                }
                if let Some(reg) = &self.metrics {
                    reg.counter("cluster.nodes_failed").inc();
                    reg.gauge("cluster.nodes_alive")
                        .set(self.num_alive_nodes() as f64);
                }
                let everywhere = (0..self.workers.len()).filter(|&i| self.workers[i].alive);
                (everywhere.collect::<Vec<_>>(), self.node_link)
            } else {
                (survivors, self.host_link)
            };
            for (k, (gi, state, map)) in units.into_iter().enumerate() {
                let target = targets[k % targets.len()];
                let bytes = self.layout.unit_bytes(gi, &self.cfg);
                let w = &mut self.workers[target];
                // Recovery is not fault-tolerant: a drop fault armed on the
                // receiving device loses the migration and aborts training.
                let secs = w.device.try_transfer(bytes, &link)?;
                w.breakdown.add(Phase::Recovery, secs);
                self.breakdown.add(Phase::Recovery, secs);
                added[target].push(w.num_chunks());
                w.push_chunk(gi, state, map);
                self.recovery.chunks_migrated += 1;
            }
        }
        Ok(added)
    }

    /// Migrates every unit of the just-lost workers to survivors (see
    /// [`Self::migrate`]) and re-runs the migrated bodies there against
    /// the same read snapshot. The survivors' own bodies already ran; the
    /// migrated contributions are commutative count adds on top, so the
    /// post-sync global model is bit-identical to the fault-free run.
    /// Recovery itself is not fault-tolerant: a fault firing during the
    /// re-run is fatal.
    fn rebalance(
        &mut self,
        lost: &[usize],
        iteration: u32,
        sparse: bool,
    ) -> Result<(), CuldaError> {
        let added = self.migrate(lost)?;
        let step = StepCtx {
            cfg: &self.cfg,
            iteration,
            sparse,
            host_link: &self.host_link,
        };
        for (wi, locals) in added.iter().enumerate() {
            if locals.is_empty() {
                continue;
            }
            let w = &mut self.workers[wi];
            let start = w.device.now();
            let r = self.layout.rerun(w, locals, &step)?;
            let spent = r.sampling_seconds + r.phi_seconds + r.theta_seconds;
            w.breakdown.add(Phase::Recovery, spent);
            self.breakdown.add(Phase::Recovery, spent);
            if let Some(sink) = &self.trace {
                sink.span_sim(
                    w.device.id as u32,
                    "rebalance",
                    "recovery",
                    start,
                    w.device.now(),
                    vec![
                        ("chunks".into(), Json::from(locals.len())),
                        ("iteration".into(), Json::from(iteration as usize)),
                    ],
                );
            }
            if let Some(reg) = &self.metrics {
                reg.counter("rebalance").inc();
            }
        }
        Ok(())
    }

    /// Trains for the configured number of iterations.
    ///
    /// Panics on an unrecoverable fault; resilient callers use
    /// [`Self::try_train`].
    pub fn train(self) -> TrainOutcome {
        self.try_train()
            .unwrap_or_else(|e| panic!("unrecoverable training fault: {e}"))
    }

    /// Fallible [`train`](Self::train): recovered faults show up in the
    /// outcome's [`RecoveryStats`]; unrecoverable ones surface as
    /// [`CuldaError`].
    pub fn try_train(mut self) -> Result<TrainOutcome, CuldaError> {
        for _ in 0..self.cfg.iterations {
            self.try_step()?;
        }
        Ok(self.into_outcome())
    }

    /// Trains until the scored log-likelihood flattens (less than `tol`
    /// per-token improvement over the last `window` scores) or the
    /// configured iteration cap is reached, whichever comes first.
    /// Requires `score_every > 0`. Returns the outcome and the number of
    /// iterations actually run.
    pub fn train_until_converged(mut self, window: usize, tol: f64) -> (TrainOutcome, u32) {
        assert!(
            self.cfg.score_every > 0,
            "convergence-driven training needs score_every > 0"
        );
        let mut ran = 0;
        for _ in 0..self.cfg.iterations {
            self.step();
            ran += 1;
            if self.history.has_converged(window, tol) {
                break;
            }
        }
        (self.into_outcome(), ran)
    }

    /// The run so far, scored once more at the end.
    fn into_outcome(self) -> TrainOutcome {
        TrainOutcome {
            final_loglik_per_token: self.loglik_per_token(),
            recovery: self.recovery(),
            history: self.history,
            breakdown: self.breakdown,
        }
    }

    /// Joint log-likelihood per token of the current state. Accumulates
    /// in global unit order so the value is independent of how units are
    /// distributed over GPUs.
    pub fn loglik_per_token(&self) -> f64 {
        let phi = self.global_phi();
        let eval = LdaLoglik::new(
            phi.priors.alpha,
            phi.priors.beta,
            self.cfg.num_topics,
            self.vocab_size,
        );
        let k = self.cfg.num_topics;
        let mut acc = 0.0;
        for t in 0..k {
            let col = (0..self.vocab_size).map(|v| phi.phi.load(v * k + t));
            acc += eval.topic_term(col, phi.phi_sum.load(t) as u64);
        }
        acc = self.layout.doc_terms(&self.states(), &eval, acc);
        eval.per_token(acc, self.num_tokens)
    }

    /// Full consistency audit (tests): the document–topic counts agree
    /// with the assignments, and the global ϕ equals the sum over units.
    pub fn check_invariants(&self) {
        let states = self.states();
        self.layout.audit(&states);
        let global = self.global_phi();
        let fresh = PhiModel::zeros(self.cfg.num_topics, self.vocab_size, global.priors);
        for (u, state) in states.iter().enumerate() {
            self.layout.accumulate(u, &state.z, &fresh);
        }
        for i in 0..global.phi.len() {
            assert_eq!(global.phi.load(i), fresh.phi.load(i), "phi[{i}] mismatch");
        }
        for t in 0..self.cfg.num_topics {
            assert_eq!(
                global.phi_sum.load(t),
                fresh.phi_sum.load(t),
                "phi_sum[{t}]"
            );
        }
    }
}

/// Draws one reduce/broadcast tree on track `tid`: a `{stem}_reduce` flow
/// from each `(track, ready time)` source into the span `name` over
/// `window`, then a `{stem}_broadcast` flow from the span's end back out
/// to each source.
fn trace_tree(
    sink: &TraceSink,
    tid: u32,
    name: &str,
    (start, end): (f64, f64),
    args: Vec<(String, Json)>,
    stem: &str,
    sources: &[(u32, f64)],
) {
    let (reduce, broadcast) = (format!("{stem}_reduce"), format!("{stem}_broadcast"));
    for &(src, ready) in sources {
        let id = sink.new_flow_id();
        sink.flow_start(SIM_PID, src, &reduce, ready, id);
        sink.flow_finish(SIM_PID, tid, &reduce, start, id);
    }
    sink.span_sim(tid, name, "sync", start, end, args);
    for &(src, _) in sources {
        let id = sink.new_flow_id();
        sink.flow_start(SIM_PID, tid, &broadcast, end, id);
        sink.flow_finish(SIM_PID, src, &broadcast, end, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainerConfigBuilder;
    use crate::worker::run_workers;
    use culda_corpus::SynthSpec;
    use culda_gpusim::{GpuSpec, Platform};
    use culda_sampler::Priors;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 300;
        spec.avg_doc_len = 30.0;
        spec.generate()
    }

    /// A corpus big enough that bandwidth, not launch overhead or PCIe
    /// latency, dominates the simulated time — needed by the tests that
    /// assert performance *shape* (the paper's corpora are ~1000× larger
    /// still, with an even higher compute-to-sync ratio).
    fn perf_corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 2000;
        spec.vocab_size = 2000;
        spec.avg_doc_len = 150.0;
        spec.topic_support = 300;
        spec.generate()
    }

    fn cfg(platform: Platform) -> TrainerConfigBuilder {
        TrainerConfig::builder(16, platform)
            .iterations(3)
            .score_every(1)
            .seed(42)
    }

    #[test]
    fn sequential_and_concurrent_steps_are_bit_identical() {
        // `step_sequential` is the pre-worker-layer execution shape; the
        // fan-out must change host wall-clock only — z, loglik, and the
        // per-device simulated clocks stay bitwise equal.
        let c = corpus();
        let run = |concurrent: bool| {
            let mut config = cfg(Platform::pascal().with_gpus(4))
                .score_every(0)
                .build()
                .unwrap();
            config.chunks_per_gpu = Some(1);
            let mut t = CuldaTrainer::new(&c, config);
            for _ in 0..2 {
                if concurrent {
                    t.step();
                } else {
                    t.step_sequential();
                }
            }
            let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
            let clocks: Vec<u64> = t
                .workers()
                .iter()
                .map(|w| w.device.now().to_bits())
                .collect();
            (z, clocks, t.loglik_per_token().to_bits())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn single_gpu_trains_and_conserves_counts() {
        let c = corpus();
        let mut t = CuldaTrainer::new(&c, cfg(Platform::maxwell()).build().unwrap());
        assert_eq!(t.plan().m, 1);
        for _ in 0..3 {
            let stat = t.step();
            assert_eq!(stat.tokens, c.num_tokens());
            assert!(stat.sim_seconds > 0.0);
            t.check_invariants();
        }
    }

    #[test]
    fn loglik_improves_over_training() {
        let c = corpus();
        let mut t = CuldaTrainer::new(
            &c,
            cfg(Platform::maxwell())
                .iterations(12)
                .score_every(0)
                .build()
                .unwrap(),
        );
        let before = t.loglik_per_token();
        for _ in 0..12 {
            t.step();
        }
        let after = t.loglik_per_token();
        assert!(after > before + 0.01, "no convergence: {before} → {after}");
    }

    #[test]
    fn bit_identical_across_gpu_counts_for_fixed_chunks() {
        let c = corpus();
        let run = |gpus: usize, m: usize| {
            let mut config = cfg(Platform::pascal().with_gpus(gpus))
                .score_every(0)
                .build()
                .unwrap();
            config.chunks_per_gpu = Some(m);
            let mut t = CuldaTrainer::new(&c, config);
            for _ in 0..2 {
                t.step();
            }
            let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
            (z, t.loglik_per_token())
        };
        let (z1, ll1) = run(1, 4); // 1 GPU × 4 chunks
        let (z2, ll2) = run(2, 2); // 2 GPUs × 2 chunks
        let (z4, ll4) = run(4, 1); // 4 GPUs × 1 chunk
        assert_eq!(z1, z2);
        assert_eq!(z2, z4);
        assert!((ll1 - ll2).abs() < 1e-12 && (ll2 - ll4).abs() < 1e-12);
    }

    #[test]
    fn iteration_bodies_really_run_on_concurrent_threads() {
        // Each worker records which host thread ran its iteration body; on
        // a 4-GPU platform the bodies must be on 4 distinct spawned
        // threads (and not the caller's).
        use std::collections::HashSet;
        use std::sync::Mutex;
        let c = corpus();
        let mut config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::new(&c, config);
        let seen: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let step = StepCtx {
            cfg: &t.cfg,
            iteration: 0,
            sparse: false,
            host_link: &t.host_link,
        };
        let layout = &*t.layout;
        let reports = run_workers(&mut t.workers, |_, w| {
            seen.lock().unwrap().push(std::thread::current().id());
            layout.run(w, &step).unwrap()
        });
        assert_eq!(reports.len(), 4);
        let ids = seen.into_inner().unwrap();
        let distinct: HashSet<_> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "bodies shared a thread");
        assert!(!distinct.contains(&std::thread::current().id()));
    }

    #[test]
    fn per_gpu_breakdowns_attribute_work_to_owners() {
        let c = corpus();
        let mut config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::new(&c, config);
        for _ in 0..2 {
            t.step();
        }
        let per = t.per_gpu_breakdowns();
        assert_eq!(per.num_gpus(), 4);
        for i in 0..4 {
            assert!(per.gpu(i).seconds(Phase::Sampling) > 0.0, "gpu {i} idle");
            // The sync is a shared phase, not attributed per GPU.
            assert_eq!(per.gpu(i).seconds(Phase::SyncPhi), 0.0);
        }
        let merged = per.merged();
        let sys = t.breakdown();
        for p in [Phase::Sampling, Phase::UpdatePhi, Phase::UpdateTheta] {
            assert!(
                (merged.seconds(p) - sys.seconds(p)).abs() < 1e-9,
                "{p:?}: per-GPU sum diverged from the system view"
            );
        }
        assert!(sys.seconds(Phase::SyncPhi) > 0.0);
    }

    #[test]
    fn multi_gpu_is_faster_in_simulated_time() {
        // Needs ~1M tokens for per-iteration compute to dominate the fixed
        // sync cost (the paper's corpora have a 100× higher ratio still).
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 4000;
        spec.vocab_size = 2000;
        spec.avg_doc_len = 250.0;
        spec.topic_support = 300;
        let c = spec.generate();
        let run = |gpus: usize| {
            let config = TrainerConfig::builder(32, Platform::pascal().with_gpus(gpus))
                .iterations(2)
                .score_every(0)
                .seed(42)
                .build()
                .unwrap();
            let t = CuldaTrainer::new(&c, config);
            let out = t.train();
            out.history.avg_tokens_per_sec(2)
        };
        let tps1 = run(1);
        let tps4 = run(4);
        assert!(
            tps4 > 1.5 * tps1,
            "4 GPUs should beat 1 by well over 1.5×: {tps1} vs {tps4}"
        );
        assert!(
            tps4 < 4.0 * tps1,
            "scaling must be sub-linear (sync cost): {tps1} vs {tps4}"
        );
    }

    #[test]
    fn out_of_core_path_matches_resident_results() {
        // M = 4 on one GPU (WorkSchedule2 pipeline) vs the same C = 4
        // chunks resident (M = 1 semantics on 4 GPUs is covered by the
        // bit-identical test): the pipeline changes *time*, never results.
        let c = corpus();
        let mut forced = cfg(Platform::maxwell()).score_every(0).build().unwrap();
        forced.chunks_per_gpu = Some(4);
        let mut out_of_core = CuldaTrainer::new(&c, forced);
        assert_eq!(out_of_core.plan().m, 4, "forced M must hold");
        let mut resident_cfg = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        resident_cfg.chunks_per_gpu = Some(1);
        let mut resident = CuldaTrainer::new(&c, resident_cfg);
        for _ in 0..2 {
            out_of_core.step();
            resident.step();
        }
        out_of_core.check_invariants();
        let za: Vec<Vec<u16>> = out_of_core
            .states()
            .iter()
            .map(|s| s.z.snapshot())
            .collect();
        let zb: Vec<Vec<u16>> = resident.states().iter().map(|s| s.z.snapshot()).collect();
        assert_eq!(za, zb, "out-of-core must compute identical assignments");
        // And the pipeline must actually pay transfer time each iteration.
        assert!(out_of_core.breakdown().seconds(Phase::Transfer) > 0.0);
    }

    #[test]
    fn scarce_memory_auto_plans_out_of_core_and_trains() {
        let c = corpus();
        let mut small_mem = Platform::maxwell();
        small_mem.gpu = GpuSpec {
            // Two ϕ buffers plus about half the corpus state: forces M > 1.
            memory_bytes: {
                let probe = TrainerConfig::builder(16, Platform::maxwell())
                    .build()
                    .unwrap();
                2 * probe.phi_device_bytes(c.vocab_size()) + c.num_tokens() * 10 / 2
            },
            ..small_mem.gpu
        };
        let mut t = CuldaTrainer::new(&c, cfg(small_mem).score_every(0).build().unwrap());
        assert!(
            t.plan().m > 1,
            "expected out-of-core plan, got {}",
            t.plan().m
        );
        t.step();
        t.check_invariants();
    }

    #[test]
    fn breakdown_is_dominated_by_sampling() {
        let c = perf_corpus();
        let config = TrainerConfig::builder(32, Platform::maxwell())
            .iterations(2)
            .score_every(0)
            .build()
            .unwrap();
        let t = CuldaTrainer::new(&c, config);
        let out = t.train();
        let frac = out.breakdown.fraction(Phase::Sampling);
        assert!(
            frac > 0.5,
            "sampling should dominate (Table 5 says ~80–88%), got {frac}"
        );
        assert!(out.breakdown.seconds(Phase::UpdateTheta) > 0.0);
        assert!(out.breakdown.seconds(Phase::UpdatePhi) > 0.0);
    }

    #[test]
    fn trailing_empty_documents_do_not_break_training() {
        // Regression: a corpus ending in empty documents can partition into
        // a zero-token chunk; the trainer must skip its kernels, not panic.
        use culda_corpus::{Document, Vocab};
        let mut docs: Vec<Document> = (0..20)
            .map(|i| Document::new(vec![(i % 5) as u32; 8]))
            .collect();
        docs.extend((0..6).map(|_| Document::new(vec![])));
        let c = Corpus::new(docs, Vocab::synthetic(5));
        let mut config = cfg(Platform::pascal().with_gpus(2))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::new(&c, config);
        for _ in 0..2 {
            let stat = t.step();
            assert_eq!(stat.tokens, c.num_tokens());
        }
        t.check_invariants();
    }

    #[test]
    fn convergence_driven_training_stops_early() {
        let c = corpus();
        let config = cfg(Platform::maxwell())
            .iterations(60)
            .score_every(1)
            .build()
            .unwrap();
        let (out, ran) = CuldaTrainer::new(&c, config).train_until_converged(3, 0.02);
        assert!(ran < 60, "should converge before the cap, ran {ran}");
        assert!(ran >= 4, "needs at least window+1 scores, ran {ran}");
        assert_eq!(out.history.len() as u32, ran);
    }

    #[test]
    fn profile_log_records_every_kernel() {
        let c = corpus();
        let mut t = CuldaTrainer::new(&c, cfg(Platform::maxwell()).score_every(0).build().unwrap());
        for _ in 0..2 {
            t.step();
        }
        let names: Vec<String> = t
            .profile()
            .summaries()
            .into_iter()
            .map(|s| s.name)
            .collect();
        for expected in ["lda_sample", "phi_clear", "phi_update", "theta_update"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        // 2 iterations × (1 sample + 1 clear + 1 update ϕ + 1 update θ).
        assert_eq!(t.profile().len(), 8);
        let table = t.profile().render();
        assert!(table.contains("lda_sample"));
    }

    #[test]
    fn observability_attached_is_bit_identical_to_unobserved() {
        let c = corpus();
        let run = |observe: bool| {
            let mut config = cfg(Platform::pascal().with_gpus(4))
                .score_every(0)
                .build()
                .unwrap();
            config.chunks_per_gpu = Some(1);
            let mut t = CuldaTrainer::new(&c, config);
            if observe {
                t.attach_observability(
                    Some(Arc::new(TraceSink::new())),
                    Some(Arc::new(MetricsRegistry::new())),
                );
            }
            for _ in 0..2 {
                t.step();
            }
            let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
            let clocks: Vec<u64> = t
                .workers()
                .iter()
                .map(|w| w.device.now().to_bits())
                .collect();
            (z, clocks, t.loglik_per_token().to_bits())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn trace_covers_devices_workers_and_sync() {
        use culda_metrics::{EventKind, HOST_PID};
        let c = corpus();
        let mut config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        config.chunks_per_gpu = Some(1);
        let mut t = CuldaTrainer::new(&c, config);
        let sink = Arc::new(TraceSink::new());
        let reg = Arc::new(MetricsRegistry::new());
        t.attach_observability(Some(sink.clone()), Some(reg.clone()));
        for _ in 0..2 {
            t.step();
        }
        let evs = sink.events();
        // One kernel-span track per device, one host track per worker.
        for tid in 0..4u32 {
            assert!(
                evs.iter()
                    .any(|e| e.pid == SIM_PID && e.tid == tid && e.kind == EventKind::Begin),
                "no kernel span on device {tid}"
            );
            assert!(
                evs.iter().any(|e| e.pid == HOST_PID && e.tid == tid),
                "no host span for worker {tid}"
            );
        }
        // The ϕ sync sits on its own track, with flows touching the devices.
        assert!(evs
            .iter()
            .any(|e| e.tid == SYNC_TID && e.kind == EventKind::Begin));
        let flow_device_tids: std::collections::HashSet<u32> = evs
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::FlowStart | EventKind::FlowFinish)
                    && e.pid == SIM_PID
                    && e.tid != SYNC_TID
            })
            .map(|e| e.tid)
            .collect();
        assert_eq!(flow_device_tids.len(), 4, "flows must reach every device");
        // Metrics saw the launches and the sync.
        assert!(reg.counter("kernel.launches").value() >= 8);
        assert!(reg.histogram("sync.seconds").count() == 2);
        assert!(t.trace_sink().is_some() && t.metrics_registry().is_some());
    }

    #[test]
    fn ring_sync_changes_time_not_results() {
        let c = corpus();
        let run = |ring: bool| {
            let mode = if ring {
                SyncMode::DenseRing
            } else {
                SyncMode::DenseTree
            };
            let config = cfg(Platform::pascal())
                .score_every(0)
                .iterations(3)
                .sync_mode(mode)
                .build()
                .unwrap();
            let mut t = CuldaTrainer::new(&c, config);
            for _ in 0..3 {
                t.step();
            }
            (t.loglik_per_token(), t.history().total_sim_seconds())
        };
        let (ll_tree, t_tree) = run(false);
        let (ll_ring, t_ring) = run(true);
        assert!(
            (ll_tree - ll_ring).abs() < 1e-12,
            "sync algorithm changed results"
        );
        assert!(t_tree != t_ring, "the two syncs should cost differently");
    }

    #[test]
    fn host_workers_reach_every_device_at_any_node_count() {
        let c = corpus();
        for nodes in [1, 2] {
            let config = cfg(Platform::pascal().with_gpus(2))
                .nodes(nodes)
                .host_workers(1)
                .build()
                .unwrap();
            let t = CuldaTrainer::new(&c, config);
            assert_eq!(t.num_gpus(), 2 * nodes);
            for w in t.workers() {
                assert_eq!(
                    w.device.workers(),
                    1,
                    "device {} at {nodes} node(s)",
                    w.device.id
                );
            }
        }
    }

    #[test]
    fn resume_sync_is_charged_like_a_superstep_sync() {
        // A superstep leaves each worker's write replica holding its own
        // chunks' counts and syncs them; a restore from the assignments
        // that superstep produced rebuilds the very same replicas and must
        // charge the very same SyncPhi — per node, then across nodes.
        let c = corpus();
        for (nodes, mode) in [
            (1, SyncMode::DenseTree),
            (1, SyncMode::Delta),
            (2, SyncMode::DenseTree),
            (2, SyncMode::Delta),
            (2, SyncMode::Auto),
        ] {
            let config = || {
                cfg(Platform::pascal().with_gpus(2))
                    .score_every(0)
                    .nodes(nodes)
                    .sync_mode(mode)
                    .build()
                    .unwrap()
            };
            let at = format!("{nodes} node(s), {mode}");
            let mut straight = CuldaTrainer::new(&c, config());
            straight.step();
            let superstep = straight.breakdown().seconds(Phase::SyncPhi);
            let z: Vec<Vec<u16>> = straight.states().iter().map(|s| s.z.snapshot()).collect();
            let mut resumed = CuldaTrainer::new(&c, config());
            resumed.restore_assignments(1, &z).unwrap();
            assert_eq!(
                resumed.breakdown().seconds(Phase::SyncPhi).to_bits(),
                superstep.to_bits(),
                "{at}"
            );
            assert!(resumed.workers().iter().all(|w| w.device.now() == 0.0));
            // And the chain carries on unchanged.
            straight.step();
            resumed.step();
            let zs = |t: &CuldaTrainer| -> Vec<Vec<u16>> {
                t.states().iter().map(|s| s.z.snapshot()).collect()
            };
            assert_eq!(zs(&straight), zs(&resumed), "{at}");
        }
    }

    #[test]
    fn single_node_resume_charges_one_dense_tree() {
        // At N = 1 in the default mode the resume sync is the dense
        // Figure 4 tree over the node's replicas, as it always was.
        let c = corpus();
        let config = cfg(Platform::pascal().with_gpus(4))
            .score_every(0)
            .build()
            .unwrap();
        let mut t = CuldaTrainer::new(&c, config.clone());
        let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
        t.restore_assignments(0, &z).unwrap();
        let shape = PhiModel::zeros(16, c.vocab_size(), Priors::paper(16));
        let tree = crate::sync::sync_phi_replicas(
            &[&shape; 4],
            &config.platform.gpu,
            &t.peer_link,
            &config,
        );
        assert_eq!(
            t.breakdown().seconds(Phase::SyncPhi).to_bits(),
            tree.total_seconds().to_bits()
        );
    }

    #[test]
    fn resume_sync_is_not_observed_as_a_superstep() {
        // Observability attached before a restore must record what it
        // records when attached after: the supersteps, not the resume sync.
        use culda_metrics::EventKind;
        let c = corpus();
        let run = |attach_first: bool| {
            let config = cfg(Platform::pascal().with_gpus(4))
                .score_every(0)
                .build()
                .unwrap();
            let mut t = CuldaTrainer::new(&c, config);
            let z: Vec<Vec<u16>> = t.states().iter().map(|s| s.z.snapshot()).collect();
            let (sink, reg) = (Arc::new(TraceSink::new()), Arc::new(MetricsRegistry::new()));
            let attach = |t: &mut CuldaTrainer| {
                t.attach_observability(Some(sink.clone()), Some(reg.clone()))
            };
            if attach_first {
                attach(&mut t);
            }
            t.restore_assignments(3, &z).unwrap();
            if !attach_first {
                attach(&mut t);
            }
            for _ in 0..2 {
                t.step();
            }
            let mut syncs: Vec<String> = sink
                .events()
                .into_iter()
                .filter(|e| e.tid == SYNC_TID && e.kind == EventKind::Begin)
                .map(|e| e.name.clone())
                .collect();
            syncs.sort();
            (reg.histogram("sync.seconds").count(), syncs)
        };
        let (count, syncs) = run(true);
        assert_eq!(count, 2);
        assert_eq!((count, syncs), run(false));
    }

    #[test]
    fn history_records_every_iteration() {
        let c = corpus();
        let t = CuldaTrainer::new(&c, cfg(Platform::volta()).iterations(4).build().unwrap());
        let out = t.train();
        assert_eq!(out.history.len(), 4);
        assert!(out.final_loglik_per_token.is_finite());
        // score_every = 1 → every iteration scored.
        assert_eq!(out.history.loglik_series().len(), 4);
    }
}
