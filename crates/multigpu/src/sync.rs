//! The ϕ model synchronization — Section 5.2 and Figure 4.
//!
//! After every iteration each GPU holds a replica of ϕ containing only its
//! own chunks' counts; the global model is their sum (Eq. 4). The paper
//! rejects summation on the CPU ("the CPU is slower than GPUs in terms of
//! matrix adding") and instead runs a **pairwise reduce tree** followed by
//! a **broadcast**: with 4 GPUs, round 1 moves ϕ¹→GPU0 and ϕ³→GPU2 (in
//! parallel) and adds; round 2 moves ϕ²→GPU0 and adds; then ϕ⁰ is
//! broadcast back. Depth is ⌈log₂ G⌉ in both directions.
//!
//! The data movement and additions are executed for real (so the result is
//! exact); time is modelled as: per reduce round, one peer transfer of the
//! replica plus one element-wise add kernel; per broadcast round, one peer
//! transfer. Rounds within a level run in parallel across disjoint pairs.
//!
//! Three strategies share that skeleton (selected by
//! [`SyncMode`](crate::config::SyncMode)):
//!
//! * [`sync_phi_replicas`] — the paper's dense tree.
//! * [`sync_phi_ring`] — dense ring all-reduce (extension).
//! * [`sync_phi_delta`] — sparse Δϕ: only the touched rows travel, encoded
//!   per row as COO/CSR/dense (see [`crate::delta`]). Payloads merge up the
//!   same tree and the merged global payload is broadcast and applied to
//!   every replica by store — bit-identical to the dense sum because the
//!   adds are commutative integers and a cleared replica's nonzero cells
//!   are a subset of the global payload's.
//!
//! [`sync_phi_auto`] models all three costs per iteration — the dense
//! modes from closed formulas, delta from the *actual* payload sizes — and
//! executes the argmin, so its reported seconds equal the best fixed
//! mode's by construction. All timing paths route through the same helper
//! functions, making that equality exact (no floating-point drift between
//! "predicted" and "executed" cost). The trainer dispatches on the
//! configured mode through one `sync_phi`.
//!
//! One level up, [`reduce_payloads`] runs the same payload tree over the
//! nodes of a cluster: each node's summed replica travels as one Δϕ
//! payload over the inter-node link.

use crate::config::{SyncMode, TrainerConfig};
use crate::delta::DeltaPayload;
use culda_gpusim::{GpuSpec, KernelCost, Link};
use culda_sampler::{PhiDelta, PhiModel};

/// Timing and traffic summary of one synchronization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncReport {
    /// Reduce-phase seconds (transfers + add kernels, critical path).
    pub reduce_seconds: f64,
    /// Broadcast-phase seconds (critical path).
    pub broadcast_seconds: f64,
    /// Reduce rounds executed (⌈log₂ G⌉).
    pub rounds: u32,
    /// Encoded bytes actually moved over the peer links, summed across
    /// every transfer of the reduce and broadcast phases.
    pub bytes_moved: u64,
    /// Bytes the dense tree would have moved for the same sync — the
    /// baseline for [`Self::compression_ratio`].
    pub dense_bytes: u64,
    /// Nonzero ϕ cells in the shipped payload. For the dense modes this is
    /// every cell (the whole replica travels, zeros included).
    pub nnz: u64,
    /// The strategy that actually ran (for `Auto`, the mode it chose).
    pub mode: SyncMode,
}

impl Default for SyncReport {
    fn default() -> Self {
        Self {
            reduce_seconds: 0.0,
            broadcast_seconds: 0.0,
            rounds: 0,
            bytes_moved: 0,
            dense_bytes: 0,
            nnz: 0,
            mode: SyncMode::DenseTree,
        }
    }
}

impl SyncReport {
    /// Total synchronization seconds.
    pub fn total_seconds(&self) -> f64 {
        self.reduce_seconds + self.broadcast_seconds
    }

    /// How many× fewer bytes moved than the dense tree would have
    /// (`1.0` for the dense modes themselves; `≥ 1` is a win).
    pub fn compression_ratio(&self) -> f64 {
        compression_ratio(self.dense_bytes, self.bytes_moved)
    }
}

/// Running totals over a whole run's synchronizations (what `culda
/// profile` and `bench_sync` report).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncTotals {
    /// Encoded bytes moved, summed over every sync.
    pub bytes_moved: u64,
    /// Bytes the dense tree would have moved over the same syncs.
    pub dense_bytes: u64,
    /// Payload nonzeros, summed over every sync.
    pub nnz: u64,
    /// Modelled sync seconds, summed.
    pub seconds: f64,
}

impl SyncTotals {
    /// Folds one sync's report into the totals.
    pub fn absorb(&mut self, r: &SyncReport) {
        self.bytes_moved += r.bytes_moved;
        self.dense_bytes += r.dense_bytes;
        self.nnz += r.nnz;
        self.seconds += r.total_seconds();
    }

    /// Run-level dense-vs-actual byte ratio (`≥ 1` is a win).
    pub fn compression_ratio(&self) -> f64 {
        compression_ratio(self.dense_bytes, self.bytes_moved)
    }
}

/// Dense-baseline bytes over bytes moved; `1.0` when nothing moved.
fn compression_ratio(dense_bytes: u64, bytes_moved: u64) -> f64 {
    if bytes_moved == 0 {
        1.0
    } else {
        dense_bytes as f64 / bytes_moved as f64
    }
}

/// Simulated seconds of the element-wise ϕ-add kernel on one GPU.
fn add_kernel_seconds(gpu: &GpuSpec, elements: u64, elem_bytes: u64) -> f64 {
    let cost = KernelCost {
        dram_read_bytes: 2 * elements * elem_bytes,
        dram_write_bytes: elements * elem_bytes,
        flops: elements,
        blocks: (elements / 1024).max(1),
        ..Default::default()
    };
    cost.sim_seconds(gpu)
}

/// ϕ cells (including the `phi_sum` tail) in one replica.
fn replica_elements(r: &PhiModel) -> u64 {
    r.phi.len() as u64 + r.phi_sum.len() as u64
}

/// Tree depth: reduce rounds (= broadcast rounds) for `g` participants
/// (GPUs of a node, or nodes of a cluster).
fn tree_rounds(g: usize) -> u32 {
    if g < 2 {
        0
    } else {
        (g as f64).log2().ceil() as u32
    }
}

/// Modelled cost of the dense Figure 4 tree — shared verbatim by the
/// executor and the `Auto` predictor.
fn dense_tree_report(g: usize, elements: u64, gpu: &GpuSpec, link: &Link, e: u64) -> SyncReport {
    let bytes = elements * e;
    let rounds = tree_rounds(g);
    let mut reduce_seconds = 0.0;
    let mut broadcast_seconds = 0.0;
    for _ in 0..rounds {
        reduce_seconds += link.transfer_seconds(bytes) + add_kernel_seconds(gpu, elements, e);
        broadcast_seconds += link.transfer_seconds(bytes);
    }
    // Every replica 1..G is shipped in once and the result shipped back
    // out once: 2(G−1) full-replica transfers in total.
    let transfers = 2 * (g as u64).saturating_sub(1);
    SyncReport {
        reduce_seconds,
        broadcast_seconds,
        rounds,
        bytes_moved: transfers * bytes,
        dense_bytes: transfers * bytes,
        nnz: if g > 1 { elements } else { 0 },
        mode: SyncMode::DenseTree,
    }
}

/// Modelled cost of the dense ring all-reduce — shared by the executor and
/// the `Auto` predictor.
fn dense_ring_report(g: usize, elements: u64, gpu: &GpuSpec, link: &Link, e: u64) -> SyncReport {
    let bytes = elements * e;
    if g < 2 {
        return SyncReport {
            mode: SyncMode::DenseRing,
            ..SyncReport::default()
        };
    }
    // 2(G−1) steps, each moving bytes/G per link, all links busy; the
    // reduce-scatter half also pays the element-wise adds (on 1/G of the
    // data per step, G−1 times = (G−1)/G of one full add).
    let step_bytes = bytes / g as u64;
    let per_step = link.transfer_seconds(step_bytes);
    let adds = add_kernel_seconds(gpu, elements * (g as u64 - 1) / g as u64, e);
    // Aggregate traffic across all links matches the tree: 2(G−1) replica
    // volumes (each of the 2(G−1) steps moves bytes/G on each of G links).
    let transfers = 2 * (g as u64 - 1);
    SyncReport {
        reduce_seconds: (g as f64 - 1.0) * per_step + adds,
        broadcast_seconds: (g as f64 - 1.0) * per_step,
        rounds: 2 * (g as u32 - 1),
        bytes_moved: transfers * bytes,
        dense_bytes: 2 * (g as u64).saturating_sub(1) * bytes,
        nnz: elements,
        mode: SyncMode::DenseRing,
    }
}

/// Synchronizes the replicas in place: afterwards every replica holds the
/// global sum. Returns the modelled critical-path timing. Takes a slice of
/// references because each replica lives inside its owning `GpuWorker`.
///
/// # Panics
/// Panics if `replicas` is empty or shapes disagree.
pub fn sync_phi_replicas(
    replicas: &[&PhiModel],
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> SyncReport {
    assert!(!replicas.is_empty(), "no replicas to synchronize");
    let g = replicas.len();
    let elements = replica_elements(replicas[0]);
    sum_into_all(replicas);
    dense_tree_report(g, elements, gpu, link, cfg.phi_elem_bytes())
}

/// Sums every replica into replica 0 and copies the sum back out: the
/// data movement of both dense syncs. Integer adds commute, so the tree's
/// and the ring's orders reach these same totals; only time differs.
fn sum_into_all(replicas: &[&PhiModel]) {
    for r in &replicas[1..] {
        replicas[0].add_from(r);
    }
    for r in &replicas[1..] {
        r.copy_from(replicas[0]);
    }
}

/// Ring all-reduce alternative to the Figure 4 tree (extension).
///
/// The tree moves the *whole* replica `⌈log₂G⌉` times through single
/// links; a ring all-reduce (reduce-scatter + all-gather) moves
/// `2(G−1)/G` of the replica per GPU but uses **all** links concurrently,
/// so its critical path is `2(G−1)/G × bytes / link_bw` — better than the
/// tree once `G > 2` on a fully-connected fabric (NVLink-class machines;
/// on shared PCIe the tree's assumptions match the paper's hardware).
/// Results are identical to the tree by construction; only time differs.
pub fn sync_phi_ring(
    replicas: &[&PhiModel],
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> SyncReport {
    assert!(!replicas.is_empty(), "no replicas to synchronize");
    let g = replicas.len();
    let elements = replica_elements(replicas[0]);
    sum_into_all(replicas);
    dense_ring_report(g, elements, gpu, link, cfg.phi_elem_bytes())
}

/// Builds per-GPU payloads, merges them up the Figure 4 tree, and prices
/// every transfer at its *encoded* size: the merged global payload plus
/// its modelled cost, before application (`Auto` prices delta sync this
/// way without committing to it). No replica is modified; the merge work
/// is host-side bookkeeping and free in simulated time (its GPU-side cost
/// is the add kernel charged per level).
fn plan_phi_delta(
    replicas: &[&PhiModel],
    deltas: &[&PhiDelta],
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> (DeltaPayload, SyncReport) {
    assert!(!replicas.is_empty(), "no replicas to synchronize");
    assert_eq!(replicas.len(), deltas.len(), "replica/delta count mismatch");
    let mut payloads: Vec<DeltaPayload> = replicas
        .iter()
        .zip(deltas)
        .map(|(r, d)| DeltaPayload::from_replica(r, d))
        .collect();
    if payloads.len() == 1 {
        let report = SyncReport {
            mode: SyncMode::Delta,
            ..SyncReport::default()
        };
        return (payloads.pop().unwrap(), report);
    }
    reduce_payloads(payloads, replicas[0], gpu, link, cfg)
}

/// Merges `payloads` pairwise up the Figure 4 reduce tree over `link` and
/// prices the reduce and the broadcast of the merged global payload at
/// their encoded sizes. Returns that payload, for the caller to store
/// into every replica, and the timing/traffic report. `shape` is any
/// replica of the model (for `K` and the dense baseline). The intra-node
/// Δϕ sync runs it over one payload per GPU; the trainer's node level over
/// one payload per node and the inter-node link.
///
/// # Panics
/// Panics if `payloads` is empty.
pub fn reduce_payloads(
    payloads: Vec<DeltaPayload>,
    shape: &PhiModel,
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> (DeltaPayload, SyncReport) {
    let g = payloads.len();
    assert!(g > 0, "no payloads to reduce");
    let e = cfg.phi_elem_bytes();
    let k = shape.num_topics;
    let dense_bytes = 2 * (g as u64).saturating_sub(1) * replica_elements(shape) * e;
    let mut payloads: Vec<Option<DeltaPayload>> = payloads.into_iter().map(Some).collect();

    // --- Reduce: the same pairwise tree, but over payloads --------------
    let mut reduce_seconds = 0.0;
    let mut bytes_moved = 0u64;
    let mut rounds = 0u32;
    let mut stride = 1usize;
    while stride < g {
        let mut level_seconds: f64 = 0.0;
        let mut i = 0;
        while i + stride < g {
            let sender = payloads[i + stride].take().expect("payload consumed twice");
            let sent_bytes = sender.encoded_bytes(e);
            let recv = payloads[i].as_mut().expect("receiver payload missing");
            recv.merge_from(&sender);
            // Pairs within a level run in parallel: the level costs its
            // slowest pair (transfer of the sender + merge-add on the
            // merged nnz, plus the dense phi_sum tail).
            let pair_seconds = link.transfer_seconds(sent_bytes)
                + add_kernel_seconds(gpu, recv.nnz() + k as u64, e);
            level_seconds = level_seconds.max(pair_seconds);
            bytes_moved += sent_bytes;
            i += 2 * stride;
        }
        if level_seconds > 0.0 {
            reduce_seconds += level_seconds;
            rounds += 1;
        }
        stride *= 2;
    }
    let global = payloads[0].take().expect("root payload missing");

    // --- Broadcast: the merged payload back down the reverse tree -------
    let global_bytes = global.encoded_bytes(e);
    let broadcast_seconds = f64::from(tree_rounds(g)) * link.transfer_seconds(global_bytes);
    bytes_moved += (g as u64 - 1) * global_bytes;

    let report = SyncReport {
        reduce_seconds,
        broadcast_seconds,
        rounds,
        bytes_moved,
        dense_bytes,
        nnz: global.nnz(),
        mode: SyncMode::Delta,
    };
    (global, report)
}

/// Sparse Δϕ synchronization: encode each GPU's touched rows, merge the
/// payloads up the reduce tree, broadcast the merged payload, and apply it
/// to every replica by store. Bit-identical to [`sync_phi_replicas`].
///
/// # Panics
/// Panics if `replicas` is empty or `deltas` doesn't match it 1:1.
pub fn sync_phi_delta(
    replicas: &[&PhiModel],
    deltas: &[&PhiDelta],
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> SyncReport {
    let (global, report) = plan_phi_delta(replicas, deltas, gpu, link, cfg);
    apply_payload(&global, replicas);
    report
}

/// Stores the merged global payload into every replica (a lone replica
/// already holds the sum).
fn apply_payload(global: &DeltaPayload, replicas: &[&PhiModel]) {
    if replicas.len() > 1 {
        for r in replicas {
            global.apply_to(r);
        }
    }
}

/// Models all three strategies for this iteration — the dense modes from
/// their closed cost formulas, delta from the actual encoded payload sizes
/// — and executes whichever is cheapest. The returned report's `mode`
/// records the choice; its seconds equal the best fixed mode's exactly,
/// because predictor and executor share the same cost helpers.
pub fn sync_phi_auto(
    replicas: &[&PhiModel],
    deltas: &[&PhiDelta],
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> SyncReport {
    assert!(!replicas.is_empty(), "no replicas to synchronize");
    let g = replicas.len();
    let e = cfg.phi_elem_bytes();
    let elements = replica_elements(replicas[0]);

    let tree = dense_tree_report(g, elements, gpu, link, e);
    let ring = dense_ring_report(g, elements, gpu, link, e);
    let (global, delta) = plan_phi_delta(replicas, deltas, gpu, link, cfg);

    let delta_s = delta.total_seconds();
    if delta_s <= tree.total_seconds() && delta_s <= ring.total_seconds() {
        apply_payload(&global, replicas);
        delta
    } else if ring.total_seconds() <= tree.total_seconds() {
        sync_phi_ring(replicas, gpu, link, cfg)
    } else {
        sync_phi_replicas(replicas, gpu, link, cfg)
    }
}

/// Synchronizes the replicas in `cfg.sync_mode` — the one dispatch the
/// trainer runs for every node. The Δϕ modes read each replica's own
/// dirty-row bitmap.
pub(crate) fn sync_phi(
    replicas: &[&PhiModel],
    gpu: &GpuSpec,
    link: &Link,
    cfg: &TrainerConfig,
) -> SyncReport {
    match cfg.sync_mode {
        SyncMode::DenseTree => sync_phi_replicas(replicas, gpu, link, cfg),
        SyncMode::DenseRing => sync_phi_ring(replicas, gpu, link, cfg),
        mode @ (SyncMode::Delta | SyncMode::Auto) => {
            let deltas: Vec<&PhiDelta> = replicas.iter().map(|r| r.phi.dirty()).collect();
            if mode == SyncMode::Delta {
                sync_phi_delta(replicas, &deltas, gpu, link, cfg)
            } else {
                sync_phi_auto(replicas, &deltas, gpu, link, cfg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_gpusim::Platform;
    use culda_sampler::Priors;

    fn replicas(g: usize) -> Vec<PhiModel> {
        replicas_sized(g, 4, 6)
    }

    fn replicas_sized(g: usize, topics: usize, vocab: usize) -> Vec<PhiModel> {
        (0..g)
            .map(|i| {
                let m = PhiModel::zeros(topics, vocab, Priors::paper(topics));
                // Distinct pattern per replica.
                for v in 0..vocab {
                    for k in 0..topics {
                        let c = ((i + 1) * (v * topics + k + 1) % 5) as u32;
                        if c > 0 {
                            m.phi.store(m.phi_index(v, k), c);
                            m.phi_sum.fetch_add(k, c);
                        }
                    }
                }
                m
            })
            .collect()
    }

    /// Sparse replicas: each GPU touched a few distinct rows.
    fn sparse_replicas(g: usize, topics: usize, vocab: usize) -> Vec<PhiModel> {
        (0..g)
            .map(|i| {
                let m = PhiModel::zeros(topics, vocab, Priors::paper(topics));
                for j in 0..4usize {
                    let v = (i * 7 + j * 13) % vocab;
                    let k = (i + j) % topics;
                    m.phi.store(m.phi_index(v, k), (i + j + 1) as u32);
                    m.phi_sum.fetch_add(k, (i + j + 1) as u32);
                }
                m
            })
            .collect()
    }

    fn deltas_for(reps: &[PhiModel]) -> Vec<PhiDelta> {
        reps.iter()
            .map(|r| {
                let d = PhiDelta::new(r.vocab_size);
                for v in 0..r.vocab_size {
                    if (0..r.num_topics).any(|k| r.phi.load(r.phi_index(v, k)) > 0) {
                        d.mark_row(v);
                    }
                }
                d
            })
            .collect()
    }

    fn cfg() -> TrainerConfig {
        TrainerConfig::builder(4, Platform::pascal())
            .build()
            .unwrap()
    }

    fn refs(reps: &[PhiModel]) -> Vec<&PhiModel> {
        reps.iter().collect()
    }

    fn delta_refs(ds: &[PhiDelta]) -> Vec<&PhiDelta> {
        ds.iter().collect()
    }

    #[test]
    fn all_replicas_hold_the_global_sum() {
        for g in [1usize, 2, 3, 4, 7, 8] {
            let reps = replicas(g);
            // Expected sums computed up front.
            let mut want = [0u64; 24];
            for r in &reps {
                for (slot, w) in want.iter_mut().enumerate() {
                    *w += r.phi.load(slot) as u64;
                }
            }
            let report = sync_phi_replicas(
                &refs(&reps),
                &Platform::pascal().gpu,
                &Link::pcie3(),
                &cfg(),
            );
            for r in &reps {
                for (slot, &w) in want.iter().enumerate() {
                    assert_eq!(r.phi.load(slot) as u64, w, "g={g} slot={slot}");
                }
                r.check_sums();
            }
            if g > 1 {
                assert_eq!(report.rounds, (g as f64).log2().ceil() as u32, "g={g}");
            }
        }
    }

    #[test]
    fn single_gpu_sync_is_free() {
        let reps = replicas(1);
        let r = sync_phi_replicas(&refs(&reps), &Platform::volta().gpu, &Link::pcie3(), &cfg());
        assert_eq!(r.total_seconds(), 0.0);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.bytes_moved, 0);
    }

    #[test]
    fn sync_cost_grows_logarithmically() {
        let gpu = Platform::pascal().gpu;
        let link = Link::pcie3();
        let t2 = sync_phi_replicas(&refs(&replicas(2)), &gpu, &link, &cfg()).total_seconds();
        let t4 = sync_phi_replicas(&refs(&replicas(4)), &gpu, &link, &cfg()).total_seconds();
        let t8 = sync_phi_replicas(&refs(&replicas(8)), &gpu, &link, &cfg()).total_seconds();
        assert!(t4 > t2 && t8 > t4);
        // log-depth: doubling GPUs adds one round, so cost is ~linear in
        // log G, not in G.
        assert!(
            (t4 - t2) < 1.6 * (t2 / 1.0),
            "t2={t2} t4={t4}: growth should be one extra round"
        );
        assert!((t8 - t4) - (t4 - t2) < 0.5 * (t4 - t2) + 1e-9);
    }

    #[test]
    fn ring_produces_the_same_sums_as_the_tree() {
        for g in [1usize, 2, 3, 4, 8] {
            let tree_reps = replicas(g);
            let ring_reps = replicas(g);
            sync_phi_replicas(
                &refs(&tree_reps),
                &Platform::pascal().gpu,
                &Link::pcie3(),
                &cfg(),
            );
            sync_phi_ring(
                &refs(&ring_reps),
                &Platform::pascal().gpu,
                &Link::pcie3(),
                &cfg(),
            );
            for (a, b) in tree_reps.iter().zip(&ring_reps) {
                assert_eq!(a.phi.snapshot(), b.phi.snapshot(), "g = {g}");
                assert_eq!(a.phi_sum.snapshot(), b.phi_sum.snapshot());
            }
        }
    }

    #[test]
    fn delta_produces_the_same_sums_as_the_tree() {
        for g in [1usize, 2, 3, 4, 7, 8] {
            let tree_reps = replicas(g);
            let delta_reps = replicas(g);
            let ds = deltas_for(&delta_reps);
            sync_phi_replicas(
                &refs(&tree_reps),
                &Platform::pascal().gpu,
                &Link::pcie3(),
                &cfg(),
            );
            let report = sync_phi_delta(
                &refs(&delta_reps),
                &delta_refs(&ds),
                &Platform::pascal().gpu,
                &Link::pcie3(),
                &cfg(),
            );
            for (a, b) in tree_reps.iter().zip(&delta_reps) {
                assert_eq!(a.phi.snapshot(), b.phi.snapshot(), "g = {g}");
                assert_eq!(a.phi_sum.snapshot(), b.phi_sum.snapshot(), "g = {g}");
            }
            assert_eq!(report.mode, SyncMode::Delta);
        }
    }

    #[test]
    fn delta_moves_an_order_of_magnitude_fewer_bytes_when_sparse() {
        let g = 4;
        let (topics, vocab) = (256, 2000);
        let c = TrainerConfig::builder(topics, Platform::pascal())
            .build()
            .unwrap();
        let gpu = Platform::pascal().gpu;
        let link = Link::pcie3();

        let dense_reps = sparse_replicas(g, topics, vocab);
        let tree = sync_phi_replicas(&refs(&dense_reps), &gpu, &link, &c);

        let delta_reps = sparse_replicas(g, topics, vocab);
        let ds = deltas_for(&delta_reps);
        let delta = sync_phi_delta(&refs(&delta_reps), &delta_refs(&ds), &gpu, &link, &c);

        assert!(
            delta.bytes_moved * 10 <= tree.bytes_moved,
            "delta {} vs dense {}",
            delta.bytes_moved,
            tree.bytes_moved
        );
        assert!(delta.compression_ratio() >= 10.0);
        assert_eq!(delta.dense_bytes, tree.bytes_moved);
        assert!(delta.nnz > 0 && delta.nnz < tree.nnz);
    }

    #[test]
    fn auto_matches_the_best_fixed_mode_exactly() {
        let gpu = Platform::pascal().gpu;
        let link = Link::pcie3();
        // Sparse model → delta should win; dense-ish model at G=8 → ring.
        type Maker = fn(usize, usize, usize) -> Vec<PhiModel>;
        let cases: [(usize, usize, usize, Maker); 2] = [
            (4, 256, 2000, sparse_replicas),
            (8, 64, 500, replicas_sized),
        ];
        for (g, topics, vocab, make) in cases {
            let c = TrainerConfig::builder(topics, Platform::pascal())
                .build()
                .unwrap();
            let fixed: Vec<f64> = vec![
                {
                    let reps = make(g, topics, vocab);
                    sync_phi_replicas(&refs(&reps), &gpu, &link, &c).total_seconds()
                },
                {
                    let reps = make(g, topics, vocab);
                    sync_phi_ring(&refs(&reps), &gpu, &link, &c).total_seconds()
                },
                {
                    let reps = make(g, topics, vocab);
                    let ds = deltas_for(&reps);
                    sync_phi_delta(&refs(&reps), &delta_refs(&ds), &gpu, &link, &c).total_seconds()
                },
            ];
            let best = fixed.iter().cloned().fold(f64::INFINITY, f64::min);

            let reps = make(g, topics, vocab);
            let ds = deltas_for(&reps);
            let auto = sync_phi_auto(&refs(&reps), &delta_refs(&ds), &gpu, &link, &c);
            assert!(
                auto.total_seconds() <= best,
                "auto {} > best fixed {best} (g={g})",
                auto.total_seconds()
            );

            // And the result is still the global sum.
            let oracle = make(g, topics, vocab);
            sync_phi_replicas(&refs(&oracle), &gpu, &link, &c);
            for (a, b) in oracle.iter().zip(&reps) {
                assert_eq!(a.phi.snapshot(), b.phi.snapshot());
            }
        }
    }
}
