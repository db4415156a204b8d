//! The fold-in inference kernel — the serving-path counterpart of
//! Algorithm 2.
//!
//! One thread block = one held-out document (WarpLDA's warp-per-document
//! decomposition applies directly to fold-in). The block Gibbs-samples the
//! document's topic assignments against a *frozen* ϕ: the model matrices
//! are strictly read-only — no atomics, no ϕ-update kernel, no replica
//! sync phase — and the only mutable state is the document's private θ
//! counter vector, which lives with the block.
//!
//! Each token draws from the exact conditional
//! `(θ_dk + α)·(n_wk + β)·inv_denom[k]` (token removed from θ) through the
//! SparseLDA three-bucket split — the serving form of the training
//! sampler's S/Q decomposition (Eqs. 6–8):
//!
//! ```text
//! q = Σ_{k ∈ nz(w)}   n_wk · coef[k]      coef[k] = (α + θ_dk)·inv_denom[k]
//! r = Σ_{k ∈ supp θ}  θ_dk · β · inv_denom[k]
//! s = Σ_k             α · β · inv_denom[k]      (a model constant)
//! ```
//!
//! `coef` is a dense per-document vector updated in `O(1)` whenever θ
//! changes, and θ's support is a swap-remove list with a position index.
//! One uniform picks the bucket and a prefix search picks the topic inside
//! it: an allocation-reused Figure 5 index tree over the `q` or `r`
//! weights, or the per-model [`Smoothing`] tree over `s`. A token costs
//! `O(nnz_w + K_d + log₃₂ K)` — its word's CSR cells, its document's topic
//! support and one smoothing-tree walk — never `O(K)`. The per-sweep
//! scorer splits the same way ([`log_predictive`]).
//!
//! The split changes the float association of the conditional and the
//! order topics are searched in, so posteriors are not bit-identical to a
//! dense per-token draw. They are the same distribution: unit tests match
//! the draw's histogram against Eq. 1 ([`crate::spq::exact_conditional`]),
//! and the serving tests pin held-out perplexity within 2% of the dense
//! fold-in's.
//!
//! Every document draws from its own deterministic RNG stream keyed by
//! `(seed, document stream id)`, so the inferred θ is bit-identical
//! regardless of micro-batch boundaries, worker count, or which simulated
//! GPU the document lands on.

use crate::butterfly::{butterfly_p1_cost, tree_p1_cost};
use crate::frozen::FrozenPhi;
use crate::mode::DrawMode;
use crate::model::LdaModel;
use crate::ptree::{IndexTree, DEFAULT_FANOUT};
use culda_corpus::Xoshiro256;
use culda_gpusim::{BlockCtx, Device, KernelSpec, LaunchPhase, LaunchReport, SimFault};
use std::sync::OnceLock;

/// Tuning for one inference launch.
#[derive(Debug, Clone, Copy)]
pub struct InferKernelConfig {
    /// Global RNG seed shared by the whole serving session.
    pub seed: u64,
    /// Gibbs sweeps discarded before θ accumulation starts.
    pub burnin: u32,
    /// Post-burn-in sweeps averaged into the θ estimate (0 = take the
    /// final sweep's counts).
    pub samples: u32,
    /// ϕ count cells loaded at 2 bytes (u16 precision compression) when
    /// true.
    pub compressed: bool,
    /// Cache θ, the bucket coefficients and the bucket scratch in shared
    /// memory when they fit (traffic accounting only; never changes the
    /// draw).
    pub use_shared_memory: bool,
    /// How the prefix search inside a selected `q` or `r` bucket is
    /// charged: the tree walk, the butterfly coalesced scan
    /// ([`crate::butterfly`]), or per-document auto (tree while the
    /// scratch is on-chip, butterfly once it spills). Traffic accounting
    /// only; never changes the draw.
    pub draw: DrawMode,
}

impl InferKernelConfig {
    /// Default configuration for a serving session with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            burnin: 8,
            samples: 4,
            compressed: true,
            use_shared_memory: true,
            draw: DrawMode::Tree,
        }
    }

    /// Total Gibbs sweeps per document.
    pub fn sweeps(&self) -> u32 {
        (self.burnin + self.samples).max(1)
    }
}

/// The per-model constants of the three-bucket split:
/// `inv_denom[k] = 1/(n_k + βV)` and the index tree over the smoothing
/// bucket's weights `α·β·inv_denom[k]`. Both depend on ϕ alone, so a
/// serving engine builds them once per model.
#[derive(Debug)]
pub struct Smoothing {
    inv_denom: Vec<f32>,
    s_tree: IndexTree,
}

impl Smoothing {
    /// Builds the constants of `phi` — `O(K)`.
    pub fn new(phi: &FrozenPhi) -> Self {
        let inv_denom = phi.inv_denominators();
        let alpha_beta = (phi.priors().alpha * phi.priors().beta) as f32;
        let weights: Vec<f32> = inv_denom.iter().map(|&inv| alpha_beta * inv).collect();
        Self {
            s_tree: IndexTree::build(&weights, DEFAULT_FANOUT),
            inv_denom,
        }
    }

    /// `inv_denom[k] = 1/(n_k + βV)`.
    pub fn inv_denom(&self) -> &[f32] {
        &self.inv_denom
    }
}

/// One document of a micro-batch handed to the kernel.
#[derive(Debug, Clone, Copy)]
pub struct InferDoc<'a> {
    /// Global document id — keys the RNG stream, so results are
    /// independent of batching and worker assignment.
    pub stream_id: u64,
    /// Token word ids (each `< V`).
    pub words: &'a [u32],
}

/// Per-document fold-in result.
#[derive(Debug, Clone, PartialEq)]
pub struct DocPosterior {
    /// Accumulated post-burn-in topic counts (sum over `samples` sweeps;
    /// the final sweep's counts when `samples == 0`).
    pub theta_acc: Vec<u64>,
    /// Number of sweeps accumulated into `theta_acc` (≥ 1).
    pub acc_sweeps: u32,
    /// After each sweep `s`, the document's log-predictive under the
    /// running-average θ over sweeps `0..=s` — the burn-in curve.
    pub sweep_log_predictive: Vec<f64>,
}

impl DocPosterior {
    /// Normalized posterior topic mixture `θ̂` (sums to 1).
    pub fn theta(&self, doc_len: usize, alpha: f64, num_topics: usize) -> Vec<f64> {
        mixture(&self.theta_acc, self.acc_sweeps, doc_len, alpha, num_topics)
    }
}

/// `θ̂_k = (acc_k / sweeps + α) / (doc_len + αK)` — the smoothed average of
/// topic counts accumulated over `sweeps` sweeps.
fn mixture(acc: &[u64], sweeps: u32, doc_len: usize, alpha: f64, num_topics: usize) -> Vec<f64> {
    let denom = doc_len as f64 + alpha * num_topics as f64;
    acc.iter()
        .map(|&c| (c as f64 / sweeps as f64 + alpha) / denom)
        .collect()
}

/// One document's topic state: dense counts θ, their support as a
/// swap-remove list with a position index, and the `q`-bucket
/// coefficients `coef[k] = (α + θ_k)·inv_denom[k]`. Every update is `O(1)`.
struct DocTopics<'a> {
    inv_denom: &'a [f32],
    alpha: f32,
    theta: Vec<u32>,
    coef: Vec<f32>,
    /// Topics with `θ_k > 0`, in no particular order.
    support: Vec<u16>,
    /// `support[pos[k]] == k` for every `k` in the support.
    pos: Vec<u16>,
}

impl<'a> DocTopics<'a> {
    /// An empty document: θ = 0 and `coef[k] = α·inv_denom[k]`.
    fn new(inv_denom: &'a [f32], alpha: f32) -> Self {
        Self {
            inv_denom,
            alpha,
            theta: vec![0; inv_denom.len()],
            coef: inv_denom.iter().map(|&inv| alpha * inv).collect(),
            support: Vec::new(),
            pos: vec![0; inv_denom.len()],
        }
    }

    fn add(&mut self, t: usize) {
        if self.theta[t] == 0 {
            self.pos[t] = self.support.len() as u16;
            self.support.push(t as u16);
        }
        self.theta[t] += 1;
        self.coef[t] = (self.alpha + self.theta[t] as f32) * self.inv_denom[t];
    }

    fn remove(&mut self, t: usize) {
        self.theta[t] -= 1;
        if self.theta[t] == 0 {
            let i = self.pos[t] as usize;
            self.support.swap_remove(i);
            if let Some(&moved) = self.support.get(i) {
                self.pos[moved as usize] = i as u16;
            }
        }
        self.coef[t] = (self.alpha + self.theta[t] as f32) * self.inv_denom[t];
    }
}

/// The bucket a three-bucket draw landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Q,
    R,
    S,
}

/// One token's draw plus what its traffic charge needs: the bucket, that
/// bucket's length, and the `(shared, leaf)` touch counts of its walk.
struct Draw {
    topic: usize,
    bucket: Bucket,
    len: usize,
    sh_touch: usize,
    leaf_touch: usize,
}

/// Allocation-reused per-document scratch: the `q` and `r` bucket weights
/// and the tree that searches whichever of them a draw selects.
struct BucketScratch {
    q: Vec<f32>,
    r: Vec<f32>,
    tree: IndexTree,
}

impl BucketScratch {
    fn new() -> Self {
        Self {
            q: Vec::new(),
            r: Vec::new(),
            tree: IndexTree::build(&[1.0f32], DEFAULT_FANOUT),
        }
    }
}

/// Draws a topic for a token of the word with CSR `cells`, its own count
/// already removed from `doc`, from one uniform `u ∈ [0, 1)`:
/// `u·(r + q + s)` picks the bucket, then the same scaled value, less the
/// buckets before it, walks the selected bucket's prefix tree.
fn draw_topic(
    doc: &DocTopics<'_>,
    cells: &[(u16, u32)],
    smoothing: &Smoothing,
    beta: f32,
    u: f32,
    scratch: &mut BucketScratch,
) -> Draw {
    scratch.q.clear();
    let mut q = 0.0f32;
    for &(t, c) in cells {
        let w = c as f32 * doc.coef[t as usize];
        scratch.q.push(w);
        q += w;
    }
    scratch.r.clear();
    let mut r = 0.0f32;
    for &t in &doc.support {
        let w = doc.theta[t as usize] as f32 * beta * doc.inv_denom[t as usize];
        scratch.r.push(w);
        r += w;
    }
    let s_tree = &smoothing.s_tree;
    let mut x = u * (r + q + s_tree.total());
    // Buckets are searched r, q, s. The smoothing bucket goes last: its
    // mass is always positive, so a scaled uniform that rounds past the
    // sum of the other two never selects an empty bucket.
    let (bucket, weights) = if x < r {
        (Bucket::R, &scratch.r)
    } else if x - r < q {
        x -= r;
        (Bucket::Q, &scratch.q)
    } else {
        let (topic, sh_touch, leaf_touch) = s_tree.sample_scaled(x - r - q);
        return Draw {
            topic,
            bucket: Bucket::S,
            len: s_tree.len(),
            sh_touch,
            leaf_touch,
        };
    };
    scratch.tree.rebuild(weights);
    let (i, sh_touch, leaf_touch) = scratch.tree.sample_scaled(x);
    let topic = match bucket {
        Bucket::Q => cells[i].0 as usize,
        _ => doc.support[i] as usize,
    };
    Draw {
        topic,
        bucket,
        len: weights.len(),
        sh_touch,
        leaf_touch,
    }
}

/// The shared fold-in math: kernel body and host oracle run this exact
/// code, differing only in whether traffic is charged to a [`BlockCtx`].
fn fold_in_doc(
    phi: &FrozenPhi,
    smoothing: &Smoothing,
    doc: &InferDoc<'_>,
    cfg: &InferKernelConfig,
    mut ctx: Option<&mut BlockCtx>,
) -> DocPosterior {
    let k = phi.num_topics();
    let alpha = phi.priors().alpha as f32;
    let beta = phi.priors().beta as f32;
    // A CSR cell is a u16 topic index plus its count.
    let cell_bytes = 2 + if cfg.compressed { 2 } else { 4 };
    let sweeps = cfg.sweeps();
    let first_acc = sweeps.saturating_sub(cfg.samples.max(1));

    // θ + coefficients + bucket scratch in shared memory when they fit.
    let shared_ok = cfg.use_shared_memory
        && ctx
            .as_deref()
            .is_some_and(|c| c.shared.fits::<f32>(2 * k + k / 16 + 64));
    // Serving auto rule mirrors the training kernel's: the tree walk while
    // the bucket scratch lives on-chip, the butterfly coalesced scan once
    // it spills. Charging only — the draw below never branches on it.
    let draw = match cfg.draw {
        DrawMode::Auto if shared_ok => DrawMode::Tree,
        DrawMode::Auto => DrawMode::Butterfly,
        fixed => fixed,
    };

    let mut topics = DocTopics::new(smoothing.inv_denom(), alpha);
    let mut z: Vec<u16> = Vec::with_capacity(doc.words.len());
    let mut rng = Xoshiro256::from_seed_stream(cfg.seed, doc.stream_id);
    for &w in doc.words {
        debug_assert!((w as usize) < phi.vocab_size(), "word id out of vocab");
        let t = rng.next_below(k as u32) as u16;
        topics.add(t as usize);
        z.push(t);
    }
    if let Some(c) = ctx.as_deref_mut() {
        // Random init: one θ bump + one z write per token.
        if shared_ok {
            c.shared_access(doc.words.len() * 4);
        }
        c.dram_write(doc.words.len() * 2);
    }

    let mut scratch = BucketScratch::new();
    let mut run_acc = vec![0u64; k];
    let mut theta_acc = vec![0u64; k];
    let mut acc_sweeps = 0u32;
    let mut sweep_log_predictive = Vec::with_capacity(sweeps as usize);
    let doc_nnz: usize = doc
        .words
        .iter()
        .map(|&w| phi.counts().row_cells(w as usize).len())
        .sum();

    for sweep in 0..sweeps {
        for (i, &w) in doc.words.iter().enumerate() {
            topics.remove(z[i] as usize);
            let cells = phi.counts().row_cells(w as usize);
            let kd = topics.support.len();
            let d = draw_topic(
                &topics,
                cells,
                smoothing,
                beta,
                rng.next_f32(),
                &mut scratch,
            );
            z[i] = d.topic as u16;
            topics.add(d.topic);
            if let Some(c) = ctx.as_deref_mut() {
                // The word's CSR cells stream from DRAM; the θ support
                // (topic + count + inv_denom) and one coefficient per cell
                // are on-chip. One mul + one add per bucket weight.
                c.dram_read(cells.len() * cell_bytes);
                let onchip = kd * (2 + 4 + 4) + cells.len() * 4;
                if shared_ok {
                    c.shared_access(onchip);
                } else {
                    c.dram_read(onchip);
                }
                c.flop(2 * (cells.len() + kd));
                if d.bucket == Bucket::S {
                    // Smoothing-tree walk, charged like the training
                    // kernel's `p2` walk over its block-shared tree.
                    let walk = (d.sh_touch + d.leaf_touch) * 4;
                    if shared_ok {
                        c.shared_access(walk);
                    } else {
                        c.dram_read(walk);
                    }
                } else {
                    // Prefix search over the selected bucket, charged like
                    // a training `p1` draw over that many weights.
                    let dc = match draw {
                        DrawMode::Butterfly => butterfly_p1_cost(d.len, shared_ok),
                        _ => tree_p1_cost(d.len, d.sh_touch, d.leaf_touch, shared_ok),
                    };
                    c.dram_read(dc.dram_read);
                    c.dram_write(dc.dram_write);
                    c.shared_access(dc.shared);
                    c.flop(dc.flops + d.len); // + prefix-sum adds
                }
                c.dram_write(2);
            }
        }
        for (slot, &th) in run_acc.iter_mut().zip(&topics.theta) {
            *slot += th as u64;
        }
        if sweep >= first_acc {
            for (slot, &th) in theta_acc.iter_mut().zip(&topics.theta) {
                *slot += th as u64;
            }
            acc_sweeps += 1;
        }
        sweep_log_predictive.push(log_predictive(
            phi,
            smoothing,
            doc.words,
            &mixture(&run_acc, sweep + 1, doc.words.len(), phi.priors().alpha, k),
        ));
        if let Some(c) = ctx.as_deref_mut() {
            // Scoring pass: the K-wide `g` vector once, then one
            // multiply-add per CSR cell of every token.
            c.flop(2 * k + 2 * doc_nnz);
        }
    }

    DocPosterior {
        theta_acc,
        acc_sweeps: acc_sweeps.max(1),
        sweep_log_predictive,
    }
}

/// Log-predictive `Σ_w ln Σ_k θ̂_k · p(w|k)` of `words` under the mixture
/// `theta_hat`, in f64 for scoring accuracy — the one scorer behind both
/// the per-sweep burn-in curve and the served per-document figure.
///
/// With `g_k = θ̂_k · inv_denom[k]` computed once per call, a token's
/// probability splits like the draw:
/// `p_w = β·Σ_k g_k + Σ_{k ∈ nz(w)} n_wk · g_k`, so each token costs
/// `O(nnz_w)`.
pub fn log_predictive(
    phi: &FrozenPhi,
    smoothing: &Smoothing,
    words: &[u32],
    theta_hat: &[f64],
) -> f64 {
    let g: Vec<f64> = theta_hat
        .iter()
        .zip(smoothing.inv_denom())
        .map(|(&th, &inv)| th * inv as f64)
        .collect();
    let smooth = phi.priors().beta * g.iter().sum::<f64>();
    let mut ll = 0.0f64;
    for &w in words {
        let p = smooth
            + phi
                .counts()
                .row_cells(w as usize)
                .iter()
                .map(|&(t, c)| c as f64 * g[t as usize])
                .sum::<f64>();
        ll += p.max(f64::MIN_POSITIVE).ln();
    }
    ll
}

/// Launches the fold-in kernel for one micro-batch on `device`: one block
/// per document, ϕ strictly read-only. Returns per-document posteriors in
/// input order plus the launch report.
///
/// Panics on a simulated fault; resilient callers use
/// [`try_run_infer_kernel`].
pub fn run_infer_kernel(
    device: &Device,
    phi: &FrozenPhi,
    smoothing: &Smoothing,
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> (Vec<DocPosterior>, LaunchReport) {
    try_run_infer_kernel(device, phi, smoothing, docs, cfg)
        .unwrap_or_else(|f| panic!("unrecoverable simulated fault: {f}"))
}

/// Fallible fold-in launch. ϕ is read-only and posteriors are derived from
/// per-document RNG streams, so a failed micro-batch can be re-run on any
/// device with bit-identical results.
pub fn try_run_infer_kernel(
    device: &Device,
    phi: &FrozenPhi,
    smoothing: &Smoothing,
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> Result<(Vec<DocPosterior>, LaunchReport), SimFault> {
    assert!(!docs.is_empty(), "empty inference micro-batch");
    assert_eq!(
        smoothing.inv_denom.len(),
        phi.num_topics(),
        "smoothing size"
    );
    let slots: Vec<OnceLock<DocPosterior>> = docs.iter().map(|_| OnceLock::new()).collect();
    let spec = KernelSpec::new("lda_infer", docs.len() as u32).with_phase(LaunchPhase::Inference);
    let report = device.try_launch_spec(spec, |ctx: &mut BlockCtx| {
        let b = ctx.block_id as usize;
        let posterior = fold_in_doc(phi, smoothing, &docs[b], cfg, Some(ctx));
        assert!(slots[b].set(posterior).is_ok(), "block ran twice");
    })?;
    let out = slots
        .into_iter()
        .map(|s| s.into_inner().expect("block skipped a document"))
        .collect();
    Ok((out, report))
}

/// Host-side oracle: the exact posteriors the kernel must produce, using
/// the same RNG streams and bucket code but no device and no concurrency.
pub fn infer_reference(
    phi: &FrozenPhi,
    smoothing: &Smoothing,
    docs: &[InferDoc<'_>],
    cfg: &InferKernelConfig,
) -> Vec<DocPosterior> {
    docs.iter()
        .map(|d| fold_in_doc(phi, smoothing, d, cfg, None))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::Priors;
    use crate::model::{accumulate_phi_host, ChunkState, PhiModel};
    use crate::spq::exact_conditional;
    use culda_corpus::{partition_by_tokens, SortedChunk, SynthSpec};
    use culda_gpusim::GpuSpec;

    fn trained_phi() -> (FrozenPhi, Vec<Vec<u32>>) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 12, 5);
        let phi = PhiModel::zeros(12, corpus.vocab_size(), Priors::paper(12));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let docs: Vec<Vec<u32>> = corpus
            .docs
            .iter()
            .take(9)
            .map(|d| d.words.clone())
            .collect();
        (FrozenPhi::from_phi(phi), docs)
    }

    fn as_infer_docs(docs: &[Vec<u32>]) -> Vec<InferDoc<'_>> {
        docs.iter()
            .enumerate()
            .map(|(i, d)| InferDoc {
                stream_id: i as u64,
                words: d,
            })
            .collect()
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        let (phi, docs) = trained_phi();
        let smoothing = Smoothing::new(&phi);
        let cfg = InferKernelConfig::new(42);
        let batch = as_infer_docs(&docs);
        let expected = infer_reference(&phi, &smoothing, &batch, &cfg);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let (got, report) = run_infer_kernel(&dev, &phi, &smoothing, &batch, &cfg);
        assert_eq!(got, expected);
        assert!(report.sim_seconds > 0.0);
    }

    #[test]
    fn draw_modes_change_traffic_but_not_posteriors() {
        let (phi, docs) = trained_phi();
        let smoothing = Smoothing::new(&phi);
        let batch = as_infer_docs(&docs);
        let base = InferKernelConfig::new(42);
        let expected = infer_reference(&phi, &smoothing, &batch, &base);
        let mut traffic = Vec::new();
        for draw in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
            let mut cfg = base;
            cfg.draw = draw;
            let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
            let (got, report) = run_infer_kernel(&dev, &phi, &smoothing, &batch, &cfg);
            assert_eq!(got, expected, "draw={draw} changed posteriors");
            traffic.push(report.cost.shared_bytes + report.cost.dram_bytes());
        }
        // The butterfly charges a different traffic mix than the walk.
        assert_ne!(traffic[0], traffic[1]);
    }

    #[test]
    fn result_is_independent_of_batch_split_and_workers() {
        let (phi, docs) = trained_phi();
        let smoothing = Smoothing::new(&phi);
        let cfg = InferKernelConfig::new(7);
        let batch = as_infer_docs(&docs);
        let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(3);
        let (whole, _) = run_infer_kernel(&dev, &phi, &smoothing, &batch, &cfg);
        // Same documents split across two launches on a different device:
        // per-document RNG streams make the split invisible.
        let dev2 = Device::new(1, GpuSpec::titan_x_maxwell()).with_workers(1);
        let (mut a, _) = run_infer_kernel(&dev2, &phi, &smoothing, &batch[..4], &cfg);
        let (b, _) = run_infer_kernel(&dev2, &phi, &smoothing, &batch[4..], &cfg);
        a.extend(b);
        assert_eq!(whole, a);
    }

    #[test]
    fn theta_is_normalized_and_positive() {
        let (phi, docs) = trained_phi();
        let smoothing = Smoothing::new(&phi);
        let cfg = InferKernelConfig::new(3);
        let batch = as_infer_docs(&docs);
        let post = infer_reference(&phi, &smoothing, &batch, &cfg);
        for (p, d) in post.iter().zip(&docs) {
            let theta = p.theta(d.len(), phi.priors().alpha, phi.num_topics());
            let sum: f64 = theta.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "theta sums to {sum}");
            assert!(theta.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn model_is_untouched_by_inference() {
        let (phi, docs) = trained_phi();
        let smoothing = Smoothing::new(&phi);
        let counts = |m: &FrozenPhi| {
            let rows: Vec<_> = (0..m.vocab_size()).map(|w| m.row_nonzeros(w)).collect();
            let totals: Vec<_> = (0..m.num_topics()).map(|t| m.topic_total(t)).collect();
            (rows, totals)
        };
        let before = counts(&phi);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        let batch = as_infer_docs(&docs);
        run_infer_kernel(&dev, &phi, &smoothing, &batch, &InferKernelConfig::new(1));
        assert_eq!(before, counts(&phi), "inference must leave ϕ frozen");
    }

    #[test]
    fn empty_document_yields_uniform_theta() {
        let (phi, _) = trained_phi();
        let smoothing = Smoothing::new(&phi);
        let empty: Vec<u32> = Vec::new();
        let batch = [InferDoc {
            stream_id: 0,
            words: &empty,
        }];
        let post = infer_reference(&phi, &smoothing, &batch, &InferKernelConfig::new(9));
        let theta = post[0].theta(0, phi.priors().alpha, phi.num_topics());
        let expect = 1.0 / phi.num_topics() as f64;
        assert!(theta.iter().all(|&x| (x - expect).abs() < 1e-12));
        assert!(post[0].sweep_log_predictive.iter().all(|&l| l == 0.0));
    }

    /// A K-topic model over 6 words: word 0 has no counts (a held-out
    /// word never seen in training), word 1 has a count in every topic,
    /// and words 2.. hold K/4 scattered counts each. The priors are large
    /// enough that all three buckets carry visible mass.
    fn bucket_model(k: usize) -> PhiModel {
        let phi = PhiModel::zeros(k, 6, Priors::new(0.4, 0.2));
        let put = |w: usize, t: usize, c: u32| {
            phi.phi.add(w, t, c);
            phi.phi_sum.fetch_add(t, c);
        };
        for t in 0..k {
            put(1, t, 1 + (t % 5) as u32);
        }
        for w in 2..6 {
            for j in 0..k / 4 {
                put(w, (j * 7 + w * 3) % k, 1 + ((j + w) % 9) as u32);
            }
        }
        phi
    }

    /// Drives the three-bucket draw for a token of `word` (already removed
    /// from the document's counts `theta`) with `n` seeded uniforms, and
    /// checks the histogram against Eq. 1: every topic within 5σ (+1 for
    /// rounding of tiny expectations) of its binomial expectation, and
    /// Pearson's χ² within 6σ of its K − 1 degrees of freedom.
    fn assert_draw_matches_exact(phi: &PhiModel, theta: &[u32], word: usize, n: usize, case: &str) {
        let frozen = FrozenPhi::freeze(phi);
        let smoothing = Smoothing::new(&frozen);
        let mut doc = DocTopics::new(smoothing.inv_denom(), phi.priors.alpha as f32);
        // Reach θ through removals as well as additions: one surplus token
        // in every held topic and every even one, removed again, so empty
        // even topics leave the support through the swap-remove while
        // empty odd ones keep their initial coefficients.
        let touched = |t: usize| theta[t] > 0 || t.is_multiple_of(2);
        for t in (0..theta.len()).filter(|&t| touched(t)) {
            for _ in 0..=theta[t] {
                doc.add(t);
            }
        }
        for t in (0..theta.len()).filter(|&t| touched(t)) {
            doc.remove(t);
        }
        let cells = frozen.counts().row_cells(word);
        let mut scratch = BucketScratch::new();
        let mut rng = Xoshiro256::from_seed_stream(11, word as u64);
        let mut hist = vec![0usize; theta.len()];
        let mut hit = [false; 3];
        for _ in 0..n {
            let u = rng.next_f32();
            let d = draw_topic(
                &doc,
                cells,
                &smoothing,
                phi.priors.beta as f32,
                u,
                &mut scratch,
            );
            hist[d.topic] += 1;
            hit[d.bucket as usize] = true;
        }
        // An empty row never selects q, an empty support never selects r.
        let want = [!cells.is_empty(), !doc.support.is_empty(), true];
        assert_eq!(hit, want, "{case}: buckets hit (q, r, s)");

        let exact = exact_conditional(theta, phi, word, smoothing.inv_denom());
        let mass: f64 = exact.iter().sum();
        let mut chi2 = 0.0;
        for (t, (&got, &w)) in hist.iter().zip(&exact).enumerate() {
            let p = w / mass;
            let expect = n as f64 * p;
            let sd = (expect * (1.0 - p)).sqrt();
            assert!(
                (got as f64 - expect).abs() <= 5.0 * sd + 1.0,
                "{case}: topic {t} drawn {got} times, expected {expect:.1}"
            );
            chi2 += (got as f64 - expect).powi(2) / expect;
        }
        let dof = (theta.len() - 1) as f64;
        assert!(
            chi2 < dof + 6.0 * (2.0 * dof).sqrt(),
            "{case}: chi2 = {chi2:.1} over {dof} degrees of freedom"
        );
    }

    #[test]
    fn three_bucket_draw_matches_exact_conditional() {
        for (k, n) in [(16usize, 200_000usize), (1024, 200_000)] {
            let phi = bucket_model(k);
            let mut theta = vec![0u32; k];
            for (t, c) in [(0, 2), (3, 1), (k / 2, 5), (k - 1, 3)] {
                theta[t] = c;
            }
            // A one-token document: removing its token empties θ.
            let one_token = vec![0u32; k];
            for (case, word, th) in [
                ("scattered row", 2, &theta),
                ("empty row", 0, &theta),
                ("nnz = K row", 1, &theta),
                ("empty θ support", 3, &one_token),
            ] {
                assert_draw_matches_exact(&phi, th, word, n, &format!("K = {k}, {case}"));
            }
        }
    }
}
