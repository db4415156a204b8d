//! The sparsity-aware S/Q decomposition with sub-expression reuse
//! (Eqs. 6–8, Section 6.1).
//!
//! For a token of word `v` in document `d`, the CGS conditional decomposes
//! into a sparse part driven by θ's non-zeros and a dense smoothing part:
//!
//! ```text
//! p*(k) = (ϕ_{k,v} + β) / (n_k + βV)          (shared sub-expression)
//! p1(k) = θ_{d,k} · p*(k)      (sparse: K_d non-zeros)
//! p2(k) = α · p*(k)            (dense: K entries, same for every token of v)
//! S = Σ p1,  Q = Σ p2 = α · Σ p*(k)
//! ```
//!
//! Draw `u ~ U(0,1)`: with probability `S/(S+Q)` sample from `p1`,
//! otherwise from `p2`. Because `p2` is a scalar multiple of `p*`, one
//! index tree over `p*` serves both `Q` and the `p2` draw — the
//! "sub-expression reuse" of Section 6.1.3 in its strongest form.

use crate::butterfly::ButterflyBatch;
use crate::model::PhiModel;
use crate::ptree::{IndexTree, DEFAULT_FANOUT};
use culda_corpus::Xoshiro256;

/// Fills `out[k] = (ϕ_{k,v} + β) · inv_denom[k]` for word `v`.
/// `inv_denom[k] = 1/(n_k + βV)` is precomputed once per iteration.
pub fn compute_pstar(phi: &PhiModel, word: usize, inv_denom: &[f32], out: &mut [f32]) {
    let k = phi.num_topics;
    assert_eq!(out.len(), k);
    assert_eq!(inv_denom.len(), k);
    // Delegates to the hybrid layout's smoothed read, which is bit-
    // identical whether the row is physically sparse or dense.
    phi.phi
        .fill_smoothed(word, phi.priors.beta as f32, inv_denom, out);
}

/// Builds the block-shared tree over `p*(k)` (serves `p2` and `Q`).
pub fn pstar_tree(pstar: &[f32]) -> IndexTree {
    IndexTree::build(pstar, DEFAULT_FANOUT)
}

/// `Q = α · Σ p*(k)`, given the tree's total.
pub fn q_mass(alpha: f32, pstar_total: f32) -> f32 {
    alpha * pstar_total
}

/// Computes the sparse `p1` weights for one token's document:
/// `w_i = θ_vals[i] · p*(θ_cols[i])`. Returns `S = Σ w_i`.
/// `weights` must have room for `θ_cols.len()` entries.
pub fn p1_weights(
    theta_cols: &[u16],
    theta_vals: &[u32],
    pstar: &[f32],
    weights: &mut Vec<f32>,
) -> f32 {
    debug_assert_eq!(theta_cols.len(), theta_vals.len());
    weights.clear();
    let mut s = 0.0f32;
    for (&c, &n) in theta_cols.iter().zip(theta_vals) {
        let w = n as f32 * pstar[c as usize];
        weights.push(w);
        s += w;
    }
    s
}

/// Writes the inclusive `p1` prefix of one token's document into
/// `prefix`: `prefix[i] = Σ_{j ≤ i} θ_vals[j] · p*(θ_cols[j])`, accumulated
/// serially in f32 — the exact leaves [`IndexTree::rebuild`] would store
/// over [`p1_weights`]' output. Returns `S`, the last entry (0 for an
/// empty row).
pub fn p1_prefix(
    theta_cols: &[u16],
    theta_vals: &[u32],
    pstar: &[f32],
    prefix: &mut Vec<f32>,
) -> f32 {
    debug_assert_eq!(theta_cols.len(), theta_vals.len());
    prefix.clear();
    let mut s = 0.0f32;
    for (&c, &n) in theta_cols.iter().zip(theta_vals) {
        s += n as f32 * pstar[c as usize];
        prefix.push(s);
    }
    s
}

/// One warp-sampler's `p1` distribution across a *run*: consecutive
/// tokens of the block's word that share a document see the same θ row
/// and the same block-shared `p*`, so their prefix, `S` and draw-engine
/// contents are identical — only their RNG streams differ (Section 6.1.3's
/// sub-expression reuse, one level down from "same word" to "same (word,
/// document)"). The prefix is built once per run, and the engine is
/// filled at most once, at the run's first `p1` draw: a run whose draws
/// all take `p2` never fills it, and a run whose first draw takes `p2`
/// still fills it before its first `p1` draw.
#[derive(Debug, Default)]
pub struct P1Run {
    doc: Option<usize>,
    s: f32,
    prefix: Vec<f32>,
    engine_filled: bool,
}

impl P1Run {
    /// A run cache holding no document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the cached run: the next [`enter`](Self::enter) rebuilds.
    /// Called when a new warp-sampler starts, whose engine slot holds
    /// another sampler's distribution.
    pub fn reset(&mut self) {
        self.doc = None;
    }

    /// Enters the token's document and returns its `S`. The prefix is
    /// rebuilt only when `doc` differs from the previous token's.
    pub fn enter(
        &mut self,
        doc: usize,
        theta_cols: &[u16],
        theta_vals: &[u32],
        pstar: &[f32],
    ) -> f32 {
        if self.doc != Some(doc) {
            self.s = p1_prefix(theta_cols, theta_vals, pstar, &mut self.prefix);
            self.doc = Some(doc);
            self.engine_filled = false;
        }
        self.s
    }

    /// A `p1` draw at `x ∈ [0, S)` through a private index tree, filling
    /// the tree from the run's prefix on the run's first `p1` draw.
    /// Returns the θ-row index and the walk's (shared, leaf) touches.
    pub fn sample_tree(&mut self, tree: &mut IndexTree, x: f32) -> (usize, usize, usize) {
        if !self.engine_filled {
            tree.rebuild_from_prefix(&self.prefix);
            self.engine_filled = true;
        }
        tree.sample_scaled(x)
    }

    /// A `p1` draw at `x ∈ [0, S)` through lane `lane` of a butterfly
    /// batch, filling the lane on the run's first `p1` draw. Returns the
    /// θ-row index.
    pub fn sample_butterfly(&mut self, batch: &mut ButterflyBatch, lane: usize, x: f32) -> usize {
        if !self.engine_filled {
            batch.set_lane_prefix(lane, &self.prefix);
            self.engine_filled = true;
        }
        batch.select(lane, x)
    }
}

/// One token's draw: its topic, the walk's (shared, leaf) touch counts for
/// traffic accounting, and whether the sparse `p1` branch was taken (the
/// warp-divergent decision).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenDraw {
    /// Sampled topic.
    pub topic: u16,
    /// Upper-level tree nodes the walk scanned.
    pub sh_touch: usize,
    /// Leaf entries the walk scanned.
    pub leaf_touch: usize,
    /// Whether the sparse `p1` component was drawn from.
    pub took_p1: bool,
}

/// The S/Q branch and draw rule of Algorithm 2 — one function shared by
/// the sampling kernel, its host oracle and the partition-by-word trainer.
/// Takes the token's two uniforms from `rng`. With probability `S/(S+Q)`,
/// `Q = α·Σp*`, it calls `p1` with a position in `[0, S)`; `p1` returns
/// a θ-row index plus its walk's touches, mapped here to a topic.
/// Otherwise it walks the block-shared `p*` tree.
#[inline]
pub fn draw_token(
    s: f32,
    theta_cols: &[u16],
    pstar_tree: &IndexTree,
    alpha: f32,
    rng: &mut Xoshiro256,
    p1: impl FnOnce(f32) -> (usize, usize, usize),
) -> TokenDraw {
    let q = q_mass(alpha, pstar_tree.total());
    let u_branch = rng.next_f32();
    let u_inner = rng.next_f32();
    if s > 0.0 && u_branch < s / (s + q) {
        let (idx, sh_touch, leaf_touch) = p1(u_inner * s);
        TokenDraw {
            topic: theta_cols[idx],
            sh_touch,
            leaf_touch,
            took_p1: true,
        }
    } else {
        let (k, sh_touch, leaf_touch) = pstar_tree.sample_scaled(u_inner * pstar_tree.total());
        TokenDraw {
            topic: k as u16,
            sh_touch,
            leaf_touch,
            took_p1: false,
        }
    }
}

/// One full token draw, given two uniforms — the scalar reference for the
/// warp kernel (Algorithm 2). Returns the sampled topic.
///
/// * `u_branch` selects between `p1` (mass `S`) and `p2` (mass `Q`);
/// * `u_inner` positions the draw inside the selected component.
///
/// Degenerate documents with `S = 0` (empty θ row — cannot happen for a
/// real token, whose own document is non-empty, but kept total for safety)
/// fall through to `p2`.
pub fn sample_token_reference(
    theta_cols: &[u16],
    theta_vals: &[u32],
    pstar: &[f32],
    alpha: f32,
    u_branch: f32,
    u_inner: f32,
) -> u16 {
    let mut weights = Vec::with_capacity(theta_cols.len());
    let s = p1_weights(theta_cols, theta_vals, pstar, &mut weights);
    let pstar_total: f32 = pstar.iter().sum();
    let q = q_mass(alpha, pstar_total);
    debug_assert!(q > 0.0, "Q must be positive (beta > 0)");
    if s > 0.0 && u_branch < s / (s + q) {
        // Linear scan over the sparse component.
        let x = u_inner * s;
        let mut acc = 0.0f32;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            if x < acc {
                return theta_cols[i];
            }
        }
        theta_cols[theta_cols.len() - 1]
    } else {
        // Dense component ∝ p*(k).
        let x = u_inner * pstar_total;
        let mut acc = 0.0f32;
        for (k, &p) in pstar.iter().enumerate() {
            acc += p;
            if x < acc {
                return k as u16;
            }
        }
        (pstar.len() - 1) as u16
    }
}

/// The same draw through the index trees — what the GPU kernel executes.
/// Must agree with [`sample_token_reference`] for identical uniforms
/// (tested exhaustively and by property tests).
pub fn sample_token_tree(
    theta_cols: &[u16],
    theta_vals: &[u32],
    pstar_tree: &IndexTree,
    pstar: &[f32],
    alpha: f32,
    u_branch: f32,
    u_inner: f32,
) -> u16 {
    let mut weights = Vec::with_capacity(theta_cols.len());
    let s = p1_weights(theta_cols, theta_vals, pstar, &mut weights);
    let q = q_mass(alpha, pstar_tree.total());
    if s > 0.0 && u_branch < s / (s + q) {
        let p1_tree = IndexTree::build(&weights, DEFAULT_FANOUT);
        let (idx, _, _) = p1_tree.sample_scaled(u_inner * s);
        theta_cols[idx]
    } else {
        let (k, _, _) = pstar_tree.sample_scaled(u_inner * pstar_tree.total());
        k as u16
    }
}

/// Unnormalized exact conditional `p(k) ∝ (θ_{d,k} + α)(ϕ_{k,v} + β)/(n_k + βV)`
/// evaluated densely — Eq. 1, the ground truth both samplers must follow in
/// distribution. Used by statistical tests.
pub fn exact_conditional(
    theta_dense: &[u32],
    phi: &PhiModel,
    word: usize,
    inv_denom: &[f32],
) -> Vec<f64> {
    let k = phi.num_topics;
    assert_eq!(theta_dense.len(), k);
    let alpha = phi.priors.alpha;
    let beta = phi.priors.beta;
    (0..k)
        .map(|t| {
            (theta_dense[t] as f64 + alpha)
                * (phi.phi.get(word, t) as f64 + beta)
                * inv_denom[t] as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::Priors;

    fn small_model() -> PhiModel {
        let phi = PhiModel::zeros(4, 3, Priors::new(0.5, 0.1));
        // Word 0 counts per topic: [3, 0, 1, 0]; word 1: [0, 2, 0, 0].
        phi.phi.store(phi.phi_index(0, 0), 3);
        phi.phi.store(phi.phi_index(0, 2), 1);
        phi.phi.store(phi.phi_index(1, 1), 2);
        phi.phi_sum.store(0, 3);
        phi.phi_sum.store(1, 2);
        phi.phi_sum.store(2, 1);
        phi
    }

    #[test]
    fn pstar_matches_formula() {
        let phi = small_model();
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; 4];
        compute_pstar(&phi, 0, &inv, &mut pstar);
        let beta_v = 0.1f32 * 3.0;
        assert!((pstar[0] - (3.0 + 0.1) / (3.0 + beta_v)).abs() < 1e-6);
        assert!((pstar[1] - 0.1 / (2.0 + beta_v)).abs() < 1e-6);
        assert!((pstar[2] - 1.1 / (1.0 + beta_v)).abs() < 1e-6);
        assert!((pstar[3] - 0.1 / beta_v).abs() < 1e-6);
    }

    #[test]
    fn s_q_decomposition_sums_to_exact_conditional() {
        // S + Q must equal Σ_k p(k) from Eq. 1 (up to f32 precision).
        let phi = small_model();
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; 4];
        compute_pstar(&phi, 0, &inv, &mut pstar);
        let theta_dense = [2u32, 0, 1, 0];
        let cols = [0u16, 2];
        let vals = [2u32, 1];
        let mut w = Vec::new();
        let s = p1_weights(&cols, &vals, &pstar, &mut w);
        let q = q_mass(0.5, pstar.iter().sum());
        let exact: f64 = exact_conditional(&theta_dense, &phi, 0, &inv).iter().sum();
        assert!(
            ((s + q) as f64 - exact).abs() < 1e-5,
            "S+Q = {} vs exact {exact}",
            s + q
        );
    }

    #[test]
    fn tree_and_reference_agree_on_a_grid_of_uniforms() {
        let phi = small_model();
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; 4];
        compute_pstar(&phi, 0, &inv, &mut pstar);
        let tree = pstar_tree(&pstar);
        let cols = [0u16, 2];
        let vals = [2u32, 1];
        for i in 0..50 {
            for j in 0..50 {
                let ub = i as f32 / 50.0;
                let ui = j as f32 / 50.0;
                let a = sample_token_reference(&cols, &vals, &pstar, 0.5, ub, ui);
                let b = sample_token_tree(&cols, &vals, &tree, &pstar, 0.5, ub, ui);
                assert_eq!(a, b, "ub={ub} ui={ui}");
            }
        }
    }

    #[test]
    fn empty_theta_row_falls_back_to_dense() {
        let phi = small_model();
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; 4];
        compute_pstar(&phi, 1, &inv, &mut pstar);
        let k = sample_token_reference(&[], &[], &pstar, 0.5, 0.0, 0.3);
        assert!((k as usize) < 4);
    }

    #[test]
    fn sampled_distribution_matches_exact_conditional() {
        // Drive the reference sampler with a uniform grid and compare the
        // induced histogram to the exact conditional.
        let phi = small_model();
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; 4];
        compute_pstar(&phi, 0, &inv, &mut pstar);
        let theta_dense = [2u32, 0, 1, 0];
        let cols = [0u16, 2];
        let vals = [2u32, 1];
        let n = 400;
        let mut hist = [0u32; 4];
        for i in 0..n {
            for j in 0..n {
                let k = sample_token_reference(
                    &cols,
                    &vals,
                    &pstar,
                    0.5,
                    (i as f32 + 0.5) / n as f32,
                    (j as f32 + 0.5) / n as f32,
                );
                hist[k as usize] += 1;
            }
        }
        let exact = exact_conditional(&theta_dense, &phi, 0, &inv);
        let total_exact: f64 = exact.iter().sum();
        for k in 0..4 {
            let got = hist[k] as f64 / (n * n) as f64;
            let want = exact[k] / total_exact;
            assert!(
                (got - want).abs() < 0.01,
                "topic {k}: sampled {got:.4} vs exact {want:.4}"
            );
        }
    }
}
