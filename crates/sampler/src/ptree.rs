//! Tree-based sampling — Figure 5.
//!
//! Drawing from a discrete distribution `p[0..n]` means finding the minimal
//! `k` with `prefixSum[k] > u`. CuLDA builds an N-ary *index tree* over the
//! prefix sums: the upper levels (one entry per group of `fanout` leaves)
//! are small enough to live in shared memory, so a sample touches only
//! `log_F(n)` shared-memory nodes plus at most `fanout` leaf entries in
//! global memory ("only the two elements of p[8] are in the memory").
//! CuLDA uses `fanout = 32` so each level's scan is one warp ballot.
//!
//! The same structure serves both distributions of the sparsity-aware
//! sampler: the dense `p2(k)` tree shared by the whole thread block, and
//! each sampler's private tree over the `K_d` non-zeros of `p1(k)`.

/// Tree fanout used by CuLDA (one warp scans one node per step).
pub const DEFAULT_FANOUT: usize = 32;

/// An N-ary prefix-sum index tree over `n` weights.
///
/// ```
/// use culda_sampler::IndexTree;
/// let tree = IndexTree::build(&[0.1, 0.0, 0.6, 0.3], 32);
/// assert_eq!(tree.sample_unit(0.05), 0);  // lands in the first 10%
/// assert_eq!(tree.sample_unit(0.5), 2);   // the heavy outcome
/// assert_eq!(tree.sample_unit(0.95), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IndexTree {
    fanout: usize,
    /// Upper levels, coarsest first. `upper[d][j]` is the inclusive prefix
    /// sum at the end of group `j` at that depth. Kept in shared memory on
    /// the device.
    upper: Vec<Vec<f32>>,
    /// Leaf level: inclusive prefix sums of the weights (global memory).
    prefix: Vec<f32>,
}

impl IndexTree {
    /// Builds a tree from non-negative weights.
    ///
    /// # Panics
    /// Panics on an empty weight vector, a negative/NaN weight, or an
    /// all-zero total (an unsamplable distribution is a logic error in the
    /// caller — in LDA `p2` always has mass because `β > 0`).
    pub fn build(weights: &[f32], fanout: usize) -> Self {
        assert!(!weights.is_empty(), "cannot build a tree over no weights");
        let mut prefix = Vec::with_capacity(weights.len());
        let mut acc = 0.0f32;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            acc += w;
            prefix.push(acc);
        }
        Self::from_prefix(prefix, fanout)
    }

    /// Builds from already-computed inclusive prefix sums (the kernels
    /// produce prefix sums with warp scans anyway).
    pub fn from_prefix(prefix: Vec<f32>, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let mut tree = Self {
            fanout,
            upper: Vec::new(),
            prefix,
        };
        tree.rebuild_upper();
        tree
    }

    /// Rebuilds this tree in place from new weights, reusing all existing
    /// allocations.
    ///
    /// # Panics
    /// Same contract as [`IndexTree::build`].
    // Kept out of line: inlined into the serving fold-in's per-token draw
    // it made that loop about 15% slower in host CPU time.
    #[inline(never)]
    pub fn rebuild(&mut self, weights: &[f32]) {
        self.prefix.clear();
        let mut acc = 0.0f32;
        for &w in weights {
            debug_assert!(w >= 0.0 && w.is_finite(), "bad weight {w}");
            acc += w;
            self.prefix.push(acc);
        }
        self.rebuild_upper();
    }

    /// Rebuilds this tree in place over already-computed inclusive prefix
    /// sums, reusing all existing allocations — the sampling kernel's `p1`
    /// path writes the prefix in one serial pass and hands it over here,
    /// so no second accumulation runs.
    ///
    /// # Panics
    /// Same contract as [`IndexTree::from_prefix`].
    pub fn rebuild_from_prefix(&mut self, prefix: &[f32]) {
        self.prefix.clear();
        self.prefix.extend_from_slice(prefix);
        self.rebuild_upper();
    }

    /// Validates the leaf prefix and rebuilds the upper levels bottom-up
    /// into the existing level buffers: each level keeps every group's
    /// last prefix value, until a level fits in one node.
    fn rebuild_upper(&mut self) {
        assert!(
            !self.prefix.is_empty(),
            "cannot build a tree over no weights"
        );
        let total = self.total();
        assert!(
            total > 0.0 && total.is_finite(),
            "distribution must have positive finite mass, got {total}"
        );
        debug_assert!(
            self.prefix.windows(2).all(|w| w[0] <= w[1]),
            "prefix sums must be non-decreasing"
        );
        let fanout = self.fanout;
        let levels = depth_for(self.prefix.len(), fanout) - 1;
        self.upper.resize_with(levels, Vec::new);
        // Finest level first (built from the leaves), coarsest last.
        for d in (0..levels).rev() {
            let (coarser, finer) = self.upper.split_at_mut(d + 1);
            let src: &[f32] = finer.first().unwrap_or(&self.prefix);
            let dst = &mut coarser[d];
            dst.clear();
            dst.extend(src.chunks(fanout).map(|g| *g.last().unwrap()));
        }
    }

    /// Number of leaves (outcomes).
    pub fn len(&self) -> usize {
        self.prefix.len()
    }

    /// Whether the tree is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty()
    }

    /// Total mass of the distribution.
    pub fn total(&self) -> f32 {
        *self.prefix.last().unwrap()
    }

    /// Tree depth (number of levels including the leaf level).
    pub fn depth(&self) -> usize {
        self.upper.len() + 1
    }

    /// The leaf-level inclusive prefix sums. Both draw paths search this
    /// exact array — the tree by walking its upper index levels, the
    /// butterfly by a lower-bound binary search — which is why they agree
    /// bit-for-bit.
    pub fn prefix(&self) -> &[f32] {
        &self.prefix
    }

    /// Bytes of the upper levels — what the device keeps in shared memory.
    pub fn shared_bytes(&self) -> usize {
        self.upper
            .iter()
            .map(|l| l.len() * std::mem::size_of::<f32>())
            .sum()
    }

    /// Bytes of the leaf prefix array (global memory resident).
    pub fn leaf_bytes(&self) -> usize {
        self.prefix.len() * std::mem::size_of::<f32>()
    }

    /// Samples the outcome index for a uniform draw `u01 ∈ [0, 1)`.
    pub fn sample_unit(&self, u01: f32) -> usize {
        assert!((0.0..1.0).contains(&u01), "u01 = {u01} out of [0,1)");
        self.sample_scaled(u01 * self.total()).0
    }

    /// Samples for a draw already scaled to `[0, total)`. Returns the
    /// outcome index and the traffic of the walk:
    /// `(index, shared_nodes_touched, leaf_entries_touched)`.
    pub fn sample_scaled(&self, x: f32) -> (usize, usize, usize) {
        let mut shared_touched = 0usize;
        // Narrow group by descending the shared-memory levels.
        let mut group = 0usize; // group index at current level
        for level in &self.upper {
            let start = group * self.fanout;
            let end = (start + self.fanout).min(level.len());
            // Warp-ballot equivalent: first entry with prefix > x.
            let mut child = end - 1; // fall back to last on rounding
            for (i, &p) in level[start..end].iter().enumerate() {
                shared_touched += 1;
                if x < p {
                    child = start + i;
                    break;
                }
            }
            group = child;
        }
        let start = group * self.fanout;
        let end = (start + self.fanout).min(self.prefix.len());
        let mut idx = end - 1;
        let mut leaf_touched = 0usize;
        for (i, &p) in self.prefix[start..end].iter().enumerate() {
            leaf_touched += 1;
            if x < p {
                idx = start + i;
                break;
            }
        }
        (idx, shared_touched, leaf_touched)
    }
}

/// Reference linear-scan sampler over the same prefix array (what the tree
/// must agree with; also the oracle for the property tests).
pub fn linear_search(prefix: &[f32], x: f32) -> usize {
    prefix
        .iter()
        .position(|&p| x < p)
        .unwrap_or(prefix.len() - 1)
}

/// Depth an [`IndexTree`] over `len` leaves would have, without building
/// one — the cost model uses this to price a tree walk that spilled to
/// DRAM (one level of node scans per depth step).
pub fn depth_for(len: usize, fanout: usize) -> usize {
    assert!(len > 0, "no leaves");
    assert!(fanout >= 2, "fanout must be at least 2");
    let mut depth = 1;
    let mut n = len;
    while n > fanout {
        n = n.div_ceil(fanout);
        depth += 1;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_figure5_example() {
        // Figure 5: p[8] = .01 .02 .03 .02 .04 .06 .01 .01, u = 0.15 → the
        // leaf whose prefix 0.18 first exceeds u, index 5.
        let p = [0.01, 0.02, 0.03, 0.02, 0.04, 0.06, 0.01, 0.01];
        let tree = IndexTree::build(&p, 2);
        let (idx, _, _) = tree.sample_scaled(0.15);
        assert_eq!(idx, 5);
    }

    #[test]
    fn agrees_with_linear_search_exhaustively() {
        let weights: Vec<f32> = (0..1000)
            .map(|i| ((i * 2654435761u64 as usize) % 97) as f32 / 97.0)
            .collect();
        for &fanout in &[2usize, 4, 32] {
            let tree = IndexTree::build(&weights, fanout);
            let total = tree.total();
            let mut x = 0.0f32;
            while x < total {
                let (idx, _, _) = tree.sample_scaled(x);
                let want = linear_search(
                    &(0..weights.len())
                        .scan(0.0f32, |acc, i| {
                            *acc += weights[i];
                            Some(*acc)
                        })
                        .collect::<Vec<_>>(),
                    x,
                );
                assert_eq!(idx, want, "x = {x}, fanout = {fanout}");
                x += total / 733.0;
            }
        }
    }

    #[test]
    fn zero_weight_outcomes_are_never_drawn() {
        let weights = [0.0f32, 3.0, 0.0, 0.0, 2.0, 0.0];
        let tree = IndexTree::build(&weights, 2);
        for i in 0..100 {
            let u = i as f32 / 100.0;
            let k = tree.sample_unit(u);
            assert!(k == 1 || k == 4, "drew zero-weight outcome {k}");
        }
    }

    #[test]
    fn single_leaf_tree() {
        let tree = IndexTree::build(&[2.5], 32);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.shared_bytes(), 0);
        assert_eq!(tree.sample_unit(0.99), 0);
    }

    #[test]
    fn depth_is_logarithmic() {
        let weights = vec![1.0f32; 1024];
        let tree = IndexTree::build(&weights, 32);
        // 1024 leaves / 32 = 32-entry level → depth 2 (one upper level).
        assert_eq!(tree.depth(), 2);
        let big = IndexTree::build(&vec![1.0f32; 32 * 32 + 1], 32);
        assert_eq!(big.depth(), 3);
    }

    #[test]
    fn shared_footprint_is_small_for_k_1024() {
        // K = 1024 topics, fanout 32: upper levels are 32 floats = 128 B —
        // trivially fits shared memory, as the paper requires.
        let tree = IndexTree::build(&vec![1.0f32; 1024], 32);
        assert_eq!(tree.shared_bytes(), 32 * 4);
        assert_eq!(tree.leaf_bytes(), 1024 * 4);
    }

    #[test]
    fn traffic_counts_are_bounded_by_fanout_times_depth() {
        let tree = IndexTree::build(&vec![1.0f32; 4096], 32);
        let (_, shared, leaf) = tree.sample_scaled(tree.total() * 0.73);
        assert!(shared <= 32 * (tree.depth() - 1));
        assert!(leaf <= 32);
    }

    #[test]
    fn rounding_at_the_top_falls_back_to_last_leaf() {
        let tree = IndexTree::build(&[1.0f32, 1.0, 1.0], 2);
        // x exactly at (or above, from float error) the total.
        let (idx, _, _) = tree.sample_scaled(tree.total());
        assert_eq!(idx, 2);
    }

    #[test]
    fn rebuild_matches_fresh_build() {
        let mut tree = IndexTree::build(&[1.0f32], 32);
        for n in [1usize, 5, 31, 32, 33, 1000, 1025] {
            let weights: Vec<f32> = (0..n).map(|i| ((i * 7919) % 13) as f32 + 0.5).collect();
            tree.rebuild(&weights);
            let fresh = IndexTree::build(&weights, 32);
            assert_eq!(tree, fresh, "n = {n}");
            // And it still samples correctly.
            let x = tree.total() * 0.37;
            assert_eq!(tree.sample_scaled(x).0, fresh.sample_scaled(x).0);
        }
        // Shrinking after growing also works.
        tree.rebuild(&[2.0, 3.0]);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.sample_scaled(2.5).0, 1);
    }

    #[test]
    fn depth_for_matches_built_trees() {
        for n in [1usize, 5, 31, 32, 33, 1000, 1024, 1025, 4096, 32 * 32 + 1] {
            let tree = IndexTree::build(&vec![1.0f32; n], 32);
            assert_eq!(depth_for(n, 32), tree.depth(), "n = {n}");
        }
        for n in [1usize, 2, 3, 4, 5, 8, 9, 100] {
            let tree = IndexTree::build(&vec![1.0f32; n], 2);
            assert_eq!(depth_for(n, 2), tree.depth(), "n = {n}, fanout 2");
        }
    }

    #[test]
    fn warp_select_child_pins_linear_search_on_ties_and_zeros() {
        // Regression pin: the gpusim warp ballot (`warp_select_child`) and
        // this crate's `linear_search` are the same lower-bound rule —
        // first index with `x < prefix[i]`. Ties from zero-weight entries
        // (repeated prefix values) must resolve identically: neither may
        // ever land on a zero-weight child.
        use culda_gpusim::warp::warp_select_child;
        let weights = [0.0f32, 1.5, 0.0, 0.0, 2.5, 0.0, 0.0, 1.0];
        let mut prefix = Vec::new();
        let mut acc = 0.0f32;
        for &w in &weights {
            acc += w;
            prefix.push(acc);
        }
        let total = acc;
        for i in 0..200 {
            // Strictly below the total: warp_select_child's contract.
            let x = total * (i as f32 / 200.0);
            let want = linear_search(&prefix, x);
            assert_eq!(warp_select_child(&prefix, x), want, "x = {x}");
            assert!(weights[want] > 0.0, "x = {x} drew a zero-weight entry");
        }
        // Exact tie points: x equal to a repeated prefix value must select
        // the next positive-weight entry under both rules.
        assert_eq!(linear_search(&prefix, 1.5), 4);
        assert_eq!(warp_select_child(&prefix, 1.5), 4);
    }

    #[test]
    #[should_panic(expected = "positive finite mass")]
    fn all_zero_rejected() {
        IndexTree::build(&[0.0, 0.0], 2);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn negative_weight_rejected() {
        IndexTree::build(&[1.0, -0.5], 2);
    }
}
