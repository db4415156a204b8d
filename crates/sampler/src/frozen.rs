//! Immutable ϕ snapshots — the lock-free read side of the count matrix.
//!
//! A live [`CountMatrix`](crate::CountMatrix) guards every row with a
//! mutex and promotes or demotes rows between dense and sparse storage
//! because trainers write it concurrently. A served model is never
//! written, so [`FrozenCounts`] drops the locks and the promotions and
//! packs every row as CSR: `offsets` into one `(topic, count)` cell array,
//! ascending by topic within a row.
//!
//! The fold-in reads a word's row as its CSR cells
//! ([`FrozenCounts::row_cells`]), borrowed in place: its sparse sampler
//! and scorer touch only the `nnz_w` stored topics and never expand a
//! row to `K` entries.
//!
//! [`FrozenPhi`] bundles the counts with their topic totals and priors:
//! everything a read-only consumer needs, behind the [`LdaModel`] surface.
//! It is the serving snapshot, built once from a live model
//! ([`FrozenPhi::freeze`]) or a checkpoint ([`FrozenPhi::load`]).

use crate::checkpoint::{load_frozen_phi, save_phi};
use crate::hyper::Priors;
use crate::model::{LdaModel, PhiModel, MAX_TOPICS};
use std::io::{self, Read, Write};

/// An immutable CSR count matrix with no locks: rows are words, columns
/// are topics.
#[derive(Debug)]
pub struct FrozenCounts {
    cols: usize,
    /// Row starts into `cells` (`rows + 1` entries).
    offsets: Vec<usize>,
    /// Nonzero `(topic, count)` cells, row after row, ascending by topic.
    cells: Vec<(u16, u32)>,
}

impl FrozenCounts {
    /// Number of rows (words).
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of columns (topics).
    pub fn num_cols(&self) -> usize {
        self.cols
    }

    /// The nonzero `(col, count)` cells of `row`, ascending by column,
    /// borrowed from the snapshot.
    #[inline]
    pub fn row_cells(&self, row: usize) -> &[(u16, u32)] {
        &self.cells[self.offsets[row]..self.offsets[row + 1]]
    }

    /// The count at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> u32 {
        debug_assert!(col < self.cols);
        let cells = self.row_cells(row);
        cells
            .binary_search_by_key(&(col as u16), |&(t, _)| t)
            .map(|i| cells[i].1)
            .unwrap_or(0)
    }

    /// Total nonzero cells across the matrix.
    pub fn total_nnz(&self) -> u64 {
        self.cells.len() as u64
    }
}

/// Streams cells in ascending `(row, col)` order into a [`FrozenCounts`].
#[derive(Debug)]
pub(crate) struct FrozenCountsBuilder {
    out: FrozenCounts,
    rows: usize,
}

impl FrozenCountsBuilder {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "empty count matrix");
        assert!(cols <= MAX_TOPICS, "cols exceed u16 cell index");
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            out: FrozenCounts {
                cols,
                offsets,
                cells: Vec::new(),
            },
            rows,
        }
    }

    /// Appends the nonzero `count` at `(row, col)`; cells must arrive in
    /// strictly ascending `(row, col)` order.
    pub(crate) fn push(&mut self, row: usize, col: usize, count: u32) {
        debug_assert!(row < self.rows && col < self.out.cols && count != 0);
        self.close_rows_before(row);
        debug_assert!(
            self.out.cells.len() == self.out.offsets[row]
                || (self.out.cells.last().unwrap().0 as usize) < col,
            "cells out of order"
        );
        self.out.cells.push((col as u16, count));
    }

    /// Records the start of every row up to and including `row`.
    fn close_rows_before(&mut self, row: usize) {
        while self.out.offsets.len() <= row {
            self.out.offsets.push(self.out.cells.len());
        }
    }

    pub(crate) fn finish(mut self) -> FrozenCounts {
        self.close_rows_before(self.rows);
        self.out.cells.shrink_to_fit();
        self.out
    }
}

/// An immutable trained model: frozen counts, their topic totals, and the
/// priors they were estimated under.
#[derive(Debug)]
pub struct FrozenPhi {
    counts: FrozenCounts,
    topic_totals: Vec<u32>,
    priors: Priors,
}

impl FrozenPhi {
    /// Assembles a snapshot from its parts.
    pub(crate) fn new(counts: FrozenCounts, topic_totals: Vec<u32>, priors: Priors) -> Self {
        assert_eq!(topic_totals.len(), counts.num_cols(), "topic totals size");
        Self {
            counts,
            topic_totals,
            priors,
        }
    }

    /// Deep-copies any [`LdaModel`] view (e.g. a live trainer's ϕ) into a
    /// standalone snapshot the trainer can no longer mutate, row by row
    /// from its nonzeros — `O(nnz)`, one row read per word.
    pub fn freeze(model: &dyn LdaModel) -> Self {
        let mut counts = FrozenCountsBuilder::new(model.vocab_size(), model.num_topics());
        for w in 0..model.vocab_size() {
            for (t, c) in model.row_nonzeros(w) {
                counts.push(w, t as usize, c);
            }
        }
        let totals = (0..model.num_topics())
            .map(|t| model.topic_total(t))
            .collect();
        Self::new(counts.finish(), totals, model.priors())
    }

    /// Freezes a ϕ replica into a snapshot, consuming it.
    pub fn from_phi(phi: PhiModel) -> Self {
        Self::freeze(&phi)
    }

    /// Loads a snapshot from a `CULDAPHI` checkpoint stream, without
    /// building a live replica on the way.
    pub fn load<R: Read>(input: R) -> io::Result<Self> {
        load_frozen_phi(input)
    }

    /// Writes the snapshot as a `CULDAPHI` checkpoint.
    pub fn save<W: Write>(&self, out: W) -> io::Result<()> {
        save_phi(self, out)
    }

    /// The frozen word–topic counts.
    pub fn counts(&self) -> &FrozenCounts {
        &self.counts
    }
}

impl LdaModel for FrozenPhi {
    fn num_topics(&self) -> usize {
        self.counts.num_cols()
    }

    fn vocab_size(&self) -> usize {
        self.counts.num_rows()
    }

    fn priors(&self) -> Priors {
        self.priors
    }

    fn phi_count(&self, word: usize, topic: usize) -> u32 {
        self.counts.get(word, topic)
    }

    fn topic_total(&self, topic: usize) -> u32 {
        self.topic_totals[topic]
    }

    fn row_nonzeros(&self, word: usize) -> Vec<(u16, u32)> {
        self.counts.row_cells(word).to_vec()
    }

    fn total_nnz(&self) -> u64 {
        self.counts.total_nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_stream_into_csr_with_empty_rows_in_between() {
        let k = 16;
        let mut b = FrozenCountsBuilder::new(5, k);
        b.push(1, 3, 11);
        b.push(1, 9, 4);
        b.push(3, 0, 7);
        let counts = b.finish();
        assert_eq!(counts.num_rows(), 5);
        assert_eq!(counts.total_nnz(), 3);
        assert_eq!(counts.row_cells(1), [(3, 11), (9, 4)]);
        assert_eq!(counts.row_cells(3), [(0, 7)]);
        for empty in [0, 2, 4] {
            assert!(counts.row_cells(empty).is_empty());
        }
        assert_eq!(
            (counts.get(1, 9), counts.get(1, 8), counts.get(4, 0)),
            (4, 0, 0)
        );
    }
}
