//! Property-style tests over the core data structures and invariants,
//! exercised through the public API of the workspace crates on seeded
//! pseudo-random case sweeps (deterministic; the offline build has no
//! property-testing framework).

use culda::baselines::AliasTable;
use culda::corpus::{
    partition_by_tokens, Corpus, CsrMatrix, Document, SortedChunk, Vocab, Xoshiro256,
};
use culda::gpusim::warp;
use culda::sampler::{IndexTree, Priors};

fn cases(test_id: u64) -> Xoshiro256 {
    Xoshiro256::from_seed_stream(0x100F_CA5E ^ test_id, 0)
}

/// Non-degenerate weight vector for the samplers: up to 300 entries in
/// `[0, 100)` with positive total mass.
fn draw_weights(g: &mut Xoshiro256) -> Vec<f32> {
    loop {
        let n = 1 + g.next_below(299) as usize;
        let w: Vec<f32> = (0..n).map(|_| g.next_f32() * 100.0).collect();
        if w.iter().sum::<f32>() > 1e-3 {
            return w;
        }
    }
}

#[test]
fn index_tree_agrees_with_linear_search() {
    let mut g = cases(1);
    for _ in 0..128 {
        let w = draw_weights(&mut g);
        let fanout = 2 + g.next_below(38) as usize;
        let frac = g.next_f64();
        let tree = IndexTree::build(&w, fanout);
        let prefix: Vec<f32> = w
            .iter()
            .scan(0.0, |a, &x| {
                *a += x;
                Some(*a)
            })
            .collect();
        let x = (frac as f32) * tree.total();
        let x = x.min(tree.total() * 0.999_999);
        let (got, _, _) = tree.sample_scaled(x);
        let want = culda::sampler::ptree::linear_search(&prefix, x);
        assert_eq!(got, want);
    }
}

#[test]
fn index_tree_rebuild_equals_fresh_build() {
    let mut g = cases(2);
    for _ in 0..128 {
        let w1 = draw_weights(&mut g);
        let w2 = draw_weights(&mut g);
        let mut tree = IndexTree::build(&w1, 32);
        tree.rebuild(&w2);
        assert_eq!(tree, IndexTree::build(&w2, 32));
    }
}

#[test]
fn index_tree_never_draws_zero_weight() {
    let mut g = cases(3);
    for _ in 0..128 {
        let mut w = draw_weights(&mut g);
        let idx = g.next_below(w.len() as u32) as usize;
        let frac = g.next_f64();
        w[idx] = 0.0;
        if w.iter().sum::<f32>() <= 1e-3 {
            continue;
        }
        let tree = IndexTree::build(&w, 32);
        let x = (frac as f32 * tree.total()).min(tree.total() * 0.999_999);
        let (got, _, _) = tree.sample_scaled(x);
        assert_ne!(got, idx, "drew zero-weight index");
    }
}

#[test]
fn alias_table_probabilities_match_weights() {
    let mut g = cases(4);
    for _ in 0..128 {
        let n = 1 + g.next_below(63) as usize;
        let w: Vec<f64> = (0..n).map(|_| g.next_f64() * 50.0).collect();
        let total: f64 = w.iter().sum();
        if total <= 1e-6 {
            continue;
        }
        let t = AliasTable::build(&w);
        for (i, &wi) in w.iter().enumerate() {
            let p = t.probability(i);
            assert!(
                (p - wi / total).abs() < 1e-9,
                "outcome {}: {} vs {}",
                i,
                p,
                wi / total
            );
        }
    }
}

#[test]
fn partition_conserves_tokens_for_any_shape() {
    let mut g = cases(5);
    for _ in 0..128 {
        let n = 1 + g.next_below(119) as usize;
        let lens: Vec<usize> = (0..n).map(|_| g.next_below(60) as usize).collect();
        let c = 1 + g.next_below(11) as usize;
        if c > lens.len() {
            continue;
        }
        let docs: Vec<Document> = lens.iter().map(|&l| Document::new(vec![0u32; l])).collect();
        let corpus = Corpus::new(docs, Vocab::synthetic(1));
        let chunks = partition_by_tokens(&corpus, c);
        assert_eq!(chunks.len(), c);
        let total: u64 = chunks.iter().map(|ch| ch.tokens).sum();
        assert_eq!(total, corpus.num_tokens());
        // Contiguous cover, no empty chunk.
        assert_eq!(chunks[0].docs.start, 0);
        for w in chunks.windows(2) {
            assert_eq!(w[0].docs.end, w[1].docs.start);
        }
        assert_eq!(chunks.last().unwrap().docs.end as usize, corpus.num_docs());
        for ch in &chunks {
            assert!(ch.num_docs() > 0);
        }
    }
}

#[test]
fn sorted_chunk_layout_is_a_permutation() {
    let mut g = cases(6);
    for _ in 0..128 {
        let d = 1 + g.next_below(39) as usize;
        let docs: Vec<Document> = (0..d)
            .map(|_| {
                let len = 1 + g.next_below(29) as usize;
                Document::new((0..len).map(|_| g.next_below(20)).collect())
            })
            .collect();
        let c = 1 + g.next_below(4) as usize;
        if c > docs.len() {
            continue;
        }
        let corpus = Corpus::new(docs, Vocab::synthetic(20));
        let chunks = partition_by_tokens(&corpus, c);
        let mut tokens = 0usize;
        for ch in &chunks {
            let sorted = SortedChunk::build(&corpus, ch);
            assert!(sorted.check_invariants(&corpus, ch));
            tokens += sorted.num_tokens();
        }
        assert_eq!(tokens as u64, corpus.num_tokens());
    }
}

#[test]
fn csr_dense_round_trip() {
    let mut g = cases(7);
    for _ in 0..128 {
        let n = g.next_below(20) as usize;
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..8).map(|_| g.next_below(9)).collect())
            .collect();
        let m = CsrMatrix::from_dense_rows(&rows, 8);
        m.check_invariants();
        for (r, want) in rows.iter().enumerate() {
            assert_eq!(&m.row_to_dense(r), want);
        }
    }
}

#[test]
fn warp_scan_matches_serial() {
    let mut g = cases(8);
    for _ in 0..128 {
        let n = 1 + g.next_below(32) as usize;
        let lanes: Vec<f32> = (0..n).map(|_| g.next_f32() * 200.0 - 100.0).collect();
        let mut scanned = lanes.clone();
        let total = warp::inclusive_scan_f32(&mut scanned);
        let mut acc = 0.0f32;
        for (i, &x) in lanes.iter().enumerate() {
            acc += x;
            // Hillis–Steele adds in a different order than serial; allow
            // f32 reassociation slack.
            assert!((scanned[i] - acc).abs() <= 1e-3 * acc.abs().max(1.0));
        }
        assert!((total - scanned[n - 1]).abs() < 1e-6);
    }
}

#[test]
fn warp_ballot_round_trips() {
    let mut g = cases(9);
    for _ in 0..128 {
        let n = 1 + g.next_below(32) as usize;
        let bits: Vec<bool> = (0..n).map(|_| g.next_u64() & 1 == 1).collect();
        let mask = warp::ballot(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(mask & (1 << i) != 0, b);
        }
        let first_true = bits.iter().position(|&b| b);
        assert_eq!(warp::first_set_lane(mask), first_true);
    }
}

#[test]
fn priors_masses_are_linear() {
    let mut g = cases(10);
    for _ in 0..128 {
        let k = 1 + g.next_below(4999) as usize;
        let v = 1 + g.next_below(199_999) as usize;
        let p = Priors::paper(k);
        assert!((p.alpha * k as f64 - 50.0).abs() < 1e-9);
        assert!((p.beta_v(v) - 0.01 * v as f64).abs() < 1e-6);
    }
}

#[test]
fn phi_sync_equals_serial_sum() {
    use culda::gpusim::{Link, Platform};
    use culda::multigpu::{sync_phi_replicas, TrainerConfig};
    use culda::sampler::PhiModel;
    let mut rng = cases(11);
    for _ in 0..24 {
        let g = 1 + rng.next_below(6) as usize;
        let replica_fills: Vec<Vec<u32>> = (0..g)
            .map(|_| (0..12).map(|_| rng.next_below(7)).collect())
            .collect();
        let replicas: Vec<PhiModel> = replica_fills
            .iter()
            .map(|cells| {
                let m = PhiModel::zeros(3, 4, Priors::paper(3));
                for (i, &c) in cells.iter().enumerate() {
                    if c > 0 {
                        m.phi.store(i, c);
                        m.phi_sum.fetch_add(i % 3, c);
                    }
                }
                m
            })
            .collect();
        let mut want = [0u64; 12];
        for cells in &replica_fills {
            for (slot, w) in want.iter_mut().enumerate() {
                *w += cells[slot] as u64;
            }
        }
        let cfg = TrainerConfig::builder(3, Platform::pascal())
            .build()
            .unwrap();
        let refs: Vec<&_> = replicas.iter().collect();
        sync_phi_replicas(&refs, &Platform::pascal().gpu, &Link::pcie3(), &cfg);
        for r in &replicas {
            for (slot, &w) in want.iter().enumerate() {
                assert_eq!(r.phi.load(slot) as u64, w, "g = {g}");
            }
        }
    }
}

#[test]
fn count_matrix_dense_sparse_round_trip_preserves_totals() {
    use culda::sampler::CountMatrix;
    let mut g = cases(13);
    for _ in 0..64 {
        let k = 2 + g.next_below(62) as usize;
        let v = 1 + g.next_below(39) as usize;
        let m = CountMatrix::zeros(v, k);
        let mut dense = vec![0u32; k * v];
        let writes = g.next_below(400) as usize;
        for _ in 0..writes {
            let row = g.next_below(v as u32) as usize;
            let col = g.next_below(k as u32) as usize;
            let c = 1 + g.next_below(50);
            m.add(row, col, c);
            dense[row * k + col] += c;
        }
        let nnz_want = dense.iter().filter(|&&c| c != 0).count() as u64;
        // Force every row through both layouts and back; counts, per-row
        // nnz, and the global total must survive each conversion.
        for row in 0..v {
            m.force_dense_row(row);
            assert_eq!(m.total_nnz(), nnz_want, "densify lost cells");
            m.force_sparse_row(row);
            assert_eq!(m.total_nnz(), nnz_want, "sparsify lost cells");
            let row_want: Vec<(u16, u32)> = (0..k)
                .filter(|&t| dense[row * k + t] != 0)
                .map(|t| (t as u16, dense[row * k + t]))
                .collect();
            assert_eq!(m.row_nonzeros(row), row_want);
            assert_eq!(m.row_nnz(row), row_want.len());
        }
        assert_eq!(m.snapshot(), dense, "flat view diverged from the oracle");
    }
}

#[test]
fn frozen_snapshot_reads_match_the_live_count_matrix() {
    use culda::sampler::{save_phi, FrozenPhi, LdaModel, PhiModel};
    let mut g = cases(14);
    for k in [8usize, 1024, 4096] {
        let (mut saw_dense, mut saw_sparse, mut saw_empty) = (false, false, false);
        for _ in 0..6 {
            let v = 3 + g.next_below(14) as usize;
            let priors = Priors::new(0.1, 1e-3 + g.next_f64() * 0.5);
            let phi = PhiModel::zeros(k, v, priors);
            let cut = phi.phi.storage_cutover();
            for row in 0..v {
                // Empty, cold (below the cutover) or hot (at or past it).
                let nnz = match g.next_below(3) {
                    0 => 0,
                    1 => g.next_below(cut as u32) as usize,
                    _ => cut + g.next_below((k - cut + 1) as u32) as usize,
                };
                for t in 0..nnz {
                    let c = 1 + g.next_below(40);
                    phi.phi.add(row, (t * 7 + row) % k, c);
                    phi.phi_sum.fetch_add((t * 7 + row) % k, c);
                }
                // Force live layouts that disagree with the nnz rule: the
                // snapshot must not care how the live row was stored.
                match g.next_below(3) {
                    0 => phi.phi.force_dense_row(row),
                    1 => phi.phi.force_sparse_row(row),
                    _ => {}
                }
            }
            let frozen = FrozenPhi::freeze(&phi);
            let mut bytes = Vec::new();
            save_phi(&phi, &mut bytes).unwrap();
            let loaded = FrozenPhi::load(&bytes[..]).unwrap();
            for snap in [&frozen, &loaded] {
                let counts = snap.counts();
                assert_eq!(counts.total_nnz(), phi.phi.total_nnz());
                for row in 0..v {
                    let nnz = phi.phi.row_nnz(row);
                    let live_dense = phi.phi.row_is_dense(row);
                    saw_dense |= live_dense;
                    saw_sparse |= nnz > 0 && !live_dense;
                    saw_empty |= nnz == 0;
                    let cells = counts.row_cells(row);
                    assert_eq!(cells, phi.phi.row_nonzeros(row));
                    // Every topic the cells omit reads as zero, live and
                    // frozen alike.
                    let mut cell = cells.iter().peekable();
                    for t in 0..k {
                        let live = phi.phi.get(row, t);
                        assert_eq!(counts.get(row, t), live, "k={k} ({row}, {t})");
                        let stored = match cell.next_if(|&&(c, _)| c as usize == t) {
                            Some(&(_, n)) => n,
                            None => 0,
                        };
                        assert_eq!(stored, live, "k={k} ({row}, {t})");
                    }
                }
                for t in 0..k {
                    assert_eq!(snap.topic_total(t), phi.phi_sum.load(t));
                }
            }
        }
        assert!(
            saw_dense && saw_sparse && saw_empty,
            "k={k}: layouts not all covered"
        );
    }
}

#[test]
fn block_map_partitions_any_chunk() {
    use culda::sampler::build_block_map;
    let mut g = cases(12);
    for _ in 0..24 {
        let d = 2 + g.next_below(28) as usize;
        let docs: Vec<Document> = (0..d)
            .map(|_| {
                let len = 1 + g.next_below(39) as usize;
                Document::new((0..len).map(|_| g.next_below(15)).collect())
            })
            .collect();
        let tpb = 1 + g.next_below(199) as usize;
        let corpus = Corpus::new(docs, Vocab::synthetic(15));
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let map = build_block_map(&chunk, tpb);
        let mut seen = vec![false; chunk.num_tokens()];
        for b in &map {
            assert!(b.len() <= tpb);
            for t in b.tokens.clone() {
                assert!(!seen[t]);
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
