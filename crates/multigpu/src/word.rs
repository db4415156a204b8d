//! Partition-by-word — the Section 4 road not taken, run by the same
//! superstep engine as the paper's policy so the comparison is measured
//! end to end.
//!
//! "For the partition-by-word policy … we only need to synchronize the
//! replicas of θ_{D×K}." Each GPU owns a contiguous, token-balanced word
//! range: its ϕ rows are its own, but every GPU touches every document,
//! so θ and the topic totals `n_k` are reduced and broadcast each
//! iteration. Updates are deferred against the previous iteration's
//! snapshot and RNG streams are keyed by global token index, as under
//! partition-by-document, so the two policies' chains are identically
//! distributed (not bit-identical: stream ids follow each layout) and the
//! figures differ only in sync cost. Because no stream depends on which
//! GPU samples it, a lost GPU's word range re-runs on a survivor
//! bit-identically, like a migrated chunk.

use crate::api::PartitionPolicy;
use crate::config::TrainerConfig;
use crate::error::CuldaError;
use crate::layout::{device_pool, Layout, Parts, StepCtx};
use crate::sync::SyncReport;
use crate::worker::GpuWorker;
use culda_corpus::{balanced_ranges, Corpus, CsrMatrix, Xoshiro256};
use culda_gpusim::memory::AtomicU16Buf;
use culda_gpusim::{BlockCtx, KernelCost, KernelSpec, LaunchPhase, Link, SimFault};
use culda_metrics::{LdaLoglik, Phase};
use culda_sampler::ptree::{IndexTree, DEFAULT_FANOUT};
use culda_sampler::spq::{draw_token, P1Run};
use culda_sampler::{pstar_block_cost, ChunkState, PhiModel, PlanReport, Priors};

/// One word range: its tokens, word-major. The assignments live in the
/// owning worker's [`ChunkState`] (with an empty θ), so they migrate with
/// the unit.
#[derive(Debug, Default)]
struct WordRange {
    /// Global word ids owned, ascending.
    word_ids: Vec<u32>,
    /// Token ranges per owned word.
    word_ptr: Vec<usize>,
    /// Global document id per token.
    token_doc: Vec<u32>,
    /// Global token index per token (RNG stream keys).
    token_stream: Vec<u64>,
}

impl WordRange {
    fn num_tokens(&self) -> usize {
        self.token_doc.len()
    }

    /// `(word, token range)` per owned word.
    fn words(&self) -> impl Iterator<Item = (usize, std::ops::Range<usize>)> + '_ {
        self.word_ids
            .iter()
            .enumerate()
            .map(|(wi, &w)| (w as usize, self.word_ptr[wi]..self.word_ptr[wi + 1]))
    }
}

/// Partition-by-word: one token-balanced word range per GPU, sampled
/// against the global ϕ and θ snapshots, which the sync rebuilds from
/// every range's assignments. ϕ is stored whole (one copy, not one per
/// GPU) so scoring reads it directly.
pub(crate) struct WordLayout {
    ranges: Vec<WordRange>,
    doc_lens: Vec<u32>,
    /// Global ϕ: each range's rows are its own, never synchronized.
    phi: PhiModel,
    /// Global θ snapshot read by every range.
    theta: CsrMatrix,
}

impl WordLayout {
    /// Shards `corpus` by word over the platform's GPUs, draws random
    /// assignments, and builds ϕ and θ from them.
    pub(crate) fn build(corpus: &Corpus, cfg: &TrainerConfig) -> Result<Parts, CuldaError> {
        if cfg.nodes > 1 {
            return Err(CuldaError::Invalid(format!(
                "multi-node training requires --policy doc (got {} nodes with --policy word)",
                cfg.nodes
            )));
        }
        let g = cfg.platform.num_gpus;
        let v = corpus.vocab_size();
        if g > v {
            return Err(CuldaError::Invalid(format!(
                "more GPUs ({g}) than vocabulary words ({v})"
            )));
        }
        let k = cfg.num_topics;

        // Each word's occurrences (document ids), then contiguous word
        // ranges balanced by token count (the same greedy quantile split
        // as the doc policy), laid out word-major with global token stream
        // keys assigned in (word, occurrence) order.
        let mut occurrences: Vec<Vec<u32>> = vec![Vec::new(); v];
        for (d, w) in corpus.tokens() {
            occurrences[w as usize].push(d);
        }
        let word_tokens: Vec<u64> = occurrences.iter().map(|o| o.len() as u64).collect();
        let mut stream_key = 0u64;
        let ranges: Vec<WordRange> = balanced_ranges(&word_tokens, g)
            .into_iter()
            .map(|words| {
                let mut range = WordRange {
                    word_ptr: vec![0],
                    ..WordRange::default()
                };
                for w in words.filter(|&w| !occurrences[w].is_empty()) {
                    range.word_ids.push(w as u32);
                    for &d in &occurrences[w] {
                        range.token_doc.push(d);
                        range.token_stream.push(stream_key);
                        stream_key += 1;
                    }
                    range.word_ptr.push(range.token_doc.len());
                }
                range
            })
            .collect();

        // Random init, range by range.
        let mut rng = Xoshiro256::from_seed_stream(cfg.seed, 0x30BD);
        let states: Vec<ChunkState> = ranges
            .iter()
            .map(|r| ChunkState {
                z: AtomicU16Buf::from_vec(
                    (0..r.num_tokens())
                        .map(|_| rng.next_below(k as u32) as u16)
                        .collect(),
                ),
                theta: CsrMatrix::zeros(0, k),
            })
            .collect();

        let mut layout = WordLayout {
            ranges,
            doc_lens: corpus.docs.iter().map(|d| d.len() as u32).collect(),
            phi: PhiModel::zeros(k, v, Priors::paper(k)),
            theta: CsrMatrix::zeros(0, k),
        };
        layout.rebuild(&states.iter().enumerate().collect::<Vec<_>>(), k);

        let cluster = device_pool(cfg);
        let mut workers: Vec<GpuWorker> = cluster
            .devices
            .into_iter()
            .map(GpuWorker::without_replicas)
            .collect();
        for (u, state) in states.into_iter().enumerate() {
            workers[u].push_chunk(u, state, Vec::new());
        }
        Ok(Parts {
            layout: Box::new(layout),
            workers,
            peer_link: cluster.peer_link,
            host_link: cluster.host_link,
        })
    }

    /// Recounts ϕ and θ from the `(range id, state)` pairs given.
    fn rebuild(&mut self, units: &[(usize, &ChunkState)], k: usize) {
        self.phi.clear();
        let mut theta_dense = vec![vec![0u32; k]; self.doc_lens.len()];
        for &(u, state) in units {
            self.accumulate(u, &state.z, &self.phi);
            for (t, &d) in self.ranges[u].token_doc.iter().enumerate() {
                theta_dense[d as usize][state.z.load(t) as usize] += 1;
            }
        }
        self.theta = CsrMatrix::from_dense_rows(&theta_dense, k);
    }

    /// Samples the ranges at local slots `locals` of `w` against the
    /// snapshot, each followed by its local ϕ-rebuild charge.
    fn sample(
        &self,
        w: &GpuWorker,
        locals: &[usize],
        step: &StepCtx,
    ) -> Result<PlanReport, SimFault> {
        let cfg = step.cfg;
        let k = cfg.num_topics;
        let alpha = self.phi.priors.alpha as f32;
        let beta = self.phi.priors.beta as f32;
        let inv_denom = self.phi.inv_denominators();
        let stream_seed = cfg.seed ^ (step.iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let compressed = cfg.compressed;
        let elem = cfg.phi_elem_bytes() as usize;
        let (phi, theta, sparse) = (&self.phi, &self.theta, step.sparse);
        let mut out = PlanReport::default();
        for &li in locals {
            let range = &self.ranges[w.chunk_ids[li]];
            let z = &w.states[li].z;
            let blocks = range.word_ids.len().max(1) as u32;
            let spec = KernelSpec::new("word_lda_sample", blocks).with_phase(LaunchPhase::Sampling);
            let body = |ctx: &mut BlockCtx| {
                let wi = ctx.block_id as usize;
                if wi >= range.word_ids.len() {
                    return;
                }
                let w = range.word_ids[wi] as usize;
                let mut pstar = if ctx.shared.fits::<f32>(2 * k + 64) {
                    ctx.shared.alloc::<f32>(k)
                } else {
                    vec![0.0f32; k]
                };
                // Hybrid-layout fill: dense mode charges exactly the
                // k·e + k·4 read; sparse mode clamps the row read to its
                // nnz encoding (never above dense).
                let fill = pstar_block_cost(k, phi.phi.row_nnz(w), elem, 0, 0, true, sparse);
                ctx.dram_read(fill.dram_read);
                ctx.flop(2 * k);
                phi.phi.fill_smoothed(w, beta, &inv_denom, &mut pstar);
                let block_tree = IndexTree::build(&pstar, DEFAULT_FANOUT);
                ctx.shared_access(2 * k * 4);
                // One sampler walks the word's tokens in document order,
                // so a run of same-document tokens shares one p1 prefix
                // and tree (the kernel's `P1Run` reuse).
                let mut p1_tree = IndexTree::build(&[1.0f32], DEFAULT_FANOUT);
                let mut run = P1Run::new();
                for t in range.word_ptr[wi]..range.word_ptr[wi + 1] {
                    let d = range.token_doc[t] as usize;
                    let (cols, vals) = theta.row(d);
                    ctx.dram_read(4 + cols.len() * (if compressed { 2 } else { 4 } + 4));
                    ctx.flop(3 * cols.len());
                    let s = run.enter(d, cols, vals, &pstar);
                    let mut rng = Xoshiro256::from_seed_stream(stream_seed, range.token_stream[t]);
                    let topic = draw_token(s, cols, &block_tree, alpha, &mut rng, |x| {
                        run.sample_tree(&mut p1_tree, x)
                    })
                    .topic;
                    z.store(t, topic);
                    ctx.dram_write(2);
                }
            };
            out.sampling_seconds += w.device.try_launch_spec(spec, body)?.sim_seconds;
            // The range's ϕ rows are rebuilt locally from its new z (the
            // counts themselves are recounted host-side by the sync):
            // atomics, like the doc-policy ϕ-update kernel.
            let tokens = range.num_tokens() as u64;
            let rebuild = KernelCost {
                dram_read_bytes: tokens * 2,
                dram_write_bytes: tokens * 8,
                atomics: 2 * tokens,
                blocks: range.word_ids.len().max(1) as u64,
                ..Default::default()
            }
            .sim_seconds(&cfg.platform.gpu);
            w.device.advance(rebuild);
            out.phi_seconds += rebuild;
        }
        out.phi_done_at = w.device.now();
        Ok(out)
    }

    /// The Figure 4 tree applied to θ replicas over `g` GPUs: `⌈log₂G⌉`
    /// rounds each way, each moving the full θ (+ `n_k`) bytes, plus an
    /// add pass per reduce round.
    fn theta_sync_report(&self, g: usize, link: &Link, cfg: &TrainerConfig) -> SyncReport {
        if g <= 1 {
            return SyncReport::default();
        }
        let bytes = (self.theta.nnz() as u64) * 6
            + (self.doc_lens.len() as u64 + 1) * 8
            + (cfg.num_topics as u64) * 4; // n_k vector
        let rounds = (g as f64).log2().ceil() as u32;
        let add = KernelCost {
            dram_read_bytes: 2 * bytes,
            dram_write_bytes: bytes,
            flops: bytes / 4,
            blocks: (bytes / 4096).max(1),
            ..Default::default()
        }
        .sim_seconds(&cfg.platform.gpu);
        // θ travels dense both ways: 2(G−1) full-θ transfers in total.
        let moved = 2 * (g as u64 - 1) * bytes;
        SyncReport {
            reduce_seconds: rounds as f64 * (link.transfer_seconds(bytes) + add),
            broadcast_seconds: rounds as f64 * link.transfer_seconds(bytes),
            rounds,
            bytes_moved: moved,
            dense_bytes: moved,
            nnz: bytes / 4,
            ..SyncReport::default()
        }
    }
}

impl Layout for WordLayout {
    fn policy(&self) -> PartitionPolicy {
        PartitionPolicy::Word
    }

    fn payload(&self) -> &'static str {
        "theta"
    }

    /// A range's z, document ids and stream keys, plus its ϕ rows.
    fn unit_bytes(&self, u: usize, cfg: &TrainerConfig) -> u64 {
        let range = &self.ranges[u];
        range.num_tokens() as u64 * (2 + 4 + 8)
            + (range.word_ids.len() * cfg.num_topics) as u64 * cfg.phi_elem_bytes()
    }

    fn run(&self, w: &mut GpuWorker, step: &StepCtx) -> Result<PlanReport, SimFault> {
        let all: Vec<usize> = (0..w.num_chunks()).collect();
        let report = self.sample(w, &all, step)?;
        w.breakdown.add(Phase::Sampling, report.sampling_seconds);
        w.breakdown.add(Phase::UpdatePhi, report.phi_seconds);
        Ok(report)
    }

    fn rerun(
        &self,
        w: &mut GpuWorker,
        locals: &[usize],
        step: &StepCtx,
    ) -> Result<PlanReport, SimFault> {
        self.sample(w, locals, step)
    }

    fn global_phi<'a>(&'a self, _workers: &'a [GpuWorker]) -> &'a PhiModel {
        &self.phi
    }

    /// Recounts ϕ and θ from the alive workers' ranges (this policy runs
    /// on one node, so those are every range) and prices the θ + `n_k`
    /// reduce/broadcast over them.
    fn sync(&mut self, alive: &[&GpuWorker], link: &Link, cfg: &TrainerConfig) -> SyncReport {
        let units: Vec<(usize, &ChunkState)> = alive
            .iter()
            .flat_map(|w| w.chunk_ids.iter().copied().zip(&w.states))
            .collect();
        self.rebuild(&units, cfg.num_topics);
        self.theta_sync_report(alive.len(), link, cfg)
    }

    fn accumulate(&self, u: usize, z: &AtomicU16Buf, phi: &PhiModel) {
        let k = phi.num_topics;
        for (w, tokens) in self.ranges[u].words() {
            for t in tokens {
                let kk = z.load(t) as usize;
                phi.phi.fetch_add(w * k + kk, 1);
                phi.phi_sum.fetch_add(kk, 1);
            }
        }
    }

    fn audit(&self, _states: &[&ChunkState]) {
        for (d, &len) in self.doc_lens.iter().enumerate() {
            assert_eq!(self.theta.row_sum(d), len as u64, "doc {d}");
        }
    }

    fn doc_terms(&self, _states: &[&ChunkState], eval: &LdaLoglik, mut acc: f64) -> f64 {
        for (d, &len) in self.doc_lens.iter().enumerate() {
            let (_, vals) = self.theta.row(d);
            acc += eval.doc_term(vals.iter().copied(), len as u64);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use crate::{CuldaTrainer, PartitionPolicy, TrainerConfig};
    use culda_corpus::{Corpus, SynthSpec};
    use culda_gpusim::Platform;
    use culda_metrics::{MetricsRegistry, Phase, TraceSink, SYNC_TID};
    use std::sync::Arc;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 150;
        spec.vocab_size = 250;
        spec.avg_doc_len = 30.0;
        spec.generate()
    }

    fn cfg(gpus: usize) -> TrainerConfig {
        TrainerConfig::builder(16, Platform::pascal().with_gpus(gpus))
            .iterations(5)
            .score_every(0)
            .seed(77)
            .build()
            .unwrap()
    }

    fn by_word(c: &Corpus, cfg: TrainerConfig) -> CuldaTrainer {
        CuldaTrainer::try_with_policy(PartitionPolicy::Word, c, cfg).unwrap()
    }

    #[test]
    fn trains_and_conserves_counts() {
        let c = corpus();
        let mut t = by_word(&c, cfg(4));
        t.check_invariants();
        let before = t.loglik_per_token();
        for _ in 0..8 {
            let stat = t.step();
            assert_eq!(stat.tokens, c.num_tokens());
            t.check_invariants();
        }
        assert!(
            t.loglik_per_token() > before + 0.01,
            "no convergence: {before} → {}",
            t.loglik_per_token()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let c = corpus();
        let mut a = by_word(&c, cfg(2));
        let mut b = by_word(&c, cfg(2));
        a.step();
        b.step();
        assert!((a.loglik_per_token() - b.loglik_per_token()).abs() < 1e-12);
    }

    #[test]
    fn pays_theta_sync_where_doc_policy_pays_phi() {
        // On this D < V corpus the θ sync is *cheaper* (the flip the
        // reduced scale causes); the paper-size shapes are validated in
        // `policy::tests`. Here: both policies converge comparably, and
        // the word policy pays its own sync.
        let c = corpus();
        let mut word = by_word(&c, cfg(4));
        for _ in 0..3 {
            word.step();
        }
        assert!(word.breakdown().seconds(Phase::SyncPhi) > 0.0);
        let mut doc_cfg = crate::TrainerConfig::builder(16, Platform::pascal().with_gpus(4))
            .iterations(3)
            .score_every(0)
            .seed(77)
            .build()
            .unwrap();
        doc_cfg.chunks_per_gpu = Some(1);
        let mut doc = crate::CuldaTrainer::new(&c, doc_cfg);
        for _ in 0..3 {
            doc.step();
        }
        let gap = (word.loglik_per_token() - doc.loglik_per_token()).abs();
        assert!(gap < 0.5, "policies should converge similarly, gap {gap}");
    }

    #[test]
    fn observability_traces_word_kernels_and_theta_sync() {
        use culda_metrics::EventKind;
        let c = corpus();
        let mut t = by_word(&c, cfg(2));
        let sink = Arc::new(TraceSink::new());
        let reg = Arc::new(MetricsRegistry::new());
        t.attach_observability(Some(sink.clone()), Some(reg.clone()));
        t.step();
        let evs = sink.events();
        assert!(evs
            .iter()
            .any(|e| e.kind == EventKind::Begin && e.name == "word_lda_sample"));
        assert!(evs
            .iter()
            .any(|e| e.tid == SYNC_TID && e.name.starts_with("theta_sync")));
        assert!(evs.iter().any(|e| e.name == "theta_broadcast"));
        assert!(reg.counter("kernel.launches").value() >= 2);
    }

    #[test]
    fn single_gpu_has_no_sync_cost() {
        let c = corpus();
        let mut t = by_word(&c, cfg(1));
        t.step();
        assert_eq!(t.breakdown().seconds(Phase::SyncPhi), 0.0);
    }
}
