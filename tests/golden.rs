//! Golden regression pins: exact values a fixed-seed run must reproduce.
//!
//! These catch *unintentional* changes to the sampling chain — an RNG
//! stream reshuffle, an off-by-one in the block map, a reordering of the
//! S/Q branch. If you change the algorithm deliberately, update the pinned
//! values in the same commit and say why in its message.

use culda::corpus::SynthSpec;
use culda::gpusim::Platform;
use culda::metrics::{MetricsRegistry, Phase};
use culda::multigpu::{
    build_trainer, CuldaTrainer, DrawMode, LdaTrainer, PartitionPolicy, SamplingMode, SyncMode,
    TrainerConfig,
};
use std::sync::Arc;

/// FNV-1a over the concatenated assignment vectors.
fn fingerprint<'a>(zs: impl IntoIterator<Item = &'a [u16]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for z in zs.into_iter().flatten() {
        for b in z.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

fn z_fingerprint(trainer: &CuldaTrainer) -> u64 {
    let zs: Vec<Vec<u16>> = trainer.states().iter().map(|s| s.z.snapshot()).collect();
    fingerprint(zs.iter().map(Vec::as_slice))
}

/// Prints a golden value when `CULDA_PRINT_GOLDEN` is set.
fn print_golden(line: impl FnOnce() -> String) {
    if std::env::var("CULDA_PRINT_GOLDEN").is_ok() {
        println!("GOLDEN {}", line());
    }
}

fn run() -> (u64, f64) {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 100;
    spec.vocab_size = 200;
    spec.avg_doc_len = 20.0;
    spec.seed = 0xBEEF;
    let corpus = spec.generate();
    let cfg = TrainerConfig::builder(8, Platform::maxwell())
        .iterations(3)
        .score_every(0)
        .seed(0x601DE4)
        .build()
        .unwrap();
    let mut t = CuldaTrainer::new(&corpus, cfg);
    for _ in 0..3 {
        t.step();
    }
    (z_fingerprint(&t), t.loglik_per_token())
}

#[test]
fn fixed_seed_run_is_pinned() {
    let (fp_a, ll_a) = run();
    let (fp_b, ll_b) = run();
    // Self-consistency first: the run must at least reproduce itself.
    assert_eq!(fp_a, fp_b);
    assert_eq!(ll_a.to_bits(), ll_b.to_bits());
    // Golden values (update deliberately, never accidentally):
    print_golden(|| format!("fingerprint = {fp_a:#018x}, loglik = {ll_a:.12}"));
    assert_eq!(
        fp_a, GOLDEN_FINGERPRINT,
        "assignment chain changed — if intentional, update GOLDEN_FINGERPRINT \
         (run with CULDA_PRINT_GOLDEN=1 to print the new value)"
    );
    assert!(
        (ll_a - GOLDEN_LOGLIK).abs() < 1e-9,
        "final likelihood changed: {ll_a:.12} vs pinned {GOLDEN_LOGLIK:.12}"
    );
}

// Pinned by running with CULDA_PRINT_GOLDEN=1. Last repin: the synthetic
// corpus generator moved from the external StdRng to the in-repo xoshiro
// stream (offline build), which changes the generated corpora and hence
// the whole assignment chain.
const GOLDEN_FINGERPRINT: u64 = 0x70c6d5206fa8ac32;
const GOLDEN_LOGLIK: f64 = -5.616761715172;

/// A NYTimes-like corpus at K = 1024 on 2 Pascal GPUs with every mode on
/// auto: documents are long enough that many consecutive tokens of one
/// word share a document, and their θ-row support straddles the `p1`
/// spill predicate, so both the tree and the butterfly draw engines run.
/// Pins the assignment chain and the modelled clock: per-iteration
/// simulated seconds and the `lda_sample` DRAM bytes.
fn run_k1024() -> (u64, Vec<u64>, u64) {
    let mut spec = SynthSpec::nytimes_like(0.0002);
    spec.seed = 0x4B31_0240;
    let corpus = spec.generate();
    let cfg = TrainerConfig::builder(1024, Platform::pascal().with_gpus(2))
        .iterations(3)
        .score_every(0)
        .seed(0x601DE5)
        .sync_mode(SyncMode::Auto)
        .sampling_mode(SamplingMode::Auto)
        .draw_mode(DrawMode::Auto)
        .build()
        .unwrap();
    let mut t = CuldaTrainer::new(&corpus, cfg);
    let sim_bits: Vec<u64> = (0..3).map(|_| t.step().sim_seconds.to_bits()).collect();
    let sample_bytes = t
        .profile()
        .summaries()
        .into_iter()
        .find(|s| s.name == "lda_sample")
        .expect("lda_sample ran")
        .dram_bytes;
    (z_fingerprint(&t), sim_bits, sample_bytes)
}

#[test]
fn k1024_auto_modes_run_is_pinned() {
    let (fp, sim_bits, bytes) = run_k1024();
    print_golden(|| {
        format!("k1024 fingerprint = {fp:#018x}, sim = {sim_bits:x?}, bytes = {bytes}")
    });
    assert_eq!(fp, K1024_FINGERPRINT, "K = 1024 assignment chain changed");
    assert_eq!(sim_bits, K1024_SIM_SECONDS_BITS, "modelled seconds changed");
    assert_eq!(
        bytes, K1024_SAMPLE_DRAM_BYTES,
        "lda_sample DRAM bytes changed"
    );
}

/// The partition-by-word trainer's chain on a small corpus, and its
/// modelled clock: per-iteration simulated seconds, the sampling, ϕ
/// rebuild and θ-sync phase totals, and the `word_lda_sample` launches.
fn run_word_policy() -> (u64, Vec<u64>, [u64; 3], u32) {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 80;
    spec.vocab_size = 150;
    spec.avg_doc_len = 40.0;
    spec.seed = 0xD0C5;
    let corpus = spec.generate();
    let cfg = TrainerConfig::builder(16, Platform::pascal().with_gpus(2))
        .iterations(3)
        .score_every(0)
        .seed(0x601DE6)
        .build()
        .unwrap();
    let mut t: Box<dyn LdaTrainer> = build_trainer(PartitionPolicy::Word, &corpus, cfg).unwrap();
    let sim_bits: Vec<u64> = (0..3).map(|_| t.step().sim_seconds.to_bits()).collect();
    let b = t.breakdown();
    let phase_bits =
        [Phase::Sampling, Phase::UpdatePhi, Phase::SyncPhi].map(|p| b.seconds(p).to_bits());
    let launches = t
        .profile()
        .summaries()
        .into_iter()
        .find(|s| s.name == "word_lda_sample")
        .expect("word_lda_sample ran")
        .launches;
    let zs = t.assignments();
    (
        fingerprint(zs.iter().map(Vec::as_slice)),
        sim_bits,
        phase_bits,
        launches,
    )
}

#[test]
fn word_partitioned_run_is_pinned() {
    let (fp, sim_bits, phase_bits, launches) = run_word_policy();
    print_golden(|| {
        format!(
            "word-policy fingerprint = {fp:#018x}, sim = {sim_bits:x?}, \
             phases = {phase_bits:x?}, launches = {launches}"
        )
    });
    assert_eq!(
        fp, WORD_POLICY_FINGERPRINT,
        "word-policy assignment chain changed"
    );
    assert_eq!(
        sim_bits, WORD_POLICY_SIM_SECONDS_BITS,
        "word-policy modelled seconds changed"
    );
    assert_eq!(
        phase_bits, WORD_POLICY_PHASE_BITS,
        "word-policy Sampling/UpdatePhi/SyncPhi seconds changed"
    );
    assert_eq!(
        launches, WORD_POLICY_SAMPLE_LAUNCHES,
        "word_lda_sample launch count changed"
    );
}

/// A PubMed-like corpus on 2 nodes × 2 Pascal GPUs, out-of-core (M = 2)
/// with prefetch and every mode on auto: the multi-node path end to end.
/// Pins the assignment chain, the per-iteration modelled seconds, the
/// node-level Δϕ traffic counters and the staging overlap gauge.
fn run_cluster() -> (u64, Vec<u64>, u64, u64, u64) {
    let mut spec = SynthSpec::pubmed_like(0.00005);
    spec.seed = 0xC1_0573;
    let corpus = spec.generate();
    let cfg = TrainerConfig::builder(64, Platform::pascal().with_gpus(2))
        .iterations(3)
        .score_every(0)
        .seed(0x601DE7)
        .nodes(2)
        .chunks_per_gpu(Some(2))
        .prefetch(true)
        .sync_mode(SyncMode::Auto)
        .sampling_mode(SamplingMode::Auto)
        .draw_mode(DrawMode::Auto)
        .build()
        .unwrap();
    let mut t = build_trainer(PartitionPolicy::Document, &corpus, cfg).unwrap();
    let reg = Arc::new(MetricsRegistry::new());
    t.attach_observability(None, Some(reg.clone()));
    let sim_bits: Vec<u64> = (0..3).map(|_| t.step().sim_seconds.to_bits()).collect();
    let zs = t.assignments();
    (
        fingerprint(zs.iter().map(Vec::as_slice)),
        sim_bits,
        reg.counter("cluster.sync.bytes").value(),
        reg.counter("cluster.sync.nnz").value(),
        reg.gauge("oocore.overlap_fraction").value().to_bits(),
    )
}

#[test]
fn cluster_run_is_pinned() {
    let (fp, sim_bits, bytes, nnz, overlap) = run_cluster();
    print_golden(|| {
        format!(
            "cluster fingerprint = {fp:#018x}, sim = {sim_bits:x?}, bytes = {bytes}, \
             nnz = {nnz}, overlap = {overlap:#018x}"
        )
    });
    assert_eq!(fp, CLUSTER_FINGERPRINT, "cluster assignment chain changed");
    assert_eq!(
        sim_bits, CLUSTER_SIM_SECONDS_BITS,
        "modelled seconds changed"
    );
    assert_eq!(bytes, CLUSTER_SYNC_BYTES, "cluster.sync.bytes changed");
    assert_eq!(nnz, CLUSTER_SYNC_NNZ, "cluster.sync.nnz changed");
    assert_eq!(
        overlap, CLUSTER_OVERLAP_BITS,
        "oocore.overlap_fraction changed"
    );
}

// Captured before the sampler's host execution reused p1 prefixes across
// consecutive tokens of one (word, document) run; that change must keep
// all three pins.
const K1024_FINGERPRINT: u64 = 0x08cb698a5a8f6297;
const K1024_SIM_SECONDS_BITS: [u64; 3] =
    [0x3f2061261b58a1f3, 0x3f1bc11c0d1230ee, 0x3f17eceec0eeee00];
const K1024_SAMPLE_DRAM_BYTES: u64 = 103_219_918;
const WORD_POLICY_FINGERPRINT: u64 = 0x2d0e2a17d356406a;
// Captured on the separate word-policy trainer, before both policies ran
// through one superstep engine; that merge must keep all four pins.
const WORD_POLICY_SIM_SECONDS_BITS: [u64; 3] =
    [0x3f09530a28681e68, 0x3f094624009d940c, 0x3f0944552eb2494c];
// Sampling, UpdatePhi, SyncPhi (the θ + n_k sync under this policy).
const WORD_POLICY_PHASE_BITS: [u64; 3] =
    [0x3f0ddb61c5c57c3b, 0x3f06f0a0d1457f15, 0x3f16e30fd25c5a7a];
const WORD_POLICY_SAMPLE_LAUNCHES: u32 = 6;
// Captured on the two-trainer layout (a separate cluster trainer beside
// the single-node one); the single superstep engine must keep all five.
const CLUSTER_FINGERPRINT: u64 = 0xa943d24b602bfeb4;
const CLUSTER_SIM_SECONDS_BITS: [u64; 3] =
    [0x3f23cb05b586189e, 0x3f23ae9dcb5e578a, 0x3f23aab51fb2c064];
const CLUSTER_SYNC_BYTES: u64 = 146_072;
const CLUSTER_SYNC_NNZ: u64 = 19_598;
const CLUSTER_OVERLAP_BITS: u64 = 0x3fcd29dc33fc5767;
