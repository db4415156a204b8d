//! End-to-end serving tests: train through the unified `LdaTrainer`
//! surface, freeze ϕ into a `CULDAPHI` checkpoint, and drive the
//! inference engine — checking determinism, θ normalization, burn-in
//! perplexity behaviour, and the CTEF discipline of inference traces.

use culda::corpus::{split_held_out, Corpus, SynthSpec};
use culda::gpusim::Platform;
use culda::metrics::{Json, TraceSink, HOST_PID, SIM_PID};
use culda::multigpu::{build_trainer, PartitionPolicy, TrainerConfig};
use culda::serve::{FrozenModel, InferenceEngine, InferenceOutcome, ServeConfig};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Trains once per process: returns the frozen model as checkpoint bytes
/// (so each test exercises the load path) plus the held-out split.
fn trained() -> &'static (Vec<u8>, Corpus) {
    static CELL: OnceLock<(Vec<u8>, Corpus)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 200;
        spec.vocab_size = 300;
        spec.avg_doc_len = 30.0;
        spec.seed = 13;
        let corpus = spec.generate();
        let (train, held) = split_held_out(&corpus, 0.15, 13);
        let cfg = TrainerConfig::builder(12, Platform::pascal().with_gpus(2))
            .iterations(12)
            .score_every(0)
            .seed(5)
            .build()
            .unwrap();
        let mut trainer = build_trainer(PartitionPolicy::Document, &train, cfg).unwrap();
        for _ in 0..12 {
            trainer.step();
        }
        let mut bytes = Vec::new();
        FrozenModel::freeze(trainer.phi()).save(&mut bytes).unwrap();
        (bytes, held)
    })
}

fn engine(cfg: ServeConfig) -> InferenceEngine {
    let (bytes, _) = trained();
    InferenceEngine::new(FrozenModel::load(&bytes[..]).unwrap(), cfg)
}

#[test]
fn serving_is_deterministic_across_workers_and_batching() {
    let (_, held) = trained();
    let wide = engine(
        ServeConfig::builder(21)
            .workers(1)
            .batch_size(256)
            .build()
            .unwrap(),
    )
    .infer_corpus(held)
    .unwrap();
    let narrow = engine(
        ServeConfig::builder(21)
            .workers(3)
            .batch_size(5)
            .build()
            .unwrap(),
    )
    .infer_corpus(held)
    .unwrap();
    assert_eq!(wide.theta, narrow.theta, "batching must be invisible");
    assert_eq!(wide.perplexity, narrow.perplexity);
    assert_eq!(wide.perplexity_by_sweep, narrow.perplexity_by_sweep);
    assert!(narrow.micro_batches > wide.micro_batches);
    // Seeds matter: a different chain gives a different θ.
    let other = engine(
        ServeConfig::builder(22)
            .workers(1)
            .batch_size(256)
            .build()
            .unwrap(),
    )
    .infer_corpus(held)
    .unwrap();
    assert_ne!(wide.theta, other.theta);
}

#[test]
fn theta_rows_are_normalized_probability_vectors() {
    let (_, held) = trained();
    let out = engine(ServeConfig::builder(4).batch_size(17).build().unwrap())
        .infer_corpus(held)
        .unwrap();
    assert_eq!(out.theta.len(), held.num_docs());
    assert_eq!(out.tokens, held.num_tokens());
    for row in &out.theta {
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "theta row sums to {sum}");
        assert!(row.iter().all(|&x| x > 0.0 && x < 1.0));
    }
}

#[test]
fn held_out_perplexity_is_nonincreasing_across_burnin() {
    let (_, held) = trained();
    let out = engine(
        ServeConfig::builder(33)
            .burnin(6)
            .samples(2)
            .build()
            .unwrap(),
    )
    .infer_corpus(held)
    .unwrap();
    let curve = &out.perplexity_by_sweep;
    assert_eq!(curve.len(), 8);
    for (s, pair) in curve.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0],
            "perplexity rose from {} to {} at sweep {s}",
            pair[0],
            pair[1]
        );
    }
    assert!(
        curve[curve.len() - 1] < 0.995 * curve[0],
        "burn-in barely moved: {} -> {}",
        curve[0],
        curve[curve.len() - 1]
    );
    assert!(out.perplexity.is_finite() && out.perplexity > 1.0);
}

#[test]
fn inference_trace_obeys_ctef_discipline() {
    let (_, held) = trained();
    let mut eng = engine(
        ServeConfig::builder(8)
            .workers(2)
            .batch_size(6)
            .build()
            .unwrap(),
    );
    let sink = Arc::new(TraceSink::new());
    eng.attach_observability(Some(sink.clone()), None);
    let out = eng.infer_corpus(held).unwrap();
    assert!(out.micro_batches >= 2, "need a real fan-out to trace");

    let doc = Json::parse(&sink.export_chrome_json()).expect("trace must parse");
    let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    let s = |e: &Json, k: &str| -> String {
        e.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    let f = |e: &Json, k: &str| -> f64 { e.get(k).and_then(|v| v.as_f64()).unwrap() };

    let mut stacks: HashMap<(u32, u32), Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<(u32, u32), f64> = HashMap::new();
    let mut kernel_spans = 0usize;
    let mut host_gpus = Vec::new();
    for e in events {
        let ph = s(e, "ph");
        if ph == "M" {
            continue;
        }
        let name = s(e, "name");
        let track = (f(e, "pid") as u32, f(e, "tid") as u32);
        let ts = f(e, "ts");
        let prev = last_ts.entry(track).or_insert(f64::NEG_INFINITY);
        assert!(ts >= *prev, "ts regressed on {track:?} at {name}");
        *prev = ts;
        match ph.as_str() {
            "B" => {
                stacks.entry(track).or_default().push(name.clone());
                if track.0 == SIM_PID {
                    assert_eq!(name, "lda_infer", "serving launches only lda_infer");
                    assert_eq!(s(e, "cat"), "inference", "kernel span phase cat");
                    assert!(
                        e.get("args").and_then(|a| a.get("stream")).is_some(),
                        "kernel span without stream arg"
                    );
                    kernel_spans += 1;
                } else if track.0 == HOST_PID && name.starts_with("infer batch") {
                    host_gpus.push(track.1);
                }
            }
            "E" => {
                let open = stacks
                    .entry(track)
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("E without open B on {track:?}"));
                assert_eq!(open, name, "mismatched B/E pair on {track:?}");
            }
            _ => {}
        }
    }
    for (track, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on {track:?}");
    }
    assert_eq!(
        kernel_spans, out.micro_batches,
        "one kernel span per launch"
    );
    host_gpus.sort_unstable();
    host_gpus.dedup();
    assert_eq!(host_gpus, vec![0, 1], "both workers emit batch host spans");
}

/// FNV-1a over a stream of 64-bit words — a stable digest of exact bits.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Pinned fold-in output for one trained model: digests of the exact f64
/// bits plus the modelled `lda_infer` charges.
#[derive(Debug, PartialEq)]
struct FoldInDigest {
    theta: u64,
    doc_log_predictive: u64,
    perplexity_by_sweep: u64,
    sim_seconds_bits: u64,
    dram_bytes: u64,
}

/// Trains a K-topic model and serves a held-out split through
/// `InferenceEngine::infer_batch`. Returns the outcome plus the modelled
/// `lda_infer` DRAM bytes. Asserts the served words cover both
/// dense-resident and sparse-resident live ϕ rows, so the snapshot is
/// built from both layouts.
fn fold_in_outcome(k: usize, iterations: u32) -> (InferenceOutcome, u64) {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 360;
    spec.avg_doc_len = 60.0;
    spec.seed = 29;
    let corpus = spec.generate();
    let (train, held) = split_held_out(&corpus, 0.06, 29);
    let cfg = TrainerConfig::builder(k, Platform::pascal().with_gpus(2))
        .iterations(iterations)
        .score_every(0)
        .seed(3)
        .build()
        .unwrap();
    let mut trainer = build_trainer(PartitionPolicy::Document, &train, cfg).unwrap();
    for _ in 0..iterations {
        trainer.step();
    }
    let live = &trainer.phi().phi;
    let docs: Vec<Vec<u32>> = held.docs.iter().map(|d| d.words.clone()).collect();
    let served = |dense: bool| {
        docs.iter()
            .flatten()
            .any(|&w| live.row_is_dense(w as usize) == dense)
    };
    assert!(served(true), "K = {k}: no dense-resident row is served");
    assert!(served(false), "K = {k}: no sparse-resident row is served");

    let mut bytes = Vec::new();
    FrozenModel::freeze(trainer.phi()).save(&mut bytes).unwrap();
    let engine = InferenceEngine::new(
        FrozenModel::load(&bytes[..]).unwrap(),
        ServeConfig::builder(17)
            .workers(2)
            .batch_size(7)
            .burnin(3)
            .samples(2)
            .build()
            .unwrap(),
    );
    let out = engine.infer_batch(&docs).unwrap();
    let infer = engine
        .profile()
        .summaries()
        .into_iter()
        .find(|s| s.name == "lda_infer")
        .expect("lda_infer ran");
    (out, infer.dram_bytes)
}

/// Digests [`fold_in_outcome`]: the exact f64 bits plus the modelled
/// `lda_infer` charges.
fn fold_in_digest(k: usize, iterations: u32) -> FoldInDigest {
    let (out, dram_bytes) = fold_in_outcome(k, iterations);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    FoldInDigest {
        theta: fnv1a(out.theta.iter().flat_map(|row| bits(row))),
        doc_log_predictive: fnv1a(bits(&out.doc_log_predictive)),
        perplexity_by_sweep: fnv1a(bits(&out.perplexity_by_sweep)),
        sim_seconds_bits: out.sim_seconds.to_bits(),
        dram_bytes,
    }
}

// The digests below pin the sparse three-bucket fold-in (SparseLDA's
// q/r/s split of the conditional, `O(nnz_w + K_d)` per token) and its
// sparse scorer and `lda_infer` charges. They were regenerated when that
// path replaced the dense per-token draw, after the dense-perplexity and
// draw-distribution oracles passed; the kernel-vs-oracle test alone is
// circular (both share one fold-in body).

#[test]
fn fold_in_golden_small_k() {
    let got = fold_in_digest(16, 6);
    assert_eq!(
        got,
        FoldInDigest {
            theta: 0xdb3a381c0009d43b,
            doc_log_predictive: 0x3b01356f112cdaff,
            perplexity_by_sweep: 0xd4aeaae88a28f8fc,
            sim_seconds_bits: 0x3ef4a3e2eff39a60,
            dram_bytes: 368_868,
        }
    );
}

#[test]
fn fold_in_golden_k1024() {
    let got = fold_in_digest(1024, 2);
    assert_eq!(
        got,
        FoldInDigest {
            theta: 0x5c17f3715f64365e,
            doc_log_predictive: 0xf3edc1f0e1285ddf,
            perplexity_by_sweep: 0x044cdb5f77d67308,
            sim_seconds_bits: 0x3f1f067f73370f5a,
            dram_bytes: 6_795_948,
        }
    );
}

/// Held-out perplexity of the `fold_in_outcome` corpora as the dense
/// per-token fold-in (one K-leaf tree rebuilt per token, K-wide scoring)
/// served it, before the three-bucket sampler replaced it.
const DENSE_PERPLEXITY_K16: f64 = 62.614_477_791_193_18;
const DENSE_PERPLEXITY_K1024: f64 = 58.350_910_157_798_93;

/// The sparse fold-in draws from the same conditional as the dense one,
/// so on the same corpora its held-out perplexity must land within 2%.
#[test]
fn fold_in_matches_dense_perplexity() {
    for (k, iterations, dense) in [
        (16, 6, DENSE_PERPLEXITY_K16),
        (1024, 2, DENSE_PERPLEXITY_K1024),
    ] {
        let (out, _) = fold_in_outcome(k, iterations);
        let rel = (out.perplexity - dense).abs() / dense;
        assert!(
            rel < 0.02,
            "K = {k}: perplexity {} vs dense {dense} ({:.3}% off)",
            out.perplexity,
            rel * 100.0
        );
    }
}
