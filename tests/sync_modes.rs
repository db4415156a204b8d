//! The sync-mode contract: every ϕ synchronization strategy computes the
//! exact same model — only modelled time and bytes moved differ.
//!
//! The delta path's correctness rests on two facts this suite pins
//! end-to-end: (1) integer count adds are commutative, so merging sparse
//! payloads up the reduce tree yields the same sums as dense addition in
//! any order; (2) every write replica is cleared at the top of the
//! iteration, so its nonzero cells are a subset of the merged payload's
//! and applying the payload by store reproduces the dense broadcast
//! exactly. On top of bit-identity, the suite checks the point of the
//! optimisation: delta sync moves an order of magnitude fewer bytes once
//! training has concentrated the counts, `Auto` never models more sync
//! seconds than the best fixed mode, and the Δϕ density the savings bank
//! on actually falls as the model converges.

use culda::corpus::{Corpus, SynthSpec};
use culda::gpusim::Platform;
use culda::metrics::{EventKind, Json, MetricsRegistry, TraceSink};
use culda::multigpu::{CuldaTrainer, SyncMode, SyncTotals, TrainerConfig};
use std::sync::Arc;

const K: usize = 8;
const ITERS: u32 = 4;

fn corpus() -> Corpus {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 150;
    spec.vocab_size = 300;
    spec.avg_doc_len = 18.0;
    spec.generate()
}

fn cfg(gpus: usize, mode: SyncMode) -> TrainerConfig {
    TrainerConfig::builder(K, Platform::pascal().with_gpus(gpus))
        .iterations(ITERS)
        .score_every(0)
        .seed(33)
        .chunks_per_gpu(Some(1))
        .sync_mode(mode)
        .build()
        .expect("valid config")
}

fn train(c: &Corpus, gpus: usize, mode: SyncMode) -> CuldaTrainer {
    let mut t = CuldaTrainer::try_new(c, cfg(gpus, mode)).expect("trainer builds");
    for _ in 0..ITERS {
        t.try_step().expect("fault-free run");
    }
    t
}

fn phi_bits(t: &CuldaTrainer) -> (Vec<u32>, Vec<u32>) {
    let phi = t.global_phi();
    (phi.phi.snapshot(), phi.phi_sum.snapshot())
}

const ALL_MODES: [SyncMode; 4] = [
    SyncMode::DenseTree,
    SyncMode::DenseRing,
    SyncMode::Delta,
    SyncMode::Auto,
];

#[test]
fn checkpoints_are_bit_identical_across_modes_and_gpu_splits() {
    let c = corpus();
    // The dense tree on 1 GPU is the reference; every mode × split must
    // reproduce it bit for bit. 4 chunks total so 1/2/4 GPUs divide evenly
    // into the same chunk boundaries (the bit-identity precondition).
    let reference = {
        let mut t = CuldaTrainer::try_new(
            &c,
            TrainerConfig::builder(K, Platform::pascal().with_gpus(1))
                .iterations(ITERS)
                .score_every(0)
                .seed(33)
                .chunks_per_gpu(Some(4))
                .build()
                .unwrap(),
        )
        .unwrap();
        for _ in 0..ITERS {
            t.try_step().unwrap();
        }
        phi_bits(&t)
    };

    for gpus in [1usize, 2, 4] {
        for mode in ALL_MODES {
            let mut t = CuldaTrainer::try_new(
                &c,
                TrainerConfig::builder(K, Platform::pascal().with_gpus(gpus))
                    .iterations(ITERS)
                    .score_every(0)
                    .seed(33)
                    .chunks_per_gpu(Some(4 / gpus))
                    .sync_mode(mode)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            for _ in 0..ITERS {
                t.try_step().unwrap();
            }
            let got = phi_bits(&t);
            assert_eq!(got, reference, "mode {mode} diverged on {gpus} GPU(s)");
        }
    }
}

#[test]
fn delta_moves_an_order_of_magnitude_fewer_bytes_after_burn_in() {
    // A model whose ϕ dwarfs the per-iteration update: V·K ≫ tokens.
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 100;
    spec.vocab_size = 2000;
    spec.avg_doc_len = 15.0;
    let c = spec.generate();
    let build = |mode| {
        TrainerConfig::builder(128, Platform::pascal().with_gpus(2))
            .iterations(ITERS)
            .score_every(0)
            .seed(7)
            .chunks_per_gpu(Some(1))
            .sync_mode(mode)
            .build()
            .unwrap()
    };
    let run = |mode| -> SyncTotals {
        let mut t = CuldaTrainer::try_new(&c, build(mode)).unwrap();
        for _ in 0..ITERS {
            t.try_step().unwrap();
        }
        t.sync_totals()
    };

    let dense = run(SyncMode::DenseTree);
    let delta = run(SyncMode::Delta);
    assert_eq!(dense.bytes_moved, dense.dense_bytes);
    assert_eq!(delta.dense_bytes, dense.bytes_moved);
    assert!(
        delta.bytes_moved * 10 <= dense.bytes_moved,
        "delta moved {} bytes, dense {} — wanted ≥10×",
        delta.bytes_moved,
        dense.bytes_moved
    );
    assert!(delta.compression_ratio() >= 10.0);
    assert!(delta.seconds < dense.seconds, "fewer bytes, less time");
}

#[test]
fn auto_never_models_more_sync_seconds_than_the_best_fixed_mode() {
    let c = corpus();
    let fixed: Vec<f64> = [SyncMode::DenseTree, SyncMode::DenseRing, SyncMode::Delta]
        .into_iter()
        .map(|m| train(&c, 2, m).sync_totals().seconds)
        .collect();
    let best: f64 = fixed.iter().cloned().fold(f64::INFINITY, f64::min);
    let auto = train(&c, 2, SyncMode::Auto).sync_totals().seconds;
    assert!(
        auto <= best + 1e-15,
        "auto modelled {auto}s, best fixed {best}s"
    );
}

#[test]
fn delta_density_decreases_as_training_converges() {
    // Random initial assignments spread every word over many topics; as
    // the sampler concentrates each word into few topics, the per-
    // iteration Δϕ support shrinks. That falling density is exactly what
    // the sparse sync banks on.
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 200;
    spec.vocab_size = 500;
    spec.avg_doc_len = 25.0;
    let c = spec.generate();
    let mut t = CuldaTrainer::try_new(
        &c,
        TrainerConfig::builder(32, Platform::pascal().with_gpus(2))
            .iterations(12)
            .score_every(0)
            .seed(5)
            .chunks_per_gpu(Some(1))
            .sync_mode(SyncMode::Delta)
            .build()
            .unwrap(),
    )
    .unwrap();
    let reg = Arc::new(MetricsRegistry::new());
    t.attach_observability(None, Some(Arc::clone(&reg)));

    let densities: Vec<f64> = (0..12)
        .map(|_| {
            let stat = t.try_step().unwrap();
            stat.delta_density.expect("delta mode records density")
        })
        .collect();

    for d in &densities {
        assert!(*d > 0.0 && *d <= 1.0, "density out of range: {d}");
    }
    let early: f64 = densities[..3].iter().sum::<f64>() / 3.0;
    let late: f64 = densities[9..].iter().sum::<f64>() / 3.0;
    assert!(
        late < early,
        "density should fall as training converges: early {early:.4}, late {late:.4}"
    );
    // The metrics layer carries the same series.
    assert_eq!(
        reg.gauge("sync.density").value(),
        *densities.last().unwrap(),
        "gauge holds the latest density"
    );
    assert!(reg.counter("sync.nnz").value() > 0);
    assert!(reg.counter("sync.bytes").value() > 0);
}

#[test]
fn delta_density_means_the_intra_node_payload_at_every_node_count() {
    // `IterationStat::delta_density` and the `sync.density` gauge are the
    // mean density of the intra-node Δϕ payloads — one per node, each
    // drawn as that node's sync span — whatever the node count. The
    // node-level payload, the union of those, is `cluster.sync.density`.
    let c = corpus();
    let cells = (c.vocab_size() * K) as f64;
    for nodes in [1, 2, 4] {
        let mut config = cfg(2, SyncMode::Delta);
        config.nodes = nodes;
        let mut t = CuldaTrainer::try_new(&c, config).unwrap();
        let sink = Arc::new(TraceSink::new());
        let reg = Arc::new(MetricsRegistry::new());
        t.attach_observability(Some(Arc::clone(&sink)), Some(Arc::clone(&reg)));
        let span = if nodes == 1 { "phi_sync" } else { "node_sync" };
        for i in 0..ITERS {
            let d = t.try_step().unwrap().delta_density.expect("delta shipped");
            let nnz: Vec<f64> = sink
                .events()
                .into_iter()
                .filter(|e| e.kind == EventKind::Begin && e.name == format!("{span} iter {i}"))
                .map(|e| match e.args.iter().find(|(k, _)| k == "nnz") {
                    Some((_, Json::Num(n))) => *n,
                    other => panic!("sync span without nnz: {other:?}"),
                })
                .collect();
            assert_eq!(nnz.len(), nodes, "{nodes} node(s), iteration {i}");
            let mean = nnz.iter().map(|n| n / cells).sum::<f64>() / nodes as f64;
            assert_eq!(
                d.to_bits(),
                mean.to_bits(),
                "{nodes} node(s), iteration {i}"
            );
            assert_eq!(reg.gauge("sync.density").value(), d);
            if nodes > 1 {
                let cluster = reg.gauge("cluster.sync.density").value();
                assert!(d <= cluster, "{nodes} nodes: {d} > cluster {cluster}");
            }
        }
    }
}
