//! End-to-end fault injection and recovery across the training and
//! serving stacks.
//!
//! The golden property: recovery never changes the model. RNG streams
//! are keyed by `(seed, iteration, global token index)` and ϕ counts
//! are commutative sums over assignments, so a retried iteration — or a
//! chunk re-run on a surviving GPU after its owner died — produces the
//! same bits as a fault-free run. These tests sweep single transient
//! faults over every (kind, device, iteration) coordinate on 1, 2 and 4
//! nodes and pin bit-identity of the final ϕ, then exercise the
//! permanent-loss rebalance path — and the drain of a whole node — with
//! the trace/metrics sinks attached. Partition-by-word runs the same
//! superstep, so it joins both sweeps: a word range migrates like a
//! chunk.

use culda::corpus::{Corpus, SynthSpec};
use culda::gpusim::{FaultKind, FaultPlan, FaultSpec, Platform};
use culda::metrics::{MetricsRegistry, TraceSink};
use culda::multigpu::{
    build_trainer, CuldaError, CuldaTrainer, LdaTrainer, PartitionPolicy, SyncMode, TrainerConfig,
};
use culda::sampler::PhiModel;
use std::sync::Arc;

const K: usize = 8;
const ITERS: u32 = 3;

fn corpus() -> Corpus {
    let mut spec = SynthSpec::tiny();
    spec.num_docs = 120;
    spec.vocab_size = 200;
    spec.avg_doc_len = 20.0;
    spec.generate()
}

/// Two simulated GPUs, out-of-core (M = 2) so every iteration stages
/// chunk state over the host link — which lets `drop` faults fire too.
fn cfg() -> TrainerConfig {
    TrainerConfig::builder(K, Platform::pascal().with_gpus(2))
        .iterations(ITERS)
        .score_every(0)
        .seed(17)
        .chunks_per_gpu(Some(2))
        .build()
        .expect("valid config")
}

/// `nodes` boxes of two GPUs over the same 16 chunks (`C = M × G` is
/// planned per node, so `M = 8` at every node count): every device owns
/// chunks up to 4 nodes, and every node count trains the same model.
fn cfg_on(nodes: usize) -> TrainerConfig {
    TrainerConfig::builder(K, Platform::pascal().with_gpus(2))
        .iterations(ITERS)
        .score_every(0)
        .seed(17)
        .nodes(nodes)
        .chunks_per_gpu(Some(8))
        .build()
        .expect("valid config")
}

const NODE_COUNTS: [usize; 3] = [1, 2, 4];

/// `gpus` GPUs on one node: the partition-by-word layout, one word range
/// per GPU.
fn word_cfg(gpus: usize) -> TrainerConfig {
    TrainerConfig::builder(K, Platform::pascal().with_gpus(gpus))
        .iterations(ITERS)
        .score_every(0)
        .seed(17)
        .build()
        .expect("valid config")
}

/// Trains a partition-by-word run for `ITERS` supersteps under `plan`.
fn train_by_word(c: &Corpus, gpus: usize, plan: Option<Arc<FaultPlan>>) -> CuldaTrainer {
    let mut t = CuldaTrainer::try_with_policy(PartitionPolicy::Word, c, word_cfg(gpus))
        .expect("trainer builds");
    if let Some(p) = plan {
        t.attach_fault_plan(p);
    }
    for _ in 0..ITERS {
        t.try_step().expect("recoverable run");
    }
    t
}

fn phi_counts(phi: &PhiModel) -> Vec<u32> {
    (0..phi.phi.len()).map(|i| phi.phi.load(i)).collect()
}

fn train_with(c: &Corpus, cfg: TrainerConfig, plan: Option<Arc<FaultPlan>>) -> CuldaTrainer {
    let mut t = CuldaTrainer::try_new(c, cfg).expect("trainer builds");
    if let Some(p) = plan {
        t.attach_fault_plan(p);
    }
    for _ in 0..ITERS {
        t.try_step().expect("recoverable run");
    }
    t
}

#[test]
fn any_single_transient_fault_is_bit_identical_to_fault_free() {
    let c = corpus();
    let reference = train_with(&c, cfg_on(1), None);
    let want_phi = phi_counts(reference.global_phi());
    let want_ll = reference.loglik_per_token();

    for nodes in NODE_COUNTS {
        for kind in [
            FaultKind::KernelLaunch,
            FaultKind::MemoryCorruption,
            FaultKind::LinkDrop,
        ] {
            for device in 0..2 * nodes {
                for iteration in 0..ITERS {
                    let at = format!("{kind:?} at ({device}, {iteration}) on {nodes} node(s)");
                    let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
                        kind, device, iteration,
                    )]));
                    let t = train_with(&c, cfg_on(nodes), Some(Arc::clone(&plan)));
                    let rec = t.recovery();
                    assert_eq!(plan.injected(), 1, "{at} never fired");
                    assert_eq!(rec.retries, 1, "{at}");
                    assert_eq!(rec.workers_lost, 0, "{at}");
                    assert_eq!(phi_counts(t.global_phi()), want_phi, "{at} changed ϕ");
                    assert!((t.loglik_per_token() - want_ll).abs() < 1e-12, "{at}");
                }
            }
        }
    }

    // The word policy runs the same retry loop. It never stages, so
    // there is no `drop` coordinate.
    for gpus in [2, 4] {
        let reference = train_by_word(&c, gpus, None);
        for kind in [FaultKind::KernelLaunch, FaultKind::MemoryCorruption] {
            for device in 0..gpus {
                for iteration in 0..ITERS {
                    let at = format!("word policy, {kind:?} at ({device}, {iteration}) of {gpus}");
                    let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
                        kind, device, iteration,
                    )]));
                    let t = train_by_word(&c, gpus, Some(Arc::clone(&plan)));
                    let rec = t.recovery();
                    assert_eq!(plan.injected(), 1, "{at} never fired");
                    assert_eq!(rec.retries, 1, "{at}");
                    assert_eq!(rec.workers_lost, 0, "{at}");
                    assert_eq!(t.assignments(), reference.assignments(), "{at} changed z");
                    assert_eq!(
                        phi_counts(t.global_phi()),
                        phi_counts(reference.global_phi()),
                        "{at} changed ϕ"
                    );
                }
            }
        }
    }
}

#[test]
fn transient_faults_under_delta_sync_never_double_apply() {
    // The delta payload is rebuilt from the cleared write replica every
    // iteration — including the retried one — so a fault that fires after
    // some ϕ updates already landed must not leave stale rows behind to
    // be shipped twice. Sweep every transient coordinate under
    // `SyncMode::Delta` and pin bit-identity against the *dense-tree*
    // fault-free reference (cross-mode and cross-fault at once).
    let c = corpus();
    let reference = train_with(&c, cfg(), None);
    let want_phi = phi_counts(reference.global_phi());

    let delta_cfg = || {
        let mut cfg = cfg();
        cfg.sync_mode = SyncMode::Delta;
        cfg
    };
    for kind in [
        FaultKind::KernelLaunch,
        FaultKind::MemoryCorruption,
        FaultKind::LinkDrop,
    ] {
        for device in 0..2 {
            for iteration in 0..ITERS {
                let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
                    kind, device, iteration,
                )]));
                let mut t = CuldaTrainer::try_new(&c, delta_cfg()).unwrap();
                t.attach_fault_plan(Arc::clone(&plan));
                for _ in 0..ITERS {
                    t.try_step().expect("recoverable run");
                }
                assert_eq!(plan.injected(), 1);
                assert_eq!(t.recovery().retries, 1);
                assert_eq!(
                    phi_counts(t.global_phi()),
                    want_phi,
                    "delta sync with {kind:?} at ({device}, {iteration})                      double-applied or lost counts"
                );
            }
        }
    }
}

#[test]
fn permanent_loss_rebalances_chunks_and_keeps_phi_bit_identical() {
    let c = corpus();
    let reference = train_with(&c, cfg_on(1), None);
    let want_phi = phi_counts(reference.global_phi());

    for nodes in NODE_COUNTS {
        for device in 0..2 * nodes {
            let at = format!("device {device} on {nodes} node(s)");
            let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
                FaultKind::KernelLaunch,
                device,
                1,
            )
            .permanent()]));
            let trace = Arc::new(TraceSink::new());
            let registry = Arc::new(MetricsRegistry::new());
            let mut t = CuldaTrainer::try_new(&c, cfg_on(nodes)).unwrap();
            t.attach_observability(Some(Arc::clone(&trace)), Some(Arc::clone(&registry)));
            t.attach_fault_plan(Arc::clone(&plan));
            for _ in 0..ITERS {
                t.try_step()
                    .expect("survivor absorbs the dead GPU's chunks");
            }

            let rec = t.recovery();
            assert_eq!(rec.workers_lost, 1, "{at}: {rec}");
            assert_eq!(
                rec.chunks_migrated as usize,
                8 / nodes,
                "{at}: every chunk of the dead GPU migrates"
            );
            assert!(
                rec.retries >= 2,
                "{at}: retry budget was spent first: {rec}"
            );
            assert!(rec.faults_injected >= 3, "{at}: {rec}");
            assert_eq!(t.num_alive(), 2 * nodes - 1, "{at}");
            assert_eq!(
                t.num_alive_nodes(),
                nodes,
                "{at}: its node partner survives"
            );
            assert_eq!(
                phi_counts(t.global_phi()),
                want_phi,
                "{at}: rebalanced training diverged from the fault-free model"
            );

            // The recovery timeline is observable: retry and rebalance
            // spans in the trace, matching counters in the registry.
            let events = trace.events();
            for name in ["worker.retry", "rebalance", "fault.injected"] {
                assert!(events.iter().any(|e| e.name == name), "{at}: no {name}");
            }
            assert!(registry.counter("worker.retry").value() >= 2, "{at}");
            assert!(registry.counter("rebalance").value() >= 1, "{at}");
            assert!(registry.counter("fault.injected").value() >= 3, "{at}");
            assert_eq!(registry.counter("cluster.nodes_failed").value(), 0, "{at}");
        }
    }
}

#[test]
fn losing_every_gpu_of_a_node_drains_it_and_keeps_phi_bit_identical() {
    let c = corpus();
    let reference = train_with(&c, cfg_on(1), None);
    let want_phi = phi_counts(reference.global_phi());

    // Both GPUs of node 1 die in the same superstep: no survivor is left
    // on the node, so its chunks drain over the node link to node 0 and
    // re-run there before the sync.
    let plan = Arc::new(FaultPlan::from_specs(
        [2, 3]
            .into_iter()
            .map(|d| FaultSpec::new(FaultKind::KernelLaunch, d, 1).permanent())
            .collect(),
    ));
    let registry = Arc::new(MetricsRegistry::new());
    let mut t = CuldaTrainer::try_new(&c, cfg_on(2)).unwrap();
    t.attach_observability(None, Some(Arc::clone(&registry)));
    t.attach_fault_plan(plan);
    for _ in 0..ITERS {
        t.try_step().expect("node 0 absorbs node 1's chunks");
    }

    let rec = t.recovery();
    assert_eq!(rec.workers_lost, 2, "{rec}");
    assert_eq!(
        rec.chunks_migrated, 8,
        "all of node 1's chunks drain: {rec}"
    );
    assert_eq!(t.num_alive_nodes(), 1);
    assert_eq!(registry.counter("cluster.nodes_failed").value(), 1);
    let tokens: usize = t.states().iter().map(|s| s.z.len()).sum();
    assert_eq!(tokens as u64, c.num_tokens(), "the drain lost tokens");
    t.check_invariants();
    assert_eq!(
        phi_counts(t.global_phi()),
        want_phi,
        "the drained cluster diverged from the fault-free model"
    );
}

#[test]
fn exhausted_retries_surface_as_worker_lost_not_panic() {
    let c = corpus();
    // Single GPU: a permanently failing device leaves no survivors.
    let cfg1 = TrainerConfig::builder(K, Platform::maxwell())
        .iterations(ITERS)
        .score_every(0)
        .seed(17)
        .build()
        .unwrap();
    let mut t = CuldaTrainer::try_new(&c, cfg1).unwrap();
    t.attach_fault_plan(Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
        FaultKind::KernelLaunch,
        0,
        0,
    )
    .permanent()])));
    match t.try_step() {
        Err(CuldaError::AllWorkersLost) => {}
        other => panic!("expected AllWorkersLost, got {other:?}"),
    }
}

#[test]
fn word_policy_rebalances_a_lost_gpu_bit_identically() {
    // A word range is a unit like a chunk: its z travels with it and its
    // streams are keyed by global token index, so a survivor re-runs it
    // against the same snapshot and the model does not move.
    let c = corpus();
    for gpus in [2, 4] {
        let reference = train_by_word(&c, gpus, None);
        for device in 0..gpus {
            let at = format!("word policy, device {device} of {gpus}");
            let plan = Arc::new(FaultPlan::from_specs(vec![FaultSpec::new(
                FaultKind::KernelLaunch,
                device,
                1,
            )
            .permanent()]));
            let t = train_by_word(&c, gpus, Some(plan));
            let rec = t.recovery();
            assert_eq!(rec.workers_lost, 1, "{at}: {rec}");
            assert_eq!(rec.chunks_migrated, 1, "{at}: its word range migrates");
            assert!(
                rec.retries >= 2,
                "{at}: retry budget was spent first: {rec}"
            );
            assert_eq!(t.num_alive(), gpus - 1, "{at}");
            assert_eq!(t.assignments(), reference.assignments(), "{at} changed z");
            assert_eq!(
                phi_counts(t.global_phi()),
                phi_counts(reference.global_phi()),
                "{at}: rebalanced training diverged from the fault-free model"
            );
            t.check_invariants();
        }

        // With every GPU gone there is nowhere to rebalance to.
        let plan = Arc::new(FaultPlan::from_specs(
            (0..gpus)
                .map(|d| FaultSpec::new(FaultKind::KernelLaunch, d, 1).permanent())
                .collect(),
        ));
        let mut doomed = CuldaTrainer::try_with_policy(PartitionPolicy::Word, &c, word_cfg(gpus))
            .expect("trainer builds");
        doomed.attach_fault_plan(plan);
        doomed.try_step().expect("iteration 0 is fault-free");
        match doomed.try_step() {
            Err(CuldaError::AllWorkersLost) => {}
            other => panic!("{gpus} GPUs: expected AllWorkersLost, got {other:?}"),
        }
    }
}

#[test]
fn fault_plan_works_through_the_unified_trainer_surface() {
    let c = corpus();
    for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
        let mut reference = build_trainer(policy, &c, cfg()).unwrap();
        for _ in 0..ITERS {
            reference.try_step().unwrap();
        }
        let mut faulty = build_trainer(policy, &c, cfg()).unwrap();
        faulty.attach_fault_plan(Arc::new(FaultPlan::random_transient(99, 2, ITERS)));
        for _ in 0..ITERS {
            faulty.try_step().unwrap();
        }
        assert_eq!(faulty.recovery().retries, 1, "{policy}");
        assert_eq!(
            phi_counts(reference.phi()),
            phi_counts(faulty.phi()),
            "{policy} diverged under a random transient fault"
        );
    }
}
