//! Seeds drive every input, a second seed still passes every gate, and
//! one seed repeats its deterministic outputs exactly.
//!
//! The serving cases use a variant of `serve-k1024` that holds out fewer
//! documents, so a pass has a few dozen requests instead of a few hundred;
//! it runs the same code and gates.

use culda_perfbench::report::Outcome;
use culda_perfbench::serve::{ServeWorkload, SERVE_K1024};
use culda_perfbench::trace::Tracer;
use culda_perfbench::train::{NYTIMES_K1024, PUBMED_CLUSTER_OOC};
use culda_perfbench::{outcome, serve, train, Args, END_TO_END, PER_LAYER};

const SMALL_SERVE: ServeWorkload = ServeWorkload {
    held_out: 0.02,
    ..SERVE_K1024
};

fn args(workload: &'static str, seed: u64, trace: bool) -> Args {
    Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
    }
}

/// One episode or pass of `workload` (the first always completes).
fn run(workload: &'static str, seed: u64, trace: bool) -> Outcome {
    let a = args(workload, seed, trace);
    let mut tr = Tracer::new(trace);
    let m = match workload {
        "nytimes-k1024" => train::run(&NYTIMES_K1024, &a, &mut tr),
        "pubmed-cluster-ooc" => train::run(&PUBMED_CLUSTER_OOC, &a, &mut tr),
        "serve-k1024" => serve::run(&SMALL_SERVE, &a, &mut tr),
        other => panic!("unknown workload {other}"),
    };
    outcome(&a, m)
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn a_second_seed_generates_different_inputs() {
    for w in [NYTIMES_K1024, PUBMED_CLUSTER_OOC] {
        assert_ne!(w.corpus_spec(1).seed, w.corpus_spec(2).seed);
        assert_ne!(w.config(1).seed, w.config(2).seed);
        let (a, b) = (w.corpus_spec(1).generate(), w.corpus_spec(2).generate());
        assert_ne!(a.docs[0].words, b.docs[0].words, "{}", w.name);
        assert_eq!(
            w.corpus_spec(1).generate().docs[0].words,
            a.docs[0].words,
            "{} corpus is not a function of the seed",
            w.name
        );
    }
    let held = |seed| {
        let c = SMALL_SERVE.corpus_spec(seed).generate();
        culda_corpus::split_held_out(&c, SMALL_SERVE.held_out, seed).1
    };
    let (h1, h2) = (held(1), held(2));
    let (r1, r2) = (SMALL_SERVE.requests(&h1, 1), SMALL_SERVE.requests(&h2, 2));
    assert_ne!(r1, r2);
    assert_eq!(r1, SMALL_SERVE.requests(&h1, 1));
    // Same documents, another seed: another order and other tenants.
    assert_ne!(r1, SMALL_SERVE.requests(&h1, 2));
    let docs =
        |r: &[culda_perfbench::serve::Request]| r.iter().map(|q| q.docs.len()).sum::<usize>();
    assert_eq!(
        docs(&r1),
        h1.docs.iter().filter(|d| !d.words.is_empty()).count()
    );
}

#[test]
fn a_second_seed_passes_every_gate() {
    for w in ["nytimes-k1024", "pubmed-cluster-ooc", "serve-k1024"] {
        let o = run(w, 2, false);
        assert!(o.correct(), "{w}: {}", o.render_text());
        assert!(o.gates.attempted() > 0);
        assert_eq!(o.metrics.len(), END_TO_END.len());
        for m in &o.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w}: {} = {}",
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn one_seed_repeats_its_deterministic_outputs_exactly() {
    for w in ["pubmed-cluster-ooc", "serve-k1024"] {
        let (a, b) = (run(w, 3, false), run(w, 3, false));
        for name in ["model_tokens_per_s", "nll_per_token", "model_latency_p90_s"] {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{w}: {name}"
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_they_drive() {
    let cluster = run("pubmed-cluster-ooc", 4, true);
    assert!(cluster.correct(), "{}", cluster.render_text());
    assert_eq!(cluster.metrics.len(), PER_LAYER.len());
    for name in [
        "corpus.generate_s",
        "corpus.tokens",
        "multigpu.build_s",
        "multigpu.step_s",
        "multigpu.step_model_s",
        "multigpu.sync_model_s",
        "multigpu.transfer_model_s",
        "sampler.lda_sample.wall_s",
        "sampler.lda_sample.model_s",
        "sampler.lda_sample.dram_bytes",
        "sampler.lda_sample.launches",
        "sampler.theta_update.model_s",
        "sampler.phi_update.model_s",
        "metrics.loglik_s",
        "gpusim.launches",
        "gpusim.kernel_wall_s",
    ] {
        assert!(metric(&cluster, name) > 0.0, "pubmed-cluster-ooc: {name}");
    }
    assert_eq!(metric(&cluster, "serve.drain_s"), 0.0);
    assert_eq!(metric(&cluster, "multigpu.retries"), 0.0);

    let served = run("serve-k1024", 4, true);
    assert!(served.correct(), "{}", served.render_text());
    for name in [
        "sampler.lda_infer.wall_s",
        "sampler.lda_infer.model_s",
        "sampler.lda_infer.dram_bytes",
        "sampler.checkpoint_save_s",
        "sampler.checkpoint_bytes",
        "serve.model_load_s",
        "serve.plane_build_s",
        "serve.submit_s",
        "serve.drain_s",
        "multigpu.step_s",
        "sampler.lda_sample.model_s",
    ] {
        assert!(metric(&served, name) > 0.0, "serve-k1024: {name}");
    }
    assert_eq!(metric(&served, "serve.rejected"), 0.0);
}
