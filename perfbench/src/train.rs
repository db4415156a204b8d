//! Training workloads: repeated fixed-length training episodes on the
//! single-node (`nytimes-k1024`) and cluster (`pubmed-cluster-ooc`) paths.

use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{derive_seed, Args, Layers, Measured};
use culda_corpus::vocab::Vocab;
use culda_corpus::{split_held_out, Corpus, SynthSpec};
use culda_gpusim::Platform;
use culda_metrics::Phase;
use culda_multigpu::{
    build_trainer, DrawMode, LdaTrainer, PartitionPolicy, SamplingMode, SyncMode, TrainerConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Input stream tags for [`derive_seed`].
pub(crate) const CORPUS_STREAM: u64 = 1;
pub(crate) const SPLIT_STREAM: u64 = 2;
pub(crate) const TRAINER_STREAM: u64 = 3;

/// Share of documents held out of training.
const HELD_OUT: f64 = 0.05;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// One training workload: a synthetic corpus and a trainer shape.
#[derive(Debug, Clone, Copy)]
pub struct TrainWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Corpus preset at a scale.
    pub corpus: fn(f64) -> SynthSpec,
    /// Preset scale; it must generate more than [`Self::tokens`].
    pub scale: f64,
    /// Training tokens: the training side keeps its first documents up to
    /// this many tokens, so every seed does the same amount of work per
    /// iteration and per-iteration times compare across seeds.
    pub tokens: u64,
    /// Topics `K`.
    pub topics: usize,
    /// Cluster nodes.
    pub nodes: usize,
    /// Simulated GPUs per node.
    pub gpus_per_node: usize,
    /// Chunks per GPU `M` (`Some(1)` = in-core).
    pub chunks_per_gpu: usize,
    /// Training iterations per episode; each episode ends with a score.
    pub iterations: u32,
}

/// Long NYTimes-like documents at K = 1024 on one node of 2 Pascal GPUs,
/// in-core: the sampling kernel dominates both clocks.
pub const NYTIMES_K1024: TrainWorkload = TrainWorkload {
    name: "nytimes-k1024",
    corpus: SynthSpec::nytimes_like,
    scale: 0.0024,
    tokens: 180_000,
    topics: 1024,
    nodes: 1,
    gpus_per_node: 2,
    chunks_per_gpu: 1,
    iterations: 16,
};

/// Short PubMed-like documents at K = 64 on 2 nodes × 2 GPUs,
/// out-of-core with prefetch: sync, transfer and launch count dominate.
pub const PUBMED_CLUSTER_OOC: TrainWorkload = TrainWorkload {
    name: "pubmed-cluster-ooc",
    corpus: SynthSpec::pubmed_like,
    scale: 0.0004,
    tokens: 270_000,
    topics: 64,
    nodes: 2,
    gpus_per_node: 2,
    chunks_per_gpu: 4,
    iterations: 10,
};

impl TrainWorkload {
    /// The corpus spec `seed` generates.
    pub fn corpus_spec(&self, seed: u64) -> SynthSpec {
        let mut spec = (self.corpus)(self.scale);
        spec.seed = derive_seed(seed, CORPUS_STREAM);
        spec
    }

    /// The trainer configuration: auto sync/sampling/draw modes, one host
    /// thread per simulated GPU, prefetch on.
    pub fn config(&self, seed: u64) -> TrainerConfig {
        TrainerConfig::builder(
            self.topics,
            Platform::pascal().with_gpus(self.gpus_per_node),
        )
        .iterations(self.iterations)
        .score_every(0)
        .seed(derive_seed(seed, TRAINER_STREAM))
        .nodes(self.nodes)
        .chunks_per_gpu(Some(self.chunks_per_gpu))
        .prefetch(true)
        .sync_mode(SyncMode::Auto)
        .sampling_mode(SamplingMode::Auto)
        .draw_mode(DrawMode::Auto)
        .host_workers(1)
        .build()
        .expect("workload trainer configuration is valid")
    }

    /// Host threads at once: nodes run one after another, each drives its
    /// GPUs on one host thread apiece.
    pub fn host_threads(&self) -> usize {
        self.gpus_per_node
    }
}

/// The first documents of `corpus` holding at least `tokens` tokens (all
/// of them when it holds fewer), over the same vocabulary.
fn first_tokens(corpus: &Corpus, tokens: u64) -> Corpus {
    let mut vocab = Vocab::new();
    for id in 0..corpus.vocab_size() as u32 {
        vocab.intern(corpus.vocab.word(id));
    }
    let mut total = 0u64;
    let docs = corpus
        .docs
        .iter()
        .take_while(|d| {
            let more = total < tokens;
            total += d.len() as u64;
            more
        })
        .cloned()
        .collect();
    Corpus::new(docs, vocab)
}

/// Steps a trainer through one episode.
#[derive(Debug, Default)]
pub(crate) struct Steps {
    /// Host seconds per `try_step`.
    pub wall: Vec<f64>,
    /// Modelled seconds per iteration.
    pub model: Vec<f64>,
    /// Tokens sampled.
    pub tokens: u64,
    /// Every step succeeded.
    pub complete: bool,
}

/// Runs `iterations` steps as `multigpu.step` spans, stopping at the
/// first error (counted under the `try_step` gate).
pub(crate) fn run_steps(
    tr: &mut Tracer,
    trainer: &mut dyn LdaTrainer,
    iterations: u32,
    gates: &mut crate::report::Gates,
) -> Steps {
    let mut steps = Steps {
        complete: true,
        ..Steps::default()
    };
    for _ in 0..iterations {
        let (res, wall) = tr.time("multigpu.step", None, |_| trainer.try_step());
        match res {
            Ok(stat) => {
                gates.check("try_step", true);
                steps.wall.push(wall);
                steps.model.push(stat.sim_seconds);
                steps.tokens += stat.tokens;
            }
            Err(e) => {
                gates.check("try_step", false);
                eprintln!("try_step failed: {e}");
                steps.complete = false;
                break;
            }
        }
    }
    steps
}

/// Runs the count-conservation audit under the `invariants` gate.
pub(crate) fn check_invariants(trainer: &dyn LdaTrainer, gates: &mut crate::report::Gates) {
    let ok = catch_unwind(AssertUnwindSafe(|| trainer.check_invariants())).is_ok();
    gates.check("invariants", ok);
}

/// Kernel name and its per-iteration wall, modelled and DRAM metrics.
const KERNELS: [(&str, [&str; 3]); 4] = [
    (
        "lda_sample",
        [
            "sampler.lda_sample.wall_s",
            "sampler.lda_sample.model_s",
            "sampler.lda_sample.dram_bytes",
        ],
    ),
    (
        "theta_update",
        [
            "sampler.theta_update.wall_s",
            "sampler.theta_update.model_s",
            "sampler.theta_update.dram_bytes",
        ],
    ),
    (
        "phi_update",
        [
            "sampler.phi_update.wall_s",
            "sampler.phi_update.model_s",
            "sampler.phi_update.dram_bytes",
        ],
    ),
    (
        "phi_clear",
        [
            "sampler.phi_clear.wall_s",
            "sampler.phi_clear.model_s",
            "sampler.phi_clear.dram_bytes",
        ],
    ),
];

/// Per-iteration sampler, gpusim and multigpu numbers from a trainer's
/// launch log, phase breakdown, history and recovery counters.
pub(crate) fn record_training_layers(trainer: &dyn LdaTrainer, layers: &mut Layers) {
    let iters = trainer.iterations_done().max(1) as f64;
    let profile = trainer.profile();
    for s in profile.summaries() {
        if s.name == "lda_sample" {
            layers.push("sampler.lda_sample.launches", s.launches as f64 / iters);
        }
        if let Some((_, [wall, model, bytes])) = KERNELS.iter().find(|(k, _)| *k == s.name) {
            layers.push(wall, s.wall_seconds / iters);
            layers.push(model, s.total_seconds / iters);
            layers.push(bytes, s.dram_bytes as f64 / iters);
        }
    }
    layers.push("gpusim.launches", profile.len() as f64 / iters);
    let kernel_wall: f64 = profile.records().iter().map(|r| r.wall_seconds).sum();
    layers.push("gpusim.kernel_wall_s", kernel_wall / iters);

    let b = trainer.breakdown();
    layers.push("multigpu.sync_model_s", b.seconds(Phase::SyncPhi) / iters);
    layers.push(
        "multigpu.transfer_model_s",
        b.seconds(Phase::Transfer) / iters,
    );
    layers.push(
        "multigpu.recovery_model_s",
        b.seconds(Phase::Recovery) / iters,
    );
    layers.add("multigpu.retries", trainer.recovery().retries as f64);

    let history = trainer.history().iterations();
    let model: f64 = history.iter().map(|s| s.sim_seconds).sum();
    layers.push("multigpu.step_model_s", model / iters);
    let sparse = history
        .iter()
        .filter(|s| s.sampling_sparse == Some(true))
        .count();
    layers.push(
        "sampler.sparse_iteration_fraction",
        sparse as f64 / history.len().max(1) as f64,
    );
}

/// Host-side layer timings every workload records from its spans.
pub(crate) fn record_span_layers(tr: &Tracer, layers: &mut Layers) {
    for (metric, span) in [
        ("corpus.generate_s", "corpus.generate"),
        ("multigpu.build_s", "multigpu.build"),
        ("multigpu.step_s", "multigpu.step"),
        ("metrics.loglik_s", "metrics.loglik"),
    ] {
        layers.push_spans(metric, tr, span);
    }
}

/// Result of one episode: build (outside the timings), steps, score.
struct Episode {
    steps: Steps,
    score_wall: f64,
    loglik: f64,
}

impl Episode {
    fn model_seconds(&self) -> f64 {
        self.steps.model.iter().sum()
    }

    /// Same outputs on both clocks' deterministic side, bit for bit.
    fn repeats(&self, first: &Episode) -> bool {
        self.loglik.to_bits() == first.loglik.to_bits()
            && self.steps.tokens == first.steps.tokens
            && self.steps.model.iter().map(|x| x.to_bits()).eq(first
                .steps
                .model
                .iter()
                .map(|x| x.to_bits()))
    }
}

fn episode(
    tr: &mut Tracer,
    trainer: &mut dyn LdaTrainer,
    iterations: u32,
    gates: &mut crate::report::Gates,
) -> Episode {
    let steps = run_steps(tr, trainer, iterations, gates);
    let (loglik, score_wall) = tr.time("metrics.loglik", None, |_| trainer.loglik_per_token());
    gates.check("loglik_finite", loglik.is_finite());
    Episode {
        steps,
        score_wall,
        loglik,
    }
}

/// Runs a training workload for `args.seconds` of whole episodes (at
/// least one).
pub fn run(w: &TrainWorkload, args: &Args, tr: &mut Tracer) -> Measured {
    let mut m = Measured {
        host_threads: w.host_threads(),
        ..Measured::default()
    };
    let spec = w.corpus_spec(args.seed);
    let cfg = w.config(args.seed);
    let split_seed = derive_seed(args.seed, SPLIT_STREAM);

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let ((train, trainer), secs) = tr.time("bench.setup", None, |tr| {
            let (corpus, _) = tr.time("corpus.generate", None, |_| spec.generate());
            let (train, _) = tr.time("corpus.split", None, |_| {
                first_tokens(&split_held_out(&corpus, HELD_OUT, split_seed).0, w.tokens)
            });
            let (trainer, _) = tr.time("multigpu.build", None, |_| {
                build_trainer(PartitionPolicy::Document, &train, cfg.clone())
            });
            (train, trainer)
        });
        setup_s.push(secs);
        built = Some((train, trainer));
    }
    let (train, trainer) = built.expect("at least one set-up");
    m.notes.push(format!(
        "corpus {} docs, {} tokens, V = {}; K = {}, {} node(s) x {} GPU(s), M = {}, {} iterations per episode",
        train.num_docs(),
        train.num_tokens(),
        train.vocab_size(),
        w.topics,
        w.nodes,
        w.gpus_per_node,
        w.chunks_per_gpu,
        w.iterations
    ));
    let mut trainer = match trainer {
        Ok(t) => {
            m.gates.check("build", true);
            t
        }
        Err(e) => {
            m.gates.check("build", false);
            eprintln!("build_trainer failed: {e}");
            return m;
        }
    };

    let traced_run = tr.enabled();
    let start = Instant::now();
    let mut first: Option<Episode> = None;
    let (mut step_wall, mut step_model) = (Vec::new(), Vec::new());
    let (mut tokens, mut busy) = (0u64, 0.0);
    for index in 0.. {
        // The traced run alternates traced and untraced episodes, so the
        // tracing overhead is measured within one process.
        let traced = traced_run && index % 2 == 0;
        tr.set_enabled(traced);
        if index > 0 {
            let (t, _) = tr.time("multigpu.build", None, |_| {
                build_trainer(PartitionPolicy::Document, &train, cfg.clone())
            });
            match t {
                Ok(t) => trainer = t,
                Err(e) => {
                    m.gates.check("build", false);
                    eprintln!("build_trainer failed: {e}");
                    break;
                }
            }
        }
        let ep = episode(tr, trainer.as_mut(), w.iterations, &mut m.gates);
        if traced_run {
            let ops = if traced {
                &mut m.traced_ops
            } else {
                &mut m.untraced_ops
            };
            ops.extend(&ep.steps.wall);
        }
        if traced {
            record_training_layers(trainer.as_ref(), &mut m.layers);
        }
        step_wall.extend(&ep.steps.wall);
        step_model.extend(&ep.steps.model);
        tokens += ep.steps.tokens;
        busy += ep.steps.wall.iter().sum::<f64>() + ep.score_wall;
        let complete = ep.steps.complete;
        match &first {
            None => {
                check_invariants(trainer.as_ref(), &mut m.gates);
                first = Some(ep);
            }
            Some(f) => {
                if complete {
                    m.gates.check("repeat", ep.repeats(f));
                }
            }
        }
        if !complete || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tr.set_enabled(traced_run);
    let first = first.expect("at least one episode");

    if traced_run {
        record_span_layers(tr, &mut m.layers);
        m.layers.add("corpus.tokens", train.num_tokens() as f64);
    }
    let e2e = &mut m.end_to_end;
    e2e.insert("setup_s", crate::stats::median_or_zero(&setup_s));
    e2e.insert("tokens_per_s", tokens as f64 / busy);
    e2e.insert(
        "model_tokens_per_s",
        first.steps.tokens as f64 / first.model_seconds(),
    );
    e2e.insert("nll_per_token", -first.loglik);
    if let Some(s) = Summary::of(&step_wall) {
        e2e.insert("latency_p50_s", s.median);
        e2e.insert("latency_p90_s", s.p90);
    }
    if let Some(s) = Summary::of(&step_model) {
        e2e.insert("model_latency_p90_s", s.p90);
    }
    m.notes.push(format!(
        "{} iterations in {} episode(s); loglik/token {}",
        step_wall.len(),
        step_wall.len() / w.iterations as usize,
        first.loglik
    ));
    m.summarize("setup", "s", &setup_s);
    m.summarize("iteration host", "s", &step_wall);
    m.summarize("iteration model", "s", &step_model);
    m
}
