//! The serving workload: a closed-loop client sending held-out documents
//! through a 2-pool `ServingPlane` over a K = 1024 model that set-up
//! trains, checkpoints and reloads.

use crate::report::Gates;
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::train::{
    check_invariants, record_span_layers, record_training_layers, run_steps, CORPUS_STREAM,
    SPLIT_STREAM, TRAINER_STREAM,
};
use crate::{derive_seed, Args, Measured};
use culda_corpus::{split_held_out, Corpus, SynthSpec};
use culda_gpusim::Platform;
use culda_multigpu::{
    build_trainer, DrawMode, LdaTrainer, PartitionPolicy, SamplingMode, SyncMode, TrainerConfig,
};
use culda_sampler::{save_phi, LdaModel};
use culda_serve::{FrozenModel, InferenceEngine, ModelRegistry, PlaneConfig, ServingPlane};
use std::sync::Arc;
use std::time::Instant;

const REQUEST_STREAM: u64 = 4;
const SERVE_STREAM: u64 = 5;

/// Registry name the plane serves.
const MODEL: &str = "default";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Tolerance on `Σθ̂ = 1` for one document.
const THETA_SUM_TOLERANCE: f64 = 1e-9;

/// The serving workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Corpus preset at a scale.
    pub corpus: fn(f64) -> SynthSpec,
    /// Preset scale.
    pub scale: f64,
    /// Topics `K` of the served model.
    pub topics: usize,
    /// Simulated GPUs the model trains on.
    pub train_gpus: usize,
    /// Training iterations before the checkpoint.
    pub train_iterations: u32,
    /// Share of documents held out of training and served.
    pub held_out: f64,
    /// Distinct tenants the requests come from.
    pub tenants: usize,
}

/// Held-out PubMed-like documents, 1–2 per request, against K = 1024.
pub const SERVE_K1024: ServeWorkload = ServeWorkload {
    corpus: SynthSpec::pubmed_like,
    scale: 0.0002,
    topics: 1024,
    train_gpus: 2,
    train_iterations: 4,
    held_out: 0.2,
    tenants: 16,
};

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant the request is routed by.
    pub tenant: String,
    /// Documents as word-id lists.
    pub docs: Vec<Vec<u32>>,
}

/// SplitMix64 stream for the request mix.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (derive_seed(self.0, 0) % n as u64) as usize
    }
}

impl ServeWorkload {
    /// The corpus spec `seed` generates.
    pub fn corpus_spec(&self, seed: u64) -> SynthSpec {
        let mut spec = (self.corpus)(self.scale);
        spec.seed = derive_seed(seed, CORPUS_STREAM);
        spec
    }

    /// The configuration the served model trains with.
    pub fn train_config(&self, seed: u64) -> TrainerConfig {
        TrainerConfig::builder(self.topics, Platform::pascal().with_gpus(self.train_gpus))
            .iterations(self.train_iterations)
            .score_every(0)
            .seed(derive_seed(seed, TRAINER_STREAM))
            .sync_mode(SyncMode::Auto)
            .sampling_mode(SamplingMode::Auto)
            .draw_mode(DrawMode::Auto)
            .host_workers(1)
            .build()
            .expect("serving model configuration is valid")
    }

    /// The plane: serving defaults (2 pools of 2 workers × 1 host thread).
    pub fn plane_config(&self, seed: u64) -> PlaneConfig {
        PlaneConfig::new(MODEL, derive_seed(seed, SERVE_STREAM))
    }

    /// The request sequence `seed` generates: every non-empty held-out
    /// document once, in a seeded order, taken one and two at a time
    /// alternately, each request from a seeded tenant. Covering the whole
    /// held-out side keeps the request-size mix close across seeds.
    pub fn requests(&self, held_out: &Corpus, seed: u64) -> Vec<Request> {
        let mut pool: Vec<&Vec<u32>> = held_out
            .docs
            .iter()
            .map(|d| &d.words)
            .filter(|w| !w.is_empty())
            .collect();
        assert!(!pool.is_empty(), "held-out side has no documents to serve");
        let mut mix = Mix(derive_seed(seed, REQUEST_STREAM));
        for i in (1..pool.len()).rev() {
            pool.swap(i, mix.below(i + 1));
        }
        let mut requests = Vec::new();
        let mut rest = &pool[..];
        while !rest.is_empty() {
            let n = (1 + requests.len() % 2).min(rest.len());
            let (docs, tail) = rest.split_at(n);
            rest = tail;
            requests.push(Request {
                tenant: format!("tenant-{}", mix.below(self.tenants)),
                docs: docs.iter().map(|d| (*d).clone()).collect(),
            });
        }
        requests
    }
}

/// What set-up leaves for the measurement.
struct Served {
    registry: Arc<ModelRegistry>,
    model: Arc<FrozenModel>,
    plane: ServingPlane,
    held_out: Corpus,
    trainer: Box<dyn LdaTrainer>,
    train_tokens: u64,
    checkpoint_bytes: usize,
}

/// One set-up: corpus, split, training, checkpoint round trip, plane.
fn setup(w: &ServeWorkload, seed: u64, tr: &mut Tracer, gates: &mut Gates) -> Option<Served> {
    let spec = w.corpus_spec(seed);
    let (corpus, _) = tr.time("corpus.generate", None, |_| spec.generate());
    let ((train, held_out), _) = tr.time("corpus.split", None, |_| {
        split_held_out(&corpus, w.held_out, derive_seed(seed, SPLIT_STREAM))
    });
    let (trainer, _) = tr.time("multigpu.build", None, |_| {
        build_trainer(PartitionPolicy::Document, &train, w.train_config(seed))
    });
    let mut trainer = match trainer {
        Ok(t) => t,
        Err(e) => {
            gates.check("build", false);
            eprintln!("build_trainer failed: {e}");
            return None;
        }
    };
    if !run_steps(tr, trainer.as_mut(), w.train_iterations, gates).complete {
        return None;
    }
    let (bytes, _) = tr.time("sampler.checkpoint_save", None, |_| {
        let mut bytes = Vec::new();
        save_phi(trainer.phi(), &mut bytes).map(|()| bytes)
    });
    let bytes = match bytes {
        Ok(b) => b,
        Err(e) => {
            gates.check("checkpoint", false);
            eprintln!("save_phi failed: {e}");
            return None;
        }
    };
    let (model, _) = tr.time("serve.model_load", None, |_| FrozenModel::load(&bytes[..]));
    let model = match model {
        Ok(m) => Arc::new(m),
        Err(e) => {
            gates.check("checkpoint", false);
            eprintln!("FrozenModel::load failed: {e}");
            return None;
        }
    };
    let registry = Arc::new(ModelRegistry::new());
    let (plane, _) = tr.time("serve.plane_build", None, |_| {
        registry.publish(MODEL, Arc::clone(&model));
        ServingPlane::new(Arc::clone(&registry), w.plane_config(seed))
    });
    match plane {
        Ok(plane) => Some(Served {
            registry,
            model,
            plane,
            held_out,
            trainer,
            train_tokens: train.num_tokens(),
            checkpoint_bytes: bytes.len(),
        }),
        Err(e) => {
            gates.check("plane", false);
            eprintln!("ServingPlane::new failed: {e}");
            None
        }
    }
}

/// Whether every θ̂ row has `k` finite entries summing to 1.
fn theta_ok(theta: &[Vec<f64>], k: usize) -> bool {
    theta.iter().all(|row| {
        row.len() == k
            && row.iter().all(|x| x.is_finite() && *x >= 0.0)
            && (row.iter().sum::<f64>() - 1.0).abs() <= THETA_SUM_TOLERANCE
    })
}

/// `-Σ_w ln Σ_k θ̂_k p(w | k)` over a request's documents, against the
/// served model (the held-out perplexity's exponent, times tokens).
fn neg_log_predictive(model: &FrozenModel, docs: &[Vec<u32>], theta: &[Vec<f64>]) -> f64 {
    let mut nll = 0.0;
    for (doc, th) in docs.iter().zip(theta) {
        for &w in doc {
            let p: f64 = th
                .iter()
                .enumerate()
                .map(|(k, t)| t * model.word_prob(w as usize, k))
                .sum();
            nll -= p.max(f64::MIN_POSITIVE).ln();
        }
    }
    nll
}

/// One served request as measured.
struct Reply {
    host_s: f64,
    model_s: f64,
    tokens: u64,
    theta: Vec<Vec<f64>>,
}

/// Runs the serving workload for `args.seconds`. The first pass over the
/// requests always completes and defines the modelled metrics; later
/// passes replay it on fresh planes and must repeat it exactly.
pub fn run(w: &ServeWorkload, args: &Args, tr: &mut Tracer) -> Measured {
    // Pools serve one after another; one engine uses all its workers.
    let engine = w.plane_config(args.seed).engine;
    let mut m = Measured {
        host_threads: engine.workers * engine.host_workers,
        ..Measured::default()
    };
    let traced_run = tr.enabled();
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        let (s, secs) = tr.time("bench.setup", None, |tr| {
            setup(w, args.seed, tr, &mut m.gates)
        });
        setup_s.push(secs);
        served = s;
        if served.is_none() {
            return m;
        }
    }
    let Served {
        registry,
        model,
        mut plane,
        held_out,
        trainer,
        train_tokens,
        checkpoint_bytes,
    } = served.expect("at least one set-up");
    m.gates.check("build", true);
    check_invariants(trainer.as_ref(), &mut m.gates);
    if traced_run {
        record_training_layers(trainer.as_ref(), &mut m.layers);
        m.layers.add("corpus.tokens", train_tokens as f64);
        m.layers
            .add("sampler.checkpoint_bytes", checkpoint_bytes as f64);
    }
    drop(trainer);
    let k = model.num_topics();
    let requests = w.requests(&held_out, args.seed);
    m.notes.push(format!(
        "held-out {} docs, {} tokens; {} requests per pass from {} tenants; K = {k}; checkpoint {checkpoint_bytes} bytes",
        held_out.num_docs(),
        held_out.num_tokens(),
        requests.len(),
        w.tenants
    ));

    let start = Instant::now();
    let mut first: Vec<Reply> = Vec::new();
    let (mut host, mut tokens, mut busy) = (Vec::new(), 0u64, 0.0);
    let mut rejected = 0;
    'passes: for pass in 0.. {
        tr.set_enabled(traced_run);
        if pass > 0 {
            let (p, _) = tr.time("serve.plane_build", None, |_| {
                ServingPlane::new(Arc::clone(&registry), w.plane_config(args.seed))
            });
            match p {
                Ok(p) => {
                    rejected += plane.queue().rejected();
                    plane = p;
                }
                Err(e) => {
                    m.gates.check("plane", false);
                    eprintln!("ServingPlane::new failed: {e}");
                    break;
                }
            }
        }
        // The traced run replays its traced requests through a bare engine
        // of the pools' configuration to read the fold-in kernel's profile.
        let replay = traced_run
            .then(|| InferenceEngine::new(Arc::clone(&model), w.plane_config(args.seed).engine));
        let mut now = 0.0;
        let mut replayed = 0usize;
        for (i, req) in requests.iter().enumerate() {
            if pass > 0 && start.elapsed().as_secs_f64() >= args.seconds {
                break 'passes;
            }
            // Traced and untraced requests alternate in pairs, so both
            // kinds see one- and two-document requests alike.
            let traced = traced_run && (i / 2) % 2 == 0;
            tr.set_enabled(traced);
            let rid = (pass * requests.len() + i) as u64;
            let docs = req.docs.clone();
            let (res, _) = tr.time("serve.request", Some(rid), |tr| {
                let (id, submit_s) = tr.time("serve.submit", Some(rid), |_| {
                    plane.submit(req.tenant.as_str(), docs, now)
                });
                let id = id?;
                let (done, drain_s) = tr.time("serve.drain", Some(rid), |_| plane.drain(now));
                Ok::<_, culda_serve::ServeError>((id, done?, submit_s + drain_s, drain_s))
            });
            let (id, done, host_s, drain_s) = match res {
                Ok(r) => r,
                Err(e) => {
                    m.gates.check("request_completed", false);
                    eprintln!("request {rid} failed: {e}");
                    continue;
                }
            };
            let one = match done.as_slice() {
                [c] if c.id == id && c.docs == req.docs.len() => c,
                _ => {
                    m.gates.check("request_completed", false);
                    continue;
                }
            };
            m.gates.check("request_completed", true);
            m.gates.check("theta_rows", theta_ok(&one.theta, k));
            now = one.completed_at;
            let s = Reply {
                host_s,
                model_s: one.latency(),
                tokens: one.tokens,
                theta: one.theta.clone(),
            };
            host.push(s.host_s);
            tokens += s.tokens;
            busy += s.host_s;
            if traced_run {
                let ops = if traced {
                    &mut m.traced_ops
                } else {
                    &mut m.untraced_ops
                };
                ops.push(s.host_s);
            }
            if let (Some(engine), true) = (&replay, traced) {
                let (out, infer_s) = tr.time("sampler.lda_infer", Some(rid), |_| {
                    engine.infer_batch(&req.docs)
                });
                if m.gates.check("replay", out.is_ok()) {
                    m.layers.push("serve.plane_overhead_s", drain_s - infer_s);
                    replayed += 1;
                }
            }
            if pass == 0 {
                first.push(s);
            } else if let Some(f) = first.get(i) {
                m.gates.check(
                    "repeat",
                    f.model_s.to_bits() == s.model_s.to_bits() && f.theta == s.theta,
                );
            }
        }
        if let Some(engine) = &replay {
            let per = replayed.max(1) as f64;
            for s in engine.profile().summaries() {
                if s.name == "lda_infer" {
                    m.layers
                        .push("sampler.lda_infer.wall_s", s.wall_seconds / per);
                    m.layers
                        .push("sampler.lda_infer.model_s", s.total_seconds / per);
                    m.layers
                        .push("sampler.lda_infer.dram_bytes", s.dram_bytes as f64 / per);
                }
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tr.set_enabled(traced_run);
    rejected += plane.queue().rejected();
    m.gates.check("no_rejections", rejected == 0);

    let first_tokens: u64 = first.iter().map(|s| s.tokens).sum();
    let nll: f64 = first
        .iter()
        .zip(&requests)
        .map(|(s, r)| neg_log_predictive(&model, &r.docs, &s.theta))
        .sum::<f64>()
        / first_tokens.max(1) as f64;
    m.gates
        .check("perplexity_finite", nll.is_finite() && nll > 0.0);
    let model_lat: Vec<f64> = first.iter().map(|s| s.model_s).collect();

    if traced_run {
        record_span_layers(tr, &mut m.layers);
        for (metric, span) in [
            ("sampler.checkpoint_save_s", "sampler.checkpoint_save"),
            ("serve.model_load_s", "serve.model_load"),
            ("serve.plane_build_s", "serve.plane_build"),
            ("serve.submit_s", "serve.submit"),
            ("serve.drain_s", "serve.drain"),
        ] {
            m.layers.push_spans(metric, tr, span);
        }
        m.layers.add("serve.rejected", rejected as f64);
    }
    let e2e = &mut m.end_to_end;
    e2e.insert("setup_s", crate::stats::median_or_zero(&setup_s));
    e2e.insert("tokens_per_s", tokens as f64 / busy);
    e2e.insert(
        "model_tokens_per_s",
        first_tokens as f64 / model_lat.iter().sum::<f64>(),
    );
    e2e.insert("nll_per_token", nll);
    if let Some(s) = Summary::of(&host) {
        e2e.insert("latency_p50_s", s.median);
        e2e.insert("latency_p90_s", s.p90);
    }
    if let Some(s) = Summary::of(&model_lat) {
        e2e.insert("model_latency_p90_s", s.p90);
    }
    m.notes.push(format!(
        "{} requests served; held-out perplexity {}",
        host.len(),
        nll.exp()
    ));
    m.summarize("setup", "s", &setup_s);
    m.summarize("request host", "s", &host);
    m.summarize("request model", "s", &model_lat);
    m
}
