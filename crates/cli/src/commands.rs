//! CLI subcommand implementations.
//!
//! Training-adjacent commands (`train`, `profile`, `trace`) drive a
//! `Box<dyn LdaTrainer>` chosen by `--policy`, so both partition policies
//! share one code path; `infer` drives the serving subsystem's
//! [`InferenceEngine`] against a frozen checkpoint.

use crate::args::{ArgError, Args};
use culda_corpus::{read_uci, split_held_out, write_uci, Corpus, SynthSpec};
use culda_gpusim::{FaultPlan, Platform};
use culda_metrics::{
    format_tokens_per_sec, render_openmetrics, HealthConfig, HealthMonitor, HealthSample, Json,
    MetricsRegistry, MetricsSnapshot, Severity, SnapshotWriter, TraceSink,
};
use culda_multigpu::{
    build_trainer, resume_any, save_training, DrawMode, LdaTrainer, PartitionPolicy, SamplingMode,
    SyncMode, TrainerConfig, TrainerConfigBuilder,
};
use culda_sampler::{load_phi, LdaModel};
use culda_serve::{FrozenModel, HeldOutEvaluator, InferenceEngine, InferenceOutcome, ServeConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;

/// Any command error: bad arguments, configuration, faults, or I/O.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

pub(crate) fn arg_err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(ArgError(msg.into()))
}

fn err(msg: impl Into<String>) -> Box<dyn std::error::Error> {
    arg_err(msg)
}

/// A run finished but the health detectors flagged it as untrustworthy
/// (fatal event, or any event under `--strict-health`). The model and all
/// telemetry are still written; the nonzero exit code is the signal.
#[derive(Debug)]
pub struct HealthError(pub String);

impl std::fmt::Display for HealthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run health check failed: {}", self.0)
    }
}

impl std::error::Error for HealthError {}

/// Parses the optional `--fault-plan` flag (see [`FaultPlan::parse`]).
fn fault_plan(args: &Args) -> Result<Option<Arc<FaultPlan>>, Box<dyn std::error::Error>> {
    match args.require("fault-plan") {
        Ok(spec) => Ok(Some(Arc::new(FaultPlan::parse(spec).map_err(err)?))),
        Err(_) => Ok(None),
    }
}

/// Usage text. A function, not a constant: the mode lists (`--policy`,
/// `--sync-mode`, `--sampling-mode`, `--draw-mode`) are derived from the
/// same canonical name tables the parsers and their errors use, so the
/// help can never drift from what actually parses.
pub fn usage() -> String {
    let policy = PartitionPolicy::usage();
    let sync = SyncMode::usage();
    let sampling = SamplingMode::usage();
    let draw = DrawMode::usage();
    format!(
        "\
culda — CuLDA_CGS topic modeling (Rust reproduction)

USAGE:
  culda generate --preset <tiny|nytimes|pubmed> [--scale F] [--seed N]
                 --docword PATH --vocab PATH
  culda train    --docword PATH --vocab PATH --model OUT.phi
                 [--policy {policy}] [--topics K] [--iters N]
                 [--platform maxwell|pascal|volta] [--gpus G] [--workers N]
                 [--nodes N] [--no-prefetch]
                 [--seed N] [--score-every N]
                 [--sync-mode {sync}]
                 [--sampling-mode {sampling}]
                 [--draw-mode {draw}]
                 [--resume STATE] [--save-state STATE] [--fault-plan SPEC]
                 [--eval-every N] [--eval-fraction F] [--eval-seed N]
                 [--snapshots OUT.jsonl] [--openmetrics OUT.txt]
                 [--trace-out trace.json] [--strict-health]
  culda topics   --model M.phi --vocab PATH [--top N]
  culda infer    --model M.phi --docword PATH --vocab PATH
                 [--workers W] [--batch-size B] [--burnin N] [--samples N]
                 [--seed N] [--platform maxwell|pascal|volta]
                 [--out theta.json] [--trace-out trace.json]
                 [--fault-plan SPEC]
  culda serve    --docword PATH --vocab PATH --model A.phi [--model-b B.phi]
                 [--pools N] [--pool-workers W] [--capacity DOCS]
                 [--batch-size B] [--rate RPS] [--duration S] [--tenants T]
                 [--docs-per-request D] [--swap-at S] [--slo-ms MS]
                 [--seed N] [--platform maxwell|pascal|volta]
                 [--out BENCH_serving.json]
  culda info     --model M.phi
  culda profile  --docword PATH --vocab PATH [--policy {policy}] [--topics K]
                 [--iters N] [--platform maxwell|pascal|volta] [--gpus G]
                 [--workers N] [--draw-mode {draw}]
                 [--out PROFILE.json] [--compare BASELINE.json]
  culda trace    --preset <tiny|nytimes|pubmed> [--scale F] [--seed N]
                 [--policy {policy}] [--topics K] [--iters N]
                 [--platform maxwell|pascal|volta] [--gpus G] [--workers N]
                 [--nodes N] [--no-prefetch]
                 [--trace-out trace.json] [--metrics-out metrics.json]
  culda report   --snapshots RUN.jsonl [--openmetrics METRICS.txt]
                 [--out report.md]

`--policy` picks the Section 4 partition policy (default doc, the paper's
choice). `--workers N` on train/profile/trace sets the host threads each
simulated GPU uses; results are bit-identical for any value. On `infer`,
`--workers W` is the number of simulated GPUs micro-batches fan across.
`--sync-mode` picks the ϕ synchronization strategy (default dense-tree,
the paper's Figure 4); `delta` ships only the touched counts, `auto`
picks the cheapest per iteration from modelled cost. Checkpoints are
byte-identical across all modes — only modelled sync time/bytes change.
`--sampling-mode` picks the p* fill path inside the sampling kernel
(default dense, the paper's K-length scan); `sparse` patches only the
nonzero ϕ cells over the β baseline, `auto` re-decides each iteration
from the same cost model the delta sync uses. Like sync modes, every
sampling mode draws identical topics — checkpoints are byte-identical
and only the modelled sampling time changes.
`--draw-mode` picks how each sampler turns its per-token p1 prefix into
a topic (default tree, the paper's private index-tree walk): `butterfly`
interleaves the warp's 32 distributions Steele–Tristan style so every
scan step is one coalesced 128-byte segment instead of 32 strided
sectors, and `auto` chooses per block — the tree while the per-sampler
scratch fits in shared memory, the butterfly once it would spill to
DRAM. Same contract again: every draw mode samples bit-identical topics
and only the modelled memory traffic changes.

`--nodes N` trains across N simulated nodes (doc policy only), each a
full `--gpus G` box: documents shard over nodes, each node syncs its ϕ
replicas locally, then the nodes merge their sums as sparse Δϕ payloads
(the same COO/CSR/dense wire format as `--sync-mode delta`) up a reduce
tree over a modelled 100 Gb/s inter-node link. The checkpoint is
bit-identical to `--nodes 1`; only the modelled time and traffic change,
and `--resume` and `--fault-plan` work at any node count. When the corpus exceeds device memory, chunk staging
is double-buffered so the H2D upload of chunk i+1 overlaps sampling of
chunk i (visible as `gpu*-h2d`/`gpu*-stage` tracks in `--trace-out` and
the `oocore.overlap_fraction` gauge); `--no-prefetch` falls back to
serial staging. Overlap changes modelled time only, never the model.

`culda infer` folds held-out documents into a frozen checkpoint (ϕ is
read-only: no atomics, no sync phase) and emits a JSON report with each
document's θ̂, the held-out perplexity, and its burn-in curve — to stdout,
or to `--out`. `--trace-out` additionally records the inference batches
as kernel spans with roofline attribution.

`culda serve` stands up the sharded serving control plane — a versioned
model registry, tenant-hash shard routing over `--pools` engine pools
(each `--pool-workers` simulated GPUs, `--capacity` docs per dispatch),
and SLO-aware micro-batch admission (`--slo-ms`) — then drives it with a
deterministic open-loop Poisson load (`--rate` req/s for `--duration`
simulated seconds across `--tenants` tenants). `--swap-at S` performs a
zero-downtime blue/green hot-swap mid-run to `--model-b` (or a
republished copy of the same checkpoint): the queue drains on the old
version, fresh engines serve the new one, and the report proves no
request was dropped. The JSON report (sustained req/s, p50/p95/p99
latency) goes to `--out` or stdout.

`--fault-plan` injects deterministic simulated faults for resilience
testing: clauses `kind:device:epoch[:kernel][:permanent]` separated by
`;` or `,`, with kind ∈ {{launch, corrupt, drop}}. The epoch is the
training iteration (on `train`) or the batch ordinal (on `infer`).
`--fault-plan launch:0:1` fails one GPU-0 kernel launch at iteration 1;
the worker retries with exponential backoff and the run stays
bit-identical to a fault-free one. `:permanent` makes a dead GPU whose
chunks (or word range, under `--policy word`) migrate to the survivors;
the run still trains the same model. Recovery metrics print after the run.

Run-health telemetry on `train`: `--eval-every N` scores a held-out split
(fraction `--eval-fraction`, default 0.1, drawn with `--eval-seed`)
against the frozen ϕ every N iterations through the serving path —
training itself is untouched, so checkpoints stay bit-identical to a run
without evaluation. `--snapshots` streams one JSON line per iteration
(timing, scores, mode choices, evaluations) plus one line per health
event; `culda report` renders that stream as markdown. `--openmetrics`
writes the final metrics registry in OpenMetrics text exposition.
Health detectors (non-finite log-likelihood, throughput collapse,
convergence stall, sync-compression regression) always run; events print
as they fire and count into the recovery line. A fatal event exits 5;
`--strict-health` promotes warnings to the same failure.

`culda profile` reports each kernel's achieved bandwidth as a percent of
the platform's DRAM roofline, plus a metrics dashboard. `--out` dumps
the per-kernel roofline rows as JSON; `--compare BASELINE.json` reloads
such a dump and renders before/after delta columns per kernel — the
intended loop for measuring an optimization (e.g. profile with
`--draw-mode tree --out base.json`, then `--draw-mode butterfly
--compare base.json`). `culda trace`
runs a traced training session on a synthetic corpus, then folds a 10%
held-out split back through the serving path, and writes a Chrome-trace
JSON (load it at https://ui.perfetto.dev) alongside a metrics snapshot.
`trace` defaults to the pascal platform (4 GPUs).
"
    )
}

pub(crate) fn load_corpus(args: &Args) -> Result<Corpus, Box<dyn std::error::Error>> {
    let docword = args.require("docword")?;
    let vocab = args.require("vocab")?;
    let corpus = read_uci(
        BufReader::new(File::open(docword)?),
        BufReader::new(File::open(vocab)?),
    )?;
    Ok(corpus)
}

fn platform(args: &Args) -> Result<Platform, Box<dyn std::error::Error>> {
    platform_or(args, "volta")
}

pub(crate) fn platform_or(
    args: &Args,
    default: &str,
) -> Result<Platform, Box<dyn std::error::Error>> {
    let name = args.get_or("platform", default);
    let mut p = match name {
        "maxwell" | "titan" => Platform::maxwell(),
        "pascal" => Platform::pascal(),
        "volta" => Platform::volta(),
        other => return Err(err(format!("unknown platform {other:?}"))),
    };
    let gpus: usize = args.num_or("gpus", p.num_gpus)?;
    if gpus < 1 || gpus > p.num_gpus {
        return Err(err(format!(
            "--gpus {gpus} out of range for {} (1..={})",
            p.name, p.num_gpus
        )));
    }
    p.num_gpus = gpus;
    Ok(p)
}

/// Parses `--policy doc|word` (default: the paper's partition-by-document).
/// A bad value propagates as a typed [`ModeParseError`] so the exit code
/// maps to usage (2), same as the other mode flags.
fn policy(args: &Args) -> Result<PartitionPolicy, Box<dyn std::error::Error>> {
    Ok(args.get_or("policy", "doc").parse::<PartitionPolicy>()?)
}

/// Applies the `--nodes N` (simulated cluster width, default 1) and
/// `--no-prefetch` (serial out-of-core staging) flags to a trainer config
/// builder.
fn apply_cluster_flags(
    args: &Args,
    builder: TrainerConfigBuilder,
) -> Result<TrainerConfigBuilder, Box<dyn std::error::Error>> {
    let nodes: usize = args.num_or("nodes", 1)?;
    if nodes == 0 {
        return Err(err("--nodes must be at least 1"));
    }
    Ok(builder.nodes(nodes).prefetch(!args.bool("no-prefetch")))
}

/// Applies the `--workers N` flag (host threads per simulated device) to a
/// trainer config builder. Absent flag = simulator default.
fn apply_workers(
    args: &Args,
    builder: TrainerConfigBuilder,
) -> Result<TrainerConfigBuilder, Box<dyn std::error::Error>> {
    let workers: usize = args.num_or("workers", 0)?;
    if args.require("workers").is_ok() && workers == 0 {
        return Err(err("--workers must be at least 1"));
    }
    Ok(if workers > 0 {
        builder.host_workers(workers)
    } else {
        builder
    })
}

/// Parses `--preset`, `--scale` and `--seed` into a synthetic-corpus spec.
/// Accepts both the short preset names and the `_like` spellings used by
/// the corpus crate.
fn synth_spec(args: &Args) -> Result<SynthSpec, Box<dyn std::error::Error>> {
    let scale: f64 = args.num_or("scale", 0.001)?;
    let seed: u64 = args.num_or("seed", 0xC01DA)?;
    let mut spec = match args.get_or("preset", "tiny") {
        "tiny" => SynthSpec::tiny(),
        "nytimes" | "nytimes_like" => SynthSpec::nytimes_like(scale),
        "pubmed" | "pubmed_like" => SynthSpec::pubmed_like(scale),
        other => return Err(err(format!("unknown preset {other:?}"))),
    };
    spec.seed = seed;
    Ok(spec)
}

/// `culda generate` — write a synthetic corpus in UCI format.
pub fn generate(args: &Args) -> CmdResult {
    let corpus = synth_spec(args)?.generate();
    let docword = args.require("docword")?;
    let vocab = args.require("vocab")?;
    write_uci(
        &corpus,
        BufWriter::new(File::create(docword)?),
        BufWriter::new(File::create(vocab)?),
    )?;
    println!(
        "wrote {} docs / {} tokens / V = {} to {docword} + {vocab}",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size()
    );
    Ok(())
}

/// `culda train` — train and checkpoint a model (either policy).
pub fn train(args: &Args) -> CmdResult {
    let corpus = load_corpus(args)?;
    let topics: usize = args.num_or("topics", 64)?;
    let iters: u32 = args.num_or("iters", 100)?;
    let score_every: u32 = args.num_or("score-every", 10)?;
    let seed: u64 = args.num_or("seed", 0xC01DA)?;
    let sync_mode: SyncMode = args.get_or("sync-mode", "dense-tree").parse()?;
    let sampling_mode: SamplingMode = args.get_or("sampling-mode", "dense").parse()?;
    let draw_mode: DrawMode = args.get_or("draw-mode", "tree").parse()?;
    let model_path = args.require("model")?;
    let eval_every: u32 = args.num_or("eval-every", 0)?;
    let eval_fraction: f64 = args.num_or("eval-fraction", 0.1)?;
    let eval_seed: u64 = args.num_or("eval-seed", 0xE7A1)?;
    let strict_health = args.bool("strict-health");
    let snapshots_path = args.require("snapshots").ok().map(str::to_string);
    let openmetrics_path = args.require("openmetrics").ok().map(str::to_string);
    let trace_path = args.require("trace-out").ok().map(str::to_string);
    let platform = platform(args)?;
    let eval_gpu = platform.gpu.clone();
    println!(
        "training K = {topics} for {iters} iterations on {} ({} GPU(s))",
        platform.name, platform.num_gpus
    );
    let cfg = apply_cluster_flags(
        args,
        apply_workers(
            args,
            TrainerConfig::builder(topics, platform)
                .iterations(iters)
                .score_every(score_every)
                .seed(seed)
                .sync_mode(sync_mode)
                .sampling_mode(sampling_mode)
                .draw_mode(draw_mode),
        )?,
    )?
    .build()?;
    if cfg.nodes > 1 {
        let link = cfg.effective_node_link();
        println!(
            "cluster: {} node(s) × {} GPU(s), Δϕ node reduce over a \
             {} GB/s / {} µs node link",
            cfg.nodes, cfg.platform.num_gpus, link.bandwidth_gbps, link.latency_us
        );
    }
    let mut trainer: Box<dyn LdaTrainer> = match args.require("resume") {
        Ok(state_path) => {
            // The checkpoint's policy tag decides which trainer comes back.
            let t = resume_any(&corpus, cfg, BufReader::new(File::open(state_path)?))?;
            println!(
                "resumed {} training from {state_path} at iteration {}",
                t.policy(),
                t.iterations_done()
            );
            t
        }
        Err(_) => build_trainer(policy(args)?, &corpus, cfg)?,
    };
    println!("policy: partition-by-{}", trainer.policy());
    let faults = fault_plan(args)?;
    if let Some(plan) = &faults {
        trainer.attach_fault_plan(Arc::clone(plan));
        println!("fault plan armed: {} fault spec(s)", plan.armed_len());
    }

    // The evaluation split is scored through a fresh serving fleet against
    // a frozen copy of ϕ — training never sees the evaluator, so the
    // checkpoint stays bit-identical to a run with evaluation off.
    let mut evaluator = if eval_every > 0 {
        if !(eval_fraction > 0.0 && eval_fraction < 1.0) {
            return Err(err(format!(
                "--eval-fraction {eval_fraction} must be in (0, 1)"
            )));
        }
        let (_, held_out) = split_held_out(&corpus, eval_fraction, eval_seed);
        let eval_cfg = ServeConfig::builder(eval_seed).gpu(eval_gpu).build()?;
        let ev = HeldOutEvaluator::new(&held_out, eval_cfg)?;
        println!(
            "held-out evaluation every {eval_every} iteration(s) over {} token(s)",
            ev.tokens()
        );
        Some(ev)
    } else {
        None
    };
    let telemetry = evaluator.is_some() || snapshots_path.is_some() || openmetrics_path.is_some();
    let registry = telemetry.then(|| Arc::new(MetricsRegistry::new()));
    let sink = trace_path.is_some().then(|| Arc::new(TraceSink::new()));
    if registry.is_some() || sink.is_some() {
        trainer.attach_observability(sink.clone(), registry.clone());
    }
    let mut snap_writer = match &snapshots_path {
        Some(p) => Some(SnapshotWriter::new(BufWriter::new(File::create(
            p.as_str(),
        )?))),
        None => None,
    };
    let mut monitor = HealthMonitor::new(HealthConfig::default());
    let mut cumulative_sim = 0.0;
    let multi_gpu = trainer.num_gpus() > 1;
    let sync_label = trainer.config().sync_mode.to_string();

    for i in 0..iters {
        let stat = trainer.try_step()?;
        cumulative_sim += stat.sim_seconds;
        if let Some(ll) = stat.loglik_per_token {
            println!(
                "iter {:>4}  {:>10}/s  loglik/token {ll:.4}",
                i,
                format_tokens_per_sec(stat.tokens_per_sec())
            );
        }
        let eval = match &mut evaluator {
            Some(ev) if (i + 1) % eval_every == 0 => {
                let reg = registry.as_ref().expect("telemetry registry is attached");
                let record = ev.evaluate_into(trainer.phi(), reg)?;
                let drift = record
                    .topic_drift
                    .map(|d| format!("  drift {d:.2}"))
                    .unwrap_or_default();
                println!(
                    "eval {i:>4}  held-out perplexity {:.2}  coherence {:.3}{drift}",
                    record.perplexity, record.coherence
                );
                Some(record)
            }
            _ => None,
        };
        let compression_ratio = match &registry {
            Some(reg) if multi_gpu => Some(reg.gauge("sync.compression_ratio").value()),
            _ => None,
        };
        for ev in monitor.observe(&HealthSample {
            stat,
            compression_ratio,
        }) {
            eprintln!("health: {ev}");
            if let Some(s) = &sink {
                s.instant_sim(0, &ev.kind.to_string(), "health", cumulative_sim);
            }
            if let Some(w) = &mut snap_writer {
                w.write_health(&ev)?;
            }
        }
        if let Some(w) = &mut snap_writer {
            w.write_snapshot(&MetricsSnapshot {
                stat,
                cumulative_sim_seconds: cumulative_sim,
                sync_mode: multi_gpu.then(|| sync_label.clone()),
                compression_ratio,
                eval,
            })?;
        }
    }

    let mut rec = trainer.recovery();
    rec.health_events = monitor.events().len() as u64;
    if faults.is_some() || !rec.is_clean() {
        println!("recovery: {rec}");
    }
    FrozenModel::freeze(trainer.phi()).save(BufWriter::new(File::create(model_path)?))?;
    if let Ok(state_path) = args.require("save-state") {
        save_training(trainer.as_ref(), BufWriter::new(File::create(state_path)?))?;
        println!("training state saved to {state_path}");
    }
    if let Some(p) = &snapshots_path {
        drop(snap_writer);
        println!("telemetry snapshots written to {p}");
    }
    if let Some(p) = &openmetrics_path {
        let reg = registry.as_ref().expect("telemetry registry is attached");
        std::fs::write(p, render_openmetrics(reg))?;
        println!("metrics exposition written to {p}");
    }
    if let (Some(s), Some(p)) = (&sink, &trace_path) {
        std::fs::write(p, s.export_chrome_json())?;
        println!("trace written to {p}");
    }
    println!(
        "final loglik/token {:.4}; model saved to {model_path}",
        trainer.loglik_per_token()
    );
    let fatal_health = monitor.has_fatal() || (strict_health && !monitor.events().is_empty());
    if fatal_health {
        let worst = monitor
            .events()
            .iter()
            .find(|e| e.severity == Severity::Fatal)
            .or_else(|| monitor.events().first())
            .expect("fatal health check implies at least one event");
        return Err(Box::new(HealthError(worst.to_string())));
    }
    Ok(())
}

/// `culda topics` — print the top words per topic of a checkpoint.
pub fn topics(args: &Args) -> CmdResult {
    let model = load_phi(BufReader::new(File::open(args.require("model")?)?))?;
    let vocab_path = args.require("vocab")?;
    let top: usize = args.num_or("top", 10)?;
    let vocab: Vec<String> = std::io::BufRead::lines(BufReader::new(File::open(vocab_path)?))
        .collect::<Result<_, _>>()?;
    if vocab.len() != model.vocab_size {
        return Err(err(format!(
            "vocab has {} words, model expects {}",
            vocab.len(),
            model.vocab_size
        )));
    }
    for k in 0..model.num_topics {
        let words: Vec<String> = model
            .top_words(k, top)
            .into_iter()
            .map(|(w, c)| format!("{}({c})", vocab[w as usize]))
            .collect();
        println!("topic {k:>4}: {}", words.join(" "));
    }
    Ok(())
}

/// Renders an inference outcome as the `culda infer` JSON report.
fn outcome_json(engine: &InferenceEngine, out: &InferenceOutcome) -> Json {
    let row = |r: &Vec<f64>| Json::Arr(r.iter().map(|&x| Json::Num(x)).collect());
    let latency = engine.latency_quantiles().map(|(p50, p95, p99)| {
        Json::obj()
            .with("p50_seconds", Json::Num(p50))
            .with("p95_seconds", Json::Num(p95))
            .with("p99_seconds", Json::Num(p99))
    });
    let mut doc = Json::obj()
        .with("topics", Json::Num(engine.model().num_topics() as f64))
        .with("vocab", Json::Num(engine.model().vocab_size() as f64))
        .with("docs", Json::Num(out.docs as f64))
        .with("tokens", Json::Num(out.tokens as f64))
        .with("workers", Json::Num(engine.num_workers() as f64))
        .with("micro_batches", Json::Num(out.micro_batches as f64))
        .with("perplexity", Json::Num(out.perplexity))
        .with(
            "perplexity_by_sweep",
            Json::Arr(
                out.perplexity_by_sweep
                    .iter()
                    .map(|&p| Json::Num(p))
                    .collect(),
            ),
        )
        .with("sim_seconds", Json::Num(out.sim_seconds))
        .with("device_seconds", Json::Num(out.device_seconds))
        .with("theta", Json::Arr(out.theta.iter().map(row).collect()));
    if let Some(l) = latency {
        doc = doc.with("micro_batch_latency", l);
    }
    doc
}

/// `culda infer` — fold a held-out corpus into a frozen checkpoint through
/// the serving engine and emit the θ̂/perplexity JSON report.
pub fn infer(args: &Args) -> CmdResult {
    let model = FrozenModel::load(BufReader::new(File::open(args.require("model")?)?))?;
    let corpus = load_corpus(args)?;
    if corpus.vocab_size() != model.vocab_size() {
        return Err(err(format!(
            "held-out vocabulary {} != model vocabulary {}",
            corpus.vocab_size(),
            model.vocab_size()
        )));
    }
    let workers: usize = args.num_or("workers", 2)?;
    let batch_size: usize = args.num_or("batch-size", 64)?;
    let burnin: u32 = args.num_or("burnin", 8)?;
    let samples: u32 = args.num_or("samples", 4)?;
    let seed: u64 = args.num_or("seed", 0xF01D)?;
    let platform = platform_or(args, "pascal")?;
    let cfg = ServeConfig::builder(seed)
        .workers(workers)
        .batch_size(batch_size)
        .burnin(burnin)
        .samples(samples)
        .gpu(platform.gpu.clone())
        .build()?;
    let mut engine = InferenceEngine::new(model, cfg);
    let faults = fault_plan(args)?;
    if let Some(plan) = &faults {
        engine.attach_fault_plan(Arc::clone(plan));
        eprintln!("fault plan armed: {} fault spec(s)", plan.armed_len());
    }
    let sink = args
        .require("trace-out")
        .ok()
        .map(|_| Arc::new(TraceSink::new()));
    if let Some(s) = &sink {
        engine.attach_observability(Some(Arc::clone(s)), None);
    }
    let out = engine.infer_corpus(&corpus)?;
    let rec = engine.recovery();
    if faults.is_some() || !rec.is_clean() {
        eprintln!("recovery: {rec}");
    }
    eprintln!(
        "inferred {} docs / {} tokens in {} micro-batch(es) across {workers} worker(s) \
         on {}; held-out perplexity {:.2}",
        out.docs, out.tokens, out.micro_batches, platform.gpu.name, out.perplexity
    );
    if let Some((p50, p95, p99)) = engine.latency_quantiles() {
        eprintln!(
            "micro-batch latency (simulated): p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3
        );
    }
    let report = outcome_json(&engine, &out).render();
    match args.require("out") {
        Ok(path) => {
            std::fs::write(path, report)?;
            println!("inference report written to {path}");
        }
        Err(_) => println!("{report}"),
    }
    if let (Some(s), Ok(path)) = (&sink, args.require("trace-out")) {
        std::fs::write(path, s.export_chrome_json())?;
        eprintln!("inference trace written to {path}");
    }
    Ok(())
}

/// `culda info` — describe a checkpoint.
pub fn info(args: &Args) -> CmdResult {
    let model = load_phi(BufReader::new(File::open(args.require("model")?)?))?;
    let tokens = model.check_sums();
    println!("CuLDA phi checkpoint");
    println!("  topics (K):     {}", model.num_topics);
    println!("  vocabulary (V): {}", model.vocab_size);
    println!(
        "  alpha / beta:   {} / {}",
        model.priors.alpha, model.priors.beta
    );
    println!("  total tokens:   {tokens}");
    let nonzero = (0..model.phi.len())
        .filter(|&i| model.phi.load(i) != 0)
        .count();
    println!(
        "  phi density:    {:.2}% ({nonzero} of {} entries)",
        100.0 * nonzero as f64 / model.phi.len() as f64,
        model.phi.len()
    );
    Ok(())
}

/// Serializes per-kernel roofline rows for `culda profile --out`, in the
/// shape [`render_profile_compare`] reloads.
fn profile_rows_json(
    platform_name: &str,
    roof_gbps: f64,
    draw_mode: DrawMode,
    iters: u32,
    summaries: &[culda_gpusim::KernelSummary],
) -> Json {
    Json::obj()
        .with("platform", platform_name)
        .with("roof_gbps", Json::Num(roof_gbps))
        .with("draw_mode", draw_mode.name())
        .with("iterations", Json::Num(f64::from(iters)))
        .with(
            "kernels",
            Json::Arr(
                summaries
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .with("name", s.name.as_str())
                            .with("launches", Json::Num(f64::from(s.launches)))
                            .with("time_ms", Json::Num(s.total_seconds * 1e3))
                            .with("dram_mb", Json::Num(s.dram_bytes as f64 / 1e6))
                            .with("gbps", Json::Num(s.effective_gbps))
                            .with("flops", Json::Num(s.flops as f64))
                    })
                    .collect(),
            ),
        )
}

/// Renders the `--compare` table: current per-kernel time/DRAM next to a
/// `--out` baseline's, with signed delta columns (negative = the current
/// run is cheaper). Kernels present on only one side are still listed.
fn render_profile_compare(
    summaries: &[culda_gpusim::KernelSummary],
    baseline: &Json,
) -> Result<String, Box<dyn std::error::Error>> {
    use std::fmt::Write as _;
    let base_mode = baseline.get("draw_mode").and_then(|m| m.as_str());
    let rows = baseline
        .get("kernels")
        .and_then(|k| k.as_arr())
        .ok_or_else(|| err("baseline profile has no \"kernels\" array"))?;
    let mut base: Vec<(String, f64, f64)> = Vec::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| err("baseline kernel row has no \"name\""))?;
        let time_ms = row.get("time_ms").and_then(|v| v.as_f64()).unwrap_or(0.0);
        let dram_mb = row.get("dram_mb").and_then(|v| v.as_f64()).unwrap_or(0.0);
        base.push((name.to_string(), time_ms, dram_mb));
    }
    let mut out = String::new();
    if let Some(mode) = base_mode {
        let _ = writeln!(out, "baseline draw mode: {mode}");
    }
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>8} {:>12} {:>12} {:>8}",
        "kernel", "time (ms)", "base (ms)", "Δtime", "DRAM (MB)", "base (MB)", "ΔDRAM"
    );
    let pct = |now: f64, then: f64| {
        if then > 0.0 {
            format!("{:>+7.1}%", 100.0 * (now - then) / then)
        } else {
            format!("{:>8}", "—")
        }
    };
    let mut seen: Vec<&str> = Vec::new();
    for s in summaries {
        seen.push(&s.name);
        let time_ms = s.total_seconds * 1e3;
        let dram_mb = s.dram_bytes as f64 / 1e6;
        match base.iter().find(|(n, _, _)| *n == s.name) {
            Some(&(_, bt, bd)) => {
                let _ = writeln!(
                    out,
                    "{:<22} {:>12.3} {:>12.3} {} {:>12.2} {:>12.2} {}",
                    s.name,
                    time_ms,
                    bt,
                    pct(time_ms, bt),
                    dram_mb,
                    bd,
                    pct(dram_mb, bd)
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:<22} {:>12.3} {:>12} {:>8} {:>12.2} {:>12} {:>8}",
                    s.name, time_ms, "—", "new", dram_mb, "—", "new"
                );
            }
        }
    }
    for (name, bt, bd) in &base {
        if !seen.iter().any(|n| n == name) {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>12.3} {:>8} {:>12} {:>12.2} {:>8}",
                name, "—", bt, "gone", "—", bd, "gone"
            );
        }
    }
    Ok(out)
}

/// `culda profile` — run a few iterations and print the per-kernel launch
/// profile (with roofline attainment), the Table 5-style phase breakdown,
/// and a metrics dashboard. `--out` dumps the roofline rows as JSON;
/// `--compare` diffs the run against such a dump.
pub fn profile_cmd(args: &Args) -> CmdResult {
    let corpus = load_corpus(args)?;
    let topics: usize = args.num_or("topics", 64)?;
    let iters: u32 = args.num_or("iters", 5)?;
    let draw_mode: DrawMode = args.get_or("draw-mode", "tree").parse()?;
    let platform = platform(args)?;
    let roof_gbps = platform.gpu.mem_bandwidth_gbps;
    let platform_name = platform.name;
    // Load (and validate) the baseline before spending simulated time.
    let baseline = match args.require("compare") {
        Ok(path) => Some(
            Json::parse(&std::fs::read_to_string(path)?)
                .map_err(|e| err(format!("baseline profile {path}: {e}")))?,
        ),
        Err(_) => None,
    };
    let cfg = apply_workers(
        args,
        TrainerConfig::builder(topics, platform)
            .iterations(iters)
            .score_every(0)
            .draw_mode(draw_mode),
    )?
    .build()?;
    let mut trainer = build_trainer(policy(args)?, &corpus, cfg)?;
    let registry = Arc::new(MetricsRegistry::new());
    trainer.attach_observability(None, Some(registry.clone()));
    for _ in 0..iters {
        trainer.step();
    }
    println!(
        "kernel profile over {iters} iterations of partition-by-{} \
         (draw mode {draw_mode}; roof% = share of {platform_name} {roof_gbps} GB/s DRAM peak):\n",
        trainer.policy()
    );
    print!("{}", trainer.profile().render_with_roof(roof_gbps));
    let summaries = trainer.profile().summaries();
    if let Ok(path) = args.require("out") {
        let doc = profile_rows_json(platform_name, roof_gbps, draw_mode, iters, &summaries);
        std::fs::write(path, doc.render())?;
        println!("\nprofile rows written to {path}");
    }
    if let Some(base) = &baseline {
        println!("\ncomparison against baseline (negative Δ = this run is cheaper):\n");
        print!("{}", render_profile_compare(&summaries, base)?);
    }
    let phi = trainer.phi();
    let (dense_rows, sparse_rows, nnz) = phi.phi.format_census();
    println!(
        "\nphi storage occupancy: {dense_rows} dense row(s), {sparse_rows} sparse row(s), \
         avg nnz/row {:.1} of K = {} ({:.1}% occupied)",
        nnz as f64 / phi.vocab_size.max(1) as f64,
        phi.num_topics,
        100.0 * nnz as f64 / (phi.vocab_size.max(1) * phi.num_topics) as f64
    );
    println!("\nphase breakdown (Table 5 form):");
    for (phase, pct) in trainer.breakdown().percent_rows() {
        println!("  {:<14} {pct:>6.1}%", phase.name());
    }
    if trainer.num_gpus() > 1 {
        println!("\nper-GPU phase seconds:");
        print!("{}", trainer.per_gpu_breakdowns().render());
    }
    println!(
        "\nthroughput: {}/s",
        culda_metrics::format_tokens_per_sec(trainer.history().avg_tokens_per_sec(iters as usize))
    );
    println!("\nmetrics dashboard:");
    print!("{}", registry.render_dashboard());
    Ok(())
}

/// `culda trace` — run a traced training session on a synthetic corpus,
/// fold a held-out split back through the serving engine, and write a
/// Perfetto-loadable Chrome trace plus a metrics snapshot.
pub fn trace_cmd(args: &Args) -> CmdResult {
    let corpus = synth_spec(args)?.generate();
    let topics: usize = args.num_or("topics", 64)?;
    let iters: u32 = args.num_or("iters", 3)?;
    let seed: u64 = args.num_or("seed", 0xC01DA)?;
    // Default to pascal so `--gpus 4` works without an explicit platform.
    let platform = platform_or(args, "pascal")?;
    let num_gpus = platform.num_gpus;
    let gpu_spec = platform.gpu.clone();
    let trace_path = args.get_or("trace-out", "trace.json").to_string();
    let metrics_path = args.get_or("metrics-out", "metrics.json").to_string();
    let (train_corpus, held_out) = split_held_out(&corpus, 0.1, seed);
    let cfg = apply_cluster_flags(
        args,
        apply_workers(
            args,
            TrainerConfig::builder(topics, platform)
                .iterations(iters)
                .score_every(0)
                .seed(seed),
        )?,
    )?
    .build()?;
    let mut trainer = build_trainer(policy(args)?, &train_corpus, cfg)?;
    let sink = Arc::new(TraceSink::new());
    let registry = Arc::new(MetricsRegistry::new());
    trainer.attach_observability(Some(sink.clone()), Some(registry.clone()));
    for _ in 0..iters {
        trainer.step();
    }
    // Serving leg: freeze ϕ and run the held-out split through the same
    // observability sinks, so the trace shows inference batches too.
    let serve_cfg = ServeConfig::builder(seed)
        .workers(num_gpus)
        .gpu(gpu_spec)
        .build()?;
    let mut engine = InferenceEngine::new(FrozenModel::freeze(trainer.phi()), serve_cfg);
    engine.attach_observability(Some(sink.clone()), Some(registry.clone()));
    let served = engine.infer_corpus(&held_out)?;
    std::fs::write(&trace_path, sink.export_chrome_json())?;
    std::fs::write(&metrics_path, registry.snapshot_json().render())?;
    println!(
        "traced {iters} iteration(s) over {} tokens on {num_gpus} GPU(s) (policy {})",
        train_corpus.num_tokens(),
        trainer.policy()
    );
    println!(
        "served {} held-out docs in {} micro-batch(es); perplexity {:.2}",
        served.docs, served.micro_batches, served.perplexity
    );
    println!("trace written to {trace_path} (open at https://ui.perfetto.dev)");
    println!("metrics snapshot written to {metrics_path}");
    Ok(())
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> CmdResult {
    if !args.positionals().is_empty() {
        return Err(err(format!(
            "unexpected positional arguments {:?} — all options are --flags\n\n{}",
            args.positionals(),
            usage()
        )));
    }
    match args.command.as_deref() {
        Some("generate") => generate(args),
        Some("train") => train(args),
        Some("topics") => topics(args),
        Some("infer") => infer(args),
        Some("info") => info(args),
        Some("profile") => profile_cmd(args),
        Some("trace") => trace_cmd(args),
        Some("serve") => crate::serve::serve(args),
        Some("report") => crate::report::report(args),
        Some(other) => Err(err(format!("unknown command {other:?}\n\n{}", usage()))),
        None => Err(err(usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_multigpu::CuldaError;
    use culda_serve::ServeError;

    /// The process exit integer for an error — via the one typed mapping.
    fn exit_code(e: &(dyn std::error::Error + 'static)) -> i32 {
        crate::exit::ExitCode::classify(e).code()
    }

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("culda-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_cli_round_trip() {
        let docword = tmp("c.docword");
        let vocab = tmp("c.vocab");
        let model = tmp("c.phi");
        generate(&args(&format!(
            "generate --preset tiny --seed 5 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --topics 8 --iters 5 \
             --score-every 0 --platform maxwell",
            docword.display(),
            vocab.display(),
            model.display()
        )))
        .unwrap();
        topics(&args(&format!(
            "topics --model {} --vocab {} --top 3",
            model.display(),
            vocab.display()
        )))
        .unwrap();
        infer(&args(&format!(
            "infer --model {} --docword {} --vocab {} --burnin 3 --samples 2",
            model.display(),
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        info(&args(&format!("info --model {}", model.display()))).unwrap();
        // Save-state / resume round trip through the CLI surface.
        let state = tmp("c.state");
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --topics 8 --iters 2              --score-every 0 --platform maxwell --save-state {}",
            docword.display(),
            vocab.display(),
            model.display(),
            state.display()
        )))
        .unwrap();
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --topics 8 --iters 2              --score-every 0 --platform maxwell --resume {}",
            docword.display(),
            vocab.display(),
            model.display(),
            state.display()
        )))
        .unwrap();
        profile_cmd(&args(&format!(
            "profile --docword {} --vocab {} --topics 8 --iters 2 --platform maxwell",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
    }

    #[test]
    fn sync_mode_flag_changes_timing_not_checkpoints() {
        let docword = tmp("s.docword");
        let vocab = tmp("s.vocab");
        generate(&args(&format!(
            "generate --preset tiny --seed 9 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        let mut models = Vec::new();
        for mode in ["dense-tree", "dense-ring", "delta", "auto"] {
            let model = tmp(&format!("s-{mode}.phi"));
            train(&args(&format!(
                "train --docword {} --vocab {} --model {} --topics 8 --iters 3 \
                 --score-every 0 --platform pascal --gpus 2 --seed 21 \
                 --sync-mode {mode}",
                docword.display(),
                vocab.display(),
                model.display()
            )))
            .unwrap();
            models.push(std::fs::read(&model).unwrap());
        }
        for m in &models[1..] {
            assert_eq!(&models[0], m, "checkpoints diverged across sync modes");
        }

        let bad = train(&args(&format!(
            "train --docword {} --vocab {} --model {} --sync-mode nccl",
            docword.display(),
            vocab.display(),
            tmp("s-bad.phi").display()
        )));
        assert!(bad.is_err(), "unknown sync mode must be rejected");
    }

    #[test]
    fn sampling_mode_flag_changes_timing_not_checkpoints() {
        let docword = tmp("m.docword");
        let vocab = tmp("m.vocab");
        generate(&args(&format!(
            "generate --preset tiny --seed 11 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        let mut models = Vec::new();
        for mode in ["dense", "sparse", "auto"] {
            let model = tmp(&format!("m-{mode}.phi"));
            train(&args(&format!(
                "train --docword {} --vocab {} --model {} --topics 8 --iters 3 \
                 --score-every 0 --platform pascal --gpus 2 --seed 21 \
                 --sampling-mode {mode}",
                docword.display(),
                vocab.display(),
                model.display()
            )))
            .unwrap();
            models.push(std::fs::read(&model).unwrap());
        }
        for m in &models[1..] {
            assert_eq!(&models[0], m, "checkpoints diverged across sampling modes");
        }

        let bad = train(&args(&format!(
            "train --docword {} --vocab {} --model {} --sampling-mode csr",
            docword.display(),
            vocab.display(),
            tmp("m-bad.phi").display()
        )));
        assert!(bad.is_err(), "unknown sampling mode must be rejected");
    }

    #[test]
    fn draw_mode_flag_changes_timing_not_checkpoints() {
        let docword = tmp("d.docword");
        let vocab = tmp("d.vocab");
        generate(&args(&format!(
            "generate --preset tiny --seed 12 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        let mut models = Vec::new();
        for mode in ["tree", "butterfly", "auto"] {
            let model = tmp(&format!("d-{mode}.phi"));
            train(&args(&format!(
                "train --docword {} --vocab {} --model {} --topics 8 --iters 3 \
                 --score-every 0 --platform pascal --gpus 2 --seed 21 \
                 --draw-mode {mode}",
                docword.display(),
                vocab.display(),
                model.display()
            )))
            .unwrap();
            models.push(std::fs::read(&model).unwrap());
        }
        for m in &models[1..] {
            assert_eq!(&models[0], m, "checkpoints diverged across draw modes");
        }

        let bad = train(&args(&format!(
            "train --docword {} --vocab {} --model {} --draw-mode warp",
            docword.display(),
            vocab.display(),
            tmp("d-bad.phi").display()
        )));
        assert!(bad.is_err(), "unknown draw mode must be rejected");
    }

    #[test]
    fn profile_dumps_rows_and_compares_against_baseline() {
        let docword = tmp("pc.docword");
        let vocab = tmp("pc.vocab");
        let dump = tmp("pc-baseline.json");
        generate(&args(&format!(
            "generate --preset tiny --seed 13 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        profile_cmd(&args(&format!(
            "profile --docword {} --vocab {} --topics 8 --iters 2 \
             --platform pascal --draw-mode tree --out {}",
            docword.display(),
            vocab.display(),
            dump.display()
        )))
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&dump).unwrap()).unwrap();
        assert_eq!(doc.get("draw_mode").and_then(|m| m.as_str()), Some("tree"));
        let kernels = doc.get("kernels").and_then(|k| k.as_arr()).unwrap();
        assert!(
            kernels
                .iter()
                .any(|k| k.get("name").and_then(|n| n.as_str()) == Some("lda_sample")),
            "dump must include the lda_sample kernel"
        );
        profile_cmd(&args(&format!(
            "profile --docword {} --vocab {} --topics 8 --iters 2 \
             --platform pascal --draw-mode butterfly --compare {}",
            docword.display(),
            vocab.display(),
            dump.display()
        )))
        .unwrap();
        let bad = profile_cmd(&args(&format!(
            "profile --docword {} --vocab {} --compare {}",
            docword.display(),
            vocab.display(),
            tmp("pc-missing.json").display()
        )));
        assert!(bad.is_err(), "missing baseline must be reported");
    }

    #[test]
    fn word_policy_trains_resumes_and_profiles() {
        let docword = tmp("p.docword");
        let vocab = tmp("p.vocab");
        let model = tmp("p.phi");
        let state = tmp("p.state");
        generate(&args(&format!(
            "generate --preset tiny --seed 6 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --policy word --topics 8 \
             --iters 2 --score-every 0 --platform volta --save-state {}",
            docword.display(),
            vocab.display(),
            model.display(),
            state.display()
        )))
        .unwrap();
        // `--resume` follows the checkpoint's policy tag, not `--policy`.
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --topics 8 --iters 2 \
             --score-every 0 --platform volta --resume {}",
            docword.display(),
            vocab.display(),
            model.display(),
            state.display()
        )))
        .unwrap();
        profile_cmd(&args(&format!(
            "profile --docword {} --vocab {} --policy word --topics 8 --iters 2 \
             --platform volta",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        assert!(policy(&args("train --policy gpu")).is_err());
    }

    #[test]
    fn infer_writes_normalized_theta_json() {
        let docword = tmp("i.docword");
        let vocab = tmp("i.vocab");
        let model = tmp("i.phi");
        let report = tmp("i.theta.json");
        let trace = tmp("i.trace.json");
        generate(&args(&format!(
            "generate --preset tiny --seed 7 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --topics 8 --iters 4 \
             --score-every 0 --platform maxwell",
            docword.display(),
            vocab.display(),
            model.display()
        )))
        .unwrap();
        infer(&args(&format!(
            "infer --model {} --docword {} --vocab {} --workers 2 --batch-size 7 \
             --burnin 4 --samples 2 --seed 9 --out {} --trace-out {}",
            model.display(),
            docword.display(),
            vocab.display(),
            report.display(),
            trace.display()
        )))
        .unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&report).unwrap())
            .expect("inference report must be valid JSON");
        let theta = doc.get("theta").and_then(|t| t.as_arr()).unwrap();
        assert!(!theta.is_empty());
        for row in theta {
            let sum: f64 = row
                .as_arr()
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .sum();
            assert!((sum - 1.0).abs() < 1e-6, "theta row sums to {sum}");
        }
        assert!(doc.get("perplexity").and_then(|p| p.as_f64()).unwrap() > 0.0);
        let sweeps = doc
            .get("perplexity_by_sweep")
            .and_then(|p| p.as_arr())
            .unwrap();
        assert_eq!(sweeps.len(), 6);
        // The inference trace shows the serving kernels.
        let tr = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let events = tr.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("lda_infer")));
    }

    #[test]
    fn unknown_command_and_platform_are_rejected() {
        assert!(dispatch(&args("frobnicate")).is_err());
        assert!(dispatch(&args("")).is_err());
        let e = platform(&args("train --platform tpu")).unwrap_err();
        assert!(e.to_string().contains("unknown platform"));
        assert!(platform(&args("train --platform pascal --gpus 9")).is_err());
    }

    #[test]
    fn workers_flag_is_validated_and_accepted() {
        assert!(apply_workers(
            &args("train --workers 0"),
            TrainerConfig::builder(8, Platform::maxwell())
        )
        .is_err());
        let cfg = apply_workers(
            &args("train --workers 3"),
            TrainerConfig::builder(8, Platform::maxwell()),
        )
        .unwrap()
        .build()
        .unwrap();
        assert_eq!(cfg.host_workers, Some(3));
        let cfg = apply_workers(
            &args("train"),
            TrainerConfig::builder(8, Platform::maxwell()),
        )
        .unwrap()
        .build()
        .unwrap();
        assert_eq!(cfg.host_workers, None);
        // End to end through the train command.
        let docword = tmp("w.docword");
        let vocab = tmp("w.vocab");
        let model = tmp("w.phi");
        generate(&args(&format!(
            "generate --preset tiny --seed 5 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        train(&args(&format!(
            "train --docword {} --vocab {} --model {} --topics 8 --iters 2 \
             --score-every 0 --platform maxwell --workers 2",
            docword.display(),
            vocab.display(),
            model.display()
        )))
        .unwrap();
    }

    #[test]
    fn trace_command_writes_trace_and_metrics_json() {
        let trace_out = tmp("t.trace.json");
        let metrics_out = tmp("t.metrics.json");
        trace_cmd(&args(&format!(
            "trace --preset nytimes_like --scale 0.0002 --gpus 4 --topics 8 \
             --iters 2 --trace-out {} --metrics-out {}",
            trace_out.display(),
            metrics_out.display()
        )))
        .unwrap();
        let doc = culda_metrics::Json::parse(&std::fs::read_to_string(&trace_out).unwrap())
            .expect("trace.json must be valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(!events.is_empty());
        // The serving leg appears alongside the training kernels.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("lda_infer")));
        let metrics =
            culda_metrics::Json::parse(&std::fs::read_to_string(&metrics_out).unwrap()).unwrap();
        let launches = metrics
            .get("counters")
            .and_then(|c| c.get("kernel.launches"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!(launches > 0.0);
    }

    #[test]
    fn fault_plan_training_recovers_and_matches_fault_free_model() {
        let docword = tmp("f.docword");
        let vocab = tmp("f.vocab");
        let clean_model = tmp("f.clean.phi");
        let faulty_model = tmp("f.faulty.phi");
        generate(&args(&format!(
            "generate --preset tiny --seed 8 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        let base = format!(
            "train --docword {} --vocab {} --topics 8 --iters 3 \
             --score-every 0 --platform pascal --gpus 2",
            docword.display(),
            vocab.display()
        );
        train(&args(&format!("{base} --model {}", clean_model.display()))).unwrap();
        // A transient launch fault is retried; the model is bit-identical.
        train(&args(&format!(
            "{base} --model {} --fault-plan launch:0:1",
            faulty_model.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(&clean_model).unwrap(),
            std::fs::read(&faulty_model).unwrap(),
            "transient fault changed the trained model"
        );
        // A garbage plan is a usage error.
        let e = train(&args(&format!(
            "{base} --model {} --fault-plan explode:0:1",
            faulty_model.display()
        )))
        .unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 2);
    }

    #[test]
    fn telemetry_train_streams_snapshots_and_reports() {
        let docword = tmp("tm.docword");
        let vocab = tmp("tm.vocab");
        let quiet_model = tmp("tm.quiet.phi");
        let telemetry_model = tmp("tm.telemetry.phi");
        let snapshots = tmp("tm.jsonl");
        let openmetrics = tmp("tm.om.txt");
        let report_md = tmp("tm.report.md");
        generate(&args(&format!(
            "generate --preset tiny --seed 4 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        let base = format!(
            "train --docword {} --vocab {} --topics 8 --iters 6 --score-every 1 \
             --platform pascal --gpus 2 --seed 33 --sync-mode auto --sampling-mode auto",
            docword.display(),
            vocab.display()
        );
        train(&args(&format!("{base} --model {}", quiet_model.display()))).unwrap();
        train(&args(&format!(
            "{base} --model {} --eval-every 2 --eval-fraction 0.2 --snapshots {} \
             --openmetrics {}",
            telemetry_model.display(),
            snapshots.display(),
            openmetrics.display()
        )))
        .unwrap();
        // Evaluation and telemetry never touch the training path.
        assert_eq!(
            std::fs::read(&quiet_model).unwrap(),
            std::fs::read(&telemetry_model).unwrap(),
            "telemetry changed the trained model"
        );
        // The snapshot stream has one line per iteration and the scheduled
        // evaluations, and the exposition parses back.
        let stream = std::fs::read_to_string(&snapshots).unwrap();
        let records = culda_metrics::parse_snapshots(&stream).unwrap();
        let iters: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                culda_metrics::SnapshotRecord::Iteration(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(iters.len(), 6);
        assert_eq!(iters.iter().filter(|s| s.eval.is_some()).count(), 3);
        assert!(iters.iter().all(|s| s.sync_mode.is_some()));
        culda_metrics::lint_openmetrics(&std::fs::read_to_string(&openmetrics).unwrap())
            .expect("openmetrics exposition lints");
        // The report renders every section from the stream.
        crate::report::report(&args(&format!(
            "report --snapshots {} --openmetrics {} --out {}",
            snapshots.display(),
            openmetrics.display(),
            report_md.display()
        )))
        .unwrap();
        let md = std::fs::read_to_string(&report_md).unwrap();
        for needle in [
            "# culda run report",
            "## Convergence",
            "## Held-out evaluation",
            "## Metrics exposition",
        ] {
            assert!(md.contains(needle), "report missing {needle:?}");
        }
        // A missing stream is an I/O error; a garbage stream a usage error.
        assert!(crate::report::report(&args("report --snapshots /nonexistent.jsonl")).is_err());
        std::fs::write(tmp("tm.bad.jsonl"), "not json\n").unwrap();
        let e = crate::report::report(&args(&format!(
            "report --snapshots {}",
            tmp("tm.bad.jsonl").display()
        )))
        .unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 2);
    }

    #[test]
    fn strict_health_turns_a_faulted_run_into_exit_five() {
        let docword = tmp("h.docword");
        let vocab = tmp("h.vocab");
        generate(&args(&format!(
            "generate --preset tiny --seed 4 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        let base = format!(
            "train --docword {} --vocab {} --topics 8 --iters 8 --score-every 1 \
             --platform pascal --gpus 2 --seed 33 --fault-plan launch:0:4",
            docword.display(),
            vocab.display()
        );
        // The retried fault collapses throughput → a warning event, which
        // is tolerated by default…
        train(&args(&format!(
            "{base} --model {}",
            tmp("h.lax.phi").display()
        )))
        .unwrap();
        // …and fatal under --strict-health.
        let e = train(&args(&format!(
            "{base} --model {} --strict-health --snapshots {}",
            tmp("h.strict.phi").display(),
            tmp("h.jsonl").display()
        )))
        .unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 5);
        assert!(e.to_string().contains("health"));
        // The model and telemetry were still written before the failure.
        assert!(tmp("h.strict.phi").exists());
        let stream = std::fs::read_to_string(tmp("h.jsonl")).unwrap();
        assert!(
            stream.contains("throughput-collapse"),
            "health event missing from stream"
        );
    }

    #[test]
    fn exit_codes_separate_usage_fault_and_io_errors() {
        assert_eq!(exit_code(&ArgError("bad flag".into())), 2);
        assert_eq!(exit_code(&HealthError("nan loglik".into())), 5);
        assert_eq!(
            exit_code(&CuldaError::Invalid("more GPUs than words".into())),
            2
        );
        assert_eq!(
            exit_code(&CuldaError::WorkerLost {
                device: 0,
                attempts: 3
            }),
            3
        );
        assert_eq!(exit_code(&CuldaError::AllWorkersLost), 3);
        assert_eq!(exit_code(&CuldaError::Checkpoint("truncated".into())), 4);
        assert_eq!(exit_code(&CuldaError::Io(std::io::Error::other("disk"))), 4);
        assert_eq!(exit_code(&ServeError::AllWorkersLost), 3);
        assert_eq!(exit_code(&ServeError::Config("no workers".into())), 2);
        assert_eq!(exit_code(&std::io::Error::other("disk")), 4);
        assert_eq!(exit_code(&std::fmt::Error), 1);
    }

    #[test]
    fn multi_node_training_matches_single_node_checkpoint() {
        let docword = tmp("n.docword");
        let vocab = tmp("n.vocab");
        generate(&args(&format!(
            "generate --preset tiny --seed 13 --docword {} --vocab {}",
            docword.display(),
            vocab.display()
        )))
        .unwrap();
        let base = format!(
            "train --docword {} --vocab {} --topics 8 --iters 3 \
             --score-every 0 --platform pascal --gpus 2 --seed 21",
            docword.display(),
            vocab.display()
        );
        let single = tmp("n.single.phi");
        let cluster = tmp("n.cluster.phi");
        train(&args(&format!("{base} --model {}", single.display()))).unwrap();
        train(&args(&format!(
            "{base} --model {} --nodes 3",
            cluster.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(&single).unwrap(),
            std::fs::read(&cluster).unwrap(),
            "multi-node checkpoint diverged from single-node"
        );
        // Guard rails: zero nodes and the word policy are rejected.
        let e = train(&args(&format!(
            "{base} --model {} --nodes 0",
            cluster.display()
        )))
        .unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 2);
        let e = train(&args(&format!(
            "{base} --model {} --nodes 2 --policy word",
            cluster.display()
        )))
        .unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 2);
        // A 1-node checkpoint resumes on 2 nodes and finishes the same
        // model as 6 straight 1-node iterations.
        let state = tmp("n.state");
        let resumed = tmp("n.resumed.phi");
        train(&args(&format!(
            "{base} --model {} --save-state {}",
            resumed.display(),
            state.display()
        )))
        .unwrap();
        train(&args(&format!(
            "{base} --model {} --nodes 2 --resume {}",
            resumed.display(),
            state.display()
        )))
        .unwrap();
        let straight = tmp("n.straight.phi");
        train(&args(&format!(
            "{} --model {}",
            base.replace("--iters 3", "--iters 6"),
            straight.display()
        )))
        .unwrap();
        assert_eq!(
            std::fs::read(&straight).unwrap(),
            std::fs::read(&resumed).unwrap(),
            "2-node resume diverged from straight 1-node training"
        );
    }

    #[test]
    fn usage_derives_mode_lists_from_canonical_tables() {
        let u = usage();
        assert!(u.contains(&format!("--policy {}", PartitionPolicy::usage())));
        assert!(u.contains(&format!("--sync-mode {}", SyncMode::usage())));
        assert!(u.contains(&format!("--sampling-mode {}", SamplingMode::usage())));
        assert!(u.contains(&format!("--draw-mode {}", DrawMode::usage())));
        assert!(u.contains("--nodes N"));
        assert!(u.contains("--no-prefetch"));
    }

    #[test]
    fn generate_rejects_unknown_preset() {
        let e = generate(&args(
            "generate --preset wikipedia --docword /dev/null --vocab /dev/null",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("unknown preset"));
    }
}
