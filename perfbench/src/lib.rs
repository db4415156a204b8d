//! Two-clock LDA benchmark: training, cluster and serving workloads
//! measured end to end and per layer.
//!
//! Each workload reaches the library layers only through their public
//! entry points: `SynthSpec`/`split_held_out` (corpus), `build_trainer`
//! and the `LdaTrainer` trait (multigpu; its `profile`, `breakdown` and
//! `history` expose the sampler, gpusim and metrics layers), `save_phi` and
//! `FrozenModel::load` (checkpoint), and `ModelRegistry`, `ServingPlane`
//! and `InferenceEngine` (serve). See `README.md` beside this crate for the
//! workloads, the metrics and the layer-to-end-to-end table.

pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod train;

use report::{Gates, HostFacts, Metric, Outcome};
use stats::{median_or_zero, Summary};
use std::collections::BTreeMap;
use trace::Tracer;

/// End-to-end metrics every workload reports in its untraced run, as
/// `(name, unit)`. Per workload, an operation is one training iteration or
/// one served request.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("tokens_per_s", "tokens/s"),
    ("model_tokens_per_s", "tokens/s"),
    ("nll_per_token", "nats"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("model_latency_p90_s", "s"),
];

/// Per-layer metrics every workload reports in its traced run, as
/// `(name, unit)`; a layer a workload does not drive reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("corpus.generate_s", "s"),
    ("corpus.tokens", "count"),
    ("multigpu.build_s", "s"),
    ("multigpu.step_s", "s"),
    ("multigpu.step_model_s", "s"),
    ("multigpu.sync_model_s", "s"),
    ("multigpu.transfer_model_s", "s"),
    ("multigpu.retries", "count"),
    ("multigpu.recovery_model_s", "s"),
    ("sampler.lda_sample.wall_s", "s"),
    ("sampler.lda_sample.model_s", "s"),
    ("sampler.lda_sample.dram_bytes", "bytes"),
    ("sampler.lda_sample.launches", "count"),
    ("sampler.theta_update.wall_s", "s"),
    ("sampler.theta_update.model_s", "s"),
    ("sampler.theta_update.dram_bytes", "bytes"),
    ("sampler.phi_update.wall_s", "s"),
    ("sampler.phi_update.model_s", "s"),
    ("sampler.phi_update.dram_bytes", "bytes"),
    ("sampler.phi_clear.wall_s", "s"),
    ("sampler.phi_clear.model_s", "s"),
    ("sampler.phi_clear.dram_bytes", "bytes"),
    ("sampler.sparse_iteration_fraction", "ratio"),
    ("sampler.lda_infer.wall_s", "s"),
    ("sampler.lda_infer.model_s", "s"),
    ("sampler.lda_infer.dram_bytes", "bytes"),
    ("sampler.checkpoint_save_s", "s"),
    ("sampler.checkpoint_bytes", "bytes"),
    ("serve.model_load_s", "s"),
    ("serve.plane_build_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.drain_s", "s"),
    ("serve.plane_overhead_s", "s"),
    ("serve.rejected", "count"),
    ("metrics.loglik_s", "s"),
    ("gpusim.launches", "count"),
    ("gpusim.kernel_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["nytimes-k1024", "pubmed-cluster-ooc", "serve-k1024"];

/// A validated benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: &'static str,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement window in host seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload <nytimes-k1024|pubmed-cluster-ooc|serve-k1024> \
--seed <n> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .copied()
                            .find(|w| *w == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("bad seconds {value:?}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// Derives an independent seed for one input stream of a workload seed
/// (SplitMix64 finaliser over the seed and the stream tag).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-layer samples gathered during a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds one sample of a metric reported as the median of its samples.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds to a metric reported as a run total.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Adds the durations of every recorded `span` as samples of `name`.
    pub fn push_spans(&mut self, name: &'static str, tracer: &Tracer, span: &str) {
        for d in tracer.durations(span) {
            self.push(name, d);
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
            + self.samples.get(name).map_or(0.0, |s| median_or_zero(s))
    }
}

/// What a workload measured, before assembly into an [`Outcome`].
#[derive(Debug, Default)]
pub struct Measured {
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer samples (traced run only).
    pub layers: Layers,
    /// Raw-sample summaries behind the timings.
    pub summaries: Vec<(&'static str, &'static str, Summary)>,
    /// Lines about the inputs.
    pub notes: Vec<String>,
    /// Operation and gate accounting.
    pub gates: Gates,
    /// Host threads the workload used at once.
    pub host_threads: usize,
    /// Op durations with tracing on and off, for the tracing overhead.
    pub traced_ops: Vec<f64>,
    /// See [`Self::traced_ops`].
    pub untraced_ops: Vec<f64>,
}

impl Measured {
    /// Records a summary of `samples` under `name` if there are any.
    pub fn summarize(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.summaries.push((name, unit, s));
        }
    }
}

/// Runs one workload and assembles its outcome; `tracer` keeps the spans
/// for the caller to write out.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let m = match args.workload {
        "nytimes-k1024" => train::run(&train::NYTIMES_K1024, args, tracer),
        "pubmed-cluster-ooc" => train::run(&train::PUBMED_CLUSTER_OOC, args, tracer),
        "serve-k1024" => serve::run(&serve::SERVE_K1024, args, tracer),
        other => unreachable!("Args::parse admits only known workloads, got {other}"),
    };
    outcome(args, m)
}

/// Assembles what a workload measured into the reported outcome: the
/// end-to-end metrics for an untraced run, the per-layer ones for a
/// traced run.
pub fn outcome(args: &Args, mut m: Measured) -> Outcome {
    let metrics = if args.trace {
        let (traced, untraced) = (
            median_or_zero(&m.traced_ops),
            median_or_zero(&m.untraced_ops),
        );
        if untraced > 0.0 {
            m.layers.add("trace.overhead_frac", traced / untraced - 1.0);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: m.layers.value(name),
            })
            .collect()
    } else {
        if let Some(rss) = report::peak_rss_mib() {
            m.end_to_end.insert("peak_rss_mib", rss);
        }
        END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: m.end_to_end.get(name).copied().unwrap_or(f64::NAN),
            })
            .collect()
    };
    Outcome {
        workload: args.workload,
        seed: args.seed,
        traced: args.trace,
        facts: HostFacts::collect(m.host_threads),
        metrics,
        summaries: m.summaries,
        notes: m.notes,
        gates: m.gates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_flags() {
        let a = Args::parse(strings(&[
            "--workload",
            "serve-k1024",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve-k1024",
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
            &["--workload", "serve-k1024", "--seconds", "1"],
            &[
                "--workload",
                "serve-k1024",
                "--seed",
                "1",
                "--seconds",
                "-1",
            ],
            &[
                "--workload",
                "serve-k1024",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload"],
            &["--bogus", "1"],
        ] {
            assert!(Args::parse(strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_seed() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }

    #[test]
    fn metric_names_follow_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |key: &str| -> Vec<String> {
            let start = doc.find(&format!("\"{key}\"")).expect(key);
            let section = &doc[start..];
            let end = section.find(']').unwrap();
            section[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let want = |v: &[(&str, &str)]| -> Vec<String> { v.iter().map(|p| p.0.into()).collect() };
        assert_eq!(names("end_to_end"), want(&END_TO_END));
        assert_eq!(names("per_layer"), want(&PER_LAYER));
        assert_eq!(names("workloads"), strings(&WORKLOADS));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let at = doc.find(&format!("\"name\": \"{name}\"")).unwrap();
            assert!(
                doc[at..].starts_with(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }
}
