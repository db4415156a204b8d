//! Results, correctness gates, host facts and their rendering.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Operation and correctness-check accounting. Every layer operation the
/// benchmark drives (a training step, a score, a served request) and every
/// correctness check is one attempt; a failed operation or a violated
/// check is one failure, recorded under the name of its gate.
#[derive(Debug, Clone, Default)]
pub struct Gates {
    attempted: u64,
    failed: u64,
    violations: BTreeMap<&'static str, u64>,
}

impl Gates {
    /// Records one attempt of `gate`; returns `ok`.
    pub fn check(&mut self, gate: &'static str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            *self.violations.entry(gate).or_default() += 1;
        }
        ok
    }

    /// Attempts so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failures so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failures per gate name.
    pub fn violations(&self) -> &BTreeMap<&'static str, u64> {
        &self.violations
    }

    /// True when nothing failed.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }
}

/// Facts about the host and build a result was measured on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Cores available to this process.
    pub nproc: usize,
    /// Revision of the checkout, or `unknown` outside a git checkout.
    pub git_revision: String,
    /// `release` or `debug`.
    pub build_profile: &'static str,
    /// Host threads the workload runs its layers on at once.
    pub host_threads: usize,
}

impl HostFacts {
    /// Facts for a workload that uses `host_threads` threads.
    pub fn collect(host_threads: usize) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            git_revision: git_revision().unwrap_or_else(|| "unknown".into()),
            build_profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            host_threads,
        }
    }
}

/// Reads the checked-out revision from `.git` in the working directory,
/// without running git (which would search outside the checkout).
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never valid JSON) render as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Host and build facts.
    pub facts: HostFacts,
    /// Metrics reported on the last line.
    pub metrics: Vec<Metric>,
    /// Raw-sample summaries behind the timings, by name and unit.
    pub summaries: Vec<(&'static str, &'static str, Summary)>,
    /// Free-form lines about the inputs and the run.
    pub notes: Vec<String>,
    /// Operation and gate accounting.
    pub gates: Gates,
}

impl Outcome {
    /// Human-readable report: facts, notes, sample summaries, every metric
    /// by name with its unit, and each violated gate.
    pub fn render_text(&self) -> String {
        let f = &self.facts;
        let mut out = format!(
            "workload {} seed {} {}\nhost nproc={} host_threads={} profile={} git={}\n",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            f.nproc,
            f.host_threads,
            f.build_profile,
            f.git_revision
        );
        for n in &self.notes {
            let _ = writeln!(out, "note {n}");
        }
        for (name, unit, s) in &self.summaries {
            let _ = writeln!(out, "samples {name}: {}", s.describe(unit));
        }
        for m in &self.metrics {
            let _ = writeln!(out, "metric {} = {} {}", m.name, json_num(m.value), m.unit);
        }
        let _ = writeln!(
            out,
            "ops attempted {} failed {} (failed_fraction {})",
            self.gates.attempted(),
            self.gates.failed(),
            json_num(self.gates.failed() as f64 / self.gates.attempted().max(1) as f64)
        );
        for (gate, n) in self.gates.violations() {
            let _ = writeln!(out, "GATE FAILED {gate}: {n} violation(s)");
        }
        out
    }

    /// Whether every gate held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.gates.passed() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line result object.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.gates.attempted().max(1),
            self.gates.failed(),
            metrics.join(", ")
        )
    }

    /// The full record kept beside a run's trace: facts, sample
    /// summaries, gates and metrics.
    pub fn render_record(&self) -> String {
        let f = &self.facts;
        let mut out = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"traced\": {},\n  \"host\": {{\"nproc\": {}, \"host_threads\": {}, \"build_profile\": {}, \"git_revision\": {}}},\n",
            json_str(self.workload),
            self.seed,
            self.traced,
            f.nproc,
            f.host_threads,
            json_str(f.build_profile),
            json_str(&f.git_revision)
        );
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
        let samples: Vec<String> = self
            .summaries
            .iter()
            .map(|(name, unit, s)| {
                let tail = s.tail.map_or("null".to_string(), |(pm, v)| {
                    format!("{{\"permille\": {pm}, \"value\": {}}}", json_num(v))
                });
                format!(
                    "    {}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"p90\": {}, \"tail\": {tail}, \"min\": {}, \"max\": {}}}",
                    json_str(name),
                    json_str(unit),
                    s.n,
                    json_num(s.median),
                    json_num(s.p90),
                    json_num(s.min),
                    json_num(s.max)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"samples\": {{\n{}\n  }},", samples.join(",\n"));
        let gates: Vec<String> = self
            .gates
            .violations()
            .iter()
            .map(|(g, n)| format!("{}: {n}", json_str(g)))
            .collect();
        let _ = writeln!(out, "  \"violations\": {{{}}},", gates.join(", "));
        let _ = writeln!(out, "  \"result\": {}\n}}", self.render_json());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_count_attempts_and_name_failures() {
        let mut g = Gates::default();
        assert!(g.check("a", true));
        assert!(!g.check("b", false));
        assert!(!g.check("b", false));
        assert_eq!((g.attempted(), g.failed()), (3, 2));
        assert_eq!(g.violations()["b"], 2);
        assert!(!g.passed());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut gates = Gates::default();
        gates.check("x", true);
        let o = Outcome {
            workload: "w",
            seed: 1,
            traced: false,
            facts: HostFacts::collect(2),
            metrics: vec![Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
            summaries: Vec::new(),
            notes: vec!["a \"quoted\" note".into()],
            gates,
        };
        assert_eq!(
            o.render_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(o.render_record().contains("\\\"quoted\\\""));
        assert!(o.render_text().contains("metric setup_s = 0.25 s"));
    }

    #[test]
    fn non_finite_metrics_are_not_correct() {
        let o = Outcome {
            workload: "w",
            seed: 1,
            traced: false,
            facts: HostFacts::collect(1),
            metrics: vec![Metric {
                name: "m",
                unit: "s",
                value: f64::NAN,
            }],
            summaries: Vec::new(),
            notes: Vec::new(),
            gates: Gates::default(),
        };
        assert!(!o.correct());
        assert!(o.render_json().contains("null"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
    }
}
