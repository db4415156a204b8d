//! Host wall-clock benchmark for the per-GPU worker layer: the same
//! 4-GPU NYTimes-like run executed with sequential iteration bodies
//! (`step_sequential`, the pre-worker-layer shape) vs concurrent ones
//! (`step`, one host thread per simulated GPU). Simulated time and all
//! statistics are bit-identical between the two — only the host pays.
//!
//! Writes `BENCH_workers.json` and a `metrics.json` snapshot of the
//! concurrent run's hot-path instruments at the repository root.

use culda_bench::{banner, user_iters, user_scale};
use culda_corpus::SynthSpec;
use culda_gpusim::Platform;
use culda_metrics::MetricsRegistry;
use culda_multigpu::{CuldaTrainer, TrainerConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

const BENCH_TOPICS: usize = 128;

struct Run {
    wall_seconds: f64,
    sim_seconds: f64,
    device_clocks: Vec<u64>,
    final_z_hash: u64,
}

fn run(
    corpus: &culda_corpus::Corpus,
    gpus: usize,
    iters: u32,
    concurrent: bool,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Run {
    let cfg = TrainerConfig::builder(BENCH_TOPICS, Platform::pascal().with_gpus(gpus))
        .iterations(iters)
        .score_every(0)
        .build()
        .unwrap();
    let mut t = CuldaTrainer::new(corpus, cfg);
    if let Some(reg) = metrics {
        t.attach_observability(None, Some(reg.clone()));
    }
    let start = Instant::now();
    for _ in 0..iters {
        if concurrent {
            t.step();
        } else {
            t.step_sequential();
        }
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    // FNV-1a over the final assignments: cheap cross-run equality witness.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in t.states() {
        for z in s.z.snapshot() {
            h = (h ^ z as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    Run {
        wall_seconds,
        sim_seconds: t.history().total_sim_seconds(),
        device_clocks: t
            .workers()
            .iter()
            .map(|w| w.device.now().to_bits())
            .collect(),
        final_z_hash: h,
    }
}

fn main() {
    let iters = user_iters(10);
    let scale = 0.004 * user_scale();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    banner(
        "Worker-layer benchmark — sequential vs concurrent per-GPU bodies",
        &format!("NYTimes-like at scale {scale}, K = {BENCH_TOPICS}, {iters} iterations, Pascal"),
    );
    println!("host CPUs: {host_cpus} (speedup from the fan-out needs > 1)");
    let corpus = SynthSpec::nytimes_like(scale).generate();
    println!(
        "corpus: {} docs, {} tokens, V = {}\n",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size()
    );

    let registry = Arc::new(MetricsRegistry::new());
    let before = run(&corpus, 4, iters, false, None);
    let after = run(&corpus, 4, iters, true, Some(&registry));
    let one_gpu = run(&corpus, 1, iters, true, None);

    assert_eq!(
        before.device_clocks, after.device_clocks,
        "concurrency moved a simulated clock"
    );
    assert_eq!(
        before.final_z_hash, after.final_z_hash,
        "concurrency changed the sampled assignments"
    );

    let speedup = before.wall_seconds / after.wall_seconds;
    let vs_single = after.wall_seconds / one_gpu.wall_seconds;
    println!(
        "{:<34} {:>10.3} s",
        "4-GPU sequential bodies (before)", before.wall_seconds
    );
    println!(
        "{:<34} {:>10.3} s",
        "4-GPU concurrent bodies (after)", after.wall_seconds
    );
    println!("{:<34} {:>10.3} s", "1-GPU reference", one_gpu.wall_seconds);
    println!("{:<34} {:>10.2}x", "host speedup (before/after)", speedup);
    println!("{:<34} {:>10.2}x", "4-GPU wall vs 1-GPU wall", vs_single);
    println!(
        "simulated seconds unchanged: {:.4} s (4-GPU), {:.4} s (1-GPU)",
        after.sim_seconds, one_gpu.sim_seconds
    );

    let json = format!(
        "{{\n  \"benchmark\": \"4-GPU NYTimes-like run, host wall-clock, sequential vs concurrent per-GPU iteration bodies\",\n  \"workload\": {{\n    \"preset\": \"nytimes_like\",\n    \"scale\": {scale},\n    \"num_docs\": {},\n    \"num_tokens\": {},\n    \"vocab_size\": {},\n    \"topics\": {BENCH_TOPICS},\n    \"iterations\": {iters},\n    \"platform\": \"pascal\",\n    \"gpus\": 4\n  }},\n  \"host_cpus\": {host_cpus},\n  \"note\": \"the concurrent fan-out runs each GPU body on its own host thread, so host_speedup is bounded by min(host_cpus, gpus); on a single-CPU host it cannot beat sequential wall-clock and only has to cost nothing\",\n  \"before_wall_seconds\": {:.4},\n  \"after_wall_seconds\": {:.4},\n  \"one_gpu_wall_seconds\": {:.4},\n  \"host_speedup\": {:.3},\n  \"four_gpu_wall_over_one_gpu_wall\": {:.3},\n  \"sim_seconds_4gpu\": {:.6},\n  \"sim_seconds_1gpu\": {:.6},\n  \"sim_clocks_and_results_bit_identical\": true\n}}\n",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size(),
        before.wall_seconds,
        after.wall_seconds,
        one_gpu.wall_seconds,
        speedup,
        vs_single,
        after.sim_seconds,
        one_gpu.sim_seconds,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_workers.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_workers.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_workers.json");
    println!("\nwrote {path}");

    // Snapshot the concurrent run's hot-path metrics next to the bench
    // result so regressions in the recorded distributions are diffable.
    let metrics_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../metrics.json");
    std::fs::write(metrics_path, registry.snapshot_json().render()).expect("write metrics.json");
    println!("wrote {metrics_path}");
}
