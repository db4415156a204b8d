//! Multi-node cluster benchmark: modelled time, inter-node traffic, and
//! H2D/compute overlap for `--nodes N` on a PubMed-like out-of-core
//! workload.
//!
//! The PubMed regime (Section 7: 8.2M docs, V = 141k) is exactly where a
//! single box runs out — the chunks no longer fit beside the ϕ replicas,
//! so the run streams chunks through device memory. This bench scales
//! that corpus down (`CULDA_SCALE` to adjust), *keeps* it out-of-core by
//! shrinking the modelled device memory to `2·ϕ + ⅓ of the chunk bytes`,
//! and sweeps the node count. For every N the trained model must be
//! bit-identical to the single-node run; what changes is the modelled
//! wall-clock (shards sample in parallel, Δϕ payloads merge up the
//! node-level reduce tree over a 100 Gb/s node link) and the staging
//! overlap (`oocore.overlap_fraction`: the share of H2D time hidden
//! behind sampling by the double-buffered prefetch).
//!
//! Writes `BENCH_cluster.json` at the repository root.

use culda_bench::{banner, user_iters, user_scale};
use culda_corpus::SynthSpec;
use culda_gpusim::Platform;
use culda_metrics::MetricsRegistry;
use culda_multigpu::{build_trainer, PartitionPolicy, SyncMode, TrainerConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

const BENCH_TOPICS: usize = 64;
const GPUS_PER_NODE: usize = 2;
const NODE_COUNTS: [usize; 3] = [1, 2, 4];

struct Run {
    nodes: usize,
    sim_seconds: f64,
    wall_seconds: f64,
    overlap_fraction: f64,
    inter_node_bytes: u64,
    inter_node_nnz: u64,
    final_z_hash: u64,
}

fn run(corpus: &culda_corpus::Corpus, iters: u32, nodes: usize, prefetch: bool) -> Run {
    let mut cfg = TrainerConfig::builder(BENCH_TOPICS, Platform::pascal().with_gpus(GPUS_PER_NODE))
        .iterations(iters)
        .score_every(0)
        .seed(41)
        .sync_mode(SyncMode::Delta)
        .nodes(nodes)
        .prefetch(prefetch)
        .build()
        .unwrap();
    // Keep the run out-of-core at any scale: the ϕ replicas fit, the
    // chunk stream does not.
    cfg.platform.gpu.memory_bytes =
        2 * cfg.phi_device_bytes(corpus.vocab_size()) + corpus.num_tokens() * 10 / 3;
    let mut t = build_trainer(PartitionPolicy::Document, corpus, cfg).unwrap();
    let reg = Arc::new(MetricsRegistry::new());
    t.attach_observability(None, Some(reg.clone()));
    let start = Instant::now();
    let mut sim_seconds = 0.0;
    for _ in 0..iters {
        sim_seconds += t.step().sim_seconds;
    }
    let wall_seconds = start.elapsed().as_secs_f64();
    let (inter_node_bytes, inter_node_nnz) = (
        reg.counter("cluster.sync.bytes").value(),
        reg.counter("cluster.sync.nnz").value(),
    );
    // FNV-1a over the final assignments: cross-run equality witness.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for z in t.assignments().iter().flatten() {
        h = (h ^ *z as u64).wrapping_mul(0x100_0000_01b3);
    }
    Run {
        nodes,
        sim_seconds,
        wall_seconds,
        overlap_fraction: reg.gauge("oocore.overlap_fraction").value(),
        inter_node_bytes,
        inter_node_nnz,
        final_z_hash: h,
    }
}

fn main() {
    let iters = user_iters(5);
    let scale = 0.0004 * user_scale();
    banner(
        "Cluster benchmark — modelled seconds, Δϕ traffic, and staging overlap per --nodes",
        &format!(
            "PubMed-like at scale {scale} (out-of-core), K = {BENCH_TOPICS}, {iters} iterations, \
             Pascal ×{GPUS_PER_NODE} per node"
        ),
    );
    let corpus = SynthSpec::pubmed_like(scale).generate();
    println!(
        "corpus: {} docs, {} tokens, V = {} (full-scale PubMed: 8.2M docs — \
         rescale with CULDA_SCALE)\n",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size(),
    );

    let runs: Vec<Run> = NODE_COUNTS
        .iter()
        .map(|&n| run(&corpus, iters, n, true))
        .collect();
    for r in &runs[1..] {
        assert_eq!(
            r.final_z_hash, runs[0].final_z_hash,
            "{}-node run changed the sampled assignments",
            r.nodes
        );
    }
    // Prefetch ablation on the single-node run: overlap collapses to zero
    // and the model is untouched.
    let serial = run(&corpus, iters, 1, false);
    assert_eq!(
        serial.final_z_hash, runs[0].final_z_hash,
        "serial staging changed the sampled assignments"
    );
    assert_eq!(serial.overlap_fraction, 0.0);

    println!(
        "{:<7} {:>12} {:>9} {:>10} {:>14} {:>12} {:>8}",
        "nodes", "sim sec", "speedup", "overlap", "Δϕ bytes(MiB)", "Δϕ nnz", "wall s"
    );
    for r in &runs {
        println!(
            "{:<7} {:>12.4} {:>8.2}x {:>9.1}% {:>14.2} {:>12} {:>8.2}",
            r.nodes,
            r.sim_seconds,
            runs[0].sim_seconds / r.sim_seconds,
            100.0 * r.overlap_fraction,
            r.inter_node_bytes as f64 / (1024.0 * 1024.0),
            r.inter_node_nnz,
            r.wall_seconds,
        );
    }
    println!(
        "\nprefetch ablation (1 node): overlap {:.1}% → {:.1}%, sim {:.4}s → {:.4}s",
        100.0 * runs[0].overlap_fraction,
        100.0 * serial.overlap_fraction,
        runs[0].sim_seconds,
        serial.sim_seconds,
    );

    for r in &runs {
        assert!(
            r.overlap_fraction > 0.0,
            "{}-node out-of-core run hid no H2D time",
            r.nodes
        );
    }
    let four = runs.last().unwrap();
    assert!(
        four.sim_seconds < runs[0].sim_seconds,
        "4 nodes modelled no faster than 1"
    );

    let per_run: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"nodes\": {},\n      \"gpus_per_node\": {GPUS_PER_NODE},\n      \"modelled_seconds\": {:.9},\n      \"speedup_vs_single_node\": {:.3},\n      \"overlap_fraction\": {:.6},\n      \"inter_node_bytes\": {},\n      \"inter_node_payload_nnz\": {},\n      \"wall_seconds\": {:.4}\n    }}",
                r.nodes,
                r.sim_seconds,
                runs[0].sim_seconds / r.sim_seconds,
                r.overlap_fraction,
                r.inter_node_bytes,
                r.inter_node_nnz,
                r.wall_seconds,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"multi-node AD-LDA cluster: modelled seconds, delta-phi traffic, and H2D/compute overlap per --nodes\",\n  \"workload\": {{\n    \"preset\": \"pubmed_like\",\n    \"scale\": {scale},\n    \"num_docs\": {},\n    \"num_tokens\": {},\n    \"vocab_size\": {},\n    \"topics\": {BENCH_TOPICS},\n    \"iterations\": {iters},\n    \"platform\": \"pascal\",\n    \"out_of_core\": true,\n    \"node_link\": \"100gbit\"\n  }},\n  \"runs\": [\n{}\n  ],\n  \"prefetch_ablation\": {{\n    \"overlap_fraction_prefetch\": {:.6},\n    \"overlap_fraction_serial\": {:.6},\n    \"modelled_seconds_prefetch\": {:.9},\n    \"modelled_seconds_serial\": {:.9}\n  }},\n  \"overlap_fraction\": {:.6},\n  \"speedup_4_nodes\": {:.3},\n  \"results_bit_identical_across_node_counts\": true\n}}\n",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size(),
        per_run.join(",\n"),
        runs[0].overlap_fraction,
        serial.overlap_fraction,
        runs[0].sim_seconds,
        serial.sim_seconds,
        runs[0].overlap_fraction,
        runs[0].sim_seconds / four.sim_seconds,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    let mut f = std::fs::File::create(path).expect("create BENCH_cluster.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_cluster.json");
    println!("wrote {path}");
}
