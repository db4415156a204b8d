//! The LDA sampling kernel — Algorithm 2 and Figure 6.
//!
//! One thread block = 32 warp-samplers, all working on tokens of the *same
//! word* so they share that word's `p*(k)` vector and `p2` index tree in
//! shared memory (one tree serves both, since `p2 = α·p*`). Each sampler
//! keeps a private index tree (or a butterfly lane) for its token's sparse
//! `p1(k)`.
//!
//! The kernel is *read-only* with respect to the model: θ and ϕ are fixed
//! snapshots from the previous iteration's update kernels, and the only
//! writes are the new topic assignments `z` — this is what makes thousands
//! of concurrent samplers race-free, and it matches the paper's three-
//! kernel structure (sampling → update θ → update ϕ).
//!
//! Every token draws from its own deterministic RNG stream keyed by
//! `(seed, iteration, global token index)`, so results are bit-identical
//! regardless of block scheduling, worker-thread count, or how many GPUs
//! the corpus is spread over.

use crate::blockmap::{BlockWork, SAMPLERS_PER_BLOCK};
use crate::butterfly::ButterflyBatch;
use crate::butterfly::{butterfly_p1_cost, p1_scratch_floats, search_steps, tree_p1_cost};
use crate::mode::DrawMode;
use crate::model::{ChunkState, PhiModel};
use crate::ptree::{IndexTree, DEFAULT_FANOUT};
use crate::spq::{draw_token, p1_prefix, P1Run, TokenDraw};
use culda_corpus::{SortedChunk, Xoshiro256};
use culda_gpusim::warp::WARP_SIZE;
use culda_gpusim::{BlockCtx, Device, KernelSpec, LaunchPhase, LaunchReport, SimFault};
use std::cell::RefCell;

/// Tuning and bookkeeping for one sampling launch.
#[derive(Debug, Clone, Copy)]
pub struct SampleConfig {
    /// Global RNG seed shared by the whole training run.
    pub seed: u64,
    /// Current iteration (independent streams per iteration).
    pub iteration: u32,
    /// Global token offset of this chunk (stream ids span the corpus).
    pub chunk_token_offset: u64,
    /// Model ϕ with the u16 "precision compression" of Section 6.1.3 when
    /// true: ϕ loads and θ column indices are counted at 2 bytes instead
    /// of 4 (the ablation bench toggles this).
    pub compressed: bool,
    /// Whether `p*(k)` and the trees are cached in shared memory
    /// (Section 6.1.2/6.1.3). When false — or when K does not fit — their
    /// traffic is charged to DRAM instead (ablation).
    pub use_shared_memory: bool,
    /// Whether the sparse-matrix *index* loads (the θ CSR rows) go through
    /// the L1 data cache — the selective-caching choice of Section 6.1.2
    /// ("we let the sparse matrix index access instructions to use the L1
    /// cache"). When false they are plain coalesced DRAM loads (ablation).
    pub use_l1_for_indices: bool,
    /// Whether the block-shared `p*(k)` phase uses the sparsity-aware
    /// bucket decomposition: tail rows under the cutover stream only their
    /// CSR cells and patch the iteration-constant β-baseline, so per-block
    /// work scales with `nnz(row)` instead of `K`. Pure cost-model choice —
    /// sampled topics are bit-identical either way (`--sampling-mode`).
    pub sparse: bool,
    /// How samplers turn their per-token `p1` prefix into a topic: the
    /// classic private tree walk, the Steele–Tristan butterfly partial-sum
    /// path ([`crate::butterfly`]), or a per-block choice driven by the
    /// shared-memory spill predicate. Like `sparse`, this is cost-model
    /// only — sampled topics are bit-identical in every mode
    /// (`--draw-mode`).
    pub draw: DrawMode,
}

impl SampleConfig {
    /// Default configuration for a run with `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            iteration: 0,
            chunk_token_offset: 0,
            compressed: true,
            use_shared_memory: true,
            use_l1_for_indices: true,
            sparse: false,
            draw: DrawMode::Tree,
        }
    }

    fn stream_seed(&self) -> u64 {
        self.seed ^ (self.iteration as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Hot-path instrument handles, resolved once per block (never per token)
/// from the device's attached [`culda_metrics::MetricsRegistry`].
struct SamplerInstruments {
    p1_draws: std::sync::Arc<culda_metrics::Counter>,
    p2_draws: std::sync::Arc<culda_metrics::Counter>,
    divergence: std::sync::Arc<culda_metrics::Counter>,
    tree_depth: std::sync::Arc<culda_metrics::Histogram>,
}

/// Host scratch for one block: the `p*` buffer and its tree, the run
/// cache, and both `p1` engines. Both engines compute the same
/// serially-accumulated f32 prefix and the same lower-bound rule over it,
/// so the drawn topic is bit-identical; they differ only in the modelled
/// memory layout the kernel charges for ([`tree_p1_cost`] vs
/// [`butterfly_p1_cost`]).
struct BlockScratch {
    pstar: Vec<f32>,
    /// The block-shared `p*` tree (serves `Q` and the `p2` draw).
    block_tree: IndexTree,
    run: P1Run,
    /// The classic private Figure-5 `p1` index tree (also the host
    /// oracle's engine).
    p1_tree: IndexTree,
    /// The block's butterfly-interleaved partial sums; sampler `s` owns
    /// lane `s % 32`.
    butterfly: ButterflyBatch,
}

impl BlockScratch {
    fn new() -> Self {
        Self {
            pstar: Vec::new(),
            block_tree: IndexTree::build(&[1.0f32], DEFAULT_FANOUT),
            run: P1Run::new(),
            p1_tree: IndexTree::build(&[1.0f32], DEFAULT_FANOUT),
            butterfly: ButterflyBatch::new(),
        }
    }
}

thread_local! {
    /// One scratch per executor thread, reused by every block it runs —
    /// never allocated per block, per sampler or per token.
    static SCRATCH: RefCell<Option<BlockScratch>> = const { RefCell::new(None) };
}

/// Launches the sampling kernel for one chunk on `device`. Writes new
/// assignments into `state.z`; model matrices are read-only.
///
/// Panics on a simulated fault; resilient callers use
/// [`try_run_sampling_kernel`].
pub fn run_sampling_kernel(
    device: &Device,
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    inv_denom: &[f32],
    block_map: &[BlockWork],
    cfg: &SampleConfig,
) -> LaunchReport {
    try_run_sampling_kernel(device, chunk, state, phi, inv_denom, block_map, cfg)
        .unwrap_or_else(|f| panic!("unrecoverable simulated fault: {f}"))
}

/// Fallible sampling launch: surfaces injected faults as [`SimFault`].
/// Because the kernel only *writes* `state.z` (θ and ϕ are read-only), a
/// failed launch can simply be re-run — the kernel is idempotent.
pub fn try_run_sampling_kernel(
    device: &Device,
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    inv_denom: &[f32],
    block_map: &[BlockWork],
    cfg: &SampleConfig,
) -> Result<LaunchReport, SimFault> {
    assert_eq!(state.z.len(), chunk.num_tokens(), "z/chunk mismatch");
    assert_eq!(inv_denom.len(), phi.num_topics, "inv_denom size");
    assert!(!block_map.is_empty(), "empty block map");
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let phi_elem_bytes = if cfg.compressed { 2 } else { 4 };
    let theta_col_bytes = if cfg.compressed { 2 } else { 4 };
    let stream_seed = cfg.stream_seed();

    let spec =
        KernelSpec::new("lda_sample", block_map.len() as u32).with_phase(LaunchPhase::Sampling);
    device.try_launch_spec(spec, |ctx: &mut BlockCtx| {
        let work = &block_map[ctx.block_id as usize];
        let word = chunk.word_ids[work.word_idx] as usize;

        // --- Block-shared phase: p*(k) and its index tree -----------------
        // Decide whether p* + prefix + upper levels fit the 48 KiB budget;
        // 2·K f32 plus ~K/31 of upper nodes, plus per-sampler scratch.
        let shared_ok = cfg.use_shared_memory && ctx.shared.fits::<f32>(2 * k + k / 16 + 64);
        // Worst-case θ-row support across the block's tokens: the block-map
        // metadata a real launch would carry (or one warp max-reduce).
        // Drives the p1 spill predicate the executor charges from and
        // `DrawMode::Auto` chooses from — one predicate, so the chooser can
        // never disagree with the charger.
        let max_kd = (0..SAMPLERS_PER_BLOCK)
            .flat_map(|s| work.sampler_tokens(s))
            .map(|t| state.theta.row(chunk.token_doc[t] as usize).0.len())
            .max()
            .unwrap_or(0);
        let p1_on_chip = shared_ok
            && ctx
                .shared
                .fits::<f32>(2 * k + k / 16 + 64 + p1_scratch_floats(max_kd));
        let draw = match cfg.draw {
            DrawMode::Auto if p1_on_chip => DrawMode::Tree,
            DrawMode::Auto => DrawMode::Butterfly,
            fixed => fixed,
        };
        // Host buffers come from this executor thread's scratch; the
        // shared-memory budget is claimed exactly as before.
        let mut scratch = SCRATCH.take().unwrap_or_else(BlockScratch::new);
        let BlockScratch {
            pstar,
            block_tree,
            run,
            p1_tree,
            butterfly: batch,
        } = &mut scratch;
        if shared_ok {
            ctx.shared.claim::<f32>(k);
        }
        pstar.resize(k, 0.0);
        // ϕ row load + p* compute + tree build. The numbers are identical
        // on both paths (the hybrid layout's smoothed read is bit-exact);
        // only the *modelled* traffic depends on `cfg.sparse`: the dense
        // path streams all K ϕ entries, the sparse path streams only the
        // row's CSR cells and patches the iteration-constant β-baseline.
        let row_nnz = phi.phi.row_nnz(word);
        phi.phi.fill_smoothed(word, beta, inv_denom, pstar);
        // Build the shared p*(k) tree (prefix + upper levels).
        block_tree.rebuild(pstar);
        let tree_bytes = block_tree.leaf_bytes() + block_tree.shared_bytes();
        let pstar_cost = crate::count::pstar_block_cost(
            k,
            row_nnz,
            phi_elem_bytes,
            tree_bytes,
            block_tree.depth(),
            shared_ok,
            cfg.sparse,
        );
        ctx.dram_read(pstar_cost.dram_read);
        ctx.flop(pstar_cost.flops);

        // Metric handles resolved once per block; `None` costs one branch
        // per token below. Recording never touches traffic counters, so
        // modelled time and sampled topics are unaffected.
        let instruments = ctx.metrics().map(|m| SamplerInstruments {
            p1_draws: m.counter("sampler.p1_draws"),
            p2_draws: m.counter("sampler.p2_draws"),
            divergence: m.counter("sampler.warp_divergence_events"),
            tree_depth: m.histogram("sampler.tree_depth"),
        });
        if let Some(ins) = &instruments {
            ins.tree_depth.record(block_tree.depth() as f64);
        }
        if shared_ok {
            // Prefix leaves + upper nodes written to shared memory.
            ctx.shared
                .claim::<u8>(tree_bytes.min(ctx.shared.available()));
            ctx.shared_access(pstar_cost.shared);
        } else {
            ctx.dram_write(pstar_cost.dram_write);
        }

        // --- Per-sampler phase --------------------------------------------
        // One L1 model per block (an SM's L1 serves the block's warps):
        // the θ CSR rows of a block's tokens often repeat (frequent words
        // co-occur with the same documents), which is what the selective
        // index caching of Section 6.1.2 exploits.
        // A block gets a *slice* of its SM's L1 (several blocks share one
        // SM): model 1/8 of the 24 KiB — 6 sets × 4 ways × 128 B = 3 KiB.
        let mut l1 = cfg.use_l1_for_indices.then(|| {
            culda_gpusim::CacheSim::new(culda_gpusim::CacheConfig {
                line_bytes: 128,
                sets: 6,
                ways: 4,
            })
        });
        let butterfly = draw == DrawMode::Butterfly;
        for s in 0..SAMPLERS_PER_BLOCK {
            let tokens = work.sampler_tokens(s);
            if tokens.is_empty() {
                continue;
            }
            let lane = s % WARP_SIZE;
            run.reset();
            let mut prev_branch: Option<bool> = None;
            for t in tokens {
                let d = chunk.token_doc[t] as usize;
                ctx.dram_read(4); // token -> doc index
                let (cols, vals) = state.theta.row(d);
                let kd = cols.len();
                // θ row load (CSR: col idx + value per non-zero), optionally
                // through the L1 model: repeated rows hit, cold rows pay
                // full line fills.
                let row_bytes = kd * (theta_col_bytes + 4);
                if row_bytes > 0 {
                    match &mut l1 {
                        Some(cache) => {
                            let (start, _) = state.theta.row_range(d);
                            let addr = (start * (theta_col_bytes + 4)) as u64;
                            let missed = cache.access(addr, row_bytes);
                            ctx.dram_read(missed * cache.config().line_bytes);
                            ctx.shared_access(row_bytes); // L1-served
                        }
                        None => ctx.dram_read(row_bytes),
                    }
                }
                // p1 weights: one mul + one add each, p* served on-chip
                // when cached. The device recomputes them per token, so
                // every token is charged; the host reuses the run's
                // prefix (bit-identical, see `P1Run`).
                ctx.flop(2 * kd);
                if shared_ok {
                    ctx.shared_access(kd * 4);
                } else {
                    ctx.dram_read(kd * 4);
                }
                let s_mass = run.enter(d, cols, vals, pstar);
                let mut rng =
                    Xoshiro256::from_seed_stream(stream_seed, cfg.chunk_token_offset + t as u64);
                let TokenDraw {
                    topic,
                    sh_touch,
                    leaf_touch,
                    took_p1,
                } = draw_token(s_mass, cols, block_tree, alpha, &mut rng, |x| {
                    if butterfly {
                        (run.sample_butterfly(batch, lane, x), 0, 0)
                    } else {
                        run.sample_tree(p1_tree, x)
                    }
                });
                if let Some(ins) = &instruments {
                    if took_p1 {
                        ins.p1_draws.inc();
                        // The butterfly's "depth" is its probe count: the
                        // shuffle-compare steps of the lower-bound search.
                        let depth = match draw {
                            DrawMode::Butterfly => search_steps(kd),
                            _ => p1_tree.depth(),
                        };
                        ins.tree_depth.record(depth as f64);
                    } else {
                        ins.p2_draws.inc();
                    }
                    // A branch flip between consecutive tokens of one warp-
                    // sampler is where lockstep execution would serialise.
                    if prev_branch.is_some_and(|p| p != took_p1) {
                        ins.divergence.inc();
                    }
                    prev_branch = Some(took_p1);
                }
                if took_p1 {
                    // `p1` draw traffic by engine: the tree walk served
                    // on-chip (or strided sector-per-touch DRAM when the
                    // per-sampler scratch spills), vs the butterfly's
                    // coalesced interleaved scan.
                    let dc = match draw {
                        DrawMode::Butterfly => butterfly_p1_cost(kd, p1_on_chip),
                        _ => tree_p1_cost(kd, sh_touch, leaf_touch, p1_on_chip),
                    };
                    ctx.dram_read(dc.dram_read);
                    ctx.dram_write(dc.dram_write);
                    ctx.shared_access(dc.shared);
                    ctx.flop(dc.flops);
                } else {
                    // `p2` walk over the block-shared tree: node scans in
                    // shared (or DRAM when the shared path is disabled).
                    let walk_bytes = (sh_touch + leaf_touch) * 4;
                    if shared_ok {
                        ctx.shared_access(walk_bytes);
                    } else {
                        ctx.dram_read(walk_bytes);
                    }
                }
                ctx.flop(kd); // p1 prefix-sum adds (identical in every mode)
                state.z.store(t, topic);
                ctx.dram_write(2);
            }
        }
        SCRATCH.set(Some(scratch));
    })
}

/// Host-side oracle: computes the exact assignments the kernel must
/// produce, using the same per-token RNG streams, branch/draw rule and tree
/// code but no device, no blocks, no concurrency and no run reuse: every
/// token recomputes its `p1` prefix and rebuilds its tree. Tests compare
/// `z` buffers.
pub fn sample_chunk_reference(
    chunk: &SortedChunk,
    state: &ChunkState,
    phi: &PhiModel,
    inv_denom: &[f32],
    cfg: &SampleConfig,
) -> Vec<u16> {
    let k = phi.num_topics;
    let alpha = phi.priors.alpha as f32;
    let beta = phi.priors.beta as f32;
    let stream_seed = cfg.stream_seed();
    let mut out = vec![0u16; chunk.num_tokens()];
    let mut pstar = vec![0.0f32; k];
    for (wi, &w) in chunk.word_ids.iter().enumerate() {
        phi.phi
            .fill_smoothed(w as usize, beta, inv_denom, &mut pstar);
        let block_tree = IndexTree::build(&pstar, DEFAULT_FANOUT);
        let mut p1_tree = IndexTree::build(&[1.0f32], DEFAULT_FANOUT);
        let mut prefix = Vec::new();
        for t in chunk.word_tokens(wi) {
            let d = chunk.token_doc[t] as usize;
            let (cols, vals) = state.theta.row(d);
            let s = p1_prefix(cols, vals, &pstar, &mut prefix);
            let mut rng =
                Xoshiro256::from_seed_stream(stream_seed, cfg.chunk_token_offset + t as u64);
            let drawn = draw_token(s, cols, &block_tree, alpha, &mut rng, |x| {
                p1_tree.rebuild_from_prefix(&prefix);
                p1_tree.sample_scaled(x)
            });
            out[t] = drawn.topic;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockmap::build_block_map;
    use crate::hyper::Priors;
    use crate::model::accumulate_phi_host;
    use culda_corpus::{partition_by_tokens, SynthSpec};
    use culda_gpusim::GpuSpec;

    fn setup() -> (SortedChunk, ChunkState, PhiModel) {
        let corpus = SynthSpec::tiny().generate();
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, 16, 11);
        let phi = PhiModel::zeros(16, corpus.vocab_size(), Priors::paper(16));
        accumulate_phi_host(&chunk, &state.z, &phi);
        (chunk, state, phi)
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(77);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);

        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let map = build_block_map(&chunk, 128);
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert_eq!(state.z.snapshot(), expected);
    }

    #[test]
    fn result_is_independent_of_block_size_and_workers() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(3);
        let mut runs = Vec::new();
        for (tpb, workers) in [(32usize, 1usize), (512, 2), (4096, 7)] {
            let fresh = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::v100_volta()).with_workers(workers);
            let map = build_block_map(&chunk, tpb);
            run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
            runs.push(fresh.z.snapshot());
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn different_iterations_resample_differently() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(5);
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        let z1 = state.z.snapshot();
        cfg.iteration = 1;
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        let z2 = state.z.snapshot();
        assert_ne!(z1, z2, "iterations must use fresh randomness");
    }

    #[test]
    fn all_assignments_in_range() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let dev = Device::new(0, GpuSpec::titan_xp_pascal());
        let map = build_block_map(&chunk, 100);
        run_sampling_kernel(
            &dev,
            &chunk,
            &state,
            &phi,
            &inv,
            &map,
            &SampleConfig::new(1),
        );
        for z in state.z.snapshot() {
            assert!((z as usize) < 16);
        }
    }

    #[test]
    fn shared_memory_path_is_cheaper_than_dram_path() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(9);

        let dev_a = Device::new(0, GpuSpec::titan_x_maxwell());
        let with_shared = run_sampling_kernel(&dev_a, &chunk, &state, &phi, &inv, &map, &cfg);
        cfg.use_shared_memory = false;
        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let without = run_sampling_kernel(&dev_b, &chunk, &state, &phi, &inv, &map, &cfg);
        assert!(
            with_shared.cost.dram_bytes() < without.cost.dram_bytes(),
            "shared path must reduce DRAM traffic"
        );
        assert!(with_shared.sim_seconds <= without.sim_seconds);
    }

    #[test]
    fn k_10000_overflows_shared_memory_and_still_samples_correctly() {
        // The paper's K ranges 1k–10k. At K = 10,000 the p* array plus its
        // tree is ~80 KiB — over the 48 KiB budget — so the kernel must
        // fall back to the DRAM path, still matching the reference.
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 40;
            spec.vocab_size = 80;
            spec.avg_doc_len = 15.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 10_000;
        let state = ChunkState::init_random(&chunk, k, 2);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(8);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
        let map = build_block_map(&chunk, 64);
        let report = run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert_eq!(state.z.snapshot(), expected);
        // The fallback path must have charged the p* arrays to DRAM.
        assert!(report.cost.dram_bytes() > 0);
    }

    #[test]
    fn l1_routing_changes_traffic_but_not_assignments() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 512);
        let mut outputs = Vec::new();
        let mut dram = Vec::new();
        for l1 in [true, false] {
            let fresh = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(2);
            let mut cfg = SampleConfig::new(13);
            cfg.use_l1_for_indices = l1;
            let r = run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
            outputs.push(fresh.z.snapshot());
            dram.push(r.cost.dram_read_bytes);
        }
        assert_eq!(outputs[0], outputs[1], "L1 must not change results");
        assert_ne!(dram[0], dram[1], "L1 must change the traffic mix");
    }

    #[test]
    fn metrics_recording_does_not_change_assignments() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg = SampleConfig::new(21);
        let map = build_block_map(&chunk, 256);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg);

        let dev = Device::new(0, GpuSpec::titan_x_maxwell()).with_workers(4);
        let reg = std::sync::Arc::new(culda_metrics::MetricsRegistry::new());
        dev.attach_metrics(reg.clone());
        run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert_eq!(state.z.snapshot(), expected);

        // Every token took exactly one branch; depth was sampled per block.
        let draws =
            reg.counter("sampler.p1_draws").value() + reg.counter("sampler.p2_draws").value();
        assert_eq!(draws as usize, chunk.num_tokens());
        assert!(reg.histogram("sampler.tree_depth").count() > 0);
    }

    #[test]
    fn sparse_mode_is_bit_identical_and_never_models_more_time() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        for (use_shared, use_l1) in [(true, true), (false, true), (true, false)] {
            let mut cfg = SampleConfig::new(77);
            cfg.use_shared_memory = use_shared;
            cfg.use_l1_for_indices = use_l1;
            let dense_z;
            let dense_report;
            {
                let fresh = ChunkState {
                    z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                    theta: state.theta.clone(),
                };
                let dev = Device::new(0, GpuSpec::titan_x_maxwell());
                dense_report = run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
                dense_z = fresh.z.snapshot();
            }
            cfg.sparse = true;
            let fresh = ChunkState {
                z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
                theta: state.theta.clone(),
            };
            let dev = Device::new(0, GpuSpec::titan_x_maxwell());
            let sparse_report = run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
            assert_eq!(
                fresh.z.snapshot(),
                dense_z,
                "sparse mode changed assignments (shared={use_shared}, l1={use_l1})"
            );
            assert!(
                sparse_report.sim_seconds <= dense_report.sim_seconds,
                "sparse modelled more time than dense (shared={use_shared}, l1={use_l1})"
            );
            assert!(sparse_report.cost.dram_read_bytes <= dense_report.cost.dram_read_bytes);
        }
    }

    #[test]
    fn sparse_mode_cuts_phi_traffic_on_a_tail_heavy_model() {
        // A converged-looking ϕ: every word concentrated in 2 topics out
        // of 1024. Sparse-mode blocks stream CSR cells instead of K-wide
        // rows, so the modelled ϕ bytes collapse.
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 40;
            spec.vocab_size = 80;
            spec.avg_doc_len = 15.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 1024;
        let state = ChunkState::init_random(&chunk, 2, 11); // topics 0/1 only
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(5);
        let dev_a = Device::new(0, GpuSpec::titan_x_maxwell());
        let dense = run_sampling_kernel(&dev_a, &chunk, &state, &phi, &inv, &map, &cfg);
        cfg.sparse = true;
        let dev_b = Device::new(0, GpuSpec::titan_x_maxwell());
        let sparse = run_sampling_kernel(&dev_b, &chunk, &state, &phi, &inv, &map, &cfg);
        assert!(
            sparse.cost.dram_read_bytes * 2 < dense.cost.dram_read_bytes,
            "sparse {} vs dense {} DRAM bytes — wanted ≥2× cut",
            sparse.cost.dram_read_bytes,
            dense.cost.dram_read_bytes
        );
    }

    /// The spill-regime setup behind the draw-mode tests: K = 4096 keeps
    /// `p*` + tree on-chip (~34 KiB of 48) but the docs are long enough
    /// (avg ~150 distinct topics) that the per-sampler `p1` scratch cannot
    /// also fit — the regime where the tree path pays strided DRAM.
    fn spill_setup() -> (SortedChunk, ChunkState, PhiModel) {
        let corpus = {
            let mut spec = SynthSpec::tiny();
            spec.num_docs = 24;
            spec.vocab_size = 60;
            spec.avg_doc_len = 150.0;
            spec.generate()
        };
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let k = 4096;
        let state = ChunkState::init_random(&chunk, k, 3);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), Priors::paper(k));
        accumulate_phi_host(&chunk, &state.z, &phi);
        (chunk, state, phi)
    }

    fn run_with_draw(
        chunk: &SortedChunk,
        state: &ChunkState,
        phi: &PhiModel,
        cfg: &SampleConfig,
    ) -> (Vec<u16>, culda_gpusim::LaunchReport) {
        let inv = phi.inv_denominators();
        let map = build_block_map(chunk, 256);
        let fresh = ChunkState {
            z: culda_gpusim::memory::AtomicU16Buf::from_vec(state.z.snapshot()),
            theta: state.theta.clone(),
        };
        let dev = Device::new(0, GpuSpec::titan_xp_pascal());
        let report = run_sampling_kernel(&dev, chunk, &fresh, phi, &inv, &map, cfg);
        (fresh.z.snapshot(), report)
    }

    #[test]
    fn draw_modes_are_bit_identical_across_memory_configs() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let cfg0 = SampleConfig::new(77);
        let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg0);
        for draw in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
            for (use_shared, use_l1) in [(true, true), (false, true), (true, false)] {
                let mut cfg = cfg0;
                cfg.draw = draw;
                cfg.use_shared_memory = use_shared;
                cfg.use_l1_for_indices = use_l1;
                let (z, _) = run_with_draw(&chunk, &state, &phi, &cfg);
                assert_eq!(
                    z, expected,
                    "draw={draw} changed assignments (shared={use_shared}, l1={use_l1})"
                );
            }
        }
    }

    /// A hand-built corpus whose words repeat inside documents, so each
    /// word's document-ordered token list is a sequence of long
    /// same-(word, document) runs. Run lengths are not multiples of 32, so
    /// runs straddle warp-sampler boundaries, and the longest documents'
    /// θ support at K = 1024 overflows the on-chip `p1` scratch (auto mode
    /// then mixes tree and butterfly blocks).
    fn run_setup(k: usize, alpha_scale: f64) -> (SortedChunk, ChunkState, PhiModel) {
        let mut vocab = culda_corpus::Vocab::new();
        for w in ["run", "tail", "filler"] {
            vocab.intern(w);
        }
        let docs = [37usize, 5, 70, 1, 45, 13, 99, 2]
            .iter()
            .enumerate()
            .map(|(d, &run)| {
                let mut words = vec![0u32; run];
                words.extend(std::iter::repeat_n(1, d % 3 + 1));
                words.extend(std::iter::repeat_n(2, 20 + 23 * d));
                culda_corpus::Document::new(words)
            })
            .collect();
        let corpus = culda_corpus::Corpus::new(docs, vocab);
        let chunks = partition_by_tokens(&corpus, 1);
        let chunk = SortedChunk::build(&corpus, &chunks[0]);
        let state = ChunkState::init_random(&chunk, k, 19);
        let paper = Priors::paper(k);
        let priors = Priors::new(paper.alpha * alpha_scale, paper.beta);
        let phi = PhiModel::zeros(k, corpus.vocab_size(), priors);
        accumulate_phi_host(&chunk, &state.z, &phi);
        (chunk, state, phi)
    }

    /// Runs (per warp-sampler, as the kernel walks them) whose first draw
    /// takes `p2` and a later draw takes `p1` — the case where a lazily
    /// filled engine must still be filled.
    fn p2_first_runs_with_a_p1_draw(
        chunk: &SortedChunk,
        state: &ChunkState,
        phi: &PhiModel,
        map: &[BlockWork],
        cfg: &SampleConfig,
    ) -> usize {
        let inv = phi.inv_denominators();
        let alpha = phi.priors.alpha as f32;
        let mut pstar = vec![0.0f32; phi.num_topics];
        let mut prefix = Vec::new();
        let mut count = 0;
        for work in map {
            let word = chunk.word_ids[work.word_idx] as usize;
            phi.phi
                .fill_smoothed(word, phi.priors.beta as f32, &inv, &mut pstar);
            let block_tree = IndexTree::build(&pstar, DEFAULT_FANOUT);
            for s in 0..SAMPLERS_PER_BLOCK {
                // (document, first draw took p1, a later draw took p1)
                let mut run: Option<(u32, bool, bool)> = None;
                for t in work.sampler_tokens(s) {
                    let d = chunk.token_doc[t];
                    let (cols, vals) = state.theta.row(d as usize);
                    let s_mass = p1_prefix(cols, vals, &pstar, &mut prefix);
                    let mut rng = Xoshiro256::from_seed_stream(
                        cfg.stream_seed(),
                        cfg.chunk_token_offset + t as u64,
                    );
                    let p1 = draw_token(s_mass, cols, &block_tree, alpha, &mut rng, |_| (0, 0, 0))
                        .took_p1;
                    run = match run {
                        Some((rd, first, later)) if rd == d => Some((rd, first, later || p1)),
                        prev => {
                            count += usize::from(prev.is_some_and(|(_, f, l)| !f && l));
                            Some((d, p1, false))
                        }
                    };
                }
                count += usize::from(run.is_some_and(|(_, f, l)| !f && l));
            }
        }
        count
    }

    #[test]
    fn run_reuse_matches_the_per_token_oracle() {
        // The kernel builds each p1 prefix once per same-(word, document)
        // run and fills its engine lazily; the oracle recomputes both per
        // token. Every draw engine, memory configuration, K and block size
        // must agree bit for bit, including runs that cross sampler
        // boundaries and runs whose first draw takes p2 (large α).
        for k in [16usize, 1024] {
            for alpha_scale in [1.0, 8.0] {
                let (chunk, state, phi) = run_setup(k, alpha_scale);
                let inv = phi.inv_denominators();
                let cfg0 = SampleConfig::new(41);
                let expected = sample_chunk_reference(&chunk, &state, &phi, &inv, &cfg0);
                for tpb in [45usize, 4096] {
                    let map = build_block_map(&chunk, tpb);
                    if alpha_scale > 1.0 {
                        assert!(
                            p2_first_runs_with_a_p1_draw(&chunk, &state, &phi, &map, &cfg0) > 0,
                            "K = {k}, tpb = {tpb}: no p2-first run draws p1 later"
                        );
                    }
                    for draw in [DrawMode::Tree, DrawMode::Butterfly, DrawMode::Auto] {
                        for use_shared in [true, false] {
                            for use_l1 in [true, false] {
                                let mut cfg = cfg0;
                                cfg.draw = draw;
                                cfg.use_shared_memory = use_shared;
                                cfg.use_l1_for_indices = use_l1;
                                let fresh = ChunkState {
                                    z: culda_gpusim::memory::AtomicU16Buf::from_vec(
                                        state.z.snapshot(),
                                    ),
                                    theta: state.theta.clone(),
                                };
                                let dev =
                                    Device::new(0, GpuSpec::titan_xp_pascal()).with_workers(2);
                                run_sampling_kernel(&dev, &chunk, &fresh, &phi, &inv, &map, &cfg);
                                assert_eq!(
                                    fresh.z.snapshot(),
                                    expected,
                                    "K = {k}, α×{alpha_scale}, tpb = {tpb}, draw = {draw}, \
                                     shared = {use_shared}, l1 = {use_l1}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn butterfly_cuts_dram_when_scratch_spills_at_k4096() {
        let (chunk, state, phi) = spill_setup();
        let mut cfg = SampleConfig::new(77);
        cfg.draw = DrawMode::Tree;
        let (z_tree, tree) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Butterfly;
        let (z_fly, fly) = run_with_draw(&chunk, &state, &phi, &cfg);
        assert_eq!(z_fly, z_tree, "draw mode changed assignments");
        assert!(
            fly.cost.dram_bytes() < tree.cost.dram_bytes(),
            "butterfly {} vs tree {} DRAM bytes — wanted a cut",
            fly.cost.dram_bytes(),
            tree.cost.dram_bytes()
        );
        assert!(fly.sim_seconds <= tree.sim_seconds);
    }

    #[test]
    fn auto_resolves_to_the_cheaper_engine_per_regime() {
        // Spill regime: every block's scratch overflows, so auto must
        // charge exactly what the fixed butterfly mode charges and never
        // model more time than the tree.
        let (chunk, state, phi) = spill_setup();
        let mut cfg = SampleConfig::new(5);
        cfg.draw = DrawMode::Tree;
        let (z_tree, tree) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Butterfly;
        let (_, fly) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Auto;
        let (z_auto, auto) = run_with_draw(&chunk, &state, &phi, &cfg);
        assert_eq!(z_auto, z_tree);
        assert_eq!(auto.cost.dram_bytes(), fly.cost.dram_bytes());
        assert!(auto.sim_seconds <= tree.sim_seconds);

        // On-chip regime: scratch fits, auto resolves to the tree walk and
        // charges exactly its numbers.
        let (chunk, state, phi) = setup();
        let mut cfg = SampleConfig::new(5);
        cfg.draw = DrawMode::Tree;
        let (_, tree) = run_with_draw(&chunk, &state, &phi, &cfg);
        cfg.draw = DrawMode::Auto;
        let (_, auto) = run_with_draw(&chunk, &state, &phi, &cfg);
        assert_eq!(auto.cost.dram_bytes(), tree.cost.dram_bytes());
        assert_eq!(auto.cost.shared_bytes, tree.cost.shared_bytes);
    }

    #[test]
    fn compression_reduces_dram_traffic() {
        let (chunk, state, phi) = setup();
        let inv = phi.inv_denominators();
        let map = build_block_map(&chunk, 256);
        let mut cfg = SampleConfig::new(9);
        let dev = Device::new(0, GpuSpec::titan_x_maxwell());
        let small = run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        cfg.compressed = false;
        let big = run_sampling_kernel(&dev, &chunk, &state, &phi, &inv, &map, &cfg);
        assert!(small.cost.dram_read_bytes < big.cost.dram_read_bytes);
    }
}
