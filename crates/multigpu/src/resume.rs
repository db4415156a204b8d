//! Training checkpoints: suspend and resume a training run.
//!
//! The paper's runs are hundreds of iterations over hours; production
//! training must survive restarts. The ϕ checkpoint of
//! `culda_sampler::checkpoint` is enough for *inference*, but resuming
//! *training* needs the exact sampler state: every token's assignment,
//! the iteration counter, and the configuration identity. This module
//! serializes that (hand-rolled little-endian, consistent with the
//! workspace's no-serde policy) for **either** partition policy through
//! the [`LdaTrainer`] surface, and rebuilds a trainer that continues
//! **bit-identically** — the golden property the tests pin: train 2+3
//! iterations with a save/load in between ≡ train 5 straight.
//!
//! Format: `"CULDARUN"`, version (u32), policy tag (u32, v2+), seed
//! (u64), K (u64), iteration (u32), shard count (u64), then per shard a
//! token count (u64) and the u16 assignments. Version-1 checkpoints had
//! no policy tag and are read as partition-by-document.

use crate::api::{build_trainer, LdaTrainer, PartitionPolicy};
use crate::config::TrainerConfig;
use crate::error::CuldaError;
use culda_corpus::Corpus;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"CULDARUN";
const VERSION: u32 = 2;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn w32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn w64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn r64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn policy_tag(policy: PartitionPolicy) -> u32 {
    match policy {
        PartitionPolicy::Document => 0,
        PartitionPolicy::Word => 1,
    }
}

/// Serializes the resumable state of either policy's trainer: policy tag,
/// config identity (seed, K, shard count), the iteration counter, and
/// each chunk/shard's assignments.
pub fn save_training<W: Write>(trainer: &dyn LdaTrainer, mut out: W) -> Result<(), CuldaError> {
    out.write_all(MAGIC)?;
    w32(&mut out, VERSION)?;
    w32(&mut out, policy_tag(trainer.policy()))?;
    w64(&mut out, trainer.config().seed)?;
    w64(&mut out, trainer.config().num_topics as u64)?;
    w32(&mut out, trainer.iterations_done())?;
    let shards = trainer.assignments();
    w64(&mut out, shards.len() as u64)?;
    for z in shards {
        w64(&mut out, z.len() as u64)?;
        for v in z {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Parsed checkpoint header (everything before the assignment payload).
struct Header {
    policy: PartitionPolicy,
    seed: u64,
    num_topics: usize,
    iteration: u32,
    num_shards: usize,
}

fn read_header<R: Read>(input: &mut R) -> io::Result<Header> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a CuLDA training checkpoint"));
    }
    let version = r32(input)?;
    let policy = match version {
        // v1 predates the policy tag; it was CuldaTrainer-only.
        1 => PartitionPolicy::Document,
        2 => match r32(input)? {
            0 => PartitionPolicy::Document,
            1 => PartitionPolicy::Word,
            tag => return Err(invalid(format!("unknown policy tag {tag}"))),
        },
        v => return Err(invalid(format!("unsupported checkpoint version {v}"))),
    };
    let seed = r64(input)?;
    let num_topics = r64(input)? as usize;
    let iteration = r32(input)?;
    let num_shards = r64(input)? as usize;
    Ok(Header {
        policy,
        seed,
        num_topics,
        iteration,
        num_shards,
    })
}

/// Shared resume back-end: validates the parsed `header` against `cfg`
/// and the freshly constructed `trainer`, reads the payload, and restores.
fn resume_into<R: Read>(
    trainer: &mut dyn LdaTrainer,
    header: Header,
    cfg: &TrainerConfig,
    mut input: R,
) -> io::Result<()> {
    if header.policy != trainer.policy() {
        return Err(invalid(format!(
            "checkpoint was taken with the {} policy, resuming as {}",
            header.policy,
            trainer.policy()
        )));
    }
    if header.seed != cfg.seed {
        return Err(invalid(format!(
            "checkpoint seed {:#x} != config seed {:#x}",
            header.seed, cfg.seed
        )));
    }
    if header.num_topics != cfg.num_topics {
        return Err(invalid(format!(
            "checkpoint K = {} != config K = {}",
            header.num_topics, cfg.num_topics
        )));
    }
    let shapes: Vec<usize> = trainer.assignments().iter().map(Vec::len).collect();
    if shapes.len() != header.num_shards {
        return Err(invalid(format!(
            "checkpoint has {} shards, corpus partitions into {}",
            header.num_shards,
            shapes.len()
        )));
    }
    let mut all_z = Vec::with_capacity(header.num_shards);
    for (ci, &expect) in shapes.iter().enumerate() {
        let n = r64(&mut input)? as usize;
        if n != expect {
            return Err(invalid(format!(
                "shard {ci} has {n} tokens in the checkpoint but {expect} in the corpus"
            )));
        }
        let mut z = Vec::with_capacity(n);
        let mut b = [0u8; 2];
        for _ in 0..n {
            input.read_exact(&mut b)?;
            z.push(u16::from_le_bytes(b));
        }
        all_z.push(z);
    }
    // The trainer rejects assignments outside `0..K`.
    trainer
        .restore_assignments(header.iteration, &all_z)
        .map_err(invalid)
}

/// Rebuilds a trainer from `corpus` + `cfg` and a checkpoint produced by
/// [`save_training`], under the policy the checkpoint's tag names. The
/// corpus and configuration must be the ones the checkpoint was taken
/// with (validated where possible: seed, K, shard count, per-shard token
/// counts). Malformed or mismatched checkpoints surface as
/// [`CuldaError::Checkpoint`]; underlying read failures as
/// [`CuldaError::Io`].
pub fn resume_any<R: Read>(
    corpus: &Corpus,
    cfg: TrainerConfig,
    mut input: R,
) -> Result<Box<dyn LdaTrainer>, CuldaError> {
    let header = read_header(&mut input)?;
    let mut trainer = build_trainer(header.policy, corpus, cfg.clone())?;
    resume_into(trainer.as_mut(), header, &cfg, input)?;
    Ok(trainer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::CuldaTrainer;
    use culda_corpus::SynthSpec;
    use culda_gpusim::Platform;

    fn corpus() -> Corpus {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 120;
        spec.vocab_size = 200;
        spec.avg_doc_len = 25.0;
        spec.generate()
    }

    fn cfg() -> TrainerConfig {
        TrainerConfig::builder(8, Platform::maxwell())
            .iterations(10)
            .score_every(0)
            .seed(31)
            .build()
            .unwrap()
    }

    fn multi_gpu_cfg() -> TrainerConfig {
        TrainerConfig::builder(8, Platform::pascal().with_gpus(2))
            .iterations(10)
            .score_every(0)
            .seed(31)
            .build()
            .unwrap()
    }

    #[test]
    fn resume_is_bit_identical_to_straight_training() {
        let c = corpus();
        // Straight: 5 iterations.
        let mut straight = CuldaTrainer::new(&c, cfg());
        for _ in 0..5 {
            straight.step();
        }
        // Split: 2 iterations, checkpoint, resume, 3 more.
        let mut first = CuldaTrainer::new(&c, cfg());
        first.step();
        first.step();
        let mut buf = Vec::new();
        save_training(&first, &mut buf).unwrap();
        let mut resumed = resume_any(&c, cfg(), buf.as_slice()).unwrap();
        for _ in 0..3 {
            resumed.step();
        }
        assert_eq!(
            LdaTrainer::assignments(&straight),
            resumed.assignments(),
            "resume broke the chain"
        );
        assert!((straight.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12);
    }

    #[test]
    fn a_single_node_checkpoint_resumes_bit_identically_on_two_nodes() {
        let c = corpus();
        let mut straight = CuldaTrainer::new(&c, multi_gpu_cfg());
        for _ in 0..5 {
            straight.step();
        }
        let mut first = CuldaTrainer::new(&c, multi_gpu_cfg());
        first.step();
        first.step();
        let mut buf = Vec::new();
        save_training(&first, &mut buf).unwrap();
        let mut two_nodes = multi_gpu_cfg();
        two_nodes.nodes = 2;
        let mut resumed = resume_any(&c, two_nodes, buf.as_slice()).unwrap();
        assert_eq!(resumed.num_gpus(), 4);
        for _ in 0..3 {
            resumed.step();
        }
        resumed.check_invariants();
        assert_eq!(
            LdaTrainer::assignments(&straight),
            resumed.assignments(),
            "2-node resume broke the chain"
        );
        assert_eq!(
            straight.global_phi().phi.snapshot(),
            resumed.phi().phi.snapshot()
        );
        assert!((straight.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12);
    }

    fn by_word(c: &Corpus) -> Box<dyn LdaTrainer> {
        build_trainer(PartitionPolicy::Word, c, multi_gpu_cfg()).unwrap()
    }

    #[test]
    fn word_trainer_resume_is_bit_identical_to_straight_training() {
        let c = corpus();
        let mut straight = by_word(&c);
        for _ in 0..5 {
            straight.step();
        }
        let mut first = by_word(&c);
        first.step();
        first.step();
        let mut buf = Vec::new();
        save_training(first.as_ref(), &mut buf).unwrap();
        let mut resumed = resume_any(&c, multi_gpu_cfg(), buf.as_slice()).unwrap();
        for _ in 0..3 {
            resumed.step();
        }
        assert_eq!(
            straight.assignments(),
            resumed.assignments(),
            "word-policy resume broke the chain"
        );
        assert!((straight.loglik_per_token() - resumed.loglik_per_token()).abs() < 1e-12);
    }

    #[test]
    fn resume_any_dispatches_on_the_policy_tag() {
        let c = corpus();
        for policy in [PartitionPolicy::Document, PartitionPolicy::Word] {
            let mut t = build_trainer(policy, &c, multi_gpu_cfg()).unwrap();
            t.step();
            let mut buf = Vec::new();
            save_training(t.as_ref(), &mut buf).unwrap();
            let resumed = resume_any(&c, multi_gpu_cfg(), buf.as_slice()).unwrap();
            assert_eq!(resumed.policy(), policy);
            assert_eq!(resumed.iterations_done(), 1);
            assert_eq!(resumed.assignments(), t.assignments());
        }
    }

    #[test]
    fn cross_policy_resume_is_rejected() {
        let c = corpus();
        let mut word = by_word(&c);
        word.step();
        let mut buf = Vec::new();
        save_training(word.as_ref(), &mut buf).unwrap();
        let mut input = buf.as_slice();
        let header = read_header(&mut input).unwrap();
        let mut doc = CuldaTrainer::new(&c, multi_gpu_cfg());
        assert!(resume_into(&mut doc, header, &multi_gpu_cfg(), input).is_err());
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let c = corpus();
        let mut t = CuldaTrainer::new(&c, cfg());
        t.step();
        let mut buf = Vec::new();
        save_training(&t, &mut buf).unwrap();
        // Wrong seed.
        let mut bad = cfg();
        bad.seed = 32;
        assert!(resume_any(&c, bad, buf.as_slice()).is_err());
        // Wrong K.
        let bad = TrainerConfig::builder(16, Platform::maxwell())
            .seed(31)
            .build()
            .unwrap();
        assert!(resume_any(&c, bad, buf.as_slice()).is_err());
        // Wrong corpus (different shape).
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 60;
        let other = spec.generate();
        assert!(resume_any(&other, cfg(), buf.as_slice()).is_err());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        let c = corpus();
        assert!(resume_any(&c, cfg(), &b"nonsense"[..]).is_err());
        let mut t = CuldaTrainer::new(&c, cfg());
        t.step();
        let mut buf = Vec::new();
        save_training(&t, &mut buf).unwrap();
        for cut in [3usize, 12, buf.len() / 2] {
            assert!(resume_any(&c, cfg(), &buf[..cut]).is_err());
        }
        // An assignment outside 0..K (the last token's, set to 0xFFFF).
        let n = buf.len();
        buf[n - 2..].copy_from_slice(&[0xFF, 0xFF]);
        assert!(resume_any(&c, cfg(), buf.as_slice()).is_err());
    }
}
