//! # culda-multigpu
//!
//! Multi-GPU orchestration for CuLDA_CGS (Sections 4–5): token-balanced
//! partition-by-document ([`partition`]), the `M` memory-planning rule and
//! round-robin schedule of Algorithm 1 ([`schedule`]), the Figure 4
//! reduce/broadcast ϕ synchronization ([`sync`], dense or sparse-Δϕ via
//! [`delta`]), the per-GPU worker that
//! owns a device plus its chunks and ϕ replicas and runs the iteration
//! body on its own host thread ([`worker`]), and the end-to-end trainer
//! with WorkSchedule1/WorkSchedule2 and sync/θ-update overlap
//! ([`trainer`]). The same trainer runs on any number of nodes
//! (`TrainerConfig::nodes`): AD-LDA one level up, each node's summed ϕ
//! merged over the inter-node link as one sparse Δϕ payload
//! ([`sync::reduce_payloads`]), with per-worker retry, rebalance and node
//! drain at every node count. Its superstep also runs the Section 4
//! alternative, partition-by-word ([`build_trainer`] with
//! [`PartitionPolicy::Word`]), through the same loop.

//! ```
//! use culda_corpus::SynthSpec;
//! use culda_gpusim::Platform;
//! use culda_multigpu::{CuldaTrainer, TrainerConfig};
//!
//! let corpus = SynthSpec::tiny().generate();
//! let cfg = TrainerConfig::builder(8, Platform::volta())
//!     .iterations(3)
//!     .score_every(0)
//!     .build()
//!     .unwrap();
//! let outcome = CuldaTrainer::new(&corpus, cfg).train();
//! assert_eq!(outcome.history.len(), 3);
//! assert!(outcome.final_loglik_per_token.is_finite());
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod delta;
pub mod error;
mod layout;
pub mod partition;
pub mod policy;
pub mod resume;
pub mod schedule;
pub mod sync;
pub mod trainer;
mod word;
pub mod worker;

pub use api::{build_trainer, LdaTrainer, PartitionPolicy};
pub use config::{
    ConfigError, DrawMode, ModeParseError, RetryPolicy, SamplingMode, SyncMode, TrainerConfig,
    TrainerConfigBuilder,
};
pub use delta::{dense_cutover, row_encoding, DeltaPayload, RowFormat};
pub use error::{CuldaError, RecoveryStats};
pub use partition::PartitionedCorpus;
pub use policy::{compare_policies, compare_policies_analytic, PolicyComparison};
pub use resume::{resume_any, save_training};
pub use schedule::{chunk_owner, plan_partition, MemoryPlan};
pub use sync::{
    sync_phi_auto, sync_phi_delta, sync_phi_replicas, sync_phi_ring, SyncReport, SyncTotals,
};
pub use trainer::{CuldaTrainer, TrainOutcome};
pub use worker::{run_workers, run_workers_traced, GpuWorker};
