//! Micro-benchmarks for the extension features: fold-in inference,
//! checkpoint serialization, UMass coherence, vocabulary pruning, UCI I/O,
//! and UCI round-tripping.

use culda_bench::harness::{bench, group};
use culda_corpus::{prune_vocab, read_uci, write_uci, PruneSpec, SynthSpec};
use culda_metrics::CoOccurrence;
use culda_sampler::{
    infer_reference, load_phi, save_phi, FrozenPhi, InferDoc, InferKernelConfig, PhiModel, Priors,
    Smoothing,
};
use std::collections::HashSet;
use std::hint::black_box;

fn trained_phi() -> PhiModel {
    let phi = PhiModel::zeros(64, 2000, Priors::paper(64));
    for v in 0..2000usize {
        let k = v % 64;
        phi.phi.store(phi.phi_index(v, k), (v % 97) as u32 + 1);
        phi.phi_sum.fetch_add(k, (v % 97) as u32 + 1);
    }
    phi
}

fn main() {
    group("extensions");

    let phi = trained_phi();
    let frozen = FrozenPhi::freeze(&phi);
    let smoothing = Smoothing::new(&frozen);
    let doc: Vec<u32> = (0..200).map(|i| (i * 13) % 2000).collect();
    let batch = [InferDoc {
        stream_id: 7,
        words: &doc,
    }];
    let mut cfg = InferKernelConfig::new(7);
    cfg.burnin = 9;
    cfg.samples = 1;
    bench("fold_in_200_tokens_10_sweeps", || {
        black_box(infer_reference(&frozen, &smoothing, &batch, &cfg))
    });

    bench("checkpoint_save_load", || {
        let mut buf = Vec::new();
        save_phi(&phi, &mut buf).unwrap();
        black_box(load_phi(buf.as_slice()).unwrap())
    });

    let corpus = {
        let mut spec = SynthSpec::tiny();
        spec.num_docs = 400;
        spec.vocab_size = 600;
        spec.generate()
    };
    let track: HashSet<u32> = (0..100u32).collect();
    bench("coherence_index_build", || {
        black_box(CoOccurrence::build(
            corpus.docs.iter().map(|d| d.words.as_slice()),
            &track,
        ))
    });

    bench("prune_vocab", || {
        black_box(prune_vocab(&corpus, &PruneSpec::default()))
    });

    bench("uci_round_trip", || {
        let mut dw = Vec::new();
        let mut vo = Vec::new();
        write_uci(&corpus, &mut dw, &mut vo).unwrap();
        black_box(
            read_uci(
                std::io::BufReader::new(dw.as_slice()),
                std::io::BufReader::new(vo.as_slice()),
            )
            .unwrap(),
        )
    });
}
