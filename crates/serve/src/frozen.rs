//! The serving snapshot: a frozen ϕ behind the [`LdaModel`] surface.
//!
//! A [`FrozenModel`] — the sampler's [`FrozenPhi`] under its serving name —
//! is what survives a trainer: the topic–word counts, their column sums,
//! and the priors they were estimated under, held as immutable lock-free
//! CSR rows that the fold-in kernels read directly. It is built once —
//! from a checkpoint, a ϕ replica, or any live [`LdaModel`] — and
//! round-trips through the existing `CULDAPHI` checkpoint format, so a
//! model trained by either trainer, saved with `culda train --save-model`,
//! loads here unchanged.
//!
//! [`FrozenPhi`]: culda_sampler::FrozenPhi
//! [`LdaModel`]: culda_sampler::LdaModel

pub use culda_sampler::FrozenPhi as FrozenModel;

#[cfg(test)]
mod tests {
    use super::*;
    use culda_sampler::{LdaModel, PhiModel, Priors};

    fn tiny_phi() -> PhiModel {
        let phi = PhiModel::zeros(4, 6, Priors::paper(4));
        for w in 0..6 {
            for t in 0..4 {
                if (w + t) % 3 != 0 {
                    let c = (w * 4 + t + 1) as u32;
                    phi.phi.store(phi.phi_index(w, t), c);
                    phi.phi_sum.fetch_add(t, c);
                }
            }
        }
        phi
    }

    #[test]
    fn freeze_copies_counts_exactly() {
        let phi = tiny_phi();
        let frozen = FrozenModel::freeze(&phi);
        for w in 0..6 {
            for t in 0..4 {
                assert_eq!(frozen.phi_count(w, t), LdaModel::phi_count(&phi, w, t));
            }
        }
        for t in 0..4 {
            assert_eq!(frozen.topic_total(t), phi.phi_sum.load(t));
        }
        // The copy is independent: mutating the source leaves it untouched.
        phi.phi.store(phi.phi_index(0, 1), 999);
        assert_ne!(frozen.phi_count(0, 1), 999);
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        let frozen = FrozenModel::from_phi(tiny_phi());
        let mut buf = Vec::new();
        frozen.save(&mut buf).unwrap();
        let back = FrozenModel::load(&buf[..]).unwrap();
        assert_eq!(back.num_topics(), frozen.num_topics());
        assert_eq!(back.vocab_size(), frozen.vocab_size());
        for w in 0..frozen.vocab_size() {
            for t in 0..frozen.num_topics() {
                assert_eq!(back.phi_count(w, t), frozen.phi_count(w, t));
            }
        }
        assert_eq!(back.inv_denominators(), frozen.inv_denominators());
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(FrozenModel::load(&b"NOTAPHI0"[..]).is_err());
    }
}
