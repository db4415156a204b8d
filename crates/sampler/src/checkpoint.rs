//! Model checkpointing: save/load a trained ϕ to a compact binary format.
//!
//! Training at the paper's scale takes hours; any production deployment
//! checkpoints the topic–word model and serves inference (see
//! [`crate::infer`]) from the loaded artifact. The format is hand-rolled
//! little-endian (this workspace deliberately avoids serialization
//! dependencies): a magic/version header, the shape and priors, then the
//! non-zero ϕ entries as `(flat index, count)` pairs — ϕ is dense in
//! storage but mostly zero early in training, and sparse encoding is never
//! larger than ~2× the dense form at full convergence density.

use crate::frozen::{FrozenCountsBuilder, FrozenPhi};
use crate::hyper::Priors;
use crate::model::{LdaModel, PhiModel};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"CULDAPHI";
const VERSION: u32 = 1;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Serializes a ϕ model — a live replica or a frozen snapshot. The stream
/// contains everything needed to resume inference: shape, priors, column
/// sums, and non-zero counts.
pub fn save_phi<M: LdaModel + ?Sized, W: Write>(phi: &M, mut out: W) -> io::Result<()> {
    let (k, v, priors) = (phi.num_topics(), phi.vocab_size(), phi.priors());
    out.write_all(MAGIC)?;
    write_u32(&mut out, VERSION)?;
    write_u64(&mut out, k as u64)?;
    write_u64(&mut out, v as u64)?;
    write_f64(&mut out, priors.alpha)?;
    write_f64(&mut out, priors.beta)?;
    for t in 0..k {
        write_u32(&mut out, phi.topic_total(t))?;
    }
    // Non-zero entries, walked row-wise through the hybrid layout (sparse
    // tail rows hand their cells straight out). Ascending rows × ascending
    // topics is ascending flat order, so the byte stream is identical to
    // the historical dense scan.
    write_u64(&mut out, phi.total_nnz())?;
    for w in 0..v {
        for (t, c) in phi.row_nonzeros(w) {
            write_u64(&mut out, (w * k + t as usize) as u64)?;
            write_u32(&mut out, c)?;
        }
    }
    Ok(())
}

/// A validated checkpoint header: shape, priors, and declared column sums.
struct Header {
    k: usize,
    v: usize,
    priors: Priors,
    sums: Vec<u32>,
}

fn read_header<R: Read>(input: &mut R) -> io::Result<Header> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a CuLDA phi checkpoint (bad magic)"));
    }
    let version = read_u32(input)?;
    if version != VERSION {
        return Err(invalid(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        )));
    }
    let k = read_u64(input)? as usize;
    let v = read_u64(input)? as usize;
    if k == 0 || k > crate::model::MAX_TOPICS || v == 0 {
        return Err(invalid(format!("implausible shape K = {k}, V = {v}")));
    }
    // Refuse to allocate unbounded memory for a hostile header: ϕ is
    // capped at 2³¹ cells (8 GiB of u32), far beyond any real model here.
    match k.checked_mul(v) {
        Some(cells) if cells <= (1 << 31) => {}
        _ => {
            return Err(invalid(format!(
                "phi of {k}×{v} cells is implausibly large"
            )))
        }
    }
    let alpha = read_f64(input)?;
    let beta = read_f64(input)?;
    if !(alpha > 0.0 && beta > 0.0 && alpha.is_finite() && beta.is_finite()) {
        return Err(invalid("non-positive priors"));
    }
    let sums = (0..k).map(|_| read_u32(input)).collect::<io::Result<_>>()?;
    Ok(Header {
        k,
        v,
        priors: Priors::new(alpha, beta),
        sums,
    })
}

/// Reads the entry section, handing each `(row, col, count)` to `put` in
/// the stream's order, which must be strictly ascending by flat index (the
/// only order [`save_phi`] writes). Validates bounds and the column sums.
fn read_entries<R: Read>(
    input: &mut R,
    h: &Header,
    mut put: impl FnMut(usize, usize, u32),
) -> io::Result<()> {
    let (k, v) = (h.k, h.v);
    let nnz = read_u64(input)?;
    if nnz > (k as u64) * (v as u64) {
        return Err(invalid("nnz exceeds the matrix size"));
    }
    let mut actual_sums = vec![0u64; k];
    let mut next = 0usize;
    for _ in 0..nnz {
        let idx = read_u64(input)? as usize;
        let val = read_u32(input)?;
        if idx >= k * v {
            return Err(invalid(format!("entry index {idx} out of bounds")));
        }
        if idx < next {
            return Err(invalid(format!("entry index {idx} out of order")));
        }
        if val == 0 {
            return Err(invalid("stored zero entry"));
        }
        put(idx / k, idx % k, val);
        actual_sums[idx % k] += val as u64;
        next = idx + 1;
    }
    if actual_sums
        .iter()
        .zip(&h.sums)
        .any(|(&a, &d)| a != d as u64)
    {
        return Err(invalid("phi column sums do not match the stored entries"));
    }
    Ok(())
}

/// Deserializes a ϕ model written by [`save_phi`] into a live replica,
/// validating the header, shape bounds, entry order, and count consistency.
pub fn load_phi<R: Read>(mut input: R) -> io::Result<PhiModel> {
    let h = read_header(&mut input)?;
    let phi = PhiModel::zeros(h.k, h.v, h.priors);
    for (t, &s) in h.sums.iter().enumerate() {
        phi.phi_sum.store(t, s);
    }
    // Row/column insert: rows past the storage cutover densify as the
    // entries stream in, exactly as they would during training.
    read_entries(&mut input, &h, |row, col, c| phi.phi.set(row, col, c))?;
    Ok(phi)
}

/// Deserializes a checkpoint straight into an immutable [`FrozenPhi`]
/// snapshot (same validation as [`load_phi`]); see [`FrozenPhi::load`].
pub(crate) fn load_frozen_phi<R: Read>(mut input: R) -> io::Result<FrozenPhi> {
    let h = read_header(&mut input)?;
    let mut counts = FrozenCountsBuilder::new(h.v, h.k);
    read_entries(&mut input, &h, |row, col, c| counts.push(row, col, c))?;
    Ok(FrozenPhi::new(counts.finish(), h.sums, h.priors))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PhiModel {
        let phi = PhiModel::zeros(4, 10, Priors::new(12.5, 0.01));
        for v in 0..10usize {
            for k in 0..4usize {
                let c = ((v * 4 + k) % 3) as u32;
                if c > 0 {
                    phi.phi.store(phi.phi_index(v, k), c);
                    phi.phi_sum.fetch_add(k, c);
                }
            }
        }
        phi
    }

    #[test]
    fn round_trip_preserves_everything() {
        let phi = model();
        let mut buf = Vec::new();
        save_phi(&phi, &mut buf).unwrap();
        let loaded = load_phi(buf.as_slice()).unwrap();
        assert_eq!(loaded.num_topics, 4);
        assert_eq!(loaded.vocab_size, 10);
        assert_eq!(loaded.priors, phi.priors);
        assert_eq!(loaded.phi.snapshot(), phi.phi.snapshot());
        assert_eq!(loaded.phi_sum.snapshot(), phi.phi_sum.snapshot());
        loaded.check_sums();
    }

    #[test]
    fn empty_model_round_trips() {
        let phi = PhiModel::zeros(2, 3, Priors::paper(2));
        let mut buf = Vec::new();
        save_phi(&phi, &mut buf).unwrap();
        let loaded = load_phi(buf.as_slice()).unwrap();
        assert_eq!(loaded.phi.snapshot(), vec![0; 6]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        buf[0] = b'X';
        let err = load_phi(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        buf[8] = 99;
        assert!(load_phi(buf.as_slice())
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        for cut in [4usize, 20, buf.len() / 2, buf.len() - 3] {
            assert!(load_phi(&buf[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn corrupted_counts_fail_the_sum_check() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        // Flip the last value byte (a count) — sums no longer reconcile.
        let n = buf.len();
        buf[n - 1] ^= 0x01;
        let err = load_phi(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("column sums") || err.to_string().contains("zero entry"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn out_of_order_entries_are_rejected() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        // Swap the last two 12-byte (index, count) entries.
        let n = buf.len();
        let (head, last) = buf.split_at_mut(n - 12);
        head[n - 24..].swap_with_slice(last);
        let err = load_phi(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
        let err = load_frozen_phi(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");
    }

    #[test]
    fn frozen_load_matches_the_live_load() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        let live = load_phi(buf.as_slice()).unwrap();
        let frozen = load_frozen_phi(buf.as_slice()).unwrap();
        assert_eq!(frozen.priors(), live.priors);
        for v in 0..10 {
            assert_eq!(frozen.row_nonzeros(v), live.phi.row_nonzeros(v));
        }
        for k in 0..4 {
            assert_eq!(frozen.topic_total(k), live.phi_sum.load(k));
        }
        let mut again = Vec::new();
        save_phi(&frozen, &mut again).unwrap();
        assert_eq!(again, buf, "a frozen snapshot saves the same bytes");
    }

    #[test]
    fn checkpoint_supports_inference_after_reload() {
        // A trained-looking model survives save→load→fold-in.
        let phi = model();
        let mut buf = Vec::new();
        save_phi(&phi, &mut buf).unwrap();
        let loaded = load_frozen_phi(buf.as_slice()).unwrap();
        let doc = crate::InferDoc {
            stream_id: 0,
            words: &[0, 1, 2],
        };
        let post = crate::infer_reference(
            &loaded,
            &crate::Smoothing::new(&loaded),
            &[doc],
            &crate::InferKernelConfig::new(1),
        );
        let total: u64 = post[0].theta_acc.iter().sum();
        assert_eq!(total, 3 * post[0].acc_sweeps as u64);
    }
}
