//! Negative-sample construction (§4.3 "Batched Negative Sampling").
//!
//! For a chunk of `C` positives, the candidate set per corrupted side is
//! the chunk's own `C` nodes (which are distributed as the data — the
//! prevalence-sampled fraction `α` of §3.1) concatenated with `U` nodes
//! sampled uniformly from the resident partition. Scoring the chunk
//! against the candidates is one `C × (C + U)` matrix product; the
//! *induced positives* (candidates that equal an edge's true endpoint) are
//! masked to `-∞`.
//!
//! Negatives are always drawn from the same partition as the corrupted
//! side — the functional change partitioned training makes to the loss
//! (§4.1).

use pbg_tensor::matrix::Matrix;
use pbg_tensor::rng::Xoshiro256;

/// Samples `count` uniform offsets in `[0, partition_size)`.
///
/// # Panics
///
/// Panics if `partition_size == 0`.
pub fn sample_uniform_offsets(
    count: usize,
    partition_size: usize,
    rng: &mut Xoshiro256,
) -> Vec<u32> {
    assert!(partition_size > 0, "cannot sample from an empty partition");
    (0..count)
        .map(|_| rng.gen_index(partition_size) as u32)
        .collect()
}

/// Builds the candidate offset list for one chunk and side: the chunk's
/// own node offsets followed by `uniform` fresh uniform samples.
pub fn candidate_offsets(
    chunk_offsets: &[u32],
    uniform: usize,
    partition_size: usize,
    rng: &mut Xoshiro256,
) -> Vec<u32> {
    let mut out = Vec::new();
    candidate_offsets_into(&mut out, chunk_offsets, uniform, partition_size, rng);
    out
}

/// [`candidate_offsets`] into a caller-owned buffer: clears and refills
/// `out`, reusing its capacity. Thread-local reuse of this buffer is what
/// keeps HOGWILD negative sampling off the global allocator. Draws the
/// exact RNG sequence [`sample_uniform_offsets`] draws, so swapping the
/// two forms can never change training results.
///
/// # Panics
///
/// Panics if `partition_size == 0`.
pub fn candidate_offsets_into(
    out: &mut Vec<u32>,
    chunk_offsets: &[u32],
    uniform: usize,
    partition_size: usize,
    rng: &mut Xoshiro256,
) {
    assert!(partition_size > 0, "cannot sample from an empty partition");
    out.clear();
    out.reserve(chunk_offsets.len() + uniform);
    out.extend_from_slice(chunk_offsets);
    for _ in 0..uniform {
        out.push(rng.gen_index(partition_size) as u32);
    }
}

/// Masks induced positives in a `C × N` score matrix: entry `(i, j)` is
/// set to `-∞` whenever candidate `j` *is* edge `i`'s true endpoint on the
/// corrupted side. This removes the positive itself from its own negative
/// pool (including the diagonal when candidates start with the chunk's own
/// nodes) and any duplicate of it.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn mask_induced_positives(
    scores: &mut Matrix,
    true_offsets: &[u32],
    candidate_offsets: &[u32],
) {
    assert_eq!(scores.rows(), true_offsets.len(), "mask: row mismatch");
    assert_eq!(scores.cols(), candidate_offsets.len(), "mask: col mismatch");
    for (i, &truth) in true_offsets.iter().enumerate() {
        let row = scores.row_mut(i);
        for (j, &cand) in candidate_offsets.iter().enumerate() {
            if cand == truth {
                row[j] = f32::NEG_INFINITY;
            }
        }
    }
}

/// Gathers embedding rows at `offsets` from a
/// [`pbg_tensor::hogwild::HogwildArray`] into a dense matrix.
///
/// # Panics
///
/// Panics if any offset is out of bounds.
pub fn gather(array: &pbg_tensor::hogwild::HogwildArray, offsets: &[u32]) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    gather_into(array, offsets, &mut out);
    out
}

/// [`gather`] into a caller-owned matrix: reshapes `out` in place
/// (reusing its allocation) and fills it. The scratch half of the
/// thread-local negative-sampling pair.
///
/// # Panics
///
/// Panics if any offset is out of bounds.
pub fn gather_into(array: &pbg_tensor::hogwild::HogwildArray, offsets: &[u32], out: &mut Matrix) {
    gather_candidates_into(array, offsets, &Matrix::default(), out);
}

/// [`gather_into`] for a candidate list whose first `known.rows()`
/// offsets are rows the caller already gathered into `known` — the
/// chunk's own nodes that open every batched candidate list (§4.3). Those
/// rows are copied from `known`; only the rest are read from the table.
///
/// # Panics
///
/// Panics if `known` has more rows than `offsets`, a different width than
/// `array`, or any remaining offset is out of bounds.
pub fn gather_candidates_into(
    array: &pbg_tensor::hogwild::HogwildArray,
    offsets: &[u32],
    known: &Matrix,
    out: &mut Matrix,
) {
    let (c, d) = (known.rows(), array.cols());
    assert!(c <= offsets.len(), "gather: more known rows than offsets");
    assert!(
        c == 0 || known.cols() == d,
        "gather: known rows width mismatch"
    );
    // every row is overwritten below
    out.reshape(offsets.len(), d);
    out.as_mut_slice()[..c * d].copy_from_slice(known.as_slice());
    for (i, &off) in offsets.iter().enumerate().skip(c) {
        array.read_row_into(off as usize, out.row_mut(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbg_tensor::hogwild::HogwildArray;

    #[test]
    fn uniform_offsets_in_range() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let offs = sample_uniform_offsets(1000, 37, &mut rng);
        assert_eq!(offs.len(), 1000);
        assert!(offs.iter().all(|&o| o < 37));
    }

    #[test]
    fn candidates_start_with_chunk() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let chunk = [5u32, 6, 7];
        let cands = candidate_offsets(&chunk, 4, 100, &mut rng);
        assert_eq!(cands.len(), 7);
        assert_eq!(&cands[..3], &chunk);
    }

    #[test]
    fn mask_kills_diagonal_and_duplicates() {
        // chunk of 2 positives with true dsts [3, 9]; candidates are the
        // chunk dsts themselves plus a uniform draw that happens to be 3.
        let mut scores = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let true_offsets = [3u32, 9];
        let cands = [3u32, 9, 3];
        mask_induced_positives(&mut scores, &true_offsets, &cands);
        assert_eq!(scores.row(0)[0], f32::NEG_INFINITY, "diagonal masked");
        assert_eq!(scores.row(0)[2], f32::NEG_INFINITY, "duplicate masked");
        assert_eq!(scores.row(0)[1], 2.0, "other chunk member kept");
        assert_eq!(scores.row(1)[1], f32::NEG_INFINITY);
        assert_eq!(scores.row(1)[0], 4.0);
    }

    #[test]
    #[should_panic(expected = "mask: row mismatch")]
    fn mask_rejects_row_mismatch() {
        let mut scores = Matrix::zeros(2, 3);
        mask_induced_positives(&mut scores, &[1u32, 2, 3], &[0u32, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "mask: col mismatch")]
    fn mask_rejects_col_mismatch() {
        let mut scores = Matrix::zeros(2, 3);
        mask_induced_positives(&mut scores, &[1u32, 2], &[0u32, 1]);
    }

    #[test]
    fn into_variants_match_allocating_forms_and_rng_sequence() {
        let chunk = [5u32, 6, 7];
        let mut rng_a = Xoshiro256::seed_from_u64(9);
        let want = candidate_offsets(&chunk, 8, 100, &mut rng_a);
        let mut rng_b = Xoshiro256::seed_from_u64(9);
        let mut got = vec![0u32; 3]; // stale contents must be discarded
        candidate_offsets_into(&mut got, &chunk, 8, 100, &mut rng_b);
        assert_eq!(got, want, "same offsets from the same seed");
        assert_eq!(
            rng_a.gen_index(1 << 30),
            rng_b.gen_index(1 << 30),
            "both forms leave the rng in the same state"
        );

        let arr = HogwildArray::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut m = Matrix::zeros(7, 7);
        gather_into(&arr, &[2, 0], &mut m);
        assert_eq!(m.as_slice(), gather(&arr, &[2, 0]).as_slice());
    }

    #[test]
    fn gather_reads_rows() {
        let arr = HogwildArray::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let m = gather(&arr, &[2, 0]);
        assert_eq!(m.row(0), &[5.0, 6.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn paper_geometry_chunk50_uniform50() {
        // §4.3: 50 positives + 50 uniform = 100 candidates/side; 50×100
        // scores per side minus induced positives ≈ "9900 negative
        // examples" per chunk pair of sides.
        let mut rng = Xoshiro256::seed_from_u64(3);
        let chunk: Vec<u32> = (0..50).collect();
        let cands = candidate_offsets(&chunk, 50, 10_000, &mut rng);
        assert_eq!(cands.len(), 100);
        let mut scores = Matrix::zeros(50, 100);
        scores.fill_with(|_, _| 1.0);
        mask_induced_positives(&mut scores, &chunk, &cands);
        let masked = scores
            .as_slice()
            .iter()
            .filter(|&&v| v == f32::NEG_INFINITY)
            .count();
        // at least the 50 diagonal entries are masked
        assert!(masked >= 50);
        let usable = 50 * 100 - masked;
        assert!(usable >= 4900, "usable negatives {usable}");
    }
}
