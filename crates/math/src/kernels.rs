//! Slice-level f64 kernels for the batched learner hot loops.
//!
//! These are the elementwise building blocks `rths_core::slab` runs over
//! contiguous T-matrix columns: no indexing indirection, no bounds checks
//! inside the loop after the initial slice formation, so LLVM
//! autovectorizes them. Each kernel performs **exactly** the per-entry
//! expression of the scalar learner path (`rths_core::compact`) — the
//! float op *order within an entry* is preserved, and entries are
//! independent, so results are bit-for-bit identical to the scalar loops.

/// In-place scale: `xs[i] *= factor` for every entry.
///
/// The batched form of `Matrix::scale` restricted to one column — the
/// exponential decay `T ← (1−ε)·T` applied column-contiguously.
#[inline]
pub fn scale(xs: &mut [f64], factor: f64) {
    for x in xs {
        *x *= factor;
    }
}

/// In-place axpy: `y[i] += a * x[i]` for every entry.
///
/// The rank-1 column update of the proxy matrix (`T[:, j] += scale · p`)
/// with the same fused expression shape as the scalar loop
/// (`t[(r, j)] += scale * probs[r]`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy slices must be index-aligned");
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

/// Max of the clamped shifted differences: the largest
/// `(factor * (col[i] - diag[i])).max(0.0)` over the slice.
///
/// One column's contribution to the learner's virtual-play regret
/// maximum: `col` is column `k` of a column-major T-matrix, `diag` the
/// gathered diagonal, so entry `i` is `Q(i, k) = (factor ·
/// (T[i,k] − T[i,i]))⁺`. The diagonal entry `i == k` needs no
/// special-casing: `col[k] − diag[k]` is exactly `+0.0` for any finite
/// value (and the per-entry `.max(0.0)` maps a non-finite `NaN` to `0.0`
/// the same way the scalar path's literal `0.0` push does), matching the
/// scalar `if j == k { 0.0 }` arm bit-for-bit. Every term is `≥ +0.0` or
/// skipped-as-NaN, so the fold order cannot change the result.
///
/// Returns `f64::NEG_INFINITY` on an empty slice.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn shifted_regret_max(col: &[f64], diag: &[f64], factor: f64) -> f64 {
    assert_eq!(col.len(), diag.len(), "regret-max slices must be index-aligned");
    let mut max = f64::NEG_INFINITY;
    for (&c, &d) in col.iter().zip(diag) {
        max = max.max((factor * (c - d)).max(0.0));
    }
    max
}

/// [`shifted_regret_max`] of an all-zero column: the largest
/// `(factor * (0.0 - diag[i])).max(0.0)` over the slice.
///
/// A never-played T column is exactly `+0.0` everywhere, so every such
/// column contributes this same value; one call stands in for all of
/// them. The difference is `0.0 - d`, never `-d`: for `d = +0.0` the
/// former is `+0.0` and the latter `-0.0`, and the sign of a zero must
/// match what the column scan would have produced, bit for bit.
///
/// Returns `f64::NEG_INFINITY` on an empty slice.
#[inline]
pub fn zero_column_regret_max(diag: &[f64], factor: f64) -> f64 {
    let mut max = f64::NEG_INFINITY;
    for &d in diag {
        max = max.max((factor * (0.0 - d)).max(0.0));
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_matches_the_scalar_loop_bitwise() {
        let mut xs = vec![1.5, -2.25, 0.0, 1e-300, 7.0];
        let mut expected = xs.clone();
        for x in &mut expected {
            *x *= 0.99;
        }
        scale(&mut xs, 0.99);
        for (a, b) in xs.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn axpy_matches_the_scalar_loop_bitwise() {
        let mut y = vec![0.25, -1.0, 3.5, 0.0];
        let x = vec![0.1, 0.2, 0.3, 0.4];
        let a = 137.5;
        let mut expected = y.clone();
        for (e, &xv) in expected.iter_mut().zip(&x) {
            *e += a * xv;
        }
        axpy(&mut y, a, &x);
        for (got, want) in y.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "index-aligned")]
    fn axpy_rejects_length_mismatch() {
        axpy(&mut [0.0, 0.0], 1.0, &[1.0]);
    }

    #[test]
    fn shifted_regret_max_handles_diagonal_and_negatives() {
        // col == diag entrywise at the diagonal index → exact +0.0 term.
        let col = [3.0, 5.0, 1.0];
        let diag = [3.0, 2.0, 4.0];
        let q = shifted_regret_max(&col, &diag, 0.5);
        // Entries: (0.5·0)⁺ = 0, (0.5·3)⁺ = 1.5, (0.5·−3)⁺ = 0.
        assert_eq!(q.to_bits(), 1.5f64.to_bits());
        assert!(shifted_regret_max(&[], &[], 1.0).is_infinite());
        // All-clamped column folds to exactly +0.0.
        assert_eq!(shifted_regret_max(&[1.0], &[9.0], 1.0).to_bits(), 0.0f64.to_bits());
    }

    /// The zero-column kernel must equal the column kernel fed a literal
    /// zero column, bit for bit — including the sign of a zero result
    /// (`+0.0` diagonals, where a `-d` rewrite would yield `-0.0`
    /// terms), negative and `NaN` diagonals, and a difference that
    /// overflows to infinity.
    #[test]
    fn zero_column_regret_max_matches_a_zero_column_bitwise() {
        let cases: [&[f64]; 8] = [
            &[0.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0],
            &[-0.0, 0.0],
            &[0.0, 2.5, 7.0],
            &[0.0, -2.5, 3.0, -1e-300],
            &[-1.0e308, 0.0],
            &[f64::NAN, 0.0, -4.0],
            &[f64::MIN, f64::MAX, -5e-324],
        ];
        for diag in cases {
            for factor in [0.05, 1.0, 4.0, 1.0 / 3.0] {
                let zeros = vec![0.0; diag.len()];
                let want = shifted_regret_max(&zeros, diag, factor);
                let got = zero_column_regret_max(diag, factor);
                assert_eq!(got.to_bits(), want.to_bits(), "diag {diag:?} factor {factor}");
            }
        }
        // All-+0.0 diagonal: the result is +0.0, not -0.0.
        assert_eq!(zero_column_regret_max(&[0.0; 4], 0.05).to_bits(), 0.0f64.to_bits());
        // factor · (0.0 − d) overflows to +∞ and the max keeps it.
        assert_eq!(zero_column_regret_max(&[0.0, -1.0e308], 4.0), f64::INFINITY);
        assert!(zero_column_regret_max(&[], 1.0).is_infinite());
    }
}
