//! The register-tiled GEMM micro-kernel under the [`Conv2d`] and
//! [`Dense`] forward passes.
//!
//! [`gemm_bias`] computes `C[i][j] = bias[i] + Σ_p A[i][p]·B[p][j]` for
//! row-major `A` (`m × k`), `B` (`k × n`) and `C` (`m × n`). `C` is
//! computed in register tiles of up to 4 rows × 8 columns; narrower
//! tiles (2 or 1 rows, 4 or 1 columns) cover the tails.
//!
//! # Accumulation order
//!
//! Every output owns one accumulator. It starts at `bias[i]` and adds
//! the products `A[i][p] * B[p][j]` for `p = 0, 1, …, k - 1` in that
//! order, each one IEEE multiply followed by one IEEE add (Rust never
//! contracts the pair into a fused multiply-add). The vector lanes of a
//! tile run across neighbouring *outputs* `j`, never across `p`, so the
//! tiling decides which outputs are computed side by side but changes
//! no operation on any single output. Each `C[i][j]` is therefore
//! bit-identical to the scalar loop
//!
//! ```text
//! acc = bias[i]; for p in 0..k { acc += A[i][p] * B[p][j] }
//! ```
//!
//! signed zeros included. The layers rely on this: `Conv2d` lays its
//! im2col patches out k-major with padded taps as literal zeros, and
//! `Dense` transposes its batch, so both walk exactly the sequence of
//! products their earlier per-output dot products did.
//!
//! [`Conv2d`]: crate::layers::Conv2d
//! [`Dense`]: crate::layers::Dense

/// Rows of `C` per full register tile.
const MR: usize = 4;
/// Columns of `C` per full register tile (the vector lanes).
const NR: usize = 8;

/// `c = bias ⊕ a·b`: `c[i*n + j] = bias[i] + Σ_p a[i*k + p] * b[p*n + j]`,
/// accumulated in `p` order for every output (see the module docs).
///
/// # Panics
///
/// Panics if a slice length disagrees with `m`, `k` and `n`.
pub(crate) fn gemm_bias(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_bias: a is not m × k");
    assert_eq!(b.len(), k * n, "gemm_bias: b is not k × n");
    assert_eq!(bias.len(), m, "gemm_bias: bias is not m long");
    assert_eq!(c.len(), m * n, "gemm_bias: c is not m × n");
    // `A` rows of the current panel, interleaved p-major so the tile
    // loop reads its R multipliers for step `p` from one place.
    let mut panel = Vec::with_capacity(MR * k);
    let mut i = 0;
    while i < m {
        let rows = match m - i {
            left if left >= MR => MR,
            left if left >= 2 => 2,
            _ => 1,
        };
        let a_rows = &a[i * k..(i + rows) * k];
        let bias_rows = &bias[i..i + rows];
        let c_rows = &mut c[i * n..(i + rows) * n];
        match rows {
            MR => row_panel::<MR>(a_rows, b, bias_rows, c_rows, k, n, &mut panel),
            2 => row_panel::<2>(a_rows, b, bias_rows, c_rows, k, n, &mut panel),
            _ => row_panel::<1>(a_rows, b, bias_rows, c_rows, k, n, &mut panel),
        }
        i += rows;
    }
}

/// One panel of `R` rows: packs the rows p-major, then sweeps the
/// columns in tiles of 8, 4 and 1.
fn row_panel<const R: usize>(
    a_rows: &[f32],
    b: &[f32],
    bias: &[f32],
    c_rows: &mut [f32],
    k: usize,
    n: usize,
    panel: &mut Vec<f32>,
) {
    panel.clear();
    for p in 0..k {
        panel.extend((0..R).map(|r| a_rows[r * k + p]));
    }
    let bias: [f32; R] = bias.try_into().expect("bias rows match the panel");
    let mut j = 0;
    while j < n {
        j += match n - j {
            left if left >= NR => tile::<R, NR>(panel, b, &bias, c_rows, n, j),
            left if left >= 4 => tile::<R, 4>(panel, b, &bias, c_rows, n, j),
            _ => tile::<R, 1>(panel, b, &bias, c_rows, n, j),
        };
    }
}

/// Computes and stores the `R × C` tile of `c_rows` at column `j`;
/// returns `C`, the number of columns done.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    panel: &[f32],
    b: &[f32],
    bias: &[f32; R],
    c_rows: &mut [f32],
    n: usize,
    j: usize,
) -> usize {
    let mut acc = bias.map(|v| [v; C]);
    for (p, av) in panel.chunks_exact(R).enumerate() {
        let bv: &[f32; C] = b[p * n + j..][..C].try_into().expect("tile fits the row");
        for (acc_row, &a) in acc.iter_mut().zip(av) {
            for (o, &x) in acc_row.iter_mut().zip(bv) {
                *o += a * x;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        c_rows[r * n + j..r * n + j + C].copy_from_slice(acc_row);
    }
    C
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar loop the module docs promise bit identity with.
    fn scalar(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = bias[i];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn every_tile_shape_matches_the_scalar_loop_bitwise() {
        // Magnitudes spread over many binades so reordering any sum
        // would show in the low bits.
        let val = |i: usize, salt: usize| {
            let x = (i * 2654435761 + salt) % 1000;
            (x as f32 - 500.0) * 1.37f32.powi((x % 23) as i32 - 11)
        };
        for m in 1..=9 {
            for n in 1..=19 {
                for k in [1, 3, 17] {
                    let a: Vec<f32> = (0..m * k).map(|i| val(i, 7)).collect();
                    let b: Vec<f32> = (0..k * n).map(|i| val(i, 13)).collect();
                    let bias: Vec<f32> = (0..m).map(|i| val(i, 29)).collect();
                    let mut c = vec![f32::NAN; m * n];
                    gemm_bias(&a, &b, &bias, &mut c, m, k, n);
                    let want = scalar(&a, &b, &bias, m, k, n);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&c), bits(&want), "m {m} k {k} n {n}");
                }
            }
        }
    }

    #[test]
    fn empty_dimensions() {
        let mut c = vec![0.0; 6];
        gemm_bias(&[], &[], &[1.0, -0.0], &mut c, 2, 0, 3);
        assert_eq!(c[..3], [1.0; 3]);
        assert!(c[3..].iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        // No columns (an empty batch) writes nothing.
        gemm_bias(&[1.0; 6], &[], &[0.0; 2], &mut [], 2, 3, 0);
    }

    #[test]
    #[should_panic(expected = "b is not k × n")]
    fn rejects_mismatched_shapes() {
        gemm_bias(&[0.0; 4], &[0.0; 3], &[0.0; 2], &mut [0.0; 4], 2, 2, 2);
    }
}
