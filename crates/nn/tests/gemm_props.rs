//! Property tests: the shared GEMM micro-kernel under `Conv2d` and
//! `Dense` forward, bit for bit against the scalar loops it replaced.
//!
//! The oracles below are those loops, kept here as test-only code: the
//! im2col executor's per-output dot product over a `positions × patch`
//! matrix, and `Dense`'s per-output loop over each input row. Every
//! output must match with `to_bits()` — signed zeros included — across
//! shapes that cross every register-tile tail (1 to 13 output rows, 1
//! to 19 positions or batch columns), channel groups, padding, strides
//! and thread budgets.

use dnnlife_nn::exec;
use dnnlife_nn::layers::{Conv2d, Dense, Layer};
use dnnlife_nn::Tensor;
use proptest::prelude::*;

/// Deterministic values spread over many binades, with exact `+0.0`
/// and `-0.0` mixed in, so any reordered sum or dropped sign shows.
fn fill(len: usize, salt: u64) -> Vec<f32> {
    (0..len as u64)
        .map(|i| {
            let x = (i ^ salt)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29);
            match x % 9 {
                0 => 0.0,
                1 => -0.0,
                _ => {
                    let mantissa = ((x >> 8) % 2001) as f32 / 1000.0 - 1.0;
                    mantissa * 2f32.powi(((x >> 24) % 13) as i32 - 6)
                }
            }
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The im2col forward this kernel replaced: per image, gather a
/// `positions × patch` matrix (padded taps as literal zeros), then one
/// `bias + Σ w·x` dot product per output in patch order.
#[allow(clippy::too_many_arguments)]
fn im2col_dot_forward(
    input: &Tensor,
    weight: &[f32],
    bias: &[f32],
    out_channels: usize,
    groups: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let cin_g = c / groups;
    let cout_g = out_channels / groups;
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let positions = oh * ow;
    let patch = cin_g * k * k;
    let mut out = vec![0.0f32; n * out_channels * positions];
    for img in 0..n {
        for g in 0..groups {
            let mut col = vec![0.0f32; positions * patch];
            for pos in 0..positions {
                let (oy, ox) = (pos / ow, pos % ow);
                for ic_local in 0..cin_g {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            let inside =
                                (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix);
                            col[pos * patch + (ic_local * k + ky) * k + kx] = if inside {
                                input.at4(img, g * cin_g + ic_local, iy as usize, ix as usize)
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
            for oc in g * cout_g..(g + 1) * cout_g {
                let w_row = &weight[oc * patch..(oc + 1) * patch];
                for pos in 0..positions {
                    let mut acc = bias[oc];
                    for (wv, iv) in w_row.iter().zip(&col[pos * patch..(pos + 1) * patch]) {
                        acc += wv * iv;
                    }
                    out[(img * out_channels + oc) * positions + pos] = acc;
                }
            }
        }
    }
    out
}

/// The per-output loop `Dense::forward` ran before the kernel.
fn dense_loop_forward(input: &[f32], weight: &[f32], bias: &[f32], n: usize, f: usize) -> Vec<f32> {
    let out_f = bias.len();
    let mut out = vec![0.0f32; n * out_f];
    for img in 0..n {
        let x = &input[img * f..(img + 1) * f];
        for o in 0..out_f {
            let mut acc = bias[o];
            for (wv, xv) in weight[o * f..(o + 1) * f].iter().zip(x) {
                acc += wv * xv;
            }
            out[img * out_f + o] = acc;
        }
    }
    out
}

fn set_bias(layer: &mut dyn Layer, bias: &[f32]) {
    layer.visit_params(&mut |p| {
        if p.name.ends_with(".bias") {
            p.value.copy_from_slice(bias);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conv_forward_is_bit_identical_to_the_im2col_dot(
        n in 1usize..3,
        cin_g in 1usize..4,
        cout_g in 1usize..=13,
        groups in 1usize..4,
        k in 1usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        ow in 1usize..=4,
        oh_seed in 1usize..=19,
        slack_h in 0usize..3,
        slack_w in 0usize..3,
        budget in 1usize..4,
        salt in 1u64..u64::MAX,
    ) {
        // Output grids of 1 to 19 positions: every width with ow = 1.
        let oh = (oh_seed - 1) % (19 / ow) + 1;
        // Smallest input giving that grid, plus slack under one stride.
        let span = |o: usize, slack: usize| ((o - 1) * stride + k + slack % stride) as isize - 2 * pad as isize;
        let (h, w) = (span(oh, slack_h), span(ow, slack_w));
        prop_assume!(h >= 1 && w >= 1);
        let (h, w) = (h as usize, w as usize);
        let (cin, cout) = (cin_g * groups, cout_g * groups);

        let input = Tensor::from_vec(&[n, cin, h, w], fill(n * cin * h * w, salt));
        let weight = fill(cout * cin_g * k * k, salt.rotate_left(17));
        let bias = fill(cout, salt.rotate_left(31));
        let mut conv = Conv2d::new("c", cin, cout, k, stride, pad, groups);
        conv.set_weights(Tensor::from_vec(&[cout, cin_g, k, k], weight.clone()));
        set_bias(&mut conv, &bias);

        let out = exec::with_budget(budget, || conv.forward(&input));
        prop_assert_eq!(out.shape(), &[n, cout, oh, ow]);
        let want = im2col_dot_forward(&input, &weight, &bias, cout, groups, k, stride, pad);
        prop_assert_eq!(bits(out.data()), bits(&want));
    }

    #[test]
    fn dense_forward_is_bit_identical_to_the_per_output_loop(
        n in 1usize..=19,
        f in 1usize..40,
        out_f in 1usize..=13,
        salt in 1u64..u64::MAX,
    ) {
        let input = fill(n * f, salt);
        let weight = fill(out_f * f, salt.rotate_left(17));
        let bias = fill(out_f, salt.rotate_left(31));
        let mut fc = Dense::new("fc", f, out_f);
        fc.set_weights(Tensor::from_vec(&[out_f, f], weight.clone()));
        set_bias(&mut fc, &bias);

        let out = fc.forward(&Tensor::from_vec(&[n, f], input.clone()));
        prop_assert_eq!(out.shape(), &[n, out_f]);
        let want = dense_loop_forward(&input, &weight, &bias, n, f);
        prop_assert_eq!(bits(out.data()), bits(&want));
    }
}
