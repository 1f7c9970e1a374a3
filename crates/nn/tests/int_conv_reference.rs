//! Pins the integer convolution bit for bit against an independent scalar
//! reference: f32 im2col → per-(sample, group) column absmax → `f32::round`
//! quantization → i64 dot products → requantize → bias.
//!
//! The reference shares no code with the layer's integer path except the
//! weight-scale calibration, so any rewrite of the integer kernels must
//! reproduce exactly these numbers.

use clado_nn::{Conv2d, IntExecWeight, Layer, ParamRole};
use clado_quant::{calibrate_symmetric, BitWidth, QuantScheme};
use clado_tensor::{Conv2dSpec, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic pseudo-random fill in roughly [-1, 1).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Weight levels and per-row scales, computed the way `quantize_weights`
/// defines them: MSE-calibrated scale, `round(w · 1/s)` clamped.
fn weight_levels(
    w: &[f32],
    rows: usize,
    bits: BitWidth,
    scheme: QuantScheme,
) -> (Vec<i64>, Vec<f32>) {
    let cols = w.len() / rows;
    let (qmin, qmax) = bits.signed_levels();
    let level = |x: f32, scale: f32| -> i64 {
        if scale == 0.0 {
            0
        } else {
            (x * (1.0 / scale)).round().clamp(qmin as f32, qmax as f32) as i64
        }
    };
    let scales: Vec<f32> = match scheme {
        QuantScheme::PerTensorSymmetric => vec![calibrate_symmetric(w, bits).scale; rows],
        QuantScheme::PerChannelSymmetric => (0..rows)
            .map(|r| calibrate_symmetric(&w[r * cols..(r + 1) * cols], bits).scale)
            .collect(),
        QuantScheme::PerChannelAffine => unreachable!("not an integer scheme"),
    };
    let levels = w
        .iter()
        .enumerate()
        .map(|(i, &x)| level(x, scales[i / cols]))
        .collect();
    (levels, scales)
}

/// Scalar reference of the integer convolution.
fn reference(
    x: &Tensor,
    w: &[f32],
    bias: Option<&[f32]>,
    spec: &Conv2dSpec,
    bits: BitWidth,
    scheme: QuantScheme,
) -> Vec<f32> {
    let d = x.shape().dims().to_vec();
    let (n, cin, h, wd) = (d[0], d[1], d[2], d[3]);
    let (ho, wo) = (spec.out_size(h), spec.out_size(wd));
    let (k, g) = (spec.kernel, spec.groups);
    let (cg_in, cg_out) = (cin / g, spec.out_channels / g);
    let rows = cg_in * k * k;
    let (wq, ws) = weight_levels(w, spec.out_channels, bits, scheme);
    let mut out = vec![0.0f32; n * spec.out_channels * ho * wo];
    for s in 0..n {
        for gi in 0..g {
            // f32 im2col of this sample's group slice: col[r][p].
            let mut col = vec![0.0f32; rows * ho * wo];
            for c in 0..cg_in {
                for ky in 0..k {
                    for kx in 0..k {
                        let r = (c * k + ky) * k + kx;
                        for oy in 0..ho {
                            for ox in 0..wo {
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < wd {
                                    col[r * ho * wo + oy * wo + ox] =
                                        x.data()[((s * cin + gi * cg_in + c) * h + iy as usize)
                                            * wd
                                            + ix as usize];
                                }
                            }
                        }
                    }
                }
            }
            let absmax = col.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let a_scale = absmax / 127.0;
            let q: Vec<i64> = col
                .iter()
                .map(|&v| {
                    if a_scale == 0.0 {
                        0
                    } else {
                        // `as i8` maps NaN to 0, like the integer path.
                        (v * (1.0 / a_scale)).round().clamp(-127.0, 127.0) as i8 as i64
                    }
                })
                .collect();
            for oc in 0..cg_out {
                let oc_abs = gi * cg_out + oc;
                for p in 0..ho * wo {
                    let acc: i64 = (0..rows)
                        .map(|r| wq[oc_abs * rows + r] * q[r * ho * wo + p])
                        .sum();
                    let mut v = acc as f32 * (a_scale * ws[oc_abs]);
                    if let Some(b) = bias {
                        v += b[oc_abs];
                    }
                    out[(s * spec.out_channels + oc_abs) * ho * wo + p] = v;
                }
            }
        }
    }
    out
}

/// Builds a conv with integer execution installed and random bias values.
fn int_conv(
    spec: Conv2dSpec,
    bias: bool,
    bits: BitWidth,
    scheme: QuantScheme,
    seed: u64,
) -> (Conv2d, Vec<f32>, Option<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(spec, bias, &mut rng);
    let mut weight = Vec::new();
    let mut bias_values = None;
    conv.visit_params("", &mut |_, p| match p.role {
        ParamRole::Weight => {
            weight = p.value.data().to_vec();
            p.int_exec = IntExecWeight::prepare(&p.value, bits, scheme);
            assert!(
                p.int_exec.is_some(),
                "{bits:?} {scheme:?} must run on integers"
            );
        }
        _ => {
            let b = fill(p.value.numel(), seed ^ 0xB1A5);
            p.value.data_mut().copy_from_slice(&b);
            bias_values = Some(b);
        }
    });
    (conv, weight, bias_values)
}

/// Batch of 3 with sample 1 all zero; `plant` overwrites one pixel.
fn input(cin: usize, h: usize, w: usize, seed: u64, plant: Option<(usize, f32)>) -> Tensor {
    let mut data = fill(3 * cin * h * w, seed);
    data[cin * h * w..2 * cin * h * w].fill(0.0);
    if let Some((i, v)) = plant {
        data[i] = v;
    }
    Tensor::from_vec([3, cin, h, w], data).unwrap()
}

fn assert_bitwise(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.numel(), want.len(), "{what}: length");
    for (i, (&a, &b)) in got.data().iter().zip(want).enumerate() {
        assert!(a.to_bits() == b.to_bits(), "{what} idx {i}: {a} vs {b}");
    }
}

fn check(
    spec: Conv2dSpec,
    hw: (usize, usize),
    bias: bool,
    bits: u8,
    scheme: QuantScheme,
    seed: u64,
    plant: Option<(usize, f32)>,
) {
    let bits = BitWidth::of(bits);
    let (mut conv, w, b) = int_conv(spec, bias, bits, scheme, seed);
    let x = input(spec.in_channels, hw.0, hw.1, seed + 7, plant);
    let want = reference(&x, &w, b.as_deref(), &spec, bits, scheme);
    let got = conv.forward(x, false);
    assert_bitwise(
        &got,
        &want,
        &format!("{spec:?} {hw:?} bias={bias} {bits:?} {scheme:?}"),
    );
}

#[test]
fn integer_conv_matches_scalar_reference_bitwise() {
    let schemes = [
        QuantScheme::PerTensorSymmetric,
        QuantScheme::PerChannelSymmetric,
    ];
    let mut seed = 0u64;
    for kernel in [1usize, 3] {
        for stride in [1usize, 2] {
            for padding in [0usize, 1] {
                // Dense, grouped and depthwise.
                for (cin, cout, groups) in [(3usize, 5usize, 1usize), (4, 6, 2), (4, 4, 4)] {
                    let spec =
                        Conv2dSpec::new(cin, cout, kernel, stride, padding).with_groups(groups);
                    for bias in [false, true] {
                        for scheme in schemes {
                            for bits in [2u8, 4, 8] {
                                seed += 1;
                                check(spec, (7, 6), bias, bits, scheme, seed, None);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn integer_conv_matches_reference_on_network_shapes() {
    // Full-strip widths, a 2×2 output, NaN input pixels (their level is
    // 0), and large values on pixels the conv never reads, which must not
    // enter the activation scale: every odd pixel of a 1×1 stride-2
    // shortcut, and the last row/column of an 8-wide kernel-3 stride-2
    // unpadded conv.
    let cases = [
        (Conv2dSpec::new(6, 6, 3, 1, 1), (16, 16), None),
        (
            Conv2dSpec::new(6, 8, 3, 2, 1),
            (16, 16),
            Some((5, f32::NAN)),
        ),
        (Conv2dSpec::new(6, 8, 1, 2, 0), (16, 16), Some((17, 50.0))),
        (
            Conv2dSpec::new(8, 8, 3, 1, 1),
            (8, 8),
            Some((2 * 8 * 64 + 9, f32::NAN)),
        ),
        (Conv2dSpec::new(5, 7, 3, 2, 0), (8, 8), Some((63, -50.0))),
        (Conv2dSpec::new(12, 16, 3, 2, 1), (4, 4), None),
        (Conv2dSpec::new(16, 16, 3, 1, 1), (2, 2), None),
        (Conv2dSpec::new(8, 8, 3, 1, 1).with_groups(8), (9, 11), None),
    ];
    for (i, (spec, hw, plant)) in cases.into_iter().enumerate() {
        for bits in [4u8, 8] {
            check(
                spec,
                hw,
                i % 2 == 0,
                bits,
                QuantScheme::PerChannelSymmetric,
                100 + i as u64,
                plant,
            );
        }
    }
}

#[test]
fn integer_conv_matches_reference_on_large_batches() {
    // Batches large enough that an implementation may split samples into
    // several chunks, with strips that straddle sample boundaries.
    let cases = [
        (Conv2dSpec::new(6, 6, 3, 1, 1), 16, 20),
        (Conv2dSpec::new(16, 16, 3, 1, 1), 2, 70),
        (Conv2dSpec::new(5, 3, 3, 1, 1), 3, 45),
    ];
    for (i, (spec, hw, batch)) in cases.into_iter().enumerate() {
        let bits = BitWidth::of(8);
        let scheme = QuantScheme::PerChannelSymmetric;
        let seed = 200 + i as u64;
        let (mut conv, w, b) = int_conv(spec, i % 2 == 1, bits, scheme, seed);
        let cin = spec.in_channels;
        let mut data = fill(batch * cin * hw * hw, seed + 7);
        data[cin * hw * hw..2 * cin * hw * hw].fill(0.0);
        let x = Tensor::from_vec([batch, cin, hw, hw], data).unwrap();
        let want = reference(&x, &w, b.as_deref(), &spec, bits, scheme);
        let got = conv.forward(x, false);
        assert_bitwise(&got, &want, &format!("{spec:?} {hw}×{hw} batch {batch}"));
    }
}
