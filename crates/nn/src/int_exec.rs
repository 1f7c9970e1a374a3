//! Integer execution mode: pre-quantized weights that dense/conv layers
//! run through the real integer GEMM instead of float.
//!
//! The rest of the MPQ machinery *plans* bit-assignments by probing
//! fake-quantized float weights. Installing an [`IntExecWeight`] on a
//! layer's weight [`crate::Param`] switches that layer's eval-mode forward
//! to genuine integer arithmetic:
//!
//! 1. Weights are quantized **once** with the same MSE-calibrated scales
//!    as `clado_quant::quantize_weights`, so the stored levels dequantize
//!    bit-for-bit to the fake-quant reference (`q·s == Q(w)`).
//! 2. Activations are quantized dynamically at each forward (symmetric
//!    absmax over 127 levels: per sample and group for convs, over the
//!    pixels the conv reads; per tensor for dense layers).
//! 3. Products accumulate exactly in `i32` and requantize back to f32 at
//!    the layer boundary; biases and everything downstream stay float.
//!
//! Every bit-width from 1 to 8 runs on the same i16 k-pair weight packing
//! and the one strip microkernel of `clado_tensor::igemm` (levels of ≤4
//! bits simply occupy fewer of the 16 bits). Widths above 8 and affine
//! schemes fall back to float execution (the layer simply keeps
//! `int_exec = None`).

use clado_quant::{calibrate_symmetric, BitWidth, QuantScheme};
use clado_tensor::igemm::{quantize_i8, PackedRows, Scales};
use clado_tensor::Tensor;

/// Per-tensor or per-output-channel weight scales.
#[derive(Debug, Clone)]
enum WeightScales {
    PerTensor(f32),
    PerChannel(Vec<f32>),
}

/// A weight tensor prepared for integer execution: quantized levels,
/// packed once for the integer microkernel, plus the scales needed to
/// requantize i32 accumulators back to f32.
///
/// Rows are output channels (dimension 0 of the weight tensor); columns
/// are the flattened reduction axis.
#[derive(Debug, Clone)]
pub struct IntExecWeight {
    bits: u8,
    packed: PackedRows,
    scales: WeightScales,
}

impl IntExecWeight {
    /// Quantizes `value` to `bits` for integer execution, calibrating
    /// scales exactly like `clado_quant::quantize_weights` (same MSE grid,
    /// same rounding), so the stored levels dequantize to the fake-quant
    /// reference bit-for-bit.
    ///
    /// Returns `None` when integer execution cannot represent the
    /// configuration: more than 8 bits, or an affine (zero-point) scheme.
    pub fn prepare(value: &Tensor, bits: BitWidth, scheme: QuantScheme) -> Option<Self> {
        if bits.bits() > 8 || scheme == QuantScheme::PerChannelAffine {
            return None;
        }
        let rows = value.shape().dim(0);
        let cols = value.numel() / rows;
        let (qmin, qmax) = bits.signed_levels();
        let w = value.data();
        let (q, scales) = match scheme {
            QuantScheme::PerTensorSymmetric => {
                let params = calibrate_symmetric(w, bits);
                (
                    quantize_i8(w, params.scale, qmin, qmax),
                    WeightScales::PerTensor(params.scale),
                )
            }
            QuantScheme::PerChannelSymmetric => {
                let mut q = Vec::with_capacity(w.len());
                let mut per_channel = Vec::with_capacity(rows);
                for c in 0..rows {
                    let slice = &w[c * cols..(c + 1) * cols];
                    let params = calibrate_symmetric(slice, bits);
                    q.extend(quantize_i8(slice, params.scale, qmin, qmax));
                    per_channel.push(params.scale);
                }
                (q, WeightScales::PerChannel(per_channel))
            }
            QuantScheme::PerChannelAffine => unreachable!("filtered above"),
        };
        Some(Self {
            bits: bits.bits(),
            packed: PackedRows::from_i8(&q, rows, cols),
            scales,
        })
    }

    /// The bit-width this weight executes at.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Output channels (weight rows).
    pub fn rows(&self) -> usize {
        self.packed.rows()
    }

    /// Flattened reduction length (weight columns).
    pub fn cols(&self) -> usize {
        self.packed.k()
    }

    /// The levels, packed for the integer microkernel.
    pub fn packed(&self) -> &PackedRows {
        &self.packed
    }

    /// The requantization scales, one per tensor or per output channel.
    pub fn scales(&self) -> Scales<'_> {
        match &self.scales {
            WeightScales::PerTensor(s) => Scales::PerTensor(*s),
            WeightScales::PerChannel(s) => Scales::PerChannel(s),
        }
    }

    /// Dequantizes the stored levels back to f32 — bit-for-bit equal to
    /// `clado_quant::quantize_weights` on the source tensor (up to the
    /// sign of zero, which the integer domain normalizes to `+0.0`).
    pub fn dequantize(&self) -> Vec<f32> {
        let (rows, cols) = (self.rows(), self.cols());
        let scales = self.scales();
        (0..rows * cols)
            .map(|i| self.packed.level(i / cols, i % cols) as f32 * scales.at(i / cols))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_quant::quantize_weights;

    fn weight(shape: [usize; 2], seed: u64) -> Tensor {
        let mut s = seed | 1;
        let data: Vec<f32> = (0..shape[0] * shape[1])
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(shape, data).unwrap()
    }

    #[test]
    fn dequantize_matches_fake_quant_reference() {
        let w = weight([6, 17], 11);
        for bits in [2u8, 4, 8] {
            for scheme in [
                QuantScheme::PerTensorSymmetric,
                QuantScheme::PerChannelSymmetric,
            ] {
                let ie = IntExecWeight::prepare(&w, BitWidth::of(bits), scheme).unwrap();
                let reference = quantize_weights(&w, BitWidth::of(bits), scheme);
                for (i, (&got, &want)) in ie.dequantize().iter().zip(reference.data()).enumerate() {
                    if want == 0.0 {
                        assert_eq!(got, 0.0, "{bits}b {scheme:?} idx {i}");
                    } else {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{bits}b {scheme:?} idx {i}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unsupported_configs_fall_back_to_float() {
        let w = weight([2, 4], 3);
        assert!(
            IntExecWeight::prepare(&w, BitWidth::of(16), QuantScheme::PerTensorSymmetric).is_none()
        );
        assert!(
            IntExecWeight::prepare(&w, BitWidth::of(8), QuantScheme::PerChannelAffine).is_none()
        );
    }

    #[test]
    fn low_bits_dequantize_to_the_reference() {
        let w = weight([4, 5], 7);
        let ie =
            IntExecWeight::prepare(&w, BitWidth::of(2), QuantScheme::PerTensorSymmetric).unwrap();
        assert_eq!(ie.bits(), 2);
        // 2-bit levels share the i16 packing and still match the reference.
        let reference = quantize_weights(&w, BitWidth::of(2), QuantScheme::PerTensorSymmetric);
        for (&got, &want) in ie.dequantize().iter().zip(reference.data()) {
            assert!(got == want, "{got} vs {want}");
        }
    }
}
