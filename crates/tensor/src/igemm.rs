//! Real integer GEMM: int8 (and packed int4) matrix multiply with i32
//! accumulation and per-tensor / per-channel requantization.
//!
//! This is the execution half of mixed-precision quantization: the rest of
//! the repo *plans* bit-assignments by probing fake-quantized f32 weights;
//! these kernels actually *run* the quantized network on integer data.
//!
//! # Semantics
//!
//! [`quantize_i8`] applies exactly the same operation sequence as
//! `clado-quant`'s `fake_quant_symmetric` — `round(x / s)` clamped to the
//! signed level range — so `q[i] as f32 * s` is **bit-for-bit equal** to
//! the fake-quantized value. `RowQuantizer` is its vectorized twin
//! (same levels, i16 storage). Products are accumulated in `i32`, which is
//! exact (no rounding ever happens inside the GEMM), so the scalar and
//! SIMD integer kernels return identical results on every input. The only
//! approximation relative to a fake-quant float forward is the final
//! requantization multiply and the float GEMM's own accumulation rounding.
//!
//! # Layout
//!
//! Every integer product runs in the float conv's orientation,
//! `out[rows × positions] = W[rows × k] · col[k × positions]`, on one
//! microkernel (`for_each_strip`):
//!
//! - weights are a [`PackedRows`]: each row's levels as i16 k-pairs, one
//!   `u32` word per pair, packed once;
//! - the column matrix is built one 32-position strip at a time into a
//!   k-pair-interleaved i16 panel (`panel[(p·32 + i)·2 + h] = col[2p+h][i]`),
//!   straight from its source — a quantized, zero-padded image for convs,
//!   a row-major activation matrix for the dot-form GEMMs;
//! - the AVX2 kernel broadcasts one weight pair per row and `madd`s it
//!   against the strip (two rows × 32 positions = 8 i32 accumulator
//!   chains), so no horizontal reduction runs.
//!
//! Convs never transpose their column matrix: quantizing it into a
//! transposed `A` operand for a dot-form GEMM took 67% of the integer
//! conv's time on the ResNet-34 layer1 shape (6→6 channels, 16×16,
//! batch 64), more than the multiply itself.
//!
//! The dot-form entry points [`igemm_i8_a_bt`] / [`igemm_i4_a_bt`] map
//! `C[m×n] = A·Bᵀ` onto the same kernel with `B` as the weight rows and
//! the `m` rows of `A` as positions.

use crate::kernel::{active_backend, Backend};
use std::cell::RefCell;

/// Signed level range of int8 (`BitWidth::of(8).signed_levels()`).
pub const I8_LEVELS: (i32, i32) = (-128, 127);
/// Signed level range of int4 (`BitWidth::of(4).signed_levels()`).
pub const I4_LEVELS: (i32, i32) = (-8, 7);
/// Largest activation level: activations quantize symmetrically to
/// `[-ACT_LEVELS, ACT_LEVELS]` with a dynamic absmax scale.
pub(crate) const ACT_LEVELS: i32 = 127;
/// Positions per column strip (the microkernel's width).
pub(crate) const STRIP: usize = 32;

thread_local! {
    /// Column panel + accumulator tile of [`for_each_strip`], reused
    /// across calls. Both are fully overwritten before being read.
    static STRIP_SCRATCH: RefCell<(Vec<i16>, Vec<i32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    /// Quantized activations of [`linear_int`], reused across calls.
    static ACT_SCRATCH: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
}

/// Quantizes `src` to signed integer levels with the same op sequence as
/// symmetric fake quantization: `round(x / scale)` clamped to
/// `[qmin, qmax]`. With `scale == 0.0` (all-zero tensor) every level is 0.
///
/// `q as f32 * scale` reproduces the fake-quantized value bit-for-bit,
/// with one caveat: a value that fake-quantizes to `-0.0` comes back as
/// `+0.0` (the integer domain has a single zero). The two compare equal
/// under every arithmetic operation.
///
/// # Panics
///
/// Panics unless `qmin` and `qmax` fit in `i8`.
pub fn quantize_i8(src: &[f32], scale: f32, qmin: i32, qmax: i32) -> Vec<i8> {
    assert_i8_levels(qmin, qmax);
    if scale == 0.0 {
        return vec![0; src.len()];
    }
    let inv = 1.0 / scale;
    src.iter()
        .map(|&x| (x * inv).round().clamp(qmin as f32, qmax as f32) as i8)
        .collect()
}

fn assert_i8_levels(qmin: i32, qmax: i32) {
    assert!(
        (i8::MIN as i32..=i8::MAX as i32).contains(&qmin)
            && (i8::MIN as i32..=i8::MAX as i32).contains(&qmax),
        "levels [{qmin}, {qmax}] do not fit in i8"
    );
}

/// [`quantize_i8`] into i16 storage, vectorized on AVX2, with the
/// reciprocal scale and the backend resolved once for many short rows:
/// each level equals `quantize_i8`'s on every input, NaN (level 0), ±inf
/// and ties (rounded half away from zero, like `f32::round`) included.
pub(crate) struct RowQuantizer {
    /// `1 / scale`, or `None` for a zero scale (every level 0).
    inv: Option<f32>,
    qmin: f32,
    qmax: f32,
    avx2: bool,
}

impl RowQuantizer {
    pub(crate) fn new(scale: f32, qmin: i32, qmax: i32) -> Self {
        assert_i8_levels(qmin, qmax);
        Self {
            inv: (scale != 0.0).then(|| 1.0 / scale),
            qmin: qmin as f32,
            qmax: qmax as f32,
            avx2: matches!(active_backend(), Backend::Avx2Fma),
        }
    }

    /// Quantizes the rows of `src` (each `w` long, contiguous) into rows
    /// of `dst` that start `stride` elements apart.
    ///
    /// # Panics
    ///
    /// Panics unless `w > 0` divides `src.len()`, `stride ≥ w` and `dst`
    /// holds every destination row.
    pub(crate) fn rows(&self, src: &[f32], w: usize, dst: &mut [i16], stride: usize) {
        assert!(
            w > 0 && src.len().is_multiple_of(w) && stride >= w,
            "bad row shape"
        );
        let rows = src.len() / w;
        assert!(
            rows == 0 || dst.len() >= (rows - 1) * stride + w,
            "destination too short"
        );
        let Some(inv) = self.inv else {
            for r in 0..rows {
                dst[r * stride..r * stride + w].fill(0);
            }
            return;
        };
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is set only under the Avx2Fma backend; the
            // asserts above bound every row the kernel touches.
            unsafe { quantize_rows_avx2(src, w, inv, self.qmin, self.qmax, dst, stride) };
            return;
        }
        for (r, row) in src.chunks_exact(w).enumerate() {
            for (d, &x) in dst[r * stride..r * stride + w].iter_mut().zip(row) {
                *d = (x * inv).round().clamp(self.qmin, self.qmax) as i16;
            }
        }
    }
}

/// [`RowQuantizer::rows`] on AVX2, eight lanes at a time; a row's short
/// tail runs as one more vector through a masked load and 8/4/2-byte
/// stores, so short image rows still take the vector path.
///
/// # Safety
///
/// Requires AVX2 and the bounds [`RowQuantizer::rows`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_rows_avx2(
    src: &[f32],
    w: usize,
    inv: f32,
    qmin: f32,
    qmax: f32,
    dst: &mut [i16],
    stride: usize,
) {
    use std::arch::x86_64::*;
    const TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    let (inv, lo, hi) = (
        _mm256_set1_ps(inv),
        _mm256_set1_ps(qmin),
        _mm256_set1_ps(qmax),
    );
    let full = w / 8 * 8;
    let tail = w - full;
    let mask = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - tail).cast());
    for r in 0..src.len() / w {
        let sp = src.as_ptr().add(r * w);
        let dp = dst.as_mut_ptr().add(r * stride);
        let mut i = 0;
        while i < full {
            let q = levels8(_mm256_loadu_ps(sp.add(i)), inv, lo, hi);
            _mm_storeu_si128(dp.add(i).cast(), q);
            i += 8;
        }
        if tail > 0 {
            let mut q = levels8(_mm256_maskload_ps(sp.add(i), mask), inv, lo, hi);
            let mut d = dp.add(i);
            let mut left = tail;
            if left >= 4 {
                _mm_storel_epi64(d.cast(), q);
                q = _mm_srli_si128(q, 8);
                (d, left) = (d.add(4), left - 4);
            }
            if left >= 2 {
                d.cast::<i32>().write_unaligned(_mm_cvtsi128_si32(q));
                q = _mm_srli_si128(q, 4);
                (d, left) = (d.add(2), left - 2);
            }
            if left == 1 {
                d.write(_mm_cvtsi128_si32(q) as i16);
            }
        }
    }
}

/// Eight levels `round(x · inv).clamp(lo, hi)` as i16, NaN → 0 like
/// `as i8`. Clamping to the integral bounds before rounding gives the
/// same level and keeps `|y| < 2²³`, where `f32::round` (half away from
/// zero) is exactly `t + trunc(2·(y − t))` with `t = trunc(y)`: `y − t`
/// and its double are exact. NaN survives the clamp (`max`/`min` return
/// their second operand on NaN) and is zeroed before the conversion.
///
/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn levels8(
    x: std::arch::x86_64::__m256,
    inv: std::arch::x86_64::__m256,
    lo: std::arch::x86_64::__m256,
    hi: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
    let y = _mm256_min_ps(hi, _mm256_max_ps(lo, _mm256_mul_ps(x, inv)));
    let t = _mm256_round_ps(y, TRUNC);
    let d = _mm256_sub_ps(y, t);
    let r = _mm256_add_ps(t, _mm256_round_ps(_mm256_add_ps(d, d), TRUNC));
    let r = _mm256_and_ps(r, _mm256_cmp_ps(r, r, _CMP_ORD_Q));
    let q = _mm256_cvttps_epi32(r);
    _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256(q, 1))
}

/// `max |x|` over `src`, ignoring NaN (the `f32::max` fold from `0.0`).
/// Max is exact and order-free, so the AVX2 path returns the same value.
pub(crate) fn absmax(src: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if src.len() >= 32 && matches!(active_backend(), Backend::Avx2Fma) {
        // SAFETY: the Avx2Fma backend implies AVX2 is present.
        return unsafe { absmax_avx2(src, None) };
    }
    src.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// [`absmax`] over the elements of `src` whose `keep` word is all ones
/// (`keep` words are `u32::MAX` or 0).
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn absmax_masked(src: &[f32], keep: &[u32]) -> f32 {
    assert_eq!(src.len(), keep.len(), "mask length mismatch");
    #[cfg(target_arch = "x86_64")]
    if matches!(active_backend(), Backend::Avx2Fma) {
        // SAFETY: the Avx2Fma backend implies AVX2 is present.
        return unsafe { absmax_avx2(src, Some(keep)) };
    }
    src.iter()
        .zip(keep)
        .filter(|&(_, &k)| k != 0)
        .fold(0.0f32, |m, (&v, _)| m.max(v.abs()))
}

/// [`absmax`] / [`absmax_masked`] on AVX2: masked-out lanes become `+0.0`,
/// which never raises a max.
///
/// # Safety
///
/// Requires AVX2 and `keep.len() == src.len()` when given.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn absmax_avx2(src: &[f32], keep: Option<&[u32]>) -> f32 {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_ps(-0.0);
    let mut acc = [_mm256_setzero_ps(); 4];
    let full = src.len() / 32 * 32;
    for i in (0..full).step_by(32) {
        for (j, a) in acc.iter_mut().enumerate() {
            let mut v = _mm256_andnot_ps(sign, _mm256_loadu_ps(src.as_ptr().add(i + 8 * j)));
            if let Some(keep) = keep {
                v = _mm256_and_ps(v, _mm256_loadu_ps(keep.as_ptr().add(i + 8 * j).cast()));
            }
            // `max_ps` returns its second operand when either is NaN, so
            // a NaN lane keeps the accumulator.
            *a = _mm256_max_ps(v, *a);
        }
    }
    let m = _mm256_max_ps(_mm256_max_ps(acc[0], acc[1]), _mm256_max_ps(acc[2], acc[3]));
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), m);
    let mut m = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
    for i in full..src.len() {
        if keep.is_none_or(|k| k[i] != 0) {
            m = m.max(src[i].abs());
        }
    }
    m
}

/// Packs int4 levels (each in `[-8, 7]`) two to a byte: element `2i` in
/// the low nibble, `2i+1` in the high nibble. Odd lengths pad with 0.
///
/// # Panics
///
/// Panics if any level is outside the int4 range.
pub fn pack_i4(q: &[i8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(q.len().div_ceil(2));
    for pair in q.chunks(2) {
        let lo = pair[0];
        let hi = *pair.get(1).unwrap_or(&0);
        assert!(
            (-8..=7).contains(&lo) && (-8..=7).contains(&hi),
            "int4 level out of range: {lo}/{hi}"
        );
        out.push(((lo as u8) & 0x0F) | (((hi as u8) & 0x0F) << 4));
    }
    out
}

/// Unpacks [`pack_i4`] output back to `len` sign-extended int8 levels.
pub fn unpack_i4(packed: &[u8], len: usize) -> Vec<i8> {
    assert!(packed.len() * 2 >= len, "packed buffer too short for {len}");
    let mut out = Vec::with_capacity(len);
    for (i, &byte) in packed.iter().enumerate() {
        // Shift to the top of the byte, then arithmetic-shift back down to
        // sign-extend the nibble.
        out.push(((byte << 4) as i8) >> 4);
        if 2 * i + 1 < len {
            out.push((byte as i8) >> 4);
        }
        if out.len() >= len {
            break;
        }
    }
    out.truncate(len);
    out
}

/// Weight-scale layout for requantization.
#[derive(Debug, Clone, Copy)]
pub enum Scales<'a> {
    /// One scale for the whole weight tensor.
    PerTensor(f32),
    /// One scale per output channel (length `n` of the GEMM).
    PerChannel(&'a [f32]),
}

impl Scales<'_> {
    /// The scale of output channel `j`.
    pub fn at(&self, j: usize) -> f32 {
        match self {
            Scales::PerTensor(s) => *s,
            Scales::PerChannel(s) => s[j],
        }
    }
}

/// Weight rows packed for the integer microkernel: row `r`'s levels as
/// i16 k-pairs, one `u32` word per pair (`2p` in the low half, `2p+1` in
/// the high half; an odd `k` pads the last word with 0).
#[derive(Debug, Clone)]
pub struct PackedRows {
    rows: usize,
    k: usize,
    words: Vec<u32>,
}

impl PackedRows {
    /// Packs `rows × k` row-major int8 levels.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != rows * k`.
    pub fn from_i8(q: &[i8], rows: usize, k: usize) -> Self {
        assert_eq!(q.len(), rows * k, "levels length");
        Self::from_fn(rows, k, |r, c| q[r * k + c])
    }

    /// Packs `rows` int4 rows in [`pack_i4`] form (`ceil(k/2)` bytes per
    /// row), sign-extending each nibble once here.
    ///
    /// # Panics
    ///
    /// Panics if `packed.len() != rows * ceil(k/2)`.
    pub(crate) fn from_i4(packed: &[u8], rows: usize, k: usize) -> Self {
        let row_bytes = k.div_ceil(2);
        assert_eq!(packed.len(), rows * row_bytes, "packed rhs length");
        Self::from_fn(rows, k, |r, c| {
            let byte = packed[r * row_bytes + c / 2];
            if c % 2 == 0 {
                ((byte << 4) as i8) >> 4
            } else {
                (byte as i8) >> 4
            }
        })
    }

    fn from_fn(rows: usize, k: usize, level: impl Fn(usize, usize) -> i8) -> Self {
        let k2 = k.div_ceil(2);
        let mut words = Vec::with_capacity(rows * k2);
        for r in 0..rows {
            for p in 0..k2 {
                let lo = level(r, 2 * p) as i16 as u16 as u32;
                let hi = if 2 * p + 1 < k {
                    level(r, 2 * p + 1) as i16 as u16 as u32
                } else {
                    0
                };
                words.push(lo | (hi << 16));
            }
        }
        Self { rows, k, words }
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Reduction length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The level at row `r`, column `c`.
    pub fn level(&self, r: usize, c: usize) -> i8 {
        let word = self.words[r * self.k.div_ceil(2) + c / 2];
        (word >> (16 * (c % 2))) as u16 as i16 as i8
    }
}

/// Length of one k-pair-interleaved column panel for reduction length `k`.
fn panel_len(k: usize) -> usize {
    k.div_ceil(2) * 2 * STRIP
}

/// The integer GEMM skeleton: `out[rows × positions] = W[rows × k] ·
/// col[k × positions]` over weight rows `row0..row0 + nrows`, one
/// [`STRIP`]-position strip at a time.
///
/// For each strip starting at position `p0` with `count ≤ STRIP` valid
/// positions, `pack(p0, count, panel)` must fill the whole panel
/// (`panel[(p·STRIP + i)·2 + h] = col[2p + h][p0 + i]`, zero for an odd
/// `k`'s missing row; positions `≥ count` may hold any levels), then
/// `store(p0, count, tile)` receives the exact accumulators,
/// `tile[r·STRIP + i]` for row `row0 + r` and position `p0 + i`.
///
/// Scratch is thread-local; `pack` and `store` must not re-enter it.
///
/// # Panics
///
/// Panics if the row range is out of bounds.
pub(crate) fn for_each_strip(
    w: &PackedRows,
    row0: usize,
    nrows: usize,
    positions: usize,
    mut pack: impl FnMut(usize, usize, &mut [i16]),
    mut store: impl FnMut(usize, usize, &[i32]),
) {
    assert!(row0 + nrows <= w.rows, "weight row range out of bounds");
    let k2 = w.k.div_ceil(2);
    let words = &w.words[row0 * k2..(row0 + nrows) * k2];
    let backend = active_backend();
    STRIP_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (panel_buf, tile_buf) = &mut *scratch;
        panel_buf.resize(panel_buf.len().max(panel_len(w.k)), 0);
        tile_buf.resize(tile_buf.len().max(nrows * STRIP), 0);
        let panel = &mut panel_buf[..panel_len(w.k)];
        let tile = &mut tile_buf[..nrows * STRIP];
        let mut p0 = 0;
        while p0 < positions {
            let count = STRIP.min(positions - p0);
            pack(p0, count, panel);
            madd_strip(backend, words, k2, nrows, panel, tile);
            store(p0, count, tile);
            p0 += count;
        }
    });
}

/// One strip of [`for_each_strip`] on the given backend.
fn madd_strip(
    backend: Backend,
    words: &[u32],
    k2: usize,
    nrows: usize,
    panel: &[i16],
    tile: &mut [i32],
) {
    assert!(
        words.len() == nrows * k2 && panel.len() == k2 * 2 * STRIP && tile.len() == nrows * STRIP,
        "strip operand lengths"
    );
    #[cfg(target_arch = "x86_64")]
    if matches!(backend, Backend::Avx2Fma) {
        // SAFETY: the Avx2Fma backend implies AVX2; the assert above fixes
        // every length the kernel indexes.
        unsafe { madd_strip_avx2(words, k2, nrows, panel, tile) };
        return;
    }
    let _ = backend;
    for (r, acc) in tile.chunks_exact_mut(STRIP).enumerate() {
        acc.fill(0);
        let wr = &words[r * k2..(r + 1) * k2];
        for (&word, pairs) in wr.iter().zip(panel.chunks_exact(2 * STRIP)) {
            let (lo, hi) = (word as u16 as i16 as i32, (word >> 16) as u16 as i16 as i32);
            for (a, pair) in acc.iter_mut().zip(pairs.chunks_exact(2)) {
                *a = a.wrapping_add(pair[0] as i32 * lo + pair[1] as i32 * hi);
            }
        }
    }
}

/// AVX2 microkernel: two weight rows share every panel load and keep
/// eight independent `madd` chains in flight; an odd last row runs alone.
///
/// # Safety
///
/// Requires AVX2 and the lengths [`madd_strip`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn madd_strip_avx2(words: &[u32], k2: usize, nrows: usize, panel: &[i16], tile: &mut [i32]) {
    use std::arch::x86_64::*;
    let pp = panel.as_ptr();
    let tp = tile.as_mut_ptr();
    let mut r = 0;
    while r + 2 <= nrows {
        let (w0, w1) = (words.as_ptr().add(r * k2), words.as_ptr().add((r + 1) * k2));
        let mut acc = [_mm256_setzero_si256(); 8];
        for p in 0..k2 {
            let bp = pp.add(p * 2 * STRIP);
            let b = [
                _mm256_loadu_si256(bp.cast()),
                _mm256_loadu_si256(bp.add(16).cast()),
                _mm256_loadu_si256(bp.add(32).cast()),
                _mm256_loadu_si256(bp.add(48).cast()),
            ];
            let x0 = _mm256_set1_epi32(*w0.add(p) as i32);
            let x1 = _mm256_set1_epi32(*w1.add(p) as i32);
            for j in 0..4 {
                acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(b[j], x0));
                acc[4 + j] = _mm256_add_epi32(acc[4 + j], _mm256_madd_epi16(b[j], x1));
            }
        }
        for j in 0..4 {
            _mm256_storeu_si256(tp.add(r * STRIP + 8 * j).cast(), acc[j]);
            _mm256_storeu_si256(tp.add((r + 1) * STRIP + 8 * j).cast(), acc[4 + j]);
        }
        r += 2;
    }
    if r < nrows {
        let w0 = words.as_ptr().add(r * k2);
        let mut acc = [_mm256_setzero_si256(); 4];
        for p in 0..k2 {
            let bp = pp.add(p * 2 * STRIP);
            let x0 = _mm256_set1_epi32(*w0.add(p) as i32);
            for (j, a) in acc.iter_mut().enumerate() {
                let b = _mm256_loadu_si256(bp.add(16 * j).cast());
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(b, x0));
            }
        }
        for (j, a) in acc.iter().enumerate() {
            _mm256_storeu_si256(tp.add(r * STRIP + 8 * j).cast(), *a);
        }
    }
}

/// Packs positions `i0..i0 + count` of a row-major `[m × k]` source (one
/// row per position) into a [`for_each_strip`] panel; a row's k-pairs
/// are adjacent in the source, so each moves as one pair.
fn pack_rows<T: Copy + Into<i16>>(src: &[T], k: usize, i0: usize, count: usize, panel: &mut [i16]) {
    let k2 = k.div_ceil(2);
    for i in 0..count {
        let row = &src[(i0 + i) * k..(i0 + i + 1) * k];
        let mut pairs = row.chunks_exact(2);
        for (p, pair) in (&mut pairs).enumerate() {
            let at = (p * STRIP + i) * 2;
            panel[at..at + 2].copy_from_slice(&[pair[0].into(), pair[1].into()]);
        }
        if let [last] = pairs.remainder() {
            let at = ((k2 - 1) * STRIP + i) * 2;
            panel[at..at + 2].copy_from_slice(&[(*last).into(), 0]);
        }
    }
}

/// Dot-form driver: `C[m×n] = A[m×k] · Wᵀ` with the rows of `A` as
/// positions, transposing each tile into `c`.
fn a_bt<T: Copy + Into<i16>>(a: &[T], w: &PackedRows, c: &mut [i32], m: usize) {
    let (k, n) = (w.k, w.rows);
    for_each_strip(
        w,
        0,
        n,
        m,
        |i0, count, panel| pack_rows(a, k, i0, count, panel),
        |i0, count, tile| {
            for (j, acc) in tile.chunks_exact(STRIP).enumerate() {
                for (i, &v) in acc[..count].iter().enumerate() {
                    c[(i0 + i) * n + j] = v;
                }
            }
        },
    );
}

/// `C[m×n] = A[m×k] · B[n×k]ᵀ` over int8 with exact i32 accumulation.
///
/// Runs on the strip microkernel (AVX2 `madd` when available); scalar and
/// SIMD paths are bit-identical because integer accumulation never rounds.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn igemm_i8_a_bt(a: &[i8], b: &[i8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(c.len(), m * n, "output length");
    a_bt(a, &PackedRows::from_i8(b, n, k), c, m);
}

/// [`igemm_i8_a_bt`] with `b` stored as packed int4 rows: row `j` occupies
/// `ceil(k/2)` bytes starting at `j * ceil(k/2)`.
///
/// # Panics
///
/// Panics if slice lengths disagree with the dimensions.
pub fn igemm_i4_a_bt(a: &[i8], b_packed: &[u8], c: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(c.len(), m * n, "output length");
    a_bt(a, &PackedRows::from_i4(b_packed, n, k), c, m);
}

/// Integer linear layer: `y[m × rows] = requantize(q(x) · Wᵀ) + bias`,
/// with `x` (`m × k`) quantized to `±ACT_LEVELS` under one dynamic absmax
/// scale. Each output is `acc as f32 · (a_scale · w_scale(j)) + bias[j]`,
/// the same operations as [`requantize`] followed by a bias add.
///
/// # Panics
///
/// Panics on length mismatches.
pub fn linear_int(
    x: &[f32],
    m: usize,
    w: &PackedRows,
    w_scales: Scales<'_>,
    bias: &[f32],
    y: &mut [f32],
) {
    let (k, n) = (w.k, w.rows);
    assert_eq!(x.len(), m * k, "input length");
    assert_eq!(y.len(), m * n, "output length");
    assert_eq!(bias.len(), n, "bias length");
    let a_scale = absmax(x) / ACT_LEVELS as f32;
    ACT_SCRATCH.with(|scratch| {
        let mut qx = scratch.borrow_mut();
        qx.resize(x.len(), 0);
        if k > 0 {
            RowQuantizer::new(a_scale, -ACT_LEVELS, ACT_LEVELS).rows(x, k, &mut qx, k);
        }
        let qx = &qx[..];
        for_each_strip(
            w,
            0,
            n,
            m,
            |i0, count, panel| pack_rows(qx, k, i0, count, panel),
            |i0, count, tile| {
                for (j, acc) in tile.chunks_exact(STRIP).enumerate() {
                    let scale = a_scale * w_scales.at(j);
                    for (i, &v) in acc[..count].iter().enumerate() {
                        y[(i0 + i) * n + j] = v as f32 * scale + bias[j];
                    }
                }
            },
        );
    });
}

/// Converts an i32 accumulator matrix back to f32: `out[i][j] = acc[i][j]
/// · a_scale · w_scale(j)`, where column `j` is output channel `j`.
///
/// # Panics
///
/// Panics on length mismatches (including per-channel scale length ≠ `n`).
pub fn requantize(acc: &[i32], n: usize, a_scale: f32, w_scales: Scales<'_>, out: &mut [f32]) {
    assert_eq!(acc.len(), out.len(), "requantize length mismatch");
    assert!(n > 0 && acc.len().is_multiple_of(n), "bad column count");
    if let Scales::PerChannel(s) = w_scales {
        assert_eq!(s.len(), n, "per-channel scale length");
    }
    for (row_acc, row_out) in acc.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
        for j in 0..n {
            row_out[j] = row_acc[j] as f32 * (a_scale * w_scales.at(j));
        }
    }
}

/// One output row of an integer conv: `out[i] = acc[i] as f32 · scale`
/// (`+ bias` when present), the same operations as [`requantize`] and a
/// following bias add.
pub(crate) fn requantize_row(acc: &[i32], scale: f32, bias: Option<f32>, out: &mut [f32]) {
    match bias {
        Some(b) => {
            for (o, &a) in out.iter_mut().zip(acc) {
                *o = a as f32 * scale + b;
            }
        }
        None => {
            for (o, &a) in out.iter_mut().zip(acc) {
                *o = a as f32 * scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn quantize_matches_fake_quant_op_order() {
        let w = fill(257, 9);
        let scale = 0.0123f32;
        let q = quantize_i8(&w, scale, I8_LEVELS.0, I8_LEVELS.1);
        for (&x, &qv) in w.iter().zip(&q) {
            // Reproduce fake_quant_symmetric exactly.
            let inv = 1.0 / scale;
            let expect = (x * inv).round().clamp(-128.0, 127.0);
            assert_eq!(qv as f32, expect);
            // Bit-for-bit, except -0.0 normalizes to +0.0 through i8.
            let dq = qv as f32 * scale;
            let reference = expect * scale;
            if reference == 0.0 {
                assert_eq!(dq, 0.0);
            } else {
                assert_eq!(dq.to_bits(), reference.to_bits());
            }
        }
    }

    /// Quantizers of both paths: scalar, and AVX2 when the host has it.
    fn quantizers(scale: f32, qmin: i32, qmax: i32) -> Vec<RowQuantizer> {
        let mut v = vec![RowQuantizer {
            avx2: false,
            ..RowQuantizer::new(scale, qmin, qmax)
        }];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            v.push(RowQuantizer {
                avx2: true,
                ..RowQuantizer::new(scale, qmin, qmax)
            });
        }
        v
    }

    #[test]
    fn vector_quantizer_matches_quantize_i8_on_edge_cases() {
        let edges = [
            0.5f32,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999997,
            -0.49999997,
            8388608.0,
            -8388609.0,
            1.0e10,
            -3.0e9,
            127.5,
            -128.5,
            300.0,
            -300.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            -0.0,
            0.0,
            126.49999,
            -7.5,
        ];
        for (scale, (qmin, qmax)) in [(1.0f32, I8_LEVELS), (1.0, (-127, 127)), (0.5, I4_LEVELS)] {
            // Odd lengths and offsets put every edge value in a vector
            // lane, the masked tail, and the scalar path.
            for len in [1usize, 3, 7, 9, 13, 17, 23, 25] {
                for offset in 0..edges.len() {
                    let src: Vec<f32> = (0..len)
                        .map(|i| edges[(offset + i) % edges.len()])
                        .collect();
                    let want: Vec<i16> = quantize_i8(&src, scale, qmin, qmax)
                        .into_iter()
                        .map(i16::from)
                        .collect();
                    let dispatched = RowQuantizer::new(scale, qmin, qmax);
                    for q in quantizers(scale, qmin, qmax)
                        .into_iter()
                        .chain([dispatched])
                    {
                        let mut got = vec![99i16; len];
                        q.rows(&src, len, &mut got, len);
                        assert_eq!(got, want, "avx2={} len {len} offset {offset}", q.avx2);
                    }
                }
            }
        }
    }

    #[test]
    fn row_quantizer_writes_only_its_strided_rows() {
        let src = fill(3 * 5, 12);
        let want = quantize_i8(&src, 0.004, -127, 127);
        for q in quantizers(0.004, -127, 127) {
            let mut dst = vec![i16::MIN; 3 * 7];
            q.rows(&src, 5, &mut dst, 7);
            for r in 0..3 {
                for c in 0..7 {
                    let got = dst[r * 7 + c];
                    if c < 5 {
                        assert_eq!(got, want[r * 5 + c] as i16, "avx2={} ({r},{c})", q.avx2);
                    } else {
                        assert_eq!(got, i16::MIN, "avx2={} gap ({r},{c}) written", q.avx2);
                    }
                }
            }
        }
    }

    #[test]
    fn absmax_ignores_nan_and_masked_elements() {
        let mut x = fill(77, 13);
        x[3] = f32::NAN;
        x[40] = -9.0;
        x[70] = 7.0;
        assert_eq!(absmax(&x), 9.0);
        let keep: Vec<u32> = (0..77)
            .map(|i| if i == 40 { 0 } else { u32::MAX })
            .collect();
        assert_eq!(absmax_masked(&x, &keep), 7.0);
        assert_eq!(absmax(&[f32::NAN; 40]), 0.0);
    }

    #[test]
    fn zero_scale_quantizes_to_zero() {
        assert_eq!(quantize_i8(&[1.0, -2.0], 0.0, -128, 127), vec![0, 0]);
        for quantizer in quantizers(0.0, -128, 127) {
            let mut q = [5i16; 3];
            quantizer.rows(&[1.0, -2.0, f32::NAN], 3, &mut q, 3);
            assert_eq!(q, [0, 0, 0]);
        }
    }

    #[test]
    fn int4_pack_roundtrip() {
        let q: Vec<i8> = (-8..=7).chain([-8, 7, 0]).collect();
        let packed = pack_i4(&q);
        assert_eq!(unpack_i4(&packed, q.len()), q);
        // Odd length.
        let odd = vec![-8i8, 7, 3];
        assert_eq!(unpack_i4(&pack_i4(&odd), 3), odd);
    }

    #[test]
    fn packed_rows_roundtrip_levels() {
        let (rows, k) = (3, 5);
        let q: Vec<i8> = (0..rows * k).map(|i| (i * 37 % 256) as u8 as i8).collect();
        let packed = PackedRows::from_i8(&q, rows, k);
        for r in 0..rows {
            for c in 0..k {
                assert_eq!(packed.level(r, c), q[r * k + c], "({r},{c})");
            }
        }
    }

    #[test]
    fn i8_gemm_matches_wide_reference() {
        let (m, k, n) = (5, 67, 9);
        let a = quantize_i8(&fill(m * k, 1), 0.01, -128, 127);
        let b = quantize_i8(&fill(n * k, 2), 0.01, -128, 127);
        let mut c = vec![0i32; m * n];
        igemm_i8_a_bt(&a, &b, &mut c, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let expect: i64 = (0..k)
                    .map(|p| a[i * k + p] as i64 * b[j * k + p] as i64)
                    .sum();
                assert_eq!(c[i * n + j] as i64, expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn i4_gemm_matches_unpacked_i8() {
        for k in [1usize, 2, 15, 16, 33] {
            let (m, n) = (3, 4);
            let a = quantize_i8(&fill(m * k, 3), 0.05, -128, 127);
            let q4 = quantize_i8(&fill(n * k, 4), 0.1, I4_LEVELS.0, I4_LEVELS.1);
            let mut packed = Vec::new();
            for row in q4.chunks(k) {
                packed.extend(pack_i4(row));
            }
            let mut c4 = vec![0i32; m * n];
            igemm_i4_a_bt(&a, &packed, &mut c4, m, k, n);
            let mut c8 = vec![0i32; m * n];
            igemm_i8_a_bt(&a, &q4, &mut c8, m, k, n);
            assert_eq!(c4, c8, "k={k}");
        }
    }

    #[test]
    fn linear_int_matches_dot_form_and_requantize() {
        let (m, k, n) = (37, 19, 5);
        let x = fill(m * k, 5);
        let q = quantize_i8(&fill(n * k, 6), 0.01, -128, 127);
        let w_scales = [0.01f32, 0.02, 0.03, 0.04, 0.05];
        let bias = [0.5f32, -0.25, 0.0, 1.0, -1.0];
        let mut y = vec![0.0f32; m * n];
        let w = PackedRows::from_i8(&q, n, k);
        linear_int(&x, m, &w, Scales::PerChannel(&w_scales), &bias, &mut y);
        let a_scale = x.iter().fold(0.0f32, |m, &v| m.max(v.abs())) / 127.0;
        let qx = quantize_i8(&x, a_scale, -127, 127);
        let mut acc = vec![0i32; m * n];
        igemm_i8_a_bt(&qx, &q, &mut acc, m, k, n);
        let mut want = vec![0.0f32; m * n];
        requantize(&acc, n, a_scale, Scales::PerChannel(&w_scales), &mut want);
        for (i, (got, want)) in y.iter().zip(&want).enumerate() {
            let want = want + bias[i % n];
            assert_eq!(got.to_bits(), want.to_bits(), "idx {i}");
        }
    }

    #[test]
    fn requantize_per_tensor_and_per_channel() {
        let acc = vec![10i32, -20, 30, -40];
        let mut out = vec![0.0f32; 4];
        requantize(&acc, 2, 0.5, Scales::PerTensor(0.1), &mut out);
        assert_eq!(out, vec![0.5, -1.0, 1.5, -2.0]);
        requantize(&acc, 2, 0.5, Scales::PerChannel(&[0.1, 0.2]), &mut out);
        assert_eq!(out, vec![0.5, -2.0, 1.5, -4.0]);
    }
}
