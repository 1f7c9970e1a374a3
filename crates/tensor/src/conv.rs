//! 2-D convolution kernels (forward and backward) via im2col.
//!
//! Supports strides, symmetric zero padding, and grouped/depthwise
//! convolution — everything the mini model zoo needs — in f32
//! ([`conv2d_forward`]) and on integer levels ([`conv2d_forward_int`]).

use crate::igemm::{self, PackedRows, RowQuantizer, Scales, ACT_LEVELS, STRIP};
use crate::kernel;
use crate::Tensor;
use std::cell::RefCell;

thread_local! {
    /// Forward-pass scratch (column matrix + GEMM output) reused across
    /// calls: the suffix-forward hot path runs thousands of convolutions
    /// per second, and allocating + zeroing a fresh multi-hundred-KB
    /// column matrix each call costs more than the GEMM for the small
    /// shapes in the mini model zoo. Both buffers are fully overwritten
    /// before being read, so reuse never leaks data between calls.
    static FWD_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Integer-forward staging (one quantized padded image and one
    /// activation scale per sample of a chunk), reused across calls.
    static INT_SCRATCH: RefCell<(Vec<i16>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Grows `buf` if needed and hands back exactly `len` elements. Contents
/// are unspecified — callers must fully overwrite before reading.
fn scratch_slice(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Widest padded input row the stride-1 im2col fast path stages on the
/// stack; wider inputs fall back to the general segmented loop.
const PADDED_ROW_MAX: usize = 256;

/// Rounds the shared column-matrix row stride up to an odd number of
/// 64-byte cache lines. A batch-of-16 stride like `16·16·16` floats is
/// 16 KiB — a power-of-two stride maps every GEMM B-panel row onto the
/// same L1 set-group, so the strip the skinny kernel wants resident
/// thrashes on conflict misses. An odd line stride cycles the rows
/// through all sets. Padding columns are never read back (the scatter
/// only copies each sample's real `ho·wo` segment), and the GEMM just
/// computes a few throwaway columns over whatever finite values the
/// scratch held.
fn pad_stride(len: usize) -> usize {
    let lines = len.div_ceil(16);
    (lines | 1) * 16
}

/// Copy of `len` f32s that turns the common small widths into straight
/// register moves instead of a runtime-length `memcpy` call — the im2col
/// inner loop issues four such copies per staged row, so the dispatch
/// overhead of the libc call dominates at `wo ∈ {4, 8, 16}`.
///
/// # Safety
///
/// `src` and `dst` must be valid for `len` reads/writes and disjoint.
#[inline(always)]
unsafe fn copy_floats(src: *const f32, dst: *mut f32, len: usize) {
    match len {
        4 => dst
            .cast::<[f32; 4]>()
            .write_unaligned(src.cast::<[f32; 4]>().read_unaligned()),
        8 => dst
            .cast::<[f32; 8]>()
            .write_unaligned(src.cast::<[f32; 8]>().read_unaligned()),
        16 => dst
            .cast::<[f32; 16]>()
            .write_unaligned(src.cast::<[f32; 16]>().read_unaligned()),
        32 => dst
            .cast::<[f32; 32]>()
            .write_unaligned(src.cast::<[f32; 32]>().read_unaligned()),
        _ => std::ptr::copy_nonoverlapping(src, dst, len),
    }
}

/// Zero-fill counterpart of [`copy_floats`].
///
/// # Safety
///
/// `dst` must be valid for `len` writes.
#[inline(always)]
unsafe fn zero_floats(dst: *mut f32, len: usize) {
    match len {
        4 => dst.cast::<[f32; 4]>().write_unaligned([0.0; 4]),
        8 => dst.cast::<[f32; 8]>().write_unaligned([0.0; 8]),
        16 => dst.cast::<[f32; 16]>().write_unaligned([0.0; 16]),
        32 => dst.cast::<[f32; 32]>().write_unaligned([0.0; 32]),
        _ => std::ptr::write_bytes(dst, 0, len),
    }
}

/// The implicit-im2col walk shared by the fused float conv and the
/// integer conv: one (sample, group) slice staged into a zero-padded
/// image (`cg` channels of `hp × wp`), plus one tap offset per
/// column-matrix row, so that
/// `col[r][(oy, ox)] = image[taps[r] + position(oy, ox)]`. The column
/// matrix itself is never materialized.
struct PaddedWalk {
    cg: usize,
    h: usize,
    w: usize,
    pad: usize,
    stride: usize,
    hp: usize,
    wp: usize,
    taps: Vec<usize>,
}

impl PaddedWalk {
    fn new(spec: &Conv2dSpec, cg: usize, h: usize, w: usize) -> Self {
        let (k, pad) = (spec.kernel, spec.padding);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let mut taps = Vec::with_capacity(cg * k * k);
        for c in 0..cg {
            for ky in 0..k {
                for kx in 0..k {
                    taps.push(c * hp * wp + ky * wp + kx);
                }
            }
        }
        Self {
            cg,
            h,
            w,
            pad,
            stride: spec.stride,
            hp,
            wp,
            taps,
        }
    }

    /// Elements of one staged image.
    fn image_len(&self) -> usize {
        self.cg * self.hp * self.wp
    }

    /// Offset of output position `(oy, ox)`'s window within the image.
    fn position(&self, oy: usize, ox: usize) -> usize {
        (oy * self.wp + ox) * self.stride
    }

    /// Writes each channel's interior through `channel(src, dst)`: `src`
    /// is the channel's `h` rows of `w`, `dst` starts at its first
    /// interior pixel and takes row `iy` at `iy·wp`. The border is never
    /// written, so a zeroed image stays zero-padded across restagings.
    fn stage<S, D>(&self, src: &[S], image: &mut [D], mut channel: impl FnMut(&[S], &mut [D])) {
        let (h, w) = (self.h, self.w);
        for c in 0..self.cg {
            let dst = (c * self.hp + self.pad) * self.wp + self.pad;
            channel(
                &src[c * h * w..(c + 1) * h * w],
                &mut image[dst..dst + (h - 1) * self.wp + w],
            );
        }
    }
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub padding: usize,
    /// Number of groups (`1` = dense, `in_channels` = depthwise).
    pub groups: usize,
}

impl Conv2dSpec {
    /// Creates a dense (single-group) convolution spec.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups: 1,
        }
    }

    /// Returns the spec with `groups` set, validating divisibility.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts.
    pub fn with_groups(mut self, groups: usize) -> Self {
        assert!(groups > 0, "groups must be positive");
        assert!(
            self.in_channels.is_multiple_of(groups) && self.out_channels.is_multiple_of(groups),
            "groups={groups} must divide in_channels={} and out_channels={}",
            self.in_channels,
            self.out_channels
        );
        self.groups = groups;
        self
    }

    /// Spatial output size for a given input size.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn out_size(&self, input: usize) -> usize {
        let padded = input + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} does not fit input {input} with padding {}",
            self.kernel,
            self.padding
        );
        (padded - self.kernel) / self.stride + 1
    }

    /// Shape of the weight tensor: `[out_channels, in_channels/groups, k, k]`.
    pub fn weight_shape(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels / self.groups,
            self.kernel,
            self.kernel,
        ]
    }

    /// Number of weight elements.
    pub fn weight_numel(&self) -> usize {
        self.weight_shape().iter().product()
    }
}

/// Unfolds one sample's group-slice into a `[cg·k·k, ho·wo]` column matrix.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    input: &[f32],
    cg: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    ho: usize,
    wo: usize,
    col: &mut [f32],
) {
    debug_assert_eq!(col.len(), cg * spec.kernel * spec.kernel * ho * wo);
    im2col_ld(input, cg, h, w, spec, ho, wo, col, ho * wo);
}

/// [`im2col`] into a wider matrix: writes the `[cg·k·k, ho·wo]` columns of
/// one sample starting at `col[0]` with row stride `ld`, so a batch of
/// samples can share one `[cg·k·k, n·ho·wo]` matrix (sample `s` passes
/// `&mut wide[s*ho*wo..]`) and the convolution becomes a single wide GEMM
/// per group instead of one skinny GEMM per sample.
#[allow(clippy::too_many_arguments)]
pub fn im2col_ld(
    input: &[f32],
    cg: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    ho: usize,
    wo: usize,
    col: &mut [f32],
    ld: usize,
) {
    let k = spec.kernel;
    let stride = spec.stride;
    let pad = spec.padding;
    debug_assert!(ld >= ho * wo, "row stride shorter than one sample");
    debug_assert!(col.len() >= (cg * k * k - 1) * ld + ho * wo);
    // Stride-1 fast path: stage each input row once into a zero-padded
    // buffer, then every kx-row of the column matrix is one full-width
    // copy (`dst[ox] = prow[ox + kx]`) — no per-segment edge fills. Pure
    // copies, so output is bitwise identical to the general path.
    if stride == 1 && w + 2 * pad <= PADDED_ROW_MAX {
        assert!(input.len() >= cg * h * w, "input slice too short");
        assert!(
            col.len() >= (cg * k * k - 1) * ld + ho * wo,
            "column slice too short"
        );
        let mut prow = [0.0f32; PADDED_ROW_MAX];
        // SAFETY: every pointer offset below is within the bounds the two
        // asserts establish: source rows are `iy < h`, destination rows
        // are `row0 + kx < cg·k·k` at column `oy·wo + wo <= ld`, and
        // `kx + wo <= w + 2·pad` inside the staging buffer.
        unsafe {
            let cp = col.as_mut_ptr();
            for c in 0..cg {
                let src_c = input.as_ptr().add(c * h * w);
                for ky in 0..k {
                    let row0 = (c * k + ky) * k;
                    for oy in 0..ho {
                        let iy = (oy + ky) as isize - pad as isize;
                        let dbase = cp.add(row0 * ld + oy * wo);
                        if iy < 0 || iy >= h as isize {
                            for kx in 0..k {
                                zero_floats(dbase.add(kx * ld), wo);
                            }
                            continue;
                        }
                        copy_floats(src_c.add(iy as usize * w), prow.as_mut_ptr().add(pad), w);
                        for kx in 0..k {
                            copy_floats(prow.as_ptr().add(kx), dbase.add(kx * ld), wo);
                        }
                    }
                }
            }
        }
        return;
    }
    let mut row = 0usize;
    for c in 0..cg {
        for ky in 0..k {
            for kx in 0..k {
                let base = row * ld;
                row += 1;
                // `ix = ox·stride + off`; the in-bounds ox range
                // [lo, hi) is computed once so the inner loop is
                // branch-free (and a straight memcpy when stride = 1).
                let off = kx as isize - spec.padding as isize;
                let lo = if off >= 0 {
                    0
                } else {
                    ((-off) as usize).div_ceil(stride).min(wo)
                };
                let hi = if (w as isize) <= off {
                    lo
                } else {
                    ((w as isize - off) as usize).div_ceil(stride).clamp(lo, wo)
                };
                for oy in 0..ho {
                    let iy = (oy * stride + ky) as isize - spec.padding as isize;
                    let dst = &mut col[base + oy * wo..base + oy * wo + wo];
                    if iy < 0 || iy >= h as isize {
                        dst.fill(0.0);
                        continue;
                    }
                    let src = &input[c * h * w + iy as usize * w..][..w];
                    dst[..lo].fill(0.0);
                    dst[hi..].fill(0.0);
                    if stride == 1 {
                        let s0 = (lo as isize + off) as usize;
                        dst[lo..hi].copy_from_slice(&src[s0..s0 + (hi - lo)]);
                    } else {
                        for ox in lo..hi {
                            dst[ox] = src[((ox * stride) as isize + off) as usize];
                        }
                    }
                }
            }
        }
    }
}

/// Accumulates a column matrix back into a spatial gradient (adjoint of
/// [`im2col`]).
#[allow(clippy::too_many_arguments)]
fn col2im(
    col: &[f32],
    cg: usize,
    h: usize,
    w: usize,
    spec: &Conv2dSpec,
    ho: usize,
    wo: usize,
    out: &mut [f32],
) {
    let k = spec.kernel;
    let mut row = 0usize;
    for c in 0..cg {
        for ky in 0..k {
            for kx in 0..k {
                let base = row * ho * wo;
                row += 1;
                for oy in 0..ho {
                    let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ox in 0..wo {
                        let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        out[c * h * w + iy * w + ix as usize] += col[base + oy * wo + ox];
                    }
                }
            }
        }
    }
}

/// Fused implicit-im2col convolution for the AVX2 backend: stages each
/// sample's group-slice into a small zero-padded image and runs the GEMM
/// microkernel straight out of it through a precomputed offsets table —
/// the 9×-inflated column matrix is never materialized. Stride-1 only;
/// each output element accumulates its `cg·k·k` terms in ascending order
/// (the same order as the scalar reference, with FMA rounding).
#[cfg(target_arch = "x86_64")]
mod fused {
    use super::{copy_floats, Conv2dSpec, PaddedWalk, Tensor};
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    thread_local! {
        /// Padded-image staging, reused across calls.
        static STAGE: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// Whether [`run`] supports this geometry (caller has already checked
    /// that the AVX2 backend is active).
    pub(super) fn supported(spec: &Conv2dSpec, wo: usize, ho: usize) -> bool {
        spec.stride == 1 && matches!(wo, 4 | 8 | 16) && (wo == 16 || ho.is_multiple_of(2))
    }

    /// Runs the fused convolution. Output tensor must be zero-filled;
    /// every output element is written exactly once.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run(
        input: &Tensor,
        weight: &Tensor,
        out: &mut Tensor,
        spec: &Conv2dSpec,
        n: usize,
        cin: usize,
        h: usize,
        w: usize,
        ho: usize,
        wo: usize,
    ) {
        let g = spec.groups;
        let (cg, cg_out) = (cin / g, spec.out_channels / g);
        let walk = PaddedWalk::new(spec, cg, h, w);
        let (wp, off) = (walk.wp, &walk.taps[..]);
        let kk = off.len();
        let howo = ho * wo;
        STAGE.with(|stage| {
            let mut padded = stage.borrow_mut();
            padded.clear();
            padded.resize(walk.image_len(), 0.0);
            let wdat = weight.data();
            let indat = input.data();
            let od = out.data_mut();
            for s in 0..n {
                for gi in 0..g {
                    let src = &indat[(s * cin + gi * cg) * h * w..][..cg * h * w];
                    walk.stage(src, &mut padded, |rows, dst| {
                        for (iy, row) in rows.chunks_exact(w).enumerate() {
                            // SAFETY: `stage` hands over `h` source rows and
                            // a destination holding `h` rows `wp` apart.
                            unsafe { copy_floats(row.as_ptr(), dst.as_mut_ptr().add(iy * wp), w) }
                        }
                    });
                    let out_base = (s * spec.out_channels + gi * cg_out) * howo;
                    let mut oc = 0;
                    // SAFETY: AVX2+FMA availability is the caller's
                    // dispatch condition; offsets stay within the staged
                    // image (max term `off[kk-1] + (ho-1)·wp + wo` equals
                    // the buffer length for stride 1).
                    unsafe {
                        while oc + 4 <= cg_out {
                            let wrow = wdat.as_ptr().add((gi * cg_out + oc) * kk);
                            let dst = od.as_mut_ptr().add(out_base + oc * howo);
                            rows4(wrow, kk, &padded, off, wp, ho, wo, dst, howo);
                            oc += 4;
                        }
                        while oc < cg_out {
                            let wrow = wdat.as_ptr().add((gi * cg_out + oc) * kk);
                            let dst = od.as_mut_ptr().add(out_base + oc * howo);
                            rows1(wrow, kk, &padded, off, wp, ho, wo, dst);
                            oc += 1;
                        }
                    }
                }
            }
        });
    }

    /// Four output channels at once over the staged image.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA; `w` valid for 4 rows of `kk`, `dst` for 4 rows
    /// of `ho·wo` at stride `dstride`; offsets in bounds per [`run`].
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows4(
        w: *const f32,
        kk: usize,
        padded: &[f32],
        off: &[usize],
        wp: usize,
        ho: usize,
        wo: usize,
        dst: *mut f32,
        dstride: usize,
    ) {
        let pd = padded.as_ptr();
        let z = _mm256_setzero_ps();
        let zx = _mm_setzero_ps();
        match wo {
            16 => {
                for oy in 0..ho {
                    let oyw = oy * wp;
                    let mut acc = [z; 8];
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let b0 = _mm256_loadu_ps(bp);
                        let b1 = _mm256_loadu_ps(bp.add(8));
                        for r in 0..4 {
                            let av = _mm256_broadcast_ss(&*w.add(r * kk + p));
                            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                        }
                    }
                    for r in 0..4 {
                        let d = dst.add(r * dstride + oy * wo);
                        _mm256_storeu_ps(d, acc[2 * r]);
                        _mm256_storeu_ps(d.add(8), acc[2 * r + 1]);
                    }
                }
            }
            8 => {
                let mut oy = 0;
                while oy < ho {
                    let oyw = oy * wp;
                    let mut acc = [z; 8];
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let b0 = _mm256_loadu_ps(bp);
                        let b1 = _mm256_loadu_ps(bp.add(wp));
                        for r in 0..4 {
                            let av = _mm256_broadcast_ss(&*w.add(r * kk + p));
                            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                        }
                    }
                    for r in 0..4 {
                        let d = dst.add(r * dstride + oy * wo);
                        _mm256_storeu_ps(d, acc[2 * r]);
                        _mm256_storeu_ps(d.add(wo), acc[2 * r + 1]);
                    }
                    oy += 2;
                }
            }
            _ => {
                let mut oy = 0;
                while oy < ho {
                    let oyw = oy * wp;
                    let mut acc = [zx; 8];
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let b0 = _mm_loadu_ps(bp);
                        let b1 = _mm_loadu_ps(bp.add(wp));
                        for r in 0..4 {
                            let av = _mm_set1_ps(*w.add(r * kk + p));
                            acc[2 * r] = _mm_add_ps(acc[2 * r], _mm_mul_ps(av, b0));
                            acc[2 * r + 1] = _mm_add_ps(acc[2 * r + 1], _mm_mul_ps(av, b1));
                        }
                    }
                    for r in 0..4 {
                        let d = dst.add(r * dstride + oy * wo);
                        _mm_storeu_ps(d, acc[2 * r]);
                        _mm_storeu_ps(d.add(wo), acc[2 * r + 1]);
                    }
                    oy += 2;
                }
            }
        }
    }

    /// Single-channel remainder of [`rows4`].
    ///
    /// # Safety
    ///
    /// Same contract as [`rows4`] with one weight/output row.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn rows1(
        w: *const f32,
        kk: usize,
        padded: &[f32],
        off: &[usize],
        wp: usize,
        ho: usize,
        wo: usize,
        dst: *mut f32,
    ) {
        let pd = padded.as_ptr();
        for oy in 0..ho {
            let oyw = oy * wp;
            match wo {
                16 => {
                    let mut a0 = _mm256_setzero_ps();
                    let mut a1 = _mm256_setzero_ps();
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let bp = pd.add(o + oyw);
                        let av = _mm256_broadcast_ss(&*w.add(p));
                        a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), a0);
                        a1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(8)), a1);
                    }
                    let d = dst.add(oy * wo);
                    _mm256_storeu_ps(d, a0);
                    _mm256_storeu_ps(d.add(8), a1);
                }
                8 => {
                    let mut a0 = _mm256_setzero_ps();
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let av = _mm256_broadcast_ss(&*w.add(p));
                        a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pd.add(o + oyw)), a0);
                    }
                    _mm256_storeu_ps(dst.add(oy * wo), a0);
                }
                _ => {
                    let mut a0 = _mm_setzero_ps();
                    for (p, &o) in off.iter().enumerate().take(kk) {
                        let av = _mm_set1_ps(*w.add(p));
                        a0 = _mm_add_ps(a0, _mm_mul_ps(av, _mm_loadu_ps(pd.add(o + oyw))));
                    }
                    _mm_storeu_ps(dst.add(oy * wo), a0);
                }
            }
        }
    }
}

/// Convolution forward pass.
///
/// `input` is `[N, Cin, H, W]`, `weight` is `[Cout, Cin/g, k, k]`, `bias` is
/// `[Cout]` (optional). Returns `[N, Cout, Ho, Wo]`.
///
/// # Panics
///
/// Panics on any shape inconsistency with `spec`.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Tensor {
    let (n, cin, h, w) = nchw(input);
    assert_eq!(
        cin, spec.in_channels,
        "input channels {cin} != spec {}",
        spec.in_channels
    );
    assert_eq!(
        weight.shape().dims(),
        &spec.weight_shape(),
        "weight shape mismatch for {spec:?}"
    );
    if let Some(b) = bias {
        assert_eq!(b.numel(), spec.out_channels, "bias length mismatch");
    }
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let g = spec.groups;
    let (cg_in, cg_out) = (cin / g, spec.out_channels / g);
    let k = spec.kernel;
    let col_rows = cg_in * k * k;
    let howo = ho * wo;
    // All samples share one wide column matrix (`ld = n·ho·wo`), so each
    // group runs a single wide GEMM instead of one skinny GEMM per sample.
    // Every output element's reduction order over `col_rows` is unchanged,
    // so results are bitwise identical to the per-sample formulation on
    // the scalar path.
    #[cfg(target_arch = "x86_64")]
    if matches!(kernel::active_backend(), crate::Backend::Avx2Fma) && fused::supported(spec, wo, ho)
    {
        let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
        fused::run(input, weight, &mut out, spec, n, cin, h, w, ho, wo);
        add_bias(&mut out, bias, spec, n, ho * wo);
        return out;
    }
    // Samples are processed in chunks sized so the shared column matrix
    // stays L2-resident (≈96 KiB): im2col writes it and the GEMM reads it
    // straight back while hot. One wide GEMM per (group, chunk) instead
    // of one skinny GEMM per sample.
    let chunk = (96 * 1024 / (col_rows * howo * 4)).clamp(1, n.max(1));
    let ld = pad_stride(chunk * howo);
    let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
    let wdat = weight.data();
    FWD_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (col_buf, gemm_buf) = &mut *scratch;
        let col = scratch_slice(col_buf, col_rows * ld);
        let gemm_out = scratch_slice(gemm_buf, cg_out * ld);
        let mut s0 = 0usize;
        while s0 < n {
            let sc = chunk.min(n - s0);
            for gi in 0..g {
                for si in 0..sc {
                    let s = s0 + si;
                    let in_s = &input.data()[s * cin * h * w..(s + 1) * cin * h * w];
                    im2col_ld(
                        &in_s[gi * cg_in * h * w..],
                        cg_in,
                        h,
                        w,
                        spec,
                        ho,
                        wo,
                        &mut col[si * howo..],
                        ld,
                    );
                }
                let w_g = &wdat[gi * cg_out * col_rows..(gi + 1) * cg_out * col_rows];
                // gemm_out[oc][si·howo + p] = Σ_r w_g[oc][r] * col[r][si·howo + p]
                kernel::sgemm_overwrite(w_g, col, gemm_out, cg_out, col_rows, ld, false, false);
                let od = out.data_mut();
                for si in 0..sc {
                    for oc in 0..cg_out {
                        let dst = ((s0 + si) * spec.out_channels + gi * cg_out + oc) * howo;
                        let src = oc * ld + si * howo;
                        od[dst..dst + howo].copy_from_slice(&gemm_out[src..src + howo]);
                    }
                }
            }
            s0 += sc;
        }
    });
    add_bias(&mut out, bias, spec, n, ho * wo);
    out
}

/// Adds the per-channel bias over all spatial positions.
fn add_bias(out: &mut Tensor, bias: Option<&Tensor>, spec: &Conv2dSpec, n: usize, howo: usize) {
    if let Some(b) = bias {
        let bd = b.data();
        let od = out.data_mut();
        for s in 0..n {
            for (oc, &bv) in bd.iter().enumerate() {
                let base = (s * spec.out_channels + oc) * howo;
                for o in &mut od[base..base + howo] {
                    *o += bv;
                }
            }
        }
    }
}

/// Integer convolution forward pass: the same result as an f32 im2col
/// whose columns are quantized per (sample, group) to `±ACT_LEVELS` under
/// their absmax scale, multiplied against `weight`'s levels with exact
/// i32 accumulation, requantized by `a_scale · w_scale(oc)` and biased.
///
/// `input` is `[N, Cin, H, W]`; `weight` holds `[Cout, Cin/g·k·k]` levels
/// with `w_scales` per tensor or per output channel. Each (sample, group)
/// slice is quantized **once** into a zero-padded i16 image, and the
/// microkernel's column panels are gathered straight from it through the
/// same implicit-im2col walk as the fused float conv. The activation
/// scale is the absmax over the pixels the conv reads, which is the whole
/// slice except where the kernel skips pixels (kernel < stride, or an
/// unpadded stride that leaves trailing rows/columns unread).
///
/// # Panics
///
/// Panics on any shape inconsistency with `spec`.
pub fn conv2d_forward_int(
    input: &Tensor,
    weight: &PackedRows,
    w_scales: Scales<'_>,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Tensor {
    let (n, cin, h, w) = nchw(input);
    assert_eq!(
        cin, spec.in_channels,
        "input channels {cin} != spec {}",
        spec.in_channels
    );
    let (cout, g) = (spec.out_channels, spec.groups);
    assert_eq!(
        (weight.rows(), weight.k()),
        (cout, spec.weight_numel() / cout),
        "weight shape mismatch for {spec:?}"
    );
    if let Some(b) = bias {
        assert_eq!(b.numel(), cout, "bias length mismatch");
    }
    let (ho, wo) = (spec.out_size(h), spec.out_size(w));
    let howo = ho * wo;
    let (cg_in, cg_out) = (cin / g, cout / g);
    let walk = PaddedWalk::new(spec, cg_in, h, w);
    let img_len = walk.image_len();
    // Pixels some window reads, as an all-ones/zero word per pixel of a
    // group slice; `None` when every pixel is read.
    let (rows_read, cols_read) = (read_pixels(h, ho, spec), read_pixels(w, wo, spec));
    let keep: Option<Vec<u32>> = (!(rows_read.iter().all(|&r| r) && cols_read.iter().all(|&c| c)))
        .then(|| {
            let plane = rows_read.iter().flat_map(|&r| {
                cols_read
                    .iter()
                    .map(move |&c| if r && c { u32::MAX } else { 0 })
            });
            plane.cycle().take(cg_in * h * w).collect()
        });
    let bias = bias.map(Tensor::data);
    let mut out = Tensor::zeros([n, cout, ho, wo]);
    let od = out.data_mut();
    // Samples run in chunks of whole strips (`chunk·howo` a multiple of
    // STRIP) holding about 16 KiB of staged image, so quantize → pack →
    // kernel → store stay cache-resident.
    let whole = STRIP / gcd(howo, STRIP);
    let chunk = ((16 * 1024 / (2 * img_len) / whole).max(1) * whole).min(n.max(1));
    INT_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (img, a_scales) = &mut *scratch;
        img.clear();
        img.resize(chunk * img_len, 0);
        a_scales.resize(chunk, 0.0);
        for gi in 0..g {
            for s0 in (0..n).step_by(chunk) {
                let sc = chunk.min(n - s0);
                for s in 0..sc {
                    let src =
                        &input.data()[((s0 + s) * cin + gi * cg_in) * h * w..][..cg_in * h * w];
                    let absmax = match &keep {
                        None => igemm::absmax(src),
                        Some(keep) => igemm::absmax_masked(src, keep),
                    };
                    let a_scale = absmax / ACT_LEVELS as f32;
                    a_scales[s] = a_scale;
                    let quantizer = RowQuantizer::new(a_scale, -ACT_LEVELS, ACT_LEVELS);
                    walk.stage(
                        src,
                        &mut img[s * img_len..(s + 1) * img_len],
                        |rows, dst| quantizer.rows(rows, w, dst, walk.wp),
                    );
                }
                let img = &img[..];
                let a_scales = &a_scales[..];
                // Image offset of each strip position, advanced by a cursor
                // (sample, oy, ox) instead of dividing per position.
                let mut bases = [0usize; STRIP];
                let (mut s, mut oy, mut ox) = (0, 0, 0);
                igemm::for_each_strip(
                    weight,
                    gi * cg_out,
                    cg_out,
                    sc * howo,
                    |_, count, panel| {
                        for b in &mut bases[..count] {
                            *b = s * img_len + walk.position(oy, ox);
                            ox += 1;
                            if ox == wo {
                                (ox, oy) = (0, oy + 1);
                                if oy == ho {
                                    (oy, s) = (0, s + 1);
                                }
                            }
                        }
                        pack_image_panel(img, &walk.taps, &bases[..count], panel);
                    },
                    |p0, count, tile| {
                        // The strip's sample segments: (tile offset,
                        // length, sample in chunk, position in sample).
                        let mut segs = [(0usize, 0usize, 0usize, 0usize); STRIP];
                        let mut nseg = 0;
                        let (mut s, mut q) = (p0 / howo, p0 % howo);
                        let mut i = 0;
                        while i < count {
                            let len = (howo - q).min(count - i);
                            segs[nseg] = (i, len, s, q);
                            nseg += 1;
                            (i, s, q) = (i + len, s + 1, 0);
                        }
                        for (r, acc) in tile.chunks_exact(STRIP).enumerate() {
                            let oc = gi * cg_out + r;
                            let (ws, b) = (w_scales.at(oc), bias.map(|b| b[oc]));
                            // Requantize + bias straight into NCHW.
                            for &(i, len, s, q) in &segs[..nseg] {
                                let dst = ((s0 + s) * cout + oc) * howo + q;
                                igemm::requantize_row(
                                    &acc[i..i + len],
                                    a_scales[s] * ws,
                                    b,
                                    &mut od[dst..dst + len],
                                );
                            }
                        }
                    },
                );
            }
        }
    });
    out
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Which input indices along one axis some output position reads
/// (`o·stride + t - padding` for `o < output`, `t < kernel`).
fn read_pixels(input: usize, output: usize, spec: &Conv2dSpec) -> Vec<bool> {
    let mut read = vec![false; input];
    for o in 0..output {
        for t in 0..spec.kernel {
            let i = (o * spec.stride + t) as isize - spec.padding as isize;
            if (0..input as isize).contains(&i) {
                read[i as usize] = true;
            }
        }
    }
    read
}

/// Gathers one [`igemm::for_each_strip`] panel from staged images:
/// `panel[(p·STRIP + i)·2 + h] = img[bases[i] + taps[2p + h]]` (0 past
/// the last tap). Runs of 16 (AVX2), 8 or 4 positions whose windows are
/// adjacent in the image (stride 1, one output row) move as one load per
/// tap, interleaved pairwise; other positions are gathered one by one.
/// Pure data movement, so every path yields the same panel.
fn pack_image_panel(img: &[i16], taps: &[usize], bases: &[usize], panel: &mut [i16]) {
    assert!(
        bases.len() <= STRIP && panel.len() >= taps.len().div_ceil(2) * 2 * STRIP,
        "panel too short"
    );
    let avx2 = matches!(kernel::active_backend(), crate::Backend::Avx2Fma);
    let k2 = taps.len() / 2;
    let last_tap = taps[taps.len() - 1];
    let at = |p: usize, i: usize| (p * STRIP + i) * 2;
    let n = bases.len();
    let mut i = 0;
    while i < n {
        let b0 = bases[i];
        // Bases strictly increase, so a run's ends pin every element.
        #[cfg(target_arch = "x86_64")]
        for run in [16, 8, 4] {
            if (run < 16 || avx2) && i + run <= n && bases[i + run - 1] == b0 + run - 1 {
                assert!(b0 + last_tap + run <= img.len(), "tap out of image");
                let (src, dst) = (img.as_ptr(), panel.as_mut_ptr());
                // SAFETY: SSE2 is baseline on x86_64 and `avx2` is set
                // only under the Avx2Fma backend; every load reads `run`
                // elements at `b0 + tap ≤ b0 + last_tap` (asserted in
                // bounds) and every store writes `2·run` elements at
                // `at(p, i)`, inside the panel as `i + run ≤ n ≤ STRIP`.
                unsafe {
                    if run == 16 {
                        pack_run16_avx2(src.add(b0), taps, dst.add(at(0, i)))
                    } else {
                        pack_run_sse2(src.add(b0), taps, run, dst.add(at(0, i)))
                    }
                };
                i += run;
                break;
            }
        }
        if i < n && bases[i] == b0 {
            for p in 0..k2 {
                panel[at(p, i)] = img[b0 + taps[2 * p]];
                panel[at(p, i) + 1] = img[b0 + taps[2 * p + 1]];
            }
            if taps.len() % 2 == 1 {
                panel[at(k2, i)] = img[b0 + last_tap];
                panel[at(k2, i) + 1] = 0;
            }
            i += 1;
        }
    }
}

/// Sixteen adjacent positions of [`pack_image_panel`]: per k-pair, one
/// 256-bit load per tap; `unpack{lo,hi}_epi16` interleave within 128-bit
/// lanes and two lane permutes restore position order.
///
/// # Safety
///
/// Requires AVX2; `img` must be readable for `taps.last() + 16` elements
/// and `dst` writable at `p·STRIP·2 .. + 32` for every k-pair `p`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_run16_avx2(img: *const i16, taps: &[usize], dst: *mut i16) {
    use std::arch::x86_64::*;
    let load = |tap: usize| _mm256_loadu_si256(img.add(tap).cast());
    for (p, pair) in taps.chunks(2).enumerate() {
        let lo = load(pair[0]);
        let hi = pair.get(1).map_or(_mm256_setzero_si256(), |&t| load(t));
        // Lanes hold positions [0-3 | 8-11] and [4-7 | 12-15].
        let (a, b) = (_mm256_unpacklo_epi16(lo, hi), _mm256_unpackhi_epi16(lo, hi));
        let d = dst.add(p * STRIP * 2);
        _mm256_storeu_si256(d.cast(), _mm256_permute2x128_si256(a, b, 0x20));
        _mm256_storeu_si256(d.add(16).cast(), _mm256_permute2x128_si256(a, b, 0x31));
    }
}

/// `run ∈ {4, 8}` adjacent positions of [`pack_image_panel`]: per k-pair,
/// one load per tap, interleaved by `unpack{lo,hi}_epi16`.
///
/// # Safety
///
/// `img` must be readable for `taps.last() + run` elements and `dst`
/// writable at `p·STRIP·2 .. + 2·run` for every k-pair `p`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn pack_run_sse2(img: *const i16, taps: &[usize], run: usize, dst: *mut i16) {
    use std::arch::x86_64::*;
    let k2 = taps.len() / 2;
    let odd = taps.len() % 2 == 1;
    if run == 8 {
        for p in 0..k2 {
            let lo = _mm_loadu_si128(img.add(*taps.get_unchecked(2 * p)).cast());
            let hi = _mm_loadu_si128(img.add(*taps.get_unchecked(2 * p + 1)).cast());
            let d = dst.add(p * STRIP * 2);
            _mm_storeu_si128(d.cast(), _mm_unpacklo_epi16(lo, hi));
            _mm_storeu_si128(d.add(8).cast(), _mm_unpackhi_epi16(lo, hi));
        }
        if odd {
            let lo = _mm_loadu_si128(img.add(taps[2 * k2]).cast());
            let d = dst.add(k2 * STRIP * 2);
            _mm_storeu_si128(d.cast(), _mm_unpacklo_epi16(lo, _mm_setzero_si128()));
            _mm_storeu_si128(d.add(8).cast(), _mm_unpackhi_epi16(lo, _mm_setzero_si128()));
        }
    } else {
        for p in 0..k2 {
            let lo = _mm_loadl_epi64(img.add(*taps.get_unchecked(2 * p)).cast());
            let hi = _mm_loadl_epi64(img.add(*taps.get_unchecked(2 * p + 1)).cast());
            _mm_storeu_si128(dst.add(p * STRIP * 2).cast(), _mm_unpacklo_epi16(lo, hi));
        }
        if odd {
            let lo = _mm_loadl_epi64(img.add(taps[2 * k2]).cast());
            let d = dst.add(k2 * STRIP * 2);
            _mm_storeu_si128(d.cast(), _mm_unpacklo_epi16(lo, _mm_setzero_si128()));
        }
    }
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, Cin, H, W]`.
    pub input: Tensor,
    /// Gradient w.r.t. the weight, `[Cout, Cin/g, k, k]`.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias, `[Cout]`.
    pub bias: Tensor,
}

/// Convolution backward pass: given `d_out = ∂L/∂output`, returns gradients
/// w.r.t. input, weight, and bias.
///
/// # Panics
///
/// Panics on any shape inconsistency with `spec`.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    d_out: &Tensor,
    spec: &Conv2dSpec,
) -> Conv2dGrads {
    let (n, cin, h, w) = nchw(input);
    let (no, cout, ho, wo) = nchw(d_out);
    assert_eq!(n, no, "batch mismatch between input and d_out");
    assert_eq!(cout, spec.out_channels, "d_out channels mismatch");
    assert_eq!(
        (spec.out_size(h), spec.out_size(w)),
        (ho, wo),
        "d_out spatial mismatch"
    );
    let g = spec.groups;
    let (cg_in, cg_out) = (cin / g, cout / g);
    let k = spec.kernel;
    let col_rows = cg_in * k * k;
    let mut col = vec![0.0f32; col_rows * ho * wo];
    let mut dcol = vec![0.0f32; col_rows * ho * wo];
    let mut d_input = Tensor::zeros(input.shape());
    let mut d_weight = Tensor::zeros(weight.shape());
    let mut d_bias = Tensor::zeros([cout]);
    let wdat = weight.data();

    for s in 0..n {
        let in_s = &input.data()[s * cin * h * w..(s + 1) * cin * h * w];
        for gi in 0..g {
            im2col(
                &in_s[gi * cg_in * h * w..],
                cg_in,
                h,
                w,
                spec,
                ho,
                wo,
                &mut col,
            );
            let d_out_base = s * cout * ho * wo + gi * cg_out * ho * wo;
            let d_out_g = &d_out.data()[d_out_base..d_out_base + cg_out * ho * wo];
            let w_g = &wdat[gi * cg_out * col_rows..(gi + 1) * cg_out * col_rows];
            let dw_g =
                &mut d_weight.data_mut()[gi * cg_out * col_rows..(gi + 1) * cg_out * col_rows];
            // dW[oc][r] += Σ_p d_out[oc][p] * col[r][p]
            kernel::sgemm(d_out_g, &col, dw_g, cg_out, ho * wo, col_rows, false, true);
            // dcol[r][p] = Σ_oc w[oc][r] * d_out[oc][p]
            dcol.fill(0.0);
            kernel::sgemm(
                w_g,
                d_out_g,
                &mut dcol,
                col_rows,
                cg_out,
                ho * wo,
                true,
                false,
            );
            let din_base = s * cin * h * w + gi * cg_in * h * w;
            col2im(
                &dcol,
                cg_in,
                h,
                w,
                spec,
                ho,
                wo,
                &mut d_input.data_mut()[din_base..],
            );
        }
        // Bias gradient: sum over spatial positions.
        for oc in 0..cout {
            let base = (s * cout + oc) * ho * wo;
            let sum: f32 = d_out.data()[base..base + ho * wo].iter().sum();
            d_bias.data_mut()[oc] += sum;
        }
    }
    Conv2dGrads {
        input: d_input,
        weight: d_weight,
        bias: d_bias,
    }
}

fn nchw(t: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        t.shape().ndim(),
        4,
        "expected NCHW tensor, got {}",
        t.shape()
    );
    let sh = t.shape();
    let d = sh.dims();
    (d[0], d[1], d[2], d[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Naive direct convolution used as a reference implementation.
    fn conv_naive(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let sh = input.shape();
        let d = sh.dims();
        let (n, _cin, h, w) = (d[0], d[1], d[2], d[3]);
        let (ho, wo) = (spec.out_size(h), spec.out_size(w));
        let g = spec.groups;
        let (cg_in, cg_out) = (spec.in_channels / g, spec.out_channels / g);
        let k = spec.kernel;
        let mut out = Tensor::zeros([n, spec.out_channels, ho, wo]);
        for s in 0..n {
            for gi in 0..g {
                for oc in 0..cg_out {
                    let oc_abs = gi * cg_out + oc;
                    for oy in 0..ho {
                        for ox in 0..wo {
                            let mut acc = bias.map_or(0.0, |b| b.data()[oc_abs]);
                            for ic in 0..cg_in {
                                let ic_abs = gi * cg_in + ic;
                                for ky in 0..k {
                                    for kx in 0..k {
                                        let iy = (oy * spec.stride + ky) as isize
                                            - spec.padding as isize;
                                        let ix = (ox * spec.stride + kx) as isize
                                            - spec.padding as isize;
                                        if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize
                                        {
                                            continue;
                                        }
                                        let iv = input.data()[((s * spec.in_channels + ic_abs)
                                            * h
                                            + iy as usize)
                                            * w
                                            + ix as usize];
                                        let wv = weight.data()
                                            [((oc_abs * cg_in + ic) * k + ky) * k + kx];
                                        acc += iv * wv;
                                    }
                                }
                            }
                            out.data_mut()
                                [((s * spec.out_channels + oc_abs) * ho + oy) * wo + ox] = acc;
                        }
                    }
                }
            }
        }
        out
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn forward_matches_naive_dense() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = Conv2dSpec::new(3, 4, 3, 1, 1);
        let input = init::normal([2, 3, 5, 5], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        let bias = init::normal([4], 0.0, 0.1, &mut rng);
        close(
            &conv2d_forward(&input, &weight, Some(&bias), &spec),
            &conv_naive(&input, &weight, Some(&bias), &spec),
            1e-4,
        );
    }

    #[test]
    fn forward_matches_naive_strided_grouped() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = Conv2dSpec::new(4, 6, 3, 2, 1).with_groups(2);
        let input = init::normal([1, 4, 7, 7], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        close(
            &conv2d_forward(&input, &weight, None, &spec),
            &conv_naive(&input, &weight, None, &spec),
            1e-4,
        );
    }

    #[test]
    fn forward_matches_naive_depthwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = Conv2dSpec::new(4, 4, 3, 1, 1).with_groups(4);
        let input = init::normal([2, 4, 6, 6], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        close(
            &conv2d_forward(&input, &weight, None, &spec),
            &conv_naive(&input, &weight, None, &spec),
            1e-4,
        );
    }

    /// Finite-difference check of the full backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = Conv2dSpec::new(2, 3, 3, 2, 1);
        let input = init::normal([1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let weight = init::normal(spec.weight_shape(), 0.0, 0.5, &mut rng);
        // Loss = sum(output * seed) for a fixed random seed tensor.
        let out = conv2d_forward(&input, &weight, None, &spec);
        let seed = init::normal(out.shape(), 0.0, 1.0, &mut rng);
        let grads = conv2d_backward(&input, &weight, &seed, &spec);

        let eps = 1e-3f32;
        // Check a sample of weight coordinates.
        for idx in [0usize, 5, 11, 17] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let lp = conv2d_forward(&input, &wp, None, &spec).dot(&seed);
            let lm = conv2d_forward(&input, &wm, None, &spec).dot(&seed);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = grads.weight.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2,
                "weight[{idx}]: fd={fd} analytic={an}"
            );
        }
        // Check a sample of input coordinates.
        for idx in [0usize, 7, 23, 49] {
            let mut ip = input.clone();
            ip.data_mut()[idx] += eps;
            let mut im = input.clone();
            im.data_mut()[idx] -= eps;
            let lp = conv2d_forward(&ip, &weight, None, &spec).dot(&seed);
            let lm = conv2d_forward(&im, &weight, None, &spec).dot(&seed);
            let fd = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let an = grads.input.data()[idx];
            assert!(
                (fd - an).abs() < 2e-2,
                "input[{idx}]: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn bias_gradient_sums_spatial_positions() {
        let spec = Conv2dSpec::new(1, 1, 1, 1, 0);
        let input = Tensor::full([1, 1, 2, 2], 1.0);
        let weight = Tensor::full(spec.weight_shape(), 1.0);
        let d_out = Tensor::full([1, 1, 2, 2], 0.5);
        let grads = conv2d_backward(&input, &weight, &d_out, &spec);
        assert_eq!(grads.bias.data(), &[2.0]);
    }

    #[test]
    fn out_size_arithmetic() {
        let spec = Conv2dSpec::new(1, 1, 3, 2, 1);
        assert_eq!(spec.out_size(7), 4);
        assert_eq!(spec.out_size(8), 4);
        let s1 = Conv2dSpec::new(1, 1, 1, 1, 0);
        assert_eq!(s1.out_size(16), 16);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_groups_panics() {
        let _ = Conv2dSpec::new(3, 4, 3, 1, 1).with_groups(2);
    }
}
