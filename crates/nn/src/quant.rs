//! Per-layer symmetric int8 post-training quantization.
//!
//! ## Scheme
//!
//! Both weights and activations use symmetric linear quantization: for a
//! tensor with magnitude bound `M = max|x|`, the scale is `s = M / 127`
//! and `q(x) = round(x / s)` clamped to `[-127, 127]`. Weights are
//! quantized once from their actual range; activation scales are
//! **calibrated** by running representative inputs through the f32 model
//! and recording the magnitude bound entering each layer
//! ([`activation_scales`]) — the same per-input machinery the calibration
//! campaign uses for error sets supplies the inputs.
//!
//! A quantized product accumulates exactly in `i32`
//! ([`gemm_i8`]: `i8×i8→i32`) and leaves through one fused scale: into
//! the next layer's int8 input, `q = round(acc · s_w·s_x/s_out +
//! bias/s_out)`, or, at the output, `y = acc · (s_w · s_x) + bias`, bias
//! kept in f32. Because integer
//! arithmetic is exact and associative, every [`gemm_i8`] kernel (scalar
//! or AVX2) produces identical results — there is no analogue of the f32
//! kernel's accumulation-order contract to maintain.
//!
//! ## Error model
//!
//! Rounding bounds the representation error at `s/2` per value inside the
//! calibrated range (`|deq(q(x)) − x| ≤ s/2`); values beyond the
//! calibrated bound are clipped to `±127·s`. For one output of a
//! `k`-deep product the accumulated error is bounded by
//! `Σ_p (s_w/2)·|x_p| + (s_x/2)·|w_p| + s_w·s_x/4`, which grows linearly
//! in `k` — small for the shallow perception stacks quantized here. The
//! *observed* end-to-end effect is what matters for reliability: the
//! calibration campaign measures the quantized model's per-input error
//! set and folds the accuracy drop in as a Δp on the module
//! unreliability feeding `core::reliability` (see `bench::calibrate`),
//! so the int8 speed/reliability trade-off shows up in the DSPN numbers
//! instead of being assumed away.
//!
//! ## The plan
//!
//! [`Int8Plan`] is the one int8 inference engine. It is compiled once from
//! a trained [`Sequential`], the calibrated per-layer activation scales
//! and a fixed one-sample input shape; every buffer is allocated then, so
//! a warm [`Int8Plan::run`] allocates nothing:
//!
//! - conv lowers through an int8 im2col to [`gemm_i8`]; dense is the same
//!   op as a 1×1 conv over a 1×1 plane;
//! - each op's accumulators are requantized by [`requant_i8`] straight to
//!   the input scale of the next op that reads values (conv, dense or an
//!   f32 layer), and a ReLU on the way becomes the clamp floor `0`;
//! - max pooling and flatten run on i8 — requantization is monotone, so
//!   pooling the quantized values is exact;
//! - any other layer (a `Residual` block, a sigmoid) gets dequantized
//!   input, runs its f32 `forward`, and is quantized again (that layer's
//!   own `forward` is the only allocation left in such a plan);
//! - the last op dequantizes its accumulators to f32 logits,
//!   `(acc as f32).mul_add(s_w·s_in, bias)`.

// The one other crate module with `unsafe` (see `lib.rs`): the AVX2
// int8 microkernel and its dispatch call.
#![allow(unsafe_code)]

use crate::gemm::{self, Kernel};
use crate::layer::Layer;
use crate::layers::{Conv2d, Dense, Flatten, MaxPool2, Relu};
use crate::model::Sequential;
use crate::tensor::Tensor;

/// The symmetric scale for a tensor with magnitude bound `max_abs`:
/// `max_abs / 127`, or `1.0` for an all-zero tensor (any scale represents
/// zeros exactly; `1.0` avoids dividing by zero downstream).
pub fn symmetric_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantizes `xs` at `scale`: `round(x/scale)` clamped to `[-127, 127]`.
pub fn quantize(xs: &[f32], scale: f32) -> Vec<i8> {
    let mut out = vec![0; xs.len()];
    quantize_into(xs, scale, -127, &mut out);
    out
}

/// [`quantize`] into `out`, clamped to `[lo, 127]` (`lo = 0` is a ReLU).
fn quantize_into(xs: &[f32], scale: f32, lo: i8, out: &mut [i8]) {
    for (q, &x) in out.iter_mut().zip(xs) {
        *q = (x / scale).round().clamp(f32::from(lo), 127.0) as i8;
    }
}

/// Maps quantized values back to f32: `q · scale`.
pub fn dequantize(qs: &[i8], scale: f32) -> Vec<f32> {
    qs.iter().map(|&q| f32::from(q) * scale).collect()
}

fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// `C = A·B` over int8 with exact `i32` accumulation: `A: [m, k]`,
/// `B: [k, n]`, `C: [m, n]`, all row-major. `C` is overwritten.
///
/// Dispatches on [`gemm::active_kernel`]: the AVX2 kernel pairs `k` steps
/// through `_mm256_madd_epi16`; every other kernel selection runs the
/// scalar loop. All paths produce identical results (integer arithmetic
/// is exact), so kernel choice is a pure performance knob here too.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions, or if
/// `k > 100_000` (the documented overflow-safety bound: worst-case
/// accumulation `k · 127²` must stay inside `i32`).
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert_eq!(a.len(), m * k, "A must be {m}x{k}");
    assert_eq!(b.len(), k * n, "B must be {k}x{n}");
    assert_eq!(c.len(), m * n, "C must be {m}x{n}");
    assert!(k <= 100_000, "i32 accumulator overflow bound exceeded");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0);
        return;
    }
    match gemm::active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => x86::PAIRS.with_borrow_mut(|pairs| {
            x86::pack_a_pairs(m, k, a, pairs);
            // SAFETY: dimensions asserted above and `pairs` packed for them;
            // Avx2 is only selectable when runtime-detected; the kernel
            // overwrites every element of `c` (no pre-zeroing needed).
            unsafe { x86::gemm_i8_avx2(m, k, n, a, b, c, pairs) }
        }),
        _ => {
            c.fill(0);
            gemm_i8_scalar(m, k, n, a, b, c);
        }
    }
}

/// Portable reference kernel; the row-of-B inner loop widens to i32 and
/// autovectorizes.
fn gemm_i8_scalar(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        for p in 0..k {
            let av = i32::from(a[i * k + p]);
            if av == 0 {
                continue;
            }
            let brow = &b[p * n..p * n + n];
            let crow = &mut c[i * n..i * n + n];
            for (acc, &bv) in crow.iter_mut().zip(brow) {
                *acc += av * i32::from(bv);
            }
        }
    }
}

/// Fused requantization: `out[i] = clamp(round_ties_even(acc[i]·m + bias),
/// lo, hi)` — one pass from i32 accumulators to the next layer's int8
/// activations, with bias addition and (via `lo = 0`) ReLU folded in.
///
/// Rounding is half-to-even on every kernel: the scalar path uses
/// [`f32::round_ties_even`] and the AVX2 path `vcvtps2dq` under the
/// default MXCSR rounding mode, so results are kernel-independent here
/// just like [`gemm_i8`].
///
/// # Panics
///
/// Panics if the slice lengths differ or `lo > hi`.
pub fn requant_i8(acc: &[i32], m: f32, bias: f32, lo: i8, hi: i8, out: &mut [i8]) {
    assert_eq!(acc.len(), out.len(), "requant buffers must match");
    assert!(lo <= hi, "empty clamp range");
    match gemm::active_kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            // SAFETY: lengths asserted equal above; `Kernel::Avx2` is only
            // selectable on hosts where AVX2 was runtime-detected.
            unsafe { x86::requant_i8_avx2(acc, m, bias, lo, hi, out) }
        }
        _ => requant_i8_scalar(acc, m, bias, lo, hi, out),
    }
}

/// Portable requantization kernel.
fn requant_i8_scalar(acc: &[i32], m: f32, bias: f32, lo: i8, hi: i8, out: &mut [i8]) {
    for (q, &a) in out.iter_mut().zip(acc) {
        #[allow(clippy::cast_possible_truncation)]
        {
            *q = (a as f32 * m + bias)
                .round_ties_even()
                .clamp(f32::from(lo), f32::from(hi)) as i8;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2 int8 microkernel: `k` steps are consumed in adjacent pairs so
    //! `_mm256_madd_epi16` multiplies two widened i8 products per i32
    //! lane and adds them in one instruction. Exact integer arithmetic —
    //! bitwise-identical to the scalar kernel by construction.

    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    thread_local! {
        /// The GEMM's packed-`A` scratch, one per thread, grown to the
        /// largest `A` seen: a warm caller's GEMMs allocate nothing.
        pub(super) static PAIRS: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
    }

    /// Packs every row of `A` (`m×k`, `k > 0`) into broadcast-ready
    /// i16-pair words, odd `k` zero-padded. Done once per GEMM — without
    /// it the scalar pair packing would re-run for every column group and
    /// dominate small-`k` conv shapes.
    pub(super) fn pack_a_pairs(m: usize, k: usize, a: &[i8], pairs: &mut Vec<i32>) {
        let per_row = k.div_ceil(2);
        pairs.clear();
        pairs.resize(m * per_row, 0);
        for (row, dst) in a.chunks_exact(k).zip(pairs.chunks_exact_mut(per_row)) {
            for (d, two) in dst.iter_mut().zip(row.chunks(2)) {
                *d = a_pair(two[0], two.get(1).copied().unwrap_or(0));
            }
        }
    }

    /// Interleaves two rows of 8 widened i8 values into the
    /// `[lo=row p, hi=row p+1]` i16-pair layout `_mm256_madd_epi16`
    /// expects, using 128-bit unpacks (no lane-crossing shuffles).
    ///
    /// # Safety
    ///
    /// Both pointers must be readable for 8 bytes; the host must support
    /// AVX2.
    // SAFETY: callers in this module load from rows of B whose bounds are
    // asserted by `gemm_i8` before dispatch.
    #[target_feature(enable = "avx2")]
    unsafe fn load_b_pair(p0: *const i8, p1: *const i8) -> __m256i {
        let w0 = _mm_cvtepi8_epi16(_mm_loadl_epi64(p0.cast()));
        let w1 = _mm_cvtepi8_epi16(_mm_loadl_epi64(p1.cast()));
        _mm256_set_m128i(_mm_unpackhi_epi16(w0, w1), _mm_unpacklo_epi16(w0, w1))
    }

    /// Packs two consecutive A values into the matching i16-pair operand:
    /// low half `a0`, high half `a1`, broadcast to all lanes by the
    /// caller.
    fn a_pair(a0: i8, a1: i8) -> i32 {
        (i32::from(a1) << 16) | i32::from(i16::from(a0) as u16)
    }

    /// AVX2 `i8×i8→i32` GEMM: 4-row × 8-column tiles, `k` consumed in
    /// pairs via `madd`, scalar fixup for the ragged column tail.
    ///
    /// `A` comes pre-packed by [`pack_a_pairs`], so the hot loop is one
    /// broadcast + `madd` + add per row. Every element of `c` is
    /// overwritten (callers skip pre-zeroing).
    ///
    /// # Safety
    ///
    /// `a`, `b`, `c` must have exactly `m·k` / `k·n` / `m·n` elements,
    /// `pairs` must be that `a` packed by [`pack_a_pairs`], and the host
    /// must support AVX2 (all asserted/checked by `gemm_i8`).
    // SAFETY: contract above; all pointer arithmetic below stays inside
    // those asserted bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_i8_avx2(
        m: usize,
        k: usize,
        n: usize,
        a: &[i8],
        b: &[i8],
        c: &mut [i32],
        pairs: &[i32],
    ) {
        const MR: usize = 4;
        let full_j = n & !7;
        let k2 = k / 2;
        let pairs_per_row = k.div_ceil(2);
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        for i0 in (0..m).step_by(MR) {
            let live = MR.min(m - i0);
            let mut j0 = 0usize;
            while j0 < full_j {
                let mut acc = [_mm256_setzero_si256(); MR];
                for t in 0..k2 {
                    let bv = load_b_pair(bp.add(2 * t * n + j0), bp.add((2 * t + 1) * n + j0));
                    for (r, accr) in acc.iter_mut().enumerate().take(live) {
                        let pair = *pairs.get_unchecked((i0 + r) * pairs_per_row + t);
                        *accr =
                            _mm256_add_epi32(*accr, _mm256_madd_epi16(_mm256_set1_epi32(pair), bv));
                    }
                }
                if k % 2 == 1 {
                    // Odd k tail: pair the last row of B with zeros.
                    let w0 = _mm_cvtepi8_epi16(_mm_loadl_epi64(bp.add((k - 1) * n + j0).cast()));
                    let z = _mm_setzero_si128();
                    let bv = _mm256_set_m128i(_mm_unpackhi_epi16(w0, z), _mm_unpacklo_epi16(w0, z));
                    for (r, accr) in acc.iter_mut().enumerate().take(live) {
                        let pair = *pairs.get_unchecked((i0 + r) * pairs_per_row + k2);
                        *accr =
                            _mm256_add_epi32(*accr, _mm256_madd_epi16(_mm256_set1_epi32(pair), bv));
                    }
                }
                for (r, accr) in acc.iter().enumerate().take(live) {
                    _mm256_storeu_si256(cp.add((i0 + r) * n + j0).cast(), *accr);
                }
                j0 += 8;
            }
            // Ragged column tail: exact scalar.
            for j in full_j..n {
                for r in 0..live {
                    let mut s = 0i32;
                    for p in 0..k {
                        s += i32::from(a[(i0 + r) * k + p]) * i32::from(b[p * n + j]);
                    }
                    c[(i0 + r) * n + j] = s;
                }
            }
        }
    }

    /// AVX2 fused requantization: 32 accumulators per iteration — convert,
    /// scale (separate mul+add, like the scalar two-rounding sequence),
    /// round via `vcvtps2dq` (ties-to-even under default MXCSR), clamp in
    /// i32, then saturating-pack down to i8 with a dword permute to
    /// restore order.
    ///
    /// # Safety
    ///
    /// `acc.len() == out.len()` (asserted by `requant_i8`) and the host
    /// must support AVX2.
    // SAFETY: contract above; pointer arithmetic stays inside the equal
    // asserted lengths.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn requant_i8_avx2(
        acc: &[i32],
        m: f32,
        bias: f32,
        lo: i8,
        hi: i8,
        out: &mut [i8],
    ) {
        let n = acc.len();
        let mv = _mm256_set1_ps(m);
        let bv = _mm256_set1_ps(bias);
        let lov = _mm256_set1_epi32(i32::from(lo));
        let hiv = _mm256_set1_epi32(i32::from(hi));
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let ap = acc.as_ptr();
        let op = out.as_mut_ptr();
        let full = n & !31;
        let mut i = 0usize;
        while i < full {
            let mut q = [_mm256_setzero_si256(); 4];
            for (g, qg) in q.iter_mut().enumerate() {
                let x = _mm256_cvtepi32_ps(_mm256_loadu_si256(ap.add(i + 8 * g).cast()));
                let y = _mm256_add_ps(_mm256_mul_ps(x, mv), bv);
                let r = _mm256_cvtps_epi32(y);
                *qg = _mm256_min_epi32(_mm256_max_epi32(r, lov), hiv);
            }
            // i32 → i16 → i8 saturating packs interleave 128-bit lanes;
            // the dword permute restores source order.
            let p01 = _mm256_packs_epi32(q[0], q[1]);
            let p23 = _mm256_packs_epi32(q[2], q[3]);
            let packed = _mm256_packs_epi16(p01, p23);
            let fixed = _mm256_permutevar8x32_epi32(packed, order);
            _mm256_storeu_si256(op.add(i).cast(), fixed);
            i += 32;
        }
        super::requant_i8_scalar(&acc[full..], m, bias, lo, hi, &mut out[full..]);
    }
}

/// Runs `inputs` through a clone of `model` and returns the calibrated
/// symmetric scale of the activation **entering** each layer (index
/// aligned with `model.layers()`) — the `scales` an [`Int8Plan`] is
/// compiled from. Layers the plan does not read at their own scale still
/// get one (it's just unused).
pub fn activation_scales(model: &Sequential, inputs: &[Tensor]) -> Vec<f32> {
    let mut probe = model.clone();
    let mut max_in = vec![0.0f32; probe.layer_count()];
    for x in inputs {
        let mut cur = x.clone();
        for (slot, layer) in max_in.iter_mut().zip(probe.layers_mut()) {
            *slot = slot.max(cur.max_abs());
            cur = layer.forward(&cur, false);
        }
    }
    max_in.into_iter().map(symmetric_scale).collect()
}

/// How the plan treats a layer, decided once at compile time.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Conv or dense: an int8 GEMM that reads values at its input scale.
    Gemm,
    /// Any other parametric or nonlinear layer: runs in f32.
    Float,
    /// Exact on i8 at any scale: max pooling.
    Pool,
    /// Fused into the producing op's clamp floor.
    Relu,
    /// A no-op on the i8 buffer.
    Flatten,
}

fn role(layer: &dyn Layer) -> Role {
    let any = layer.as_any();
    if any.is::<Conv2d>() || any.is::<Dense>() {
        Role::Gemm
    } else if any.is::<MaxPool2>() {
        Role::Pool
    } else if any.is::<Relu>() {
        Role::Relu
    } else if any.is::<Flatten>() {
        Role::Flatten
    } else {
        Role::Float
    }
}

/// A conv (or dense, as a 1×1 conv over a 1×1 plane) lowered to
/// [`gemm_i8`] with its epilogue constants folded.
#[derive(Clone)]
struct GemmOp {
    /// Quantized weights `[oc][ic·k·k]`: the GEMM's `A`.
    w: Vec<i8>,
    ic: usize,
    oc: usize,
    k: usize,
    pad: usize,
    h: usize,
    wd: usize,
    oh: usize,
    ow: usize,
    /// Epilogue multiplier: `s_w·s_in/s_out` into i8, `s_w·s_in` into
    /// logits.
    m: f32,
    /// Per-channel epilogue bias: `bias/s_out` into i8, `bias` into
    /// logits.
    bias: Vec<f32>,
    /// Clamp floor of the i8 output: `0` is a fused ReLU.
    lo: i8,
}

/// A layer run in f32 between dequantize and quantize.
#[derive(Clone)]
struct FloatOp {
    layer: Box<dyn Layer>,
    /// Dequantized input, shaped for `layer`.
    x: Tensor,
    s_in: f32,
    s_out: f32,
    /// Clamp floor of the i8 output: `0` is a fused ReLU.
    lo: i8,
}

#[derive(Clone)]
enum Op {
    Gemm(GemmOp),
    Float(FloatOp),
    Pool { c: usize, h: usize, w: usize },
}

/// Where an op writes: the next op's i8 input, or the plan's logits.
enum Dst<'a> {
    I8(&'a mut [i8]),
    Logits(&'a mut [f32]),
}

#[derive(Clone)]
struct Step {
    op: Op,
    /// The op's i8 output; empty for the last op, which writes logits.
    out: Vec<i8>,
}

/// A [`Sequential`] compiled into an allocation-free int8 inference plan
/// for one fixed input shape (module docs: "The plan").
#[derive(Clone)]
pub struct Int8Plan {
    input: Vec<i8>,
    input_scale: f32,
    steps: Vec<Step>,
    col: Vec<i8>,
    acc: Vec<i32>,
    logits: Vec<f32>,
    macs: u64,
    // What the plan was compiled from, for `requantize`.
    scales: Vec<f32>,
    shape: Vec<usize>,
}

impl Int8Plan {
    /// Compiles `model` for one sample of `input_shape` (`[1, …]`), with
    /// `scales[i]` the calibrated scale of the activation entering layer
    /// `i` ([`activation_scales`]). The input is held at the scale of the
    /// first layer that reads values (for a conv or dense first layer,
    /// `scales[0]`).
    ///
    /// # Panics
    ///
    /// Panics if `scales` is shorter than the layer stack, the batch
    /// dimension is not 1, a layer's shape disagrees with its input, the
    /// stack has no conv, dense or f32 layer, a ReLU comes before the
    /// first one, or pooling or a ReLU comes after the last one.
    pub fn compile(model: &Sequential, scales: &[f32], input_shape: &[usize]) -> Self {
        let layers = model.layers();
        assert!(
            scales.len() >= layers.len(),
            "one activation scale per layer"
        );
        assert_eq!(input_shape.first(), Some(&1), "a plan runs one sample");
        let roles: Vec<Role> = layers.iter().map(|l| role(l.as_ref())).collect();
        // The next layer at or after `from` that reads values: the scale
        // the value flowing into it is held at.
        let reader = |from: usize| {
            (from..layers.len()).find(|&j| matches!(roles[j], Role::Gemm | Role::Float))
        };
        let first = reader(0).expect("plan: the stack needs a conv, dense or f32 layer");
        assert!(
            !roles[..first].contains(&Role::Relu),
            "plan: a ReLU before the first conv, dense or f32 layer"
        );
        let mut steps = Vec::new();
        let (mut col_len, mut acc_len) = (0, 0);
        let mut shape = input_shape.to_vec();
        let mut logits_len = 0;
        for (i, layer) in layers.iter().enumerate() {
            let out_shape = layer.output_shape(&shape);
            let out_len: usize = out_shape.iter().product();
            match roles[i] {
                Role::Relu | Role::Flatten => {}
                Role::Pool => steps.push(Step {
                    op: Op::Pool {
                        c: shape[1],
                        h: shape[2],
                        w: shape[3],
                    },
                    out: vec![0; out_len],
                }),
                Role::Gemm | Role::Float => {
                    let next = reader(i + 1);
                    let until = next.unwrap_or(layers.len());
                    // ReLU commutes with pooling and flattening, so every
                    // ReLU before the next reader folds into this op.
                    let lo = if roles[i + 1..until].contains(&Role::Relu) {
                        0
                    } else {
                        -127
                    };
                    let s_in = scales[i];
                    let s_out = next.map(|j| scales[j]);
                    if next.is_none() {
                        assert!(
                            roles[i + 1..].iter().all(|&r| r == Role::Flatten),
                            "plan: pooling or ReLU after the last conv, dense or f32 layer"
                        );
                        logits_len = out_len;
                    }
                    let op = if roles[i] == Role::Gemm {
                        let g = gemm_op(layer.as_ref(), &shape, s_in, s_out, lo);
                        if g.k > 1 || g.pad > 0 {
                            col_len = col_len.max(g.ic * g.k * g.k * g.oh * g.ow);
                        }
                        acc_len = acc_len.max(g.oc * g.oh * g.ow);
                        Op::Gemm(g)
                    } else {
                        Op::Float(FloatOp {
                            layer: layer.clone_box(),
                            x: Tensor::zeros(&shape),
                            s_in,
                            s_out: s_out.unwrap_or(1.0),
                            lo,
                        })
                    };
                    let out = if next.is_some() {
                        vec![0; out_len]
                    } else {
                        Vec::new()
                    };
                    steps.push(Step { op, out });
                }
            }
            shape = out_shape;
        }
        Int8Plan {
            input: vec![0; input_shape.iter().product()],
            input_scale: scales[first],
            steps,
            col: vec![0; col_len],
            acc: vec![0; acc_len],
            logits: vec![0.0; logits_len],
            macs: model.macs(input_shape),
            scales: scales.to_vec(),
            shape: input_shape.to_vec(),
        }
    }

    /// Re-quantizes the weights from `model` (same architecture) while
    /// keeping the calibrated activation scales — the one
    /// requantize-on-mutation hook, for callers that repair or retrain the
    /// f32 model. Rebuilds the plan, so it allocates.
    ///
    /// # Panics
    ///
    /// As [`compile`](Self::compile), if `model` no longer fits the scales
    /// and input shape.
    pub fn requantize(&mut self, model: &Sequential) {
        *self = Self::compile(model, &self.scales, &self.shape);
    }

    /// The quantized input buffer, at the input scale (see
    /// [`compile`](Self::compile)): for callers that produce int8 directly
    /// (the avsim sensor model).
    pub fn input_mut(&mut self) -> &mut [i8] {
        &mut self.input
    }

    /// Per-sample MACs of the f32 model the plan was compiled from.
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// Quantizes `x` (one sample, flattened) at the input scale and runs.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn forward(&mut self, x: &[f32]) -> &[f32] {
        assert_eq!(x.len(), self.input.len(), "plan input length");
        quantize_into(x, self.input_scale, -127, &mut self.input);
        self.run()
    }

    /// The index of the largest logit for `x`, by `f32::total_cmp` like
    /// `Sequential::predict` — the class a classifier plan predicts.
    pub fn predict(&mut self, x: &[f32]) -> usize {
        self.forward(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map_or(0, |(i, _)| i)
    }

    /// Runs the plan on the current quantized input and returns the
    /// logits.
    pub fn run(&mut self) -> &[f32] {
        let (col, acc) = (&mut self.col, &mut self.acc);
        let mut x: &[i8] = &self.input;
        let (last, body) = self
            .steps
            .split_last_mut()
            .expect("invariant: compile pushes at least the reading op");
        for step in body {
            step.op.run(x, Dst::I8(&mut step.out), col, acc);
            x = &step.out;
        }
        last.op.run(x, Dst::Logits(&mut self.logits), col, acc);
        &self.logits
    }
}

/// Lowers one conv or dense layer, reading its input at `s_in` and writing
/// i8 at `s_out` (or logits when `None`).
fn gemm_op(layer: &dyn Layer, shape: &[usize], s_in: f32, s_out: Option<f32>, lo: i8) -> GemmOp {
    let any = layer.as_any();
    let (w, bias, [ic, oc, k, pad, h, wd]) = if let Some(conv) = any.downcast_ref::<Conv2d>() {
        assert_eq!(shape[1], conv.in_channels(), "plan: conv input channels");
        let (k, p) = (conv.kernel_size(), conv.padding());
        let dims = [
            conv.in_channels(),
            conv.out_channels(),
            k,
            p,
            shape[2],
            shape[3],
        ];
        (conv.weight().as_slice().to_vec(), conv.bias(), dims)
    } else {
        let dense = any
            .downcast_ref::<Dense>()
            .expect("invariant: role is Gemm");
        let (inf, outf) = (dense.in_features(), dense.out_features());
        assert_eq!(
            shape[1..].iter().product::<usize>(),
            inf,
            "plan: dense input width"
        );
        // `[in][out]` → `[out][in]`: one GEMM row per output feature.
        let wio = dense.weight().as_slice();
        let w = (0..outf * inf)
            .map(|i| wio[(i % inf) * outf + i / inf])
            .collect();
        (w, dense.bias(), [inf, outf, 1, 0, 1, 1])
    };
    let s_w = symmetric_scale(max_abs(&w));
    let (m, bias) = match s_out {
        Some(s_out) => (
            s_w * s_in / s_out,
            bias.as_slice().iter().map(|b| b / s_out).collect(),
        ),
        None => (s_w * s_in, bias.as_slice().to_vec()),
    };
    GemmOp {
        w: quantize(&w, s_w),
        ic,
        oc,
        k,
        pad,
        h,
        wd,
        oh: h + 2 * pad - k + 1,
        ow: wd + 2 * pad - k + 1,
        m,
        bias,
        lo,
    }
}

impl Op {
    fn run(&mut self, x: &[i8], dst: Dst<'_>, col: &mut [i8], acc: &mut [i32]) {
        match self {
            Op::Gemm(g) => g.run(x, dst, col, acc),
            Op::Float(f) => f.run(x, dst),
            Op::Pool { c, h, w } => match dst {
                Dst::I8(out) => maxpool_i8(x, *c, *h, *w, out),
                Dst::Logits(_) => unreachable!("invariant: compile rejects a trailing pool"),
            },
        }
    }
}

impl GemmOp {
    fn run(&self, x: &[i8], dst: Dst<'_>, col: &mut [i8], acc: &mut [i32]) {
        let (ckk, hw) = (self.ic * self.k * self.k, self.oh * self.ow);
        let b: &[i8] = if self.k == 1 && self.pad == 0 {
            // A 1×1 unpadded conv's im2col is its input.
            x
        } else {
            let col = &mut col[..ckk * hw];
            im2col_q(x, self.ic, self.h, self.wd, self.k, self.pad, col);
            col
        };
        let acc = &mut acc[..self.oc * hw];
        gemm_i8(self.oc, ckk, hw, &self.w, b, acc);
        let rows = acc.chunks_exact(hw).zip(&self.bias);
        match dst {
            Dst::I8(out) => {
                for ((a, &bias), o) in rows.zip(out.chunks_exact_mut(hw)) {
                    requant_i8(a, self.m, bias, self.lo, 127, o);
                }
            }
            Dst::Logits(out) => {
                for ((a, &bias), o) in rows.zip(out.chunks_exact_mut(hw)) {
                    for (l, &v) in o.iter_mut().zip(a) {
                        *l = (v as f32).mul_add(self.m, bias);
                    }
                }
            }
        }
    }
}

impl FloatOp {
    fn run(&mut self, x: &[i8], dst: Dst<'_>) {
        for (v, &q) in self.x.as_mut_slice().iter_mut().zip(x) {
            *v = f32::from(q) * self.s_in;
        }
        let y = self.layer.forward(&self.x, false);
        match dst {
            Dst::I8(out) => {
                quantize_into(y.as_slice(), self.s_out, self.lo, out);
            }
            Dst::Logits(out) => out.copy_from_slice(y.as_slice()),
        }
    }
}

/// int8 im2col for one `[c, h, w]` image, stride 1, zero padding `p`: row
/// `(ic·k + ky)·k + kx` holds, for every output cell `(oy, ox)`, the input
/// tap at `(oy + ky − p, ox + kx − p)`, or 0 outside the image.
fn im2col_q(x: &[i8], c: usize, h: usize, w: usize, k: usize, p: usize, col: &mut [i8]) {
    let (oh, ow) = (h + 2 * p - k + 1, w + 2 * p - k + 1);
    let mut rows = col.chunks_exact_mut(oh * ow);
    for plane in x.chunks_exact(h * w).take(c) {
        for ky in 0..k {
            // Output rows and columns whose tap lands inside the image.
            let y0 = p.saturating_sub(ky).min(oh);
            let y1 = (h + p).saturating_sub(ky).clamp(y0, oh);
            for kx in 0..k {
                let row = rows.next().expect("invariant: col holds c·k·k rows");
                let x0 = p.saturating_sub(kx).min(ow);
                let x1 = (w + p).saturating_sub(kx).clamp(x0, ow);
                row[..y0 * ow].fill(0);
                row[y1 * ow..].fill(0);
                if y0 == y1 || x0 == x1 {
                    row.fill(0);
                } else if ow == w {
                    // Same-size output: the tap is one copy of the plane
                    // shifted by (ky − p, kx − p), then the edge columns
                    // that wrapped in from a neighbouring row are zeroed.
                    let (lo, hi) = (y0 * ow + x0, (y1 - 1) * ow + x1);
                    let src = lo + ky * w + kx - (p * w + p);
                    row[lo..hi].copy_from_slice(&plane[src..src + hi - lo]);
                    for ox in (0..x0).chain(x1..ow) {
                        for v in row[y0 * ow + ox..y1 * ow].iter_mut().step_by(ow) {
                            *v = 0;
                        }
                    }
                } else {
                    for (oy, out) in row.chunks_exact_mut(ow).enumerate().take(y1).skip(y0) {
                        let src = &plane[(oy + ky - p) * w + x0 + kx - p..][..x1 - x0];
                        out[..x0].fill(0);
                        out[x0..x1].copy_from_slice(src);
                        out[x1..].fill(0);
                    }
                }
            }
        }
    }
}

/// 2×2/stride-2 max pooling over `c` planes of `h×w` i8 values (odd
/// trailing rows/columns dropped, like [`MaxPool2`]).
fn maxpool_i8(x: &[i8], c: usize, h: usize, w: usize, out: &mut [i8]) {
    let (oh, ow) = (h / 2, w / 2);
    for (plane, dst) in x
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(oh * ow))
        .take(c)
    {
        for (oy, row) in dst.chunks_exact_mut(ow).enumerate() {
            let (r0, r1) = (&plane[2 * oy * w..], &plane[(2 * oy + 1) * w..]);
            for (ox, o) in row.iter_mut().enumerate() {
                *o = r0[2 * ox]
                    .max(r0[2 * ox + 1])
                    .max(r1[2 * ox])
                    .max(r1[2 * ox + 1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{available_kernels, with_kernel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arb_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as i8
            })
            .collect()
    }

    fn naive_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += i32::from(a[i * k + p]) * i32::from(b[p * n + j]);
                }
            }
        }
        c
    }

    #[test]
    fn gemm_i8_matches_naive_across_kernels() {
        // Shapes hit the 4×8 tile, row/column remainders, odd k (madd
        // tail), n < 8 (pure scalar tail), and k = 0.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 6, 8),
            (5, 7, 19),
            (3, 9, 5),
            (13, 41, 23),
            (8, 0, 8),
            (6, 128, 33),
        ] {
            let a = arb_i8(m * k, 100 + m as u64);
            let b = arb_i8(k * n, 200 + n as u64);
            let want = naive_i8(m, k, n, &a, &b);
            for kern in available_kernels() {
                let got = with_kernel(kern, || {
                    let mut c = vec![-1i32; m * n];
                    gemm_i8(m, k, n, &a, &b, &mut c);
                    c
                });
                assert_eq!(got, want, "kernel {} ({m},{k},{n})", kern.name());
            }
        }
    }

    #[test]
    fn requant_is_kernel_independent_and_matches_the_reference() {
        // Lengths hit the 32-wide vector body and every remainder class;
        // values hit both clamp edges and exact .5 ties (m = 1/64 with
        // integer accumulators lands ties at acc = 32 + 64t).
        for &len in &[0usize, 1, 31, 32, 33, 64, 97, 1024] {
            let acc: Vec<i32> = (0..len as i32).map(|i| i * 37 - 600).collect();
            for &(m, bias, lo, hi) in &[
                (0.015_625f32, 0.25f32, 0i8, 127i8),
                (0.03f32, -1.5f32, -127, 127),
                (1.0f32, 0.0f32, -5, 5),
            ] {
                let mut want = vec![0i8; len];
                for (q, &a) in want.iter_mut().zip(&acc) {
                    *q = (a as f32 * m + bias)
                        .round_ties_even()
                        .clamp(f32::from(lo), f32::from(hi)) as i8;
                }
                for kern in available_kernels() {
                    let got = with_kernel(kern, || {
                        let mut out = vec![99i8; len];
                        requant_i8(&acc, m, bias, lo, hi, &mut out);
                        out
                    });
                    assert_eq!(got, want, "kernel {} len {len}", kern.name());
                }
            }
        }
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_scale() {
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 0.013).collect();
        let scale = symmetric_scale(xs.iter().fold(0.0f32, |m, x| m.max(x.abs())));
        let back = dequantize(&quantize(&xs, scale), scale);
        for (&x, &y) in xs.iter().zip(&back) {
            assert!(
                (x - y).abs() <= scale / 2.0 + 1e-6,
                "{x} -> {y} exceeds half-scale bound {}",
                scale / 2.0
            );
        }
    }

    #[test]
    fn out_of_range_values_clip_to_calibrated_bound() {
        let scale = symmetric_scale(1.0);
        let q = quantize(&[5.0, -5.0], scale);
        assert_eq!(q, vec![127, -127]);
    }

    fn one_layer(layer: impl Layer + 'static) -> Sequential {
        let mut m = Sequential::new("one");
        m.push(layer);
        m
    }

    #[test]
    fn qdense_matches_f64_reference_of_dequantized_operands() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut dense = Dense::new(16, 5, &mut rng);
        for (j, b) in dense.params()[1].values.iter_mut().enumerate() {
            *b = 0.1 * j as f32 - 0.2;
        }
        let model = one_layer(dense.clone());
        let w_scale = symmetric_scale(dense.weight().max_abs());
        let wq = quantize(dense.weight().as_slice(), w_scale);
        for i in 0..3 {
            let x: Vec<f32> = (0..16)
                .map(|p| ((i * 16 + p) as f32 / 24.0) - 1.0)
                .collect();
            let x_scale = symmetric_scale(x.iter().fold(0.0f32, |m, v| m.max(v.abs())));
            let mut plan = Int8Plan::compile(&model, &[x_scale], &[1, 16]);
            let got = plan.forward(&x).to_vec();
            // Reference: exact f64 arithmetic over the dequantized operands.
            let xq = quantize(&x, x_scale);
            for (j, &gotv) in got.iter().enumerate() {
                let acc: i64 = (0..16)
                    .map(|p| i64::from(xq[p]) * i64::from(wq[p * 5 + j]))
                    .sum();
                let want = acc as f64 * f64::from(w_scale) * f64::from(x_scale)
                    + f64::from(dense.bias().as_slice()[j]);
                let gotv = f64::from(gotv);
                assert!(
                    (gotv - want).abs() <= 1e-4 * want.abs().max(1.0),
                    "({i},{j}): {gotv} vs {want}"
                );
            }
        }
    }

    #[test]
    fn qconv_output_close_to_f32_conv() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(2, 4, 3, 1, &mut rng);
        let x = Tensor::from_vec(
            &[1, 2, 8, 8],
            (0..128)
                .map(|i| ((i * 37 % 101) as f32 / 50.0) - 1.0)
                .collect(),
        );
        let f32_out = conv.forward(&x, false);
        let sx = symmetric_scale(x.max_abs());
        let mut plan = Int8Plan::compile(&one_layer(conv.clone()), &[sx], &[1, 2, 8, 8]);
        let q_out = plan.forward(x.as_slice());
        assert_eq!(q_out.len(), f32_out.len());
        // Analytic bound per output: k terms, each contributing at most
        // (s_w/2)·|x| + (s_x/2)·|w| + s_w·s_x/4.
        let k = 2 * 3 * 3;
        let wmax = conv.weight().max_abs();
        let sw = symmetric_scale(wmax);
        let bound = k as f32 * (sw / 2.0 * x.max_abs() + sx / 2.0 * wmax + sw * sx / 4.0);
        for (&a, &b) in q_out.iter().zip(f32_out.as_slice()) {
            assert!(
                (a - b).abs() <= bound,
                "quant drift {a} vs {b} exceeds analytic bound {bound}"
            );
        }
    }

    #[test]
    fn int8_im2col_matches_the_quantized_f32_lowering() {
        for &(c, h, w, k, p) in &[
            (1usize, 5usize, 5usize, 3usize, 1usize),
            (2, 6, 7, 3, 0),
            (3, 4, 4, 5, 2),
            (1, 3, 3, 3, 2),
        ] {
            let xq = arb_i8(c * h * w, (c * 100 + h * 10 + k) as u64);
            let x = Tensor::from_vec(&[1, c, h, w], xq.iter().map(|&q| f32::from(q)).collect());
            let want = quantize(&crate::layers::conv::im2col(&x, 1, c, h, w, k, p), 1.0);
            let mut got = vec![99i8; want.len()];
            im2col_q(&xq, c, h, w, k, p, &mut got);
            assert_eq!(got, want, "c={c} h={h} w={w} k={k} p={p}");
        }
    }

    #[test]
    fn quantized_sequential_mirrors_lenet_and_requantizes() {
        let calib: Vec<Tensor> = (0..4)
            .map(|s| {
                Tensor::from_vec(
                    &[1, 1, 16, 16],
                    (0..256)
                        .map(|i| (((i * 13 + s * 7) % 64) as f32 / 32.0) - 1.0)
                        .collect(),
                )
            })
            .collect();
        // alexnet and lenet pool on i8; resmlp runs its residual block in f32.
        for mut model in crate::models::three_versions(16, 4, 3) {
            let scales = activation_scales(&model, &calib);
            let mut plan = Int8Plan::compile(&model, &scales, &[1, 1, 16, 16]);
            let out = plan.forward(calib[0].as_slice()).to_vec();
            assert_eq!(out.len(), 4);
            let f32_out = model.forward(&calib[0], false);
            // Finite and not wildly off the f32 logits.
            let max_ref = f32_out.max_abs().max(1.0);
            for (&a, &b) in out.iter().zip(f32_out.as_slice()) {
                assert!(
                    (a - b).abs() <= 0.5 * max_ref,
                    "{}: logit drift too large: {a} vs {b}",
                    model.model_name()
                );
            }
            // Requantize from mutated weights: output must track the change.
            for p in model.all_params() {
                if p.name == "weight" {
                    for v in p.values.iter_mut() {
                        *v = -*v;
                    }
                    break;
                }
            }
            plan.requantize(&model);
            assert_ne!(plan.forward(calib[0].as_slice()), &out[..]);
        }
    }

    #[test]
    fn predict_matches_argmax_of_forward() {
        let model = crate::models::lenet_mini(16, 4, 9);
        let x = Tensor::from_vec(
            &[2, 1, 16, 16],
            (0..512).map(|i| ((i % 29) as f32 / 14.5) - 1.0).collect(),
        );
        let scales = activation_scales(&model, std::slice::from_ref(&x));
        let mut plan = Int8Plan::compile(&model, &scales, &[1, 1, 16, 16]);
        for image in x.as_slice().chunks_exact(256) {
            let out = plan.forward(image).to_vec();
            let best = (0..4).max_by(|&a, &b| out[a].total_cmp(&out[b])).unwrap();
            assert_eq!(plan.predict(image), best);
        }
    }

    #[test]
    fn plan_ops_are_kernel_independent() {
        let model = crate::models::lenet_mini(16, 4, 9);
        let x: Vec<f32> = (0..256).map(|i| ((i % 29) as f32 / 14.5) - 1.0).collect();
        let scales = activation_scales(&model, &[Tensor::from_vec(&[1, 1, 16, 16], x.clone())]);
        let mut plan = Int8Plan::compile(&model, &scales, &[1, 1, 16, 16]);
        let bits = |plan: &mut Int8Plan| -> Vec<u32> {
            plan.forward(&x).iter().map(|v| v.to_bits()).collect()
        };
        let want = with_kernel(Kernel::Scalar, || bits(&mut plan));
        for kern in available_kernels() {
            assert_eq!(
                with_kernel(kern, || bits(&mut plan)),
                want,
                "{}",
                kern.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "pooling or ReLU after the last")]
    fn trailing_pool_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = one_layer(Conv2d::new(1, 2, 3, 1, &mut rng));
        m.push(MaxPool2::new());
        let _ = Int8Plan::compile(&m, &[1.0, 1.0], &[1, 1, 4, 4]);
    }
}
