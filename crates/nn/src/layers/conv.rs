//! 2-D convolution (stride 1, symmetric zero padding).
//!
//! Two kernel implementations share one layer:
//!
//! - **GEMM path** (default for channel-rich, work-heavy shapes): lowers the
//!   whole batch to one im2col patch matrix `[C·K·K, N·OH·OW]` and computes
//!   all output channels with a single cache-blocked [`crate::gemm`] call.
//!   The backward pass reuses the cached patch matrix — `dW` is a
//!   `dy · colᵀ` product and the input gradient is a `Wᵀ · dy` product
//!   scattered back (col2im).
//! - **Direct path**: the original nested loops, kept as the small-shape
//!   fallback and as a parity oracle (force it with
//!   [`Conv2d::set_kernel_path`]).
//!
//! Both paths produce gradients verified against numerical differentiation;
//! forward outputs agree to float tolerance (the two paths sum products in
//! different orders, so results are not bitwise identical between paths —
//! but each path individually is deterministic for any thread count).

use crate::gemm;
use crate::init::he_normal;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

/// `Auto` lowers to GEMM only when `out_channels` is at least this ...
const GEMM_MIN_OC: usize = 12;
/// ... and the im2col row count `C·K·K` is at least this ...
const GEMM_MIN_CKK: usize = 32;
/// ... and the total MACs `OC·CKK·cols` are at least this.
///
/// The three thresholds are constants, not host tuning: the two paths sum
/// products in different orders, so the route decides the bits of every
/// trained weight and has to be the same on every host.
const GEMM_MIN_MACS: usize = 1 << 18;

/// Which convolution kernel [`Conv2d`] executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Pick per shape: GEMM when the lowered matrix is chunky in every
    /// dimension (at least 12 output channels, a reduction depth `C·K·K`
    /// of at least 32 and `2^18` MACs), direct loops otherwise. The
    /// thresholds are fixed, not host-tuned: the route decides the bits.
    #[default]
    Auto,
    /// Always lower to im2col + GEMM.
    Gemm,
    /// Always run the direct loops.
    Direct,
}

/// What `forward(train=true)` stashes for the backward pass. Caching the
/// already-lowered buffer (instead of cloning the raw input) means backward
/// never re-pads or re-lowers, and the layer holds no redundant copy of `x`.
#[derive(Clone, Debug)]
enum ConvCache {
    /// GEMM path: per-image im2col patch matrices, `n * (C·K·K) * (OH·OW)`
    /// values, plus the original spatial dims needed to shape the gradient.
    Im2col {
        col: Vec<f32>,
        n: usize,
        h: usize,
        w: usize,
    },
    /// Direct path: the zero-padded input `[N, C, H+2p, W+2p]`.
    Padded {
        xpad: Vec<f32>,
        n: usize,
        h: usize,
        w: usize,
    },
}

/// A 2-D convolution over `[N, C, H, W]` inputs with stride 1 and symmetric
/// zero padding.
#[derive(Clone, Debug)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    weight: Tensor, // [OC, IC, K, K]
    bias: Tensor,   // [OC]
    grad_w: Tensor,
    grad_b: Tensor,
    path: KernelPath,
    cache: Option<ConvCache>,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let n = out_channels * fan_in;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            padding,
            weight: Tensor::from_vec(
                &[out_channels, in_channels, kernel, kernel],
                he_normal(rng, fan_in, n),
            ),
            bias: Tensor::zeros(&[out_channels]),
            grad_w: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_b: Tensor::zeros(&[out_channels]),
            path: KernelPath::default(),
            cache: None,
        }
    }

    /// Forces the kernel choice (parity tests and benchmarks compare paths
    /// on identical shapes; everything else should leave this at `Auto`).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        self.path = path;
    }

    /// Input channel count `C`.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count `OC`.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Square kernel side `K`.
    pub fn kernel_size(&self) -> usize {
        self.kernel
    }

    /// Symmetric zero padding `P`.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// The weight tensor, `[OC, IC, K, K]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor, `[OC]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// `cols` is the batched column count `N·OH·OW`. `Auto` lowers to GEMM
    /// only when all three thresholds hold: enough output rows that
    /// microkernel tiles run full, enough reduction depth (`C·K·K`) to
    /// amortise the im2col build, and enough total MACs to amortise the
    /// per-call buffers.
    fn use_gemm(&self, ckk: usize, cols: usize) -> bool {
        match self.path {
            KernelPath::Gemm => true,
            KernelPath::Direct => false,
            KernelPath::Auto => {
                self.out_channels >= GEMM_MIN_OC
                    && ckk >= GEMM_MIN_CKK
                    && self.out_channels * ckk * cols >= GEMM_MIN_MACS
            }
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            h + 2 * self.padding - self.kernel + 1,
            w + 2 * self.padding - self.kernel + 1,
        )
    }

    /// Copies `x` (`[N, C, H, W]`) into a zero-padded buffer
    /// `[N, C, H+2p, W+2p]`, so the convolution loops need no bounds checks
    /// and vectorise.
    fn pad_input(&self, x: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Vec<f32> {
        pad_input(x, n, c, h, w, self.padding)
    }

    /// Lowers the whole batch to one im2col patch matrix — see [`im2col`].
    fn build_col(&self, x: &Tensor, n: usize, c: usize, h: usize, w: usize) -> Vec<f32> {
        im2col(x, n, c, h, w, self.kernel, self.padding)
    }

    /// Scatters one image's slice of the batched patch-matrix gradient back
    /// into its padded input gradient (col2im): overlapping receptive
    /// fields accumulate. `colgrad` has row stride `cols`; image `img`
    /// occupies columns `img·OH·OW ..`.
    #[allow(clippy::too_many_arguments)]
    fn col2im_add(
        colgrad: &[f32],
        cols: usize,
        img: usize,
        gipad_img: &mut [f32],
        c: usize,
        k: usize,
        ph: usize,
        pw: usize,
        oh: usize,
        ow: usize,
    ) {
        let ohow = oh * ow;
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let r = (ic * k + ky) * k + kx;
                    for oy in 0..oh {
                        let src = r * cols + img * ohow + oy * ow;
                        let dst = ic * ph * pw + (oy + ky) * pw + kx;
                        for (g, &v) in gipad_img[dst..dst + ow]
                            .iter_mut()
                            .zip(&colgrad[src..src + ow])
                        {
                            *g += v;
                        }
                    }
                }
            }
        }
    }

    /// Copies the interior of the padded gradient back to `[N, C, H, W]`.
    fn unpad(&self, gipad: &[f32], n: usize, c: usize, h: usize, w: usize) -> Tensor {
        let p = self.padding;
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let gi = grad_in.as_mut_slice();
        for plane in 0..n * c {
            for y in 0..h {
                let src = plane * ph * pw + (y + p) * pw + p;
                let dst = plane * h * w + y * w;
                gi[dst..dst + w].copy_from_slice(&gipad[src..src + w]);
            }
        }
        grad_in
    }

    /// GEMM forward: one batched product
    /// `tmp[OC, N·OH·OW] = W[OC, C·K·K] · col`, then a contiguous
    /// scatter-with-bias into the `[N, OC, OH, OW]` output layout.
    fn forward_gemm(
        &mut self,
        x: &Tensor,
        train: bool,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let (oh, ow) = self.out_hw(h, w);
        let (ckk, ohow) = (c * self.kernel * self.kernel, oh * ow);
        let cols = n * ohow;
        let col = self.build_col(x, n, c, h, w);
        let mut tmp = vec![0.0f32; self.out_channels * cols];
        gemm::gemm(
            self.out_channels,
            ckk,
            cols,
            self.weight.as_slice(),
            &col,
            &mut tmp,
        );
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let os = out.as_mut_slice();
        let bs = self.bias.as_slice();
        for img in 0..n {
            for (oc, &bias) in bs.iter().enumerate() {
                let src = &tmp[oc * cols + img * ohow..][..ohow];
                let dst = &mut os[(img * self.out_channels + oc) * ohow..][..ohow];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o = v + bias;
                }
            }
        }
        if train {
            self.cache = Some(ConvCache::Im2col { col, n, h, w });
        }
        out
    }

    /// GEMM backward against the cached batched patch matrix:
    /// `dW += dy · colᵀ` ([`gemm::gemm_nt_acc`]), `dcol = Wᵀ · dy`
    /// ([`gemm::gemm_tn`]) scattered back via col2im — each a single
    /// batched product over all images.
    fn backward_gemm(
        &mut self,
        grad_out: &Tensor,
        col: &[f32],
        n: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let c = self.in_channels;
        let (k, p) = (self.kernel, self.padding);
        let (oh, ow) = self.out_hw(h, w);
        let (ckk, ohow) = (c * k * k, oh * ow);
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let cols = n * ohow;
        let gs = grad_out.as_slice();
        let gb = self.grad_b.as_mut_slice();
        // Regroup dy from [N, OC, OH·OW] to the batched GEMM layout
        // [OC, N·OH·OW] (contiguous OH·OW runs), summing bias gradients on
        // the way through.
        let mut dy = vec![0.0f32; self.out_channels * cols];
        for img in 0..n {
            for (oc, gb_v) in gb.iter_mut().enumerate() {
                let src = &gs[(img * self.out_channels + oc) * ohow..][..ohow];
                *gb_v += src.iter().sum::<f32>();
                dy[oc * cols + img * ohow..][..ohow].copy_from_slice(src);
            }
        }
        gemm::gemm_nt_acc(
            self.out_channels,
            cols,
            ckk,
            &dy,
            col,
            self.grad_w.as_mut_slice(),
        );
        let mut colgrad = vec![0.0f32; ckk * cols];
        gemm::gemm_tn(
            ckk,
            self.out_channels,
            cols,
            self.weight.as_slice(),
            &dy,
            &mut colgrad,
        );
        let mut gipad = vec![0.0f32; n * c * ph * pw];
        for img in 0..n {
            let gipad_img = &mut gipad[img * c * ph * pw..][..c * ph * pw];
            Self::col2im_add(&colgrad, cols, img, gipad_img, c, k, ph, pw, oh, ow);
        }
        self.unpad(&gipad, n, c, h, w)
    }

    /// Direct-loop forward over a pre-padded input (reference kernel).
    fn forward_direct(
        &mut self,
        xpad: Vec<f32>,
        train: bool,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let (oh, ow) = self.out_hw(h, w);
        let k = self.kernel;
        let (ph, pw) = (h + 2 * self.padding, w + 2 * self.padding);
        let ws = self.weight.as_slice();
        let bs = self.bias.as_slice();
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let os = out.as_mut_slice();
        for img in 0..n {
            for (oc, &bias) in bs.iter().enumerate() {
                let o_base = ((img * self.out_channels) + oc) * oh * ow;
                os[o_base..o_base + oh * ow].fill(bias);
                for ic in 0..c {
                    let x_base = ((img * c) + ic) * ph * pw;
                    let w_base = ((oc * c) + ic) * k * k;
                    for ky in 0..k {
                        for kx in 0..k {
                            let weight = ws[w_base + ky * k + kx];
                            if weight == 0.0 {
                                continue;
                            }
                            for oy in 0..oh {
                                let xrow = x_base + (oy + ky) * pw + kx;
                                let orow = o_base + oy * ow;
                                let (xr, or) = (&xpad[xrow..xrow + ow], &mut os[orow..orow + ow]);
                                for (o, &v) in or.iter_mut().zip(xr) {
                                    *o += weight * v;
                                }
                            }
                        }
                    }
                }
            }
        }
        if train {
            self.cache = Some(ConvCache::Padded { xpad, n, h, w });
        }
        out
    }

    /// Direct-loop backward against the cached padded input.
    fn backward_direct(
        &mut self,
        grad_out: &Tensor,
        xpad: &[f32],
        n: usize,
        h: usize,
        w: usize,
    ) -> Tensor {
        let c = self.in_channels;
        let k = self.kernel;
        let p = self.padding;
        let (oh, ow) = self.out_hw(h, w);
        let (ph, pw) = (h + 2 * p, w + 2 * p);
        let mut gipad = vec![0.0f32; n * c * ph * pw];
        let gs = grad_out.as_slice();
        let ws = self.weight.as_slice();
        let gw = self.grad_w.as_mut_slice();
        let gb = self.grad_b.as_mut_slice();
        for img in 0..n {
            for (oc, gb_v) in gb.iter_mut().enumerate() {
                let g_base = ((img * self.out_channels) + oc) * oh * ow;
                *gb_v += gs[g_base..g_base + oh * ow].iter().sum::<f32>();
                for ic in 0..c {
                    let x_base = ((img * c) + ic) * ph * pw;
                    let w_base = ((oc * c) + ic) * k * k;
                    for ky in 0..k {
                        for kx in 0..k {
                            let widx = w_base + ky * k + kx;
                            let weight = ws[widx];
                            let mut wacc = 0.0f32;
                            for oy in 0..oh {
                                let xrow = x_base + (oy + ky) * pw + kx;
                                let grow = g_base + oy * ow;
                                let xr = &xpad[xrow..xrow + ow];
                                let gr = &gs[grow..grow + ow];
                                let gir = &mut gipad[xrow..xrow + ow];
                                for ((gi_v, &g), &xv) in gir.iter_mut().zip(gr).zip(xr) {
                                    wacc += g * xv;
                                    *gi_v += g * weight;
                                }
                            }
                            gw[widx] += wacc;
                        }
                    }
                }
            }
        }
        self.unpad(&gipad, n, c, h, w)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w]: [usize; 4] = x.shape().try_into().expect("conv2d expects [N,C,H,W]");
        assert_eq!(c, self.in_channels, "conv2d channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        assert!(oh > 0 && ow > 0, "conv2d output collapsed to zero size");
        let ckk = c * self.kernel * self.kernel;
        if self.use_gemm(ckk, n * oh * ow) {
            self.forward_gemm(x, train, n, c, h, w)
        } else {
            let xpad = self.pad_input(x, n, c, h, w);
            self.forward_direct(xpad, train, n, c, h, w)
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("backward before forward(train=true)");
        let [gn, goc, _, _]: [usize; 4] = grad_out.shape().try_into().expect("grad shape");
        assert_eq!(goc, self.out_channels);
        let grad_in = match &cache {
            ConvCache::Im2col { col, n, h, w } => {
                assert_eq!(gn, *n);
                self.backward_gemm(grad_out, col, *n, *h, *w)
            }
            ConvCache::Padded { xpad, n, h, w } => {
                assert_eq!(gn, *n);
                self.backward_direct(grad_out, xpad, *n, *h, *w)
            }
        };
        // Restore the cache so repeated backward calls (as the numeric
        // gradient tests do) keep working, matching the old behaviour of
        // retaining the cached input.
        self.cache = Some(cache);
        grad_in
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                name: "weight",
                values: self.weight.as_mut_slice(),
                grads: self.grad_w.as_mut_slice(),
            },
            Param {
                name: "bias",
                values: self.bias.as_mut_slice(),
                grads: self.grad_b.as_mut_slice(),
            },
        ]
    }

    fn param_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel + self.out_channels
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let (oh, ow) = self.out_hw(input[2], input[3]);
        vec![input[0], self.out_channels, oh, ow]
    }

    fn macs(&self, input: &[usize]) -> u64 {
        let (oh, ow) = self.out_hw(input[2], input[3]);
        (input[0] * self.out_channels * oh * ow * self.in_channels * self.kernel * self.kernel)
            as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Copies `x` (`[N, C, H, W]`) into a zero-padded buffer
/// `[N, C, H+2p, W+2p]`, so convolution loops need no bounds checks and
/// vectorise. Shared by the f32 layer and the int8 path
/// ([`crate::quant`]).
pub(crate) fn pad_input(x: &Tensor, n: usize, c: usize, h: usize, w: usize, p: usize) -> Vec<f32> {
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let mut out = vec![0.0f32; n * c * ph * pw];
    let xs = x.as_slice();
    for plane in 0..n * c {
        for y in 0..h {
            let src = plane * h * w + y * w;
            let dst = plane * ph * pw + (y + p) * pw + p;
            out[dst..dst + w].copy_from_slice(&xs[src..src + w]);
        }
    }
    out
}

/// Lowers a whole batch to one im2col patch matrix `[C·K·K, N·OH·OW]` with
/// column index `img·OH·OW + oy·OW + ox` and row index
/// `r = (ic·K + ky)·K + kx`, so a forward pass is a **single** GEMM over
/// all images (small per-image products would drown in packing overhead).
/// Every row is built from contiguous `OW`-length `copy_from_slice` runs
/// out of the padded input. Shared by [`Conv2d`] and [`crate::quant`].
pub(crate) fn im2col(
    x: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    p: usize,
) -> Vec<f32> {
    let (oh, ow) = (h + 2 * p - k + 1, w + 2 * p - k + 1);
    let (ckk, ohow) = (c * k * k, oh * ow);
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    let xpad = pad_input(x, n, c, h, w, p);
    let cols = n * ohow;
    let mut col = vec![0.0f32; ckk * cols];
    for img in 0..n {
        for ic in 0..c {
            let x_base = (img * c + ic) * ph * pw;
            for ky in 0..k {
                for kx in 0..k {
                    let r = (ic * k + ky) * k + kx;
                    for oy in 0..oh {
                        let src = x_base + (oy + ky) * pw + kx;
                        let dst = r * cols + img * ohow + oy * ow;
                        col[dst..dst + ow].copy_from_slice(&xpad[src..src + ow]);
                    }
                }
            }
        }
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ident_kernel_conv() -> Conv2d {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        {
            let mut ps = conv.params();
            ps[0].values.fill(0.0);
            ps[0].values[4] = 1.0; // centre tap -> identity
            ps[1].values.fill(0.0);
        }
        conv
    }

    #[test]
    fn identity_kernel_preserves_input() {
        for path in [KernelPath::Direct, KernelPath::Gemm] {
            let mut conv = ident_kernel_conv();
            conv.set_kernel_path(path);
            let x = Tensor::from_vec(&[1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
            let y = conv.forward(&x, false);
            assert_eq!(y.shape(), &[1, 1, 3, 3]);
            assert_eq!(y.as_slice(), x.as_slice(), "path {path:?}");
        }
    }

    #[test]
    fn valid_convolution_known_value() {
        for path in [KernelPath::Direct, KernelPath::Gemm] {
            let mut rng = StdRng::seed_from_u64(1);
            let mut conv = Conv2d::new(1, 1, 2, 0, &mut rng);
            conv.set_kernel_path(path);
            {
                let mut ps = conv.params();
                ps[0].values.copy_from_slice(&[1., 2., 3., 4.]);
                ps[1].values[0] = 0.5;
            }
            let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 1., 1., 1.]);
            let y = conv.forward(&x, false);
            assert_eq!(y.shape(), &[1, 1, 1, 1]);
            assert_eq!(y.as_slice(), &[10.5], "path {path:?}");
        }
    }

    fn check_numeric_gradients(mut conv: Conv2d, x: &Tensor) {
        let y = conv.forward(x, true);
        let gout = Tensor::from_vec(y.shape(), vec![1.0; y.len()]);
        let gx = conv.backward(&gout);

        let eps = 1e-2f32;
        let loss =
            |c: &mut Conv2d, x: &Tensor| -> f32 { c.forward(x, false).as_slice().iter().sum() };
        for &idx in &[0usize, 7, 20, 53] {
            let base = conv.params()[0].values[idx];
            conv.params()[0].values[idx] = base + eps;
            let lp = loss(&mut conv, x);
            conv.params()[0].values[idx] = base - eps;
            let lm = loss(&mut conv, x);
            conv.params()[0].values[idx] = base;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.params()[0].grads[idx];
            assert!(
                (numeric - analytic).abs() < 0.05 * analytic.abs().max(1.0),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // input gradient
        let mut x2 = x.clone();
        for &idx in &[3usize, 17] {
            let base = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = base + eps;
            let lp = loss(&mut conv, &x2);
            x2.as_mut_slice()[idx] = base - eps;
            let lm = loss(&mut conv, &x2);
            x2.as_mut_slice()[idx] = base;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - gx.as_slice()[idx]).abs() < 0.05 * numeric.abs().max(1.0));
        }
        // bias gradient: dL/db = number of output pixels per channel
        let per_channel = 16.0;
        for oc in 0..3 {
            assert!((conv.params()[1].grads[oc] - per_channel).abs() < 1e-3);
        }
    }

    #[test]
    fn gradients_match_numeric() {
        let x = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32)
                .map(|i| ((i * 7) % 11) as f32 / 11.0 - 0.5)
                .collect(),
        );
        for path in [KernelPath::Direct, KernelPath::Gemm] {
            let mut rng = StdRng::seed_from_u64(2);
            let mut conv = Conv2d::new(2, 3, 3, 1, &mut rng);
            conv.set_kernel_path(path);
            check_numeric_gradients(conv, &x);
        }
    }

    #[test]
    fn gemm_and_direct_paths_agree() {
        // Large enough that Auto picks GEMM (ckk=27, ohow=64 -> 1728).
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = Conv2d::new(3, 4, 3, 1, &mut rng);
        let mut b = a.clone();
        a.set_kernel_path(KernelPath::Direct);
        b.set_kernel_path(KernelPath::Gemm);
        let x = Tensor::from_vec(
            &[2, 3, 8, 8],
            (0..2 * 3 * 64)
                .map(|i| ((i * 13) % 23) as f32 / 23.0 - 0.5)
                .collect(),
        );
        let ya = a.forward(&x, true);
        let yb = b.forward(&x, true);
        assert_eq!(ya.shape(), yb.shape());
        for (va, vb) in ya.as_slice().iter().zip(yb.as_slice()) {
            assert!((va - vb).abs() < 1e-5, "forward mismatch: {va} vs {vb}");
        }
        let gout = Tensor::from_vec(
            ya.shape(),
            (0..ya.len()).map(|i| (i % 5) as f32 - 2.0).collect(),
        );
        let ga = a.backward(&gout);
        let gb = b.backward(&gout);
        for (va, vb) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert!((va - vb).abs() < 1e-4, "input-grad mismatch: {va} vs {vb}");
        }
        for (va, vb) in a.params()[0].grads.iter().zip(b.params()[0].grads.iter()) {
            assert!((va - vb).abs() < 1e-3, "weight-grad mismatch: {va} vs {vb}");
        }
    }

    #[test]
    fn pointwise_convolution_paths_agree() {
        // 1x1/no-pad: degenerate lowering (col rows == input planes).
        let mut rng = StdRng::seed_from_u64(8);
        let mut a = Conv2d::new(4, 2, 1, 0, &mut rng);
        let mut b = a.clone();
        a.set_kernel_path(KernelPath::Direct);
        b.set_kernel_path(KernelPath::Gemm);
        let x = Tensor::from_vec(
            &[2, 4, 5, 5],
            (0..2 * 4 * 25)
                .map(|i| ((i * 3) % 17) as f32 / 17.0 - 0.4)
                .collect(),
        );
        let ya = a.forward(&x, true);
        let yb = b.forward(&x, true);
        for (va, vb) in ya.as_slice().iter().zip(yb.as_slice()) {
            assert!((va - vb).abs() < 1e-5);
        }
        let gout = Tensor::from_vec(ya.shape(), vec![0.5; ya.len()]);
        let ga = a.backward(&gout);
        let gb = b.backward(&gout);
        for (va, vb) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert!((va - vb).abs() < 1e-5);
        }
    }

    #[test]
    fn auto_path_crosses_threshold() {
        let mut rng = StdRng::seed_from_u64(9);
        // Few output channels: direct regardless of how many columns.
        let conv = Conv2d::new(6, 6, 3, 1, &mut rng);
        assert!(!conv.use_gemm(54, 1 << 20));
        // Shallow reduction (single input channel): direct.
        let conv = Conv2d::new(1, 16, 3, 1, &mut rng);
        assert!(!conv.use_gemm(9, 1 << 20));
        // Channel-rich and deep but tiny total work: direct.
        let conv = Conv2d::new(6, 16, 3, 0, &mut rng);
        assert!(!conv.use_gemm(54, 100));
        // Channel-rich, deep, batch-sized columns: GEMM.
        assert!(conv.use_gemm(54, 32 * 100));
    }

    #[test]
    fn routing_and_bits_do_not_depend_on_the_tuning() {
        // A lenet-shaped second conv (6 -> 16, k3) at training batch 32
        // with nonzero bias: forward and backward must be bitwise-equal
        // under the default and an extreme tuning.
        let run = || {
            let mut rng = StdRng::seed_from_u64(21);
            let mut conv = Conv2d::new(6, 16, 3, 0, &mut rng);
            // The shape routes to GEMM, so every tuning knob is live.
            assert!(conv.use_gemm(54, 32 * 16));
            for (i, b) in conv.bias.as_mut_slice().iter_mut().enumerate() {
                *b = 0.05 * i as f32 - 0.3;
            }
            let x = Tensor::from_vec(
                &[32, 6, 6, 6],
                (0..32 * 6 * 36)
                    .map(|i| ((i * 7) % 23) as f32 / 23.0 - 0.4)
                    .collect(),
            );
            let y = conv.forward(&x, true);
            let g = Tensor::from_vec(
                y.shape(),
                (0..y.len()).map(|i| (i % 5) as f32 - 2.0).collect(),
            );
            let dx = conv.backward(&g);
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (
                bits(y.as_slice()),
                bits(dx.as_slice()),
                bits(conv.grad_w.as_slice()),
                bits(conv.grad_b.as_slice()),
            )
        };
        let default = crate::tune::with_tuning(crate::tune::Tuning::default(), run);
        let extreme = crate::tune::Tuning {
            mc: 8,
            nc: 8,
            stream_max_rows: 0,
            parallel_macs: 1,
        };
        assert_eq!(crate::tune::with_tuning(extreme, run), default);
    }

    #[test]
    fn shapes_and_macs() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(3, 8, 5, 0, &mut rng);
        assert_eq!(conv.output_shape(&[2, 3, 16, 16]), vec![2, 8, 12, 12]);
        assert_eq!(conv.param_len(), 8 * 3 * 25 + 8);
        assert_eq!(conv.macs(&[1, 3, 16, 16]), (8 * 12 * 12 * 3 * 25) as u64);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_channel_mismatch() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut conv = Conv2d::new(2, 1, 3, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(&[1, 3, 4, 4]), false);
    }
}
