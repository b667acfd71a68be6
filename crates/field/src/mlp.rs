//! A small fully-connected network with ReLU hidden activations.
//!
//! This is the "Feature Computation" engine of the paper's pipeline (§II-B):
//! every ray sample pushes its interpolated feature vector through this MLP.
//! Weights are plain `f32` row-major matrices; [`Mlp::macs_per_inference`]
//! feeds the compute-cost models in `cicero-accel`.

use crate::simd::{self, Lanes};

/// One dense layer: `y = W·x + b` with optional ReLU.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Output dimension.
    pub out_dim: usize,
    /// Input dimension.
    pub in_dim: usize,
    /// Row-major weights, `out_dim × in_dim`.
    pub weights: Vec<f32>,
    /// Biases, length `out_dim`.
    pub biases: Vec<f32>,
    /// Apply ReLU after the affine map.
    pub relu: bool,
}

impl Layer {
    /// Creates a zero-initialized layer.
    pub fn zeros(in_dim: usize, out_dim: usize, relu: bool) -> Self {
        Layer {
            out_dim,
            in_dim,
            weights: vec![0.0; in_dim * out_dim],
            biases: vec![0.0; out_dim],
            relu,
        }
    }

    /// Sets weight `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn set(&mut self, row: usize, col: usize, w: f32) {
        assert!(
            row < self.out_dim && col < self.in_dim,
            "weight index out of range"
        );
        self.weights[row * self.in_dim + col] = w;
    }

    /// Evaluates the layer into `out` (a fixed-size slice of length
    /// `out_dim`), so the inner loop carries no `Vec` capacity bookkeeping.
    fn forward(&self, input: &[f32], out: &mut [f32]) {
        debug_assert_eq!(input.len(), self.in_dim);
        debug_assert_eq!(out.len(), self.out_dim);
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.weights[r * self.in_dim..(r + 1) * self.in_dim];
            let mut acc = self.biases[r];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            if self.relu {
                acc = acc.max(0.0);
            }
            *o = acc;
        }
    }

    /// Evaluates the layer on a block of `k` samples in SoA layout.
    ///
    /// `input` is an `in_dim × k` matrix (`input[i * k + s]` = input `i` of
    /// sample `s`); `out` is `out_dim × k`, same layout. One body,
    /// [`BlockKernel`], runs at whatever vector width
    /// [`simd::dispatch`](crate::simd::dispatch) selects; per sample the
    /// result is bit-identical to [`Layer::forward`] at every width.
    fn forward_block(&self, input: &[f32], out: &mut [f32], k: usize) {
        simd::dispatch(BlockKernel {
            layer: self,
            input,
            out,
            k,
        });
    }
}

/// Output rows per register tile. 4 rows × two `W` vectors of samples is
/// eight accumulators: with the two input vectors and the weight broadcast
/// they fill 11 of the 16 `ymm` registers (of the 32 `zmm` ones at 16
/// lanes), and every weight is loaded once per two vectors of samples,
/// every input once per 4 rows. Eight-row tiles on the 16-lane backend,
/// where the registers would hold them, measured no faster on a 2-vCPU
/// AVX-512 Xeon (hidden-64 `forward_block` at block 16: 143–154 ns per
/// sample at 4 rows, 145–146 at 8).
const TILE_ROWS: usize = 4;

/// The block kernel of [`Layer::forward_block`], written once over
/// [`Lanes`] and instantiated per backend by [`simd::dispatch`].
///
/// The output is cut into register tiles of [`TILE_ROWS`] rows × two `W`
/// vectors of samples (leftover rows: a 2-row and a 1-row tile). Samples
/// past the last full pair drop to one `W` group, then one `H` group, one
/// `Q` group, then one at a time — the same tile over `[f32; 1]`, so the
/// tails are not a second body.
///
/// Bit-identical to [`Layer::forward`] per sample (see `crate::simd`
/// module docs): each lane's accumulator starts from the bias, adds `w * x`
/// terms in ascending input order (mul and add stay separate ops — no FMA
/// contraction), and applies ReLU as `acc.max(0.0)` last. A tile's
/// accumulators are independent (row, sample) cells, so holding many at
/// once changes instruction-level parallelism, never a per-sample
/// operation order.
struct BlockKernel<'a> {
    layer: &'a Layer,
    input: &'a [f32],
    out: &'a mut [f32],
    k: usize,
}

impl simd::Kernel for BlockKernel<'_> {
    #[inline(always)]
    fn run<W: Lanes, H: Lanes, Q: Lanes>(mut self) {
        debug_assert_eq!(self.input.len(), self.layer.in_dim * self.k);
        debug_assert_eq!(self.out.len(), self.layer.out_dim * self.k);
        let out_dim = self.layer.out_dim;
        let mut r = 0;
        while r + TILE_ROWS <= out_dim {
            self.rows::<W, H, Q, TILE_ROWS>(r);
            r += TILE_ROWS;
        }
        if r + 2 <= out_dim {
            self.rows::<W, H, Q, 2>(r);
            r += 2;
        }
        if r < out_dim {
            self.rows::<W, H, Q, 1>(r);
        }
    }
}

impl BlockKernel<'_> {
    /// Output rows `r0..r0 + R` over all `k` samples, widest group first.
    #[inline(always)]
    fn rows<W: Lanes, H: Lanes, Q: Lanes, const R: usize>(&mut self, r0: usize) {
        let k = self.k;
        let mut s = 0;
        while s + 2 * W::N <= k {
            self.tile::<W, R, 2>(r0, s);
            s += 2 * W::N;
        }
        if s + W::N <= k {
            self.tile::<W, R, 1>(r0, s);
            s += W::N;
        }
        if s + H::N <= k {
            self.tile::<H, R, 1>(r0, s);
            s += H::N;
        }
        if s + Q::N <= k {
            self.tile::<Q, R, 1>(r0, s);
            s += Q::N;
        }
        while s < k {
            self.tile::<[f32; 1], R, 1>(r0, s);
            s += 1;
        }
    }

    /// One register tile: rows `r0..r0 + R` × samples `s0..s0 + C * V::N`.
    // Indexed loops over the fixed-size arrays, not iterator chains: an
    // unoptimised build (the tier-1 suite) pays a call per iterator step,
    // and on the one-sample tail that is a handful of calls per MAC.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn tile<V: Lanes, const R: usize, const C: usize>(&mut self, r0: usize, s0: usize) {
        let Layer {
            in_dim,
            ref weights,
            ref biases,
            relu,
            ..
        } = *self.layer;
        let k = self.k;
        // Slices of exactly the length read, so the loops below carry one
        // bounds check per input row and none per weight or lane group.
        let mut wrows: [&[f32]; R] = [&[]; R];
        let mut acc = [[V::splat(0.0); C]; R];
        for r in 0..R {
            wrows[r] = &weights[(r0 + r) * in_dim..][..in_dim];
            acc[r] = [V::splat(biases[r0 + r]); C];
        }
        let mut x = [V::splat(0.0); C];
        for i in 0..in_dim {
            let xrow = &self.input[i * k + s0..][..C * V::N];
            for c in 0..C {
                x[c] = V::load(&xrow[c * V::N..]);
            }
            for r in 0..R {
                let w = V::splat(wrows[r][i]);
                for c in 0..C {
                    acc[r][c] = acc[r][c].add_mul(w, x[c]);
                }
            }
        }
        let zero = V::splat(0.0);
        for r in 0..R {
            let orow = &mut self.out[(r0 + r) * k + s0..][..C * V::N];
            for c in 0..C {
                let a = if relu { acc[r][c].max(zero) } else { acc[r][c] };
                a.store(&mut orow[c * V::N..]);
            }
        }
    }
}

/// Ping-pong activation buffers for allocation-free MLP inference.
///
/// The renderer's inner sample loop runs one inference per processed sample;
/// a scratch owned by the caller (one per thread) lets every inference reuse
/// the same two activation buffers instead of allocating fresh vectors. After
/// the first inference warms the capacities, [`Mlp::forward_into`] and
/// [`crate::Decoder::decode_into`] perform zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Current activations; doubles as the staged input buffer.
    a: Vec<f32>,
    /// Next layer's output, swapped with `a` after every layer.
    b: Vec<f32>,
}

impl MlpScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and returns the input staging buffer. Fill it with the network
    /// input, then call [`Mlp::forward_staged`].
    pub fn stage(&mut self) -> &mut Vec<f32> {
        self.a.clear();
        &mut self.a
    }
}

/// Ping-pong activation matrices for batched (SoA) MLP inference.
///
/// The batched sample engine evaluates K ray samples per inference; both
/// buffers hold `dim × K` activation matrices in sample-minor layout
/// (`buf[i * K + s]` = value `i` of sample `s`), so the inner sample loop of
/// [`Mlp::forward_block`] runs over contiguous memory. One scratch per thread
/// is reused across every block; after warm-up no call allocates.
#[derive(Debug, Clone, Default)]
pub struct MlpBlockScratch {
    /// Current activations; doubles as the staged input matrix.
    a: Vec<f32>,
    /// Next layer's output, swapped with `a` after every layer.
    b: Vec<f32>,
}

impl MlpBlockScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages an input matrix of `len` values, zero-filled, and returns it.
    /// Fill it in SoA layout (`input[i * k + s]`), then call
    /// [`Mlp::forward_block`].
    pub fn stage(&mut self, len: usize) -> &mut [f32] {
        self.a.clear();
        self.a.resize(len, 0.0);
        &mut self.a
    }

    /// The currently staged input matrix (mutable).
    pub fn staged_mut(&mut self) -> &mut [f32] {
        &mut self.a
    }
}

/// A multilayer perceptron.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds an MLP from layers.
    ///
    /// # Panics
    ///
    /// Panics if layers are empty or consecutive dimensions mismatch.
    pub fn new(layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim, pair[1].in_dim,
                "layer dimension mismatch: {} -> {}",
                pair[0].out_dim, pair[1].in_dim
            );
        }
        Mlp { layers }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim
    }

    /// Runs the network, allocating fresh buffers. Convenience wrapper over
    /// [`Mlp::forward_into`] for cold paths; the renderer's sample loop uses
    /// the scratch variant.
    ///
    /// # Panics
    ///
    /// Panics if `input` length differs from [`Mlp::in_dim`].
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut scratch = MlpScratch::new();
        self.forward_into(input, &mut scratch);
        scratch.a
    }

    /// Runs the network through caller-provided ping-pong scratch, returning
    /// the output activations as a slice into the scratch. Allocation-free
    /// once the scratch capacities are warm.
    ///
    /// # Panics
    ///
    /// Panics if `input` length differs from [`Mlp::in_dim`].
    pub fn forward_into<'s>(&self, input: &[f32], scratch: &'s mut MlpScratch) -> &'s [f32] {
        scratch.stage().extend_from_slice(input);
        self.forward_staged(scratch)
    }

    /// Runs the network on the input previously staged via
    /// [`MlpScratch::stage`]. Lets callers assemble the input in place
    /// (features ‖ direction) without an intermediate copy.
    ///
    /// # Panics
    ///
    /// Panics if the staged input length differs from [`Mlp::in_dim`].
    pub fn forward_staged<'s>(&self, scratch: &'s mut MlpScratch) -> &'s [f32] {
        assert_eq!(scratch.a.len(), self.in_dim(), "MLP input size mismatch");
        for layer in &self.layers {
            // Resize only adjusts length (layer.forward overwrites every
            // element); no per-row push/capacity bookkeeping remains.
            scratch.b.resize(layer.out_dim, 0.0);
            layer.forward(&scratch.a, &mut scratch.b);
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        &scratch.a
    }

    /// Runs the network on a block of `k` samples staged in SoA layout via
    /// [`MlpBlockScratch::stage`]. Activations are `dim × k` matrices
    /// (`buf[i * k + s]`); every weight is read once per two vectors of
    /// samples and the sample dimension runs at the host's vector width.
    /// Per sample, the result is **bit-identical** to
    /// [`Mlp::forward_staged`] — the accumulation order within each sample is
    /// unchanged; only the order *across* samples differs, and samples never
    /// mix.
    ///
    /// Returns the `out_dim × k` output matrix. Allocation-free once the
    /// scratch capacities are warm.
    ///
    /// # Panics
    ///
    /// Panics if the staged input length differs from `in_dim × k`.
    pub fn forward_block<'s>(&self, scratch: &'s mut MlpBlockScratch, k: usize) -> &'s [f32] {
        assert_eq!(
            scratch.a.len(),
            self.in_dim() * k,
            "MLP block input size mismatch"
        );
        for layer in &self.layers {
            scratch.b.resize(layer.out_dim * k, 0.0);
            layer.forward_block(&scratch.a, &mut scratch.b, k);
            std::mem::swap(&mut scratch.a, &mut scratch.b);
        }
        &scratch.a
    }

    /// Multiply-accumulate operations per inference (the paper's MLP cost
    /// unit; a TPU-style MAC array executes exactly these).
    pub fn macs_per_inference(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.in_dim * l.out_dim) as u64)
            .sum()
    }

    /// Total weight + bias parameters.
    pub fn parameter_count(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| (l.in_dim * l.out_dim + l.out_dim) as u64)
            .sum()
    }

    /// Model-weight bytes at the given precision (paper: 10–100 KB weights).
    pub fn weight_bytes(&self, bytes_per_param: u64) -> u64 {
        self.parameter_count() * bytes_per_param
    }

    /// Layer dimensions as `(in, out)` pairs, outermost first.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        self.layers.iter().map(|l| (l.in_dim, l.out_dim)).collect()
    }

    /// Constructs a network that routes `signals` input values to its outputs
    /// exactly, while still costing two hidden layers of the given width.
    ///
    /// The first `signals` inputs appear unchanged as the `signals` outputs.
    /// The construction uses ReLU pairs (`x = relu(x) − relu(−x)`), so the
    /// function is exact for any input sign, and fills the remaining hidden
    /// capacity with pseudo-random weights whose downstream influence is zero
    /// — inference cost is that of a *real* dense MLP of this shape, which is
    /// what the hardware models charge for.
    ///
    /// # Panics
    ///
    /// Panics if `hidden < 2 * signals` or `in_dim < signals`.
    pub fn passthrough_decoder(in_dim: usize, hidden: usize, signals: usize) -> Mlp {
        assert!(in_dim >= signals, "need at least {signals} inputs");
        let mut rows = vec![vec![0.0; in_dim]; signals];
        for (s, row) in rows.iter_mut().enumerate() {
            row[s] = 1.0;
        }
        Mlp::linear_decoder(in_dim, hidden, &rows)
    }

    /// Constructs a network that computes `signals = rows · input` exactly
    /// while costing two dense hidden layers of width `hidden`.
    ///
    /// `rows` is the fixed decode matrix (one row per output signal, each of
    /// length `in_dim`). The construction mirrors
    /// [`Mlp::passthrough_decoder`]: each signal uses a ±ReLU pair in the
    /// first layer; unused hidden capacity is filled with pseudo-random
    /// weights that have zero downstream influence.
    ///
    /// Hierarchical encodings use this to realize their level-summing decode
    /// (e.g. the hash grid's residual reconstruction) *inside* the MLP, the
    /// way a trained Instant-NGP decoder folds level mixing into its first
    /// layer.
    ///
    /// # Panics
    ///
    /// Panics if `hidden < 2 * rows.len()` or any row length differs from
    /// `in_dim`.
    pub fn linear_decoder(in_dim: usize, hidden: usize, rows: &[Vec<f32>]) -> Mlp {
        let signals = rows.len();
        assert!(
            hidden >= 2 * signals,
            "hidden width {hidden} too small for {signals} signals"
        );
        for row in rows {
            assert_eq!(row.len(), in_dim, "decode row length must equal in_dim");
        }
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut noise = move || {
            // xorshift64* — deterministic filler weights.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            ((rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / 16_777_216.0 - 0.5) * 0.2
        };

        // Layer 1: ±pairs for each signal; noise rows elsewhere.
        let mut l1 = Layer::zeros(in_dim, hidden, true);
        for (s, row) in rows.iter().enumerate() {
            for (c, &w) in row.iter().enumerate() {
                l1.set(2 * s, c, w);
                l1.set(2 * s + 1, c, -w);
            }
        }
        for r in 2 * signals..hidden {
            for c in 0..in_dim {
                l1.set(r, c, noise());
            }
        }

        // Layer 2: identity on the 2*signals pass-through lanes (their values
        // are non-negative post-ReLU so ReLU is a no-op); noise rows elsewhere
        // feed only from noise lanes so they cannot corrupt the signal.
        let mut l2 = Layer::zeros(hidden, hidden, true);
        for r in 0..2 * signals {
            l2.set(r, r, 1.0);
        }
        for r in 2 * signals..hidden {
            for c in 2 * signals..in_dim.min(hidden) {
                l2.set(r, c, noise());
            }
        }

        // Output layer: recombine pairs, ignore noise lanes.
        let mut l3 = Layer::zeros(hidden, signals, false);
        for s in 0..signals {
            l3.set(s, 2 * s, 1.0);
            l3.set(s, 2 * s + 1, -1.0);
        }

        Mlp::new(vec![l1, l2, l3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_layer_affine() {
        let mut l = Layer::zeros(2, 1, false);
        l.set(0, 0, 2.0);
        l.set(0, 1, -1.0);
        l.biases[0] = 0.5;
        let m = Mlp::new(vec![l]);
        let y = m.forward(&[3.0, 4.0]);
        assert_eq!(y, vec![2.5]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut l = Layer::zeros(1, 1, true);
        l.set(0, 0, 1.0);
        let m = Mlp::new(vec![l]);
        assert_eq!(m.forward(&[-5.0]), vec![0.0]);
        assert_eq!(m.forward(&[5.0]), vec![5.0]);
    }

    #[test]
    fn passthrough_is_exact_for_any_sign() {
        let m = Mlp::passthrough_decoder(10, 64, 7);
        let input: Vec<f32> = (0..10).map(|i| (i as f32 - 5.0) * 1.7).collect();
        let out = m.forward(&input);
        assert_eq!(out.len(), 7);
        for (i, o) in out.iter().enumerate() {
            assert!(
                (o - input[i]).abs() < 1e-5,
                "signal {i}: {o} != {}",
                input[i]
            );
        }
    }

    #[test]
    fn linear_decoder_computes_row_combinations() {
        // Two signals: sum of inputs 0+2, difference 1-3.
        let rows = vec![
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, -1.0, 0.0],
        ];
        let m = Mlp::linear_decoder(5, 16, &rows);
        let out = m.forward(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((out[0] - 4.0).abs() < 1e-5);
        assert!((out[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn passthrough_cost_matches_dense_shape() {
        let m = Mlp::passthrough_decoder(15, 64, 7);
        assert_eq!(m.macs_per_inference(), (15 * 64 + 64 * 64 + 64 * 7) as u64);
        assert_eq!(m.layer_dims(), vec![(15, 64), (64, 64), (64, 7)]);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_is_rejected() {
        let l1 = Layer::zeros(4, 8, true);
        let l2 = Layer::zeros(9, 2, false);
        let _ = Mlp::new(vec![l1, l2]);
    }

    #[test]
    #[should_panic]
    fn wrong_input_length_panics() {
        let m = Mlp::passthrough_decoder(8, 32, 4);
        let _ = m.forward(&[1.0, 2.0]);
    }

    #[test]
    fn forward_into_matches_forward_across_reuse() {
        let m = Mlp::passthrough_decoder(10, 32, 7);
        let mut scratch = MlpScratch::new();
        for k in 0..4 {
            let input: Vec<f32> = (0..10).map(|i| (i + k) as f32 * 0.3 - 1.0).collect();
            let fresh = m.forward(&input);
            let reused = m.forward_into(&input, &mut scratch);
            assert_eq!(fresh.as_slice(), reused, "iteration {k}");
        }
    }

    #[test]
    fn forward_block_matches_scalar_bitwise() {
        // Passthrough decoders carry deterministic pseudo-random noise rows,
        // so this exercises real mixed-sign accumulation, not just zeros.
        let m = Mlp::passthrough_decoder(10, 32, 7);
        let sample = |s: usize, i: usize| ((i as f32) * 0.37 - 1.1) * (s as f32 * 0.61 + 1.0);
        for k in [1usize, 3, 16, 64] {
            let mut block = MlpBlockScratch::new();
            let input = block.stage(10 * k);
            for s in 0..k {
                for i in 0..10 {
                    input[i * k + s] = sample(s, i);
                }
            }
            let out = m.forward_block(&mut block, k).to_vec();
            for s in 0..k {
                let single: Vec<f32> = (0..10).map(|i| sample(s, i)).collect();
                let scalar = m.forward(&single);
                for (r, &v) in scalar.iter().enumerate() {
                    // Bit-identical, not merely close: the batched engine's
                    // determinism contract.
                    assert_eq!(out[r * k + s], v, "k={k} sample={s} row={r}");
                }
            }
        }
    }

    #[test]
    fn forward_block_wide_matches_scalar_bitwise() {
        // The one block-kernel body on every backend this host can run,
        // against per-sample `Layer::forward` — independent of the
        // process-wide `simd` switch. The sizes cover every tile shape at 8
        // and at 16 lanes: sample groups of 2W, W, H, Q and 1 in every
        // combination (47 = 32 + 8 + 4 + 3), and row tiles of 4, 2 and 1
        // (out_dim 9 = 4 + 4 + 1, 7 = 4 + 2 + 1).
        for backend in simd::Backend::ALL {
            if !backend.supported() {
                println!("skipping {backend:?}: not supported in this build on this host");
                continue;
            }
            for (relu, out_dim) in [false, true]
                .into_iter()
                .flat_map(|relu| [1usize, 7, 9, 64].map(|out_dim| (relu, out_dim)))
            {
                let mut layer = Layer::zeros(11, out_dim, relu);
                for r in 0..out_dim {
                    layer.biases[r] = (r as f32 * 0.83).cos() * 0.2;
                    for c in 0..11 {
                        layer.set(r, c, ((r * 31 + c * 7) as f32 * 0.113).sin());
                    }
                }
                for k in [1usize, 3, 4, 5, 8, 13, 16, 20, 24, 29, 47, 64] {
                    let input: Vec<f32> = (0..11 * k)
                        .map(|i| (i as f32 * 0.291).sin() * 2.5 - 0.6)
                        .collect();
                    let mut block = vec![0.0f32; out_dim * k];
                    simd::run_on(
                        backend,
                        BlockKernel {
                            layer: &layer,
                            input: &input,
                            out: &mut block,
                            k,
                        },
                    );
                    let mut single = vec![0.0f32; out_dim];
                    for s in 0..k {
                        let x: Vec<f32> = (0..11).map(|i| input[i * k + s]).collect();
                        layer.forward(&x, &mut single);
                        for (r, &v) in single.iter().enumerate() {
                            assert_eq!(
                                block[r * k + s].to_bits(),
                                v.to_bits(),
                                "{backend:?} relu={relu} out_dim={out_dim} k={k} sample={s} row={r}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn block_input_length_is_checked() {
        let m = Mlp::passthrough_decoder(8, 32, 4);
        let mut scratch = MlpBlockScratch::new();
        scratch.stage(8 * 3);
        let _ = m.forward_block(&mut scratch, 4);
    }

    #[test]
    #[should_panic]
    fn staged_input_length_is_checked() {
        let m = Mlp::passthrough_decoder(8, 32, 4);
        let mut scratch = MlpScratch::new();
        scratch.stage().extend_from_slice(&[1.0, 2.0]);
        let _ = m.forward_staged(&mut scratch);
    }

    #[test]
    fn parameter_count_includes_biases() {
        let m = Mlp::new(vec![Layer::zeros(3, 5, true), Layer::zeros(5, 2, false)]);
        assert_eq!(m.parameter_count(), (3 * 5 + 5 + 5 * 2 + 2) as u64);
        assert_eq!(m.weight_bytes(2), 2 * m.parameter_count());
    }
}
