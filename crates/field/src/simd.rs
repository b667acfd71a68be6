//! Explicit wide-vector kernels: a lane-vector trait, kernels written once
//! over it, and run-time dispatch to the host's real vector width.
//!
//! The SoA sample engine (PR 5) relied on the autovectorizer to find lanes in
//! `forward_block` and the batched feature gathers. This module makes the
//! lanes explicit: [`Lanes`] + [`Kernel`] + [`dispatch`] — a kernel body
//! written **once** over an abstract lane vector and instantiated per
//! [`Backend`]: portable `[f32; N]`, a pair of SSE2 `__m128` registers, a
//! 256-bit AVX `__m256` and a 512-bit AVX-512 `__m512`, the last two
//! selected at run time (`is_x86_feature_detected!`, cached). What runs on
//! [`Lanes`]: the MLP block kernel (`Layer::forward_block`), the three
//! encoding gathers (`interpolate_block_into`) and the SPARW splat,
//! normalize and void-classify passes of `cicero::sparw`.
//!
//! The lanes are f32. The one integer result a [`Lanes`] op gives is
//! [`Lanes::cell_fraction`]'s cells, the float → int split of the grid and
//! hash gathers' index pass, which a plain `as u32` would not vectorise.
//! The integer work after it (the gathers' corner offsets: strides or hash
//! primes, `+` or `^`, the table mask, the row width) is plain `u32` code
//! in a loop across a chunk's samples, written once and vectorised by the
//! compiler inside each trampoline. The one load of something other than
//! f32 is [`Lanes::load_half`]: every feature table (grid vertices, hash
//! rows, tensor planes and lines) stores IEEE half floats, and it widens a
//! row exactly as it loads it (`vcvtph2ps` on every vector of the AVX and
//! AVX-512 instances, the 4-lane ones included; `widen_half` per lane on
//! the SSE2 and portable ones), so every backend still sees the same f32
//! values.
//!
//! | backend | `W` (widest) | `H` (half) | `Q` (4 lanes) | selected when |
//! |---|---|---|---|---|
//! | `avx512` | one `__m512` | one `__m256` | one `__m128`, F16C widening | x86_64, CPU reports AVX-512F and F16C |
//! | `avx` | one `__m256` | one `__m128`, F16C widening | one `__m128`, F16C widening | x86_64, CPU reports AVX and F16C |
//! | `sse2` | two `__m128` | one `__m128` | one `__m128` | x86_64 |
//! | `portable` | `[f32; 8]` | `[f32; 4]` | `[f32; 4]` | capped, or another target |
//!
//! # Determinism contract
//!
//! Every backend must produce the **same bits** as the per-element code a
//! kernel replaces, so the whole determinism suite holds on every backend.
//! The rules every kernel follows:
//!
//! - **Same expression tree per lane.** Each lane of a wide op computes
//!   exactly the scalar expression: `_mm_add_ps` / `_mm_sub_ps` /
//!   `_mm_mul_ps` / `_mm_div_ps` / `_mm_max_ps` are per-lane IEEE-754
//!   identical to the scalar `+`, `-`, `*`, `/` and `f32::max`. No
//!   `rsqrt`/`rcp` approximations, no horizontal ops.
//! - **No FMA, by construction.** A fused multiply-add rounds once where
//!   `a + w * x` rounds twice, so one would move bits. None is emitted for
//!   two reasons that hold whatever features a trampoline enables: rustc
//!   never contracts a separate multiply and add (it compiles without
//!   LLVM's `contract` flag, so even the AVX-512 trampoline, whose
//!   `avx512f` implies `fma` in LLVM, keeps them apart), and no
//!   implementor calls a fused intrinsic — [`Lanes::add_mul`] is a `mul`
//!   intrinsic and then an `add` one. `tests::no_backend_fuses_add_mul`
//!   runs inputs on which the two roundings differ from one through every
//!   backend.
//! - **Width changes nothing.** The 256- and 512-bit `mul` and `add` are the
//!   128-bit ops on eight or sixteen lanes: each lane is rounded on its
//!   own, exactly as `mulss` / `addss` round a scalar. Width is not
//!   precision; only fusion would be.
//! - **Fixed accumulation order.** Accumulators start from the same value
//!   as the scalar code (the bias, or 0.0) and add terms in the same
//!   ascending order. Adding into a register instead of a memory slot does
//!   not change results: f32 addition is deterministic regardless of where
//!   the operand lives.
//! - **Operand order preserved.** `max` keeps the scalar operand order
//!   (`acc.max(0.0)`, not `0.0.max(acc)`) so NaN propagation matches maxss.
//!   `cell_fraction` spells `f32::clamp` as `min(top, max(0, u))`, whose
//!   `minps` / `maxps` return their second operand on NaN and on ±0 ties:
//!   NaN and −0.0 pass through as in the scalar, and a NaN lane's cell is
//!   0, as `NaN as u32` is.
//! - **Tails run the same body.** Remainder lanes (block size not a
//!   multiple of `W::N`, trailing channels or pixels) go through the kernel
//!   body once more over `H`, then `Q`, then `[f32; 1]`, or are padded into
//!   a full vector whose extra lanes are computed and discarded; neither is
//!   a second copy of the math.
//!
//! # Runtime dispatch
//!
//! On x86_64 the wide backends are always compiled in (the `simd` cargo
//! feature is an empty name kept for manifests that list it);
//! [`dispatch`] runs a [`Kernel`] on the widest one the host supports, and
//! [`backend`] names it. One process-wide cap narrows that, and
//! [`set_backend_cap`] is the only way to move it, so one binary can compare
//! the instances (`tests/frame_matrix.rs`, `tests/zero_alloc.rs` and
//! `tests/swarm_matrix.rs` do); [`Backend::WIDEST`] is the cap that caps
//! nothing.
//! The cap is not part of any configuration and no environment variable
//! reads it: the output does not depend on it. Off x86_64 everything runs
//! the portable instance.
//!
//! # Adding a wide kernel
//!
//! There is one recipe, and no scalar twin to keep in step
//! (`Layer::forward_block` in `mlp.rs`, `interpolate_block_into` of the
//! three encodings, the row and band passes of `cicero::sparw`):
//!
//! 1. Put the arguments in a struct and implement [`Kernel`] for it. Write
//!    `run` against `W` (the backend's widest vector, 8 or 16 lanes), `H`
//!    (half of it), `Q` (4 lanes) and `[f32; 1]` for the tail, using only
//!    the [`Lanes`] ops; stage lanes through stack arrays of [`MAX_LANES`],
//!    and mark `run` and its helpers `#[inline(always)]`. Keep [`Lanes`]
//!    ops out of closures handed to std helpers (`array::map`, iterator
//!    adaptors): the helper is compiled outside the backend trampoline, so
//!    the ops inside it are calls, not instructions (a tensor gather written
//!    that way ran at half speed).
//!    The same goes for a pool band closure: call [`dispatch`] *inside* the
//!    closure, once per band, and keep the lane ops in the kernel's own
//!    `#[inline(always)]` methods — never hand the kernel a closure to call
//!    per group. There is no second, scalar copy: the portable instance is
//!    the scalar path, and the per-element code the kernel replaces
//!    (`Layer::forward`, the encodings' `interpolate_into`,
//!    `Camera::unproject_to_world` / `project_world`) stays as the oracle.
//! 2. Call [`dispatch`] where the loop used to be.
//! 3. Test every backend with [`run_on`] against the oracle, skipping the
//!    ones [`Backend::supported`] rules out on the host.
//! 4. An op the body needs and [`Lanes`] lacks is added to the trait and to
//!    its five implementors, with the scalar expression it equals per lane.

// Unsafe is confined to the x86 backends below: unaligned load/store
// intrinsics behind slice-length asserts, and the calls into the AVX and
// AVX-512 trampolines behind run-time detection. The portable backend and
// everything else in this module is unsafe-free.
#![cfg_attr(target_arch = "x86_64", allow(unsafe_code))]

use std::sync::atomic::{AtomicU8, Ordering};

/// The vector backends a [`Kernel`] is instantiated for, narrowest first
/// (the order is the cap order: a cap admits itself and everything below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// `[f32; N]` per-lane loops: every target, and what "scalar" means.
    Portable,
    /// 128-bit SSE2, the x86_64 baseline.
    Sse2,
    /// 256-bit AVX (`mul` + `add`, never FMA), detected at run time.
    Avx,
    /// 512-bit AVX-512F (`mul` + `add`, never FMA), detected at run time.
    Avx512,
}

impl Backend {
    /// Every backend, narrowest first.
    pub const ALL: [Backend; 4] = [
        Backend::Portable,
        Backend::Sse2,
        Backend::Avx,
        Backend::Avx512,
    ];

    /// The widest backend, last of [`Backend::ALL`]: as a cap it caps
    /// nothing, so [`set_backend_cap`]`(Backend::WIDEST)` is "uncapped" —
    /// dispatch goes to whatever the host's widest is.
    pub const WIDEST: Backend = Backend::ALL[Backend::ALL.len() - 1];

    /// The name [`backend`] reports: `"portable"`, `"sse2"`, `"avx"` or
    /// `"avx512"`.
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            Backend::Sse2 => "sse2",
            Backend::Avx => "avx",
            Backend::Avx512 => "avx512",
        }
    }

    /// Can this process run the backend? Needs x86_64 for anything but
    /// [`Backend::Portable`], and the CPU's say-so for [`Backend::Avx`] and
    /// [`Backend::Avx512`] (each with F16C).
    pub fn supported(self) -> bool {
        self <= host_widest()
    }

    fn from_code(code: u8) -> Backend {
        Backend::ALL[usize::from(code) - 1]
    }

    fn code(self) -> u8 {
        self as u8 + 1
    }
}

// The widest backend `dispatch` selects, as `Backend::code`: the host's
// widest, lowered by `set_backend_cap`. 0 = unset (detect on first use).
static WIDEST: AtomicU8 = AtomicU8::new(0);

/// Name of the backend [`dispatch`] selects right now: `"avx512"`, `"avx"`,
/// `"sse2"` or `"portable"`.
pub fn backend() -> &'static str {
    dispatched().name()
}

/// The backend [`dispatch`] selects right now: the host's widest under the
/// cap ([`Backend::Portable`] off x86_64).
#[inline]
pub fn dispatched() -> Backend {
    match WIDEST.load(Ordering::Relaxed) {
        0 => init_widest(),
        code => Backend::from_code(code),
    }
}

#[cold]
fn init_widest() -> Backend {
    set_backend_cap(Backend::WIDEST);
    Backend::from_code(WIDEST.load(Ordering::Relaxed))
}

/// The widest backend this process can run: compiled in, and for AVX and
/// AVX-512 reported by the CPU together with F16C, whose `vcvtph2ps` both
/// use for [`Lanes::load_half`] (`is_x86_feature_detected!` caches its
/// answer).
fn host_widest() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if !std::arch::is_x86_feature_detected!("f16c") {
            Backend::Sse2
        } else if std::arch::is_x86_feature_detected!("avx512f") {
            Backend::Avx512
        } else if std::arch::is_x86_feature_detected!("avx") {
            Backend::Avx
        } else {
            Backend::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    Backend::Portable
}

/// Caps the backend [`dispatch`] selects (uncapped until the first call);
/// the host's widest still applies, so [`Backend::WIDEST`] means "no cap"
/// and [`Backend::Portable`] is what "scalar" means. Only the determinism
/// tests have a reason to call it.
pub fn set_backend_cap(cap: Backend) {
    WIDEST.store(host_widest().min(cap).code(), Ordering::Relaxed);
}

/// One lane vector of a [`Kernel`] body: `N` f32 lanes and the ops the
/// kernels need (a bias-first dot product with ReLU; weighted sums and lerps
/// of feature rows; the pinhole reprojection chain; the gathers' cell
/// split). Every op is per-lane IEEE-754 identical to the scalar expression
/// its docs name, on every implementor.
pub trait Lanes: Copy {
    /// Lane count.
    const N: usize;
    /// All lanes set to `v`.
    fn splat(v: f32) -> Self;
    /// Load lanes from `src[0..N]`. Panics if `src` is shorter than `N`.
    fn load(src: &[f32]) -> Self;
    /// Load lanes from the IEEE half floats `src[0..N]`, each widened by
    /// `widen_half`: exactly (every half is an f32), a NaN made quiet
    /// with its payload kept, as `vcvtph2ps` widens. Panics if `src` is
    /// shorter than `N`.
    fn load_half(src: &[u16]) -> Self;
    /// Store lanes to `dst[0..N]`. Panics if `dst` is shorter than `N`.
    fn store(self, dst: &mut [f32]);
    /// Lane-wise `self + o`, rounded once.
    fn add(self, o: Self) -> Self;
    /// Lane-wise `self - o`, rounded once.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `self * o`, rounded once (never contracted with a
    /// following add).
    fn mul(self, o: Self) -> Self;
    /// Lane-wise `self / o`, correctly rounded like the scalar `/` (no
    /// reciprocal approximation); a zero or non-finite divisor yields the
    /// scalar's `inf` / NaN and never traps.
    fn div(self, o: Self) -> Self;
    /// Lane-wise `self + w * x`: a rounded multiply, then a rounded add —
    /// two ops, never fused.
    fn add_mul(self, w: Self, x: Self) -> Self;
    /// Lane-wise `self.max(o)`. Bit-identical to scalar `f32::max` as long
    /// as `o` has no NaN or -0.0 lanes (`maxps` returns the second operand
    /// on NaN or ±0 ties, which then coincides with scalar maximumNumber
    /// semantics) — the kernels only ever pass `o = splat(0.0)`, the ReLU
    /// threshold, which satisfies both.
    fn max(self, o: Self) -> Self;
    /// Lane-wise `encoding::cell_fraction(self, cells)`, the float → int
    /// step of the gathers' index pass: lane `i`'s cell goes to `cell[i]`,
    /// its fraction is returned. `cells` is in `1..=1 << 24`, so every cell
    /// and `cells - 1` are exact in f32. Panics if `cell` is shorter than
    /// `N`.
    fn cell_fraction(self, cells: u32, cell: &mut [u32]) -> Self;
}

/// The portable backend, at any width: `[f32; 1]` is the scalar tail of
/// every instance.
// Plain indexed loops: an unoptimised build (the tier-1 suite) pays a call
// per iterator step, and this is its MLP.
impl<const N: usize> Lanes for [f32; N] {
    const N: usize = N;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        [v; N]
    }

    #[inline(always)]
    fn load(src: &[f32]) -> Self {
        let mut lanes = [0.0f32; N];
        lanes.copy_from_slice(&src[..N]);
        lanes
    }

    #[inline(always)]
    fn load_half(src: &[u16]) -> Self {
        let src = &src[..N];
        let mut lanes = [0.0f32; N];
        let mut i = 0;
        while i < N {
            lanes[i] = widen_half(src[i]);
            i += 1;
        }
        lanes
    }

    #[inline(always)]
    fn store(self, dst: &mut [f32]) {
        dst[..N].copy_from_slice(&self);
    }

    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        let mut i = 0;
        while i < N {
            self[i] += o[i];
            i += 1;
        }
        self
    }

    #[inline(always)]
    fn sub(mut self, o: Self) -> Self {
        let mut i = 0;
        while i < N {
            self[i] -= o[i];
            i += 1;
        }
        self
    }

    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        let mut i = 0;
        while i < N {
            self[i] *= o[i];
            i += 1;
        }
        self
    }

    #[inline(always)]
    fn div(mut self, o: Self) -> Self {
        let mut i = 0;
        while i < N {
            self[i] /= o[i];
            i += 1;
        }
        self
    }

    #[inline(always)]
    fn add_mul(mut self, w: Self, x: Self) -> Self {
        let mut i = 0;
        while i < N {
            self[i] += w[i] * x[i];
            i += 1;
        }
        self
    }

    #[inline(always)]
    fn max(mut self, o: Self) -> Self {
        let mut i = 0;
        while i < N {
            self[i] = self[i].max(o[i]);
            i += 1;
        }
        self
    }

    #[inline(always)]
    fn cell_fraction(mut self, cells: u32, cell: &mut [u32]) -> Self {
        let cell = &mut cell[..N];
        let mut i = 0;
        while i < N {
            (cell[i], self[i]) = crate::encoding::cell_fraction(self[i], cells);
            i += 1;
        }
        self
    }
}

/// The IEEE half `h` as the f32 of the same value, exactly: the scalar
/// widening every [`Lanes::load_half`] equals. A NaN comes out quiet, its
/// 10 payload bits shifted to the top of the f32's and the quiet bit set,
/// as `vcvtph2ps` widens one. Written with selects, not table lookups, so
/// a loop of it vectorises.
#[inline(always)]
pub(crate) fn widen_half(h: u16) -> f32 {
    let h = u32::from(h);
    // Exponent and mantissa at the f32's place, rebiased from 15 to 127.
    let magnitude = (h & 0x7fff) << 13;
    let exponent = magnitude & 0x0f80_0000;
    let rebiased = magnitude + ((127 - 15) << 23);
    let bits = if exponent == 0x0f80_0000 {
        // ∞ or NaN: the all-ones exponent, a NaN quieted.
        let quiet = if magnitude & 0x007f_e000 != 0 {
            0x0040_0000
        } else {
            0
        };
        (rebiased + ((128 - 16) << 23)) | quiet
    } else if exponent == 0 {
        // Zero or subnormal, m · 2⁻²⁴: 2⁻¹⁴ · (1 + m · 2⁻¹⁰) − 2⁻¹⁴, an
        // exact difference of two normal f32s.
        (f32::from_bits(rebiased + (1 << 23)) - f32::from_bits(113 << 23)).to_bits()
    } else {
        rebiased
    };
    f32::from_bits(bits | (h & 0x8000) << 16)
}

/// `v` rounded to the nearest IEEE half, ties to even, as `vcvtps2ph` with
/// rounding mode 0 gives it: magnitudes from 65 520 (the tie between the
/// largest finite half, 65 504, and 2¹⁶) up go to ∞, those up to 2⁻²⁵ (the
/// tie with zero included) to a signed zero, and a NaN stays a quiet NaN
/// with the top 9 bits of its payload.
pub(crate) fn round_to_half(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = (bits >> 16) as u16 & 0x8000;
    let abs = bits & 0x7fff_ffff;
    let magnitude = if abs > 0x7f80_0000 {
        0x7e00 | (abs >> 13) as u16 & 0x3ff
    } else if abs >= 0x477f_f000 {
        0x7c00
    } else if abs >= 0x3880_0000 {
        // Normal: rebias, then round off the low 13 mantissa bits; a carry
        // out of the mantissa steps the exponent, as it should.
        let rebiased = abs - ((127 - 15) << 23);
        ((rebiased + 0x0fff + (rebiased >> 13 & 1)) >> 13) as u16
    } else if abs > 0x3300_0000 {
        // Subnormal: the multiple of 2⁻²⁴ nearest m · 2^(e − 150), ties to
        // even (a round-up to 2¹⁰ · 2⁻²⁴ is the smallest normal's bits).
        let shift = 126 - (abs >> 23);
        let m = abs & 0x007f_ffff | 0x0080_0000;
        let (q, rem, tie) = (m >> shift, m & ((1 << shift) - 1), 1 << (shift - 1));
        (q + u32::from(rem > tie || rem == tie && q & 1 == 1)) as u16
    } else {
        0
    };
    sign | magnitude
}

/// The clamp bound and the last cell of `cell_fraction` on `cells` cells,
/// the scalar values the x86 backends splat: `cells - 1e-4` (the clamp's
/// upper bound) and `cells - 1` (exact for `cells <= 1 << 24`).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn cell_bounds(cells: u32) -> (f32, f32) {
    debug_assert!((1..=1 << 24).contains(&cells), "{cells} cells");
    (cells as f32 - 1e-4, (cells - 1) as f32)
}

/// The most lanes any backend's `W` has: the length of the stack arrays a
/// kernel stages lanes through (`W::N <= MAX_LANES` on every backend).
pub const MAX_LANES: usize = 16;

/// A block kernel written once over [`Lanes`] and instantiated per backend
/// by [`dispatch`]. `W` is the backend's widest vector, 8 or 16 lanes; `H`
/// is half of it and `Q` has 4 lanes (on 8-lane backends `H` and `Q` are one
/// type); bodies take the scalar tail as `[f32; 1]`. A tail ladder steps
/// `W`, `H`, `Q`, then one lane at a time, so a remainder of 4–7 lanes
/// after the 16-lane groups does not fall to the scalar tail.
///
/// Mark `run` and everything it calls `#[inline(always)]`: the AVX and
/// AVX-512 instances only become AVX and AVX-512 code by being inlined into
/// this module's `#[target_feature]` trampolines.
pub trait Kernel {
    /// The body.
    fn run<W: Lanes, H: Lanes, Q: Lanes>(self);
}

/// Runs `kernel` on the backend [`dispatched`] names.
#[inline]
pub fn dispatch<K: Kernel>(kernel: K) {
    run_on(dispatched(), kernel)
}

/// Runs `kernel` on one named backend, whatever the process-wide cap says
/// (the per-kernel bitwise tests compare backends this way).
///
/// # Panics
///
/// Panics if the backend is not [`supported`](Backend::supported).
#[inline]
pub fn run_on<K: Kernel>(backend: Backend, kernel: K) {
    assert!(backend.supported(), "{backend:?} cannot run on this host");
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported` just confirmed the CPU reports AVX-512F and
        // F16C.
        Backend::Avx512 => unsafe { backend::run_avx512(kernel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `supported` just confirmed the CPU reports AVX and F16C.
        Backend::Avx => unsafe { backend::run_avx(kernel) },
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => kernel.run::<backend::F32x8, backend::F32x4, backend::F32x4>(),
        // Off x86_64 `supported` admits nothing wider than portable.
        _ => kernel.run::<[f32; 8], [f32; 4], [f32; 4]>(),
    }
}

#[cfg(target_arch = "x86_64")]
mod backend {
    use super::{cell_bounds, Kernel, Lanes};
    use std::arch::x86_64::{
        __m128, __m256, __m512, _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtph_ps,
        _mm256_cvttps_epi32, _mm256_div_ps, _mm256_loadu_ps, _mm256_loadu_si256, _mm256_max_ps,
        _mm256_min_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
        _mm256_storeu_si256, _mm256_sub_ps, _mm512_add_ps, _mm512_cvtepi32_ps, _mm512_cvtph_ps,
        _mm512_cvttps_epi32, _mm512_div_ps, _mm512_loadu_ps, _mm512_max_ps, _mm512_min_ps,
        _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _mm512_storeu_si512,
        _mm512_sub_ps, _mm_add_ps, _mm_cvtepi32_ps, _mm_cvtph_ps, _mm_cvttps_epi32, _mm_div_ps,
        _mm_loadl_epi64, _mm_loadu_ps, _mm_loadu_si128, _mm_max_ps, _mm_min_ps, _mm_mul_ps,
        _mm_set1_ps, _mm_setzero_ps, _mm_storeu_ps, _mm_storeu_si128, _mm_sub_ps,
    };

    /// 4 f32 lanes in one SSE2 register: the `H` and `Q` of the SSE2
    /// instance, each half of the SSE2 [`F32x8`], and the body of the AVX
    /// and AVX-512 instances' 4-lane [`F32x4F16c`].
    ///
    /// SAFETY note shared by every intrinsic call below: SSE/SSE2 are part
    /// of the x86_64 baseline ABI, statically enabled for every x86_64
    /// target, so the `#[target_feature]` requirement on the intrinsics is
    /// always met; the register-only intrinsics touch no memory.
    #[derive(Clone, Copy)]
    pub struct F32x4(__m128);

    impl Lanes for F32x4 {
        const N: usize = 4;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            Self(unsafe { _mm_set1_ps(v) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            assert!(src.len() >= 4, "F32x4::load needs 4 elements");
            // SAFETY: the assert guarantees 4 readable f32s at `src`;
            // loadu has no alignment requirement.
            Self(unsafe { _mm_loadu_ps(src.as_ptr()) })
        }

        /// The scalar widening per lane. This type is the SSE2 backend's,
        /// and F16C is not part of the SSE2 baseline: a host may have SSE2
        /// and no `vcvtph2ps`. The AVX and AVX-512 trampolines, which
        /// require F16C, use [`F32x4F16c`] instead.
        #[inline(always)]
        fn load_half(src: &[u16]) -> Self {
            Self::load(&<[f32; 4]>::load_half(src))
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= 4, "F32x4::store needs 4 elements");
            // SAFETY: the assert guarantees 4 writable f32s at `dst`;
            // storeu has no alignment requirement.
            unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            Self(unsafe { _mm_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            Self(unsafe { _mm_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            Self(unsafe { _mm_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            Self(unsafe { _mm_div_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            Self(unsafe { _mm_add_ps(self.0, _mm_mul_ps(w.0, x.0)) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            Self(unsafe { _mm_max_ps(self.0, o.0) })
        }

        /// `max(a, b)` is `a > b ? a : b` and `min(a, b)` is
        /// `a < b ? a : b`, so `min(top, max(0, u))` is `f32::clamp`, NaN
        /// and -0.0 lanes passed through. The cell is the clamped value
        /// capped at `cells - 1` *before* the truncation (the same integer:
        /// the cap is exact), NaN lanes sent to 0 by `max(v, 0)`, which
        /// returns its second operand on NaN.
        #[inline(always)]
        fn cell_fraction(self, cells: u32, cell: &mut [u32]) -> Self {
            assert!(cell.len() >= 4, "F32x4::cell_fraction needs 4 cells");
            let (top, last) = cell_bounds(cells);
            // SAFETY: sse2 baseline (see type docs); the assert guarantees
            // 4 writable u32s at `cell`, and storeu needs no alignment.
            unsafe {
                let zero = _mm_setzero_ps();
                let clamped = _mm_min_ps(_mm_set1_ps(top), _mm_max_ps(zero, self.0));
                let whole =
                    _mm_cvttps_epi32(_mm_max_ps(_mm_min_ps(_mm_set1_ps(last), clamped), zero));
                _mm_storeu_si128(cell.as_mut_ptr().cast(), whole);
                Self(_mm_sub_ps(clamped, _mm_cvtepi32_ps(whole)))
            }
        }
    }

    /// 4 f32 lanes in one SSE register, widened from halves by one
    /// `vcvtph2ps` on an `xmm` register: the `Q` of the AVX and AVX-512
    /// instances and the `H` of the AVX one. Every other op is
    /// [`F32x4`]'s.
    ///
    /// Private to this module, and only ever named by [`run_avx`] and
    /// [`run_avx512`], which [`super::run_on`] enters only after the CPU
    /// reported F16C: no value of it exists outside those trampolines.
    #[derive(Clone, Copy)]
    struct F32x4F16c(F32x4);

    impl Lanes for F32x4F16c {
        const N: usize = 4;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            Self(F32x4::splat(v))
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            Self(F32x4::load(src))
        }

        /// `vcvtph2ps` on an `xmm` register, from an 8-byte load.
        #[inline(always)]
        fn load_half(src: &[u16]) -> Self {
            assert!(src.len() >= 4, "F32x4F16c::load_half needs 4 elements");
            // SAFETY: F16C detected (see type docs); the assert guarantees
            // 4 readable u16s (8 bytes) at `src`, and `movq` needs no
            // alignment.
            Self(F32x4(unsafe {
                _mm_cvtph_ps(_mm_loadl_epi64(src.as_ptr().cast()))
            }))
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            self.0.store(dst)
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Self(self.0.add(o.0))
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Self(self.0.sub(o.0))
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Self(self.0.mul(o.0))
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            Self(self.0.div(o.0))
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            Self(self.0.add_mul(w.0, x.0))
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            Self(self.0.max(o.0))
        }

        #[inline(always)]
        fn cell_fraction(self, cells: u32, cell: &mut [u32]) -> Self {
            Self(self.0.cell_fraction(cells, cell))
        }
    }

    /// The SSE2 8-lane vector of a [`Kernel`]: two [`F32x4`] registers
    /// (lanes 0–3, lanes 4–7), every op applied to each half.
    #[derive(Clone, Copy)]
    pub struct F32x8(F32x4, F32x4);

    impl Lanes for F32x8 {
        const N: usize = 8;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            Self(F32x4::splat(v), F32x4::splat(v))
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            Self(F32x4::load(src), F32x4::load(&src[4..]))
        }

        #[inline(always)]
        fn load_half(src: &[u16]) -> Self {
            Self(F32x4::load_half(src), F32x4::load_half(&src[4..]))
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            self.0.store(dst);
            self.1.store(&mut dst[4..]);
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Self(self.0.add(o.0), self.1.add(o.1))
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Self(self.0.sub(o.0), self.1.sub(o.1))
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Self(self.0.mul(o.0), self.1.mul(o.1))
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            Self(self.0.div(o.0), self.1.div(o.1))
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            Self(self.0.add_mul(w.0, x.0), self.1.add_mul(w.1, x.1))
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            Self(self.0.max(o.0), self.1.max(o.1))
        }

        #[inline(always)]
        fn cell_fraction(self, cells: u32, cell: &mut [u32]) -> Self {
            let (lo, hi) = cell.split_at_mut(4);
            Self(
                self.0.cell_fraction(cells, lo),
                self.1.cell_fraction(cells, hi),
            )
        }
    }

    /// 8 f32 lanes in one AVX register: the `W` of the AVX instance and the
    /// `H` of the AVX-512 one.
    ///
    /// Private to this module, and only ever named by [`run_avx`] and
    /// [`run_avx512`]: a [`Kernel`] body meets it as an anonymous
    /// `W: Lanes` or `H: Lanes`, so no value of it exists — and none of its
    /// methods runs — outside those trampolines.
    ///
    /// SAFETY note shared by every intrinsic call below: each runs inlined
    /// into [`run_avx`] or [`run_avx512`], which [`super::run_on`] enters
    /// only after the CPU reported AVX and F16C, or AVX-512F (which implies
    /// AVX) and F16C; the register-only intrinsics touch no memory.
    /// `vaddps` / `vsubps` / `vmulps` / `vdivps` / `vmaxps` on a `ymm`
    /// register are the `xmm` ops on eight lanes instead of four: per lane
    /// the same IEEE-754 result, and a separate `mul` and `add` are never
    /// fused.
    #[derive(Clone, Copy)]
    struct F32x8Avx(__m256);

    impl Lanes for F32x8Avx {
        const N: usize = 8;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_set1_ps(v) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            assert!(src.len() >= 8, "F32x8Avx::load needs 8 elements");
            // SAFETY: AVX detected (see type docs); the assert guarantees
            // 8 readable f32s at `src`, and loadu needs no alignment.
            Self(unsafe { _mm256_loadu_ps(src.as_ptr()) })
        }

        /// `vcvtph2ps` on a `ymm` register: F16C, which both trampolines
        /// enable and [`super::host_widest`] requires of either backend.
        #[inline(always)]
        fn load_half(src: &[u16]) -> Self {
            assert!(src.len() >= 8, "F32x8Avx::load_half needs 8 elements");
            // SAFETY: AVX and F16C detected (see type docs); the assert
            // guarantees 8 readable u16s (16 bytes) at `src`, and loadu
            // needs no alignment.
            Self(unsafe { _mm256_cvtph_ps(_mm_loadu_si128(src.as_ptr().cast())) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= 8, "F32x8Avx::store needs 8 elements");
            // SAFETY: AVX detected (see type docs); the assert guarantees
            // 8 writable f32s at `dst`, and storeu needs no alignment.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_div_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only. Two
            // intrinsics, two roundings: rustc does not contract them, even
            // inside `run_avx512` where `fma` is implied.
            Self(unsafe { _mm256_add_ps(self.0, _mm256_mul_ps(w.0, x.0)) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_max_ps(self.0, o.0) })
        }

        /// [`F32x4::cell_fraction`] on eight lanes: `vminps` / `vmaxps` keep
        /// the operand rule of `minps` / `maxps`, and the conversions are
        /// AVX, not AVX2.
        #[inline(always)]
        fn cell_fraction(self, cells: u32, cell: &mut [u32]) -> Self {
            assert!(cell.len() >= 8, "F32x8Avx::cell_fraction needs 8 cells");
            let (top, last) = cell_bounds(cells);
            // SAFETY: AVX detected (see type docs); the assert guarantees
            // 8 writable u32s at `cell`, and storeu needs no alignment.
            unsafe {
                let zero = _mm256_setzero_ps();
                let clamped = _mm256_min_ps(_mm256_set1_ps(top), _mm256_max_ps(zero, self.0));
                let capped = _mm256_max_ps(_mm256_min_ps(_mm256_set1_ps(last), clamped), zero);
                let whole = _mm256_cvttps_epi32(capped);
                _mm256_storeu_si256(cell.as_mut_ptr().cast(), whole);
                Self(_mm256_sub_ps(clamped, _mm256_cvtepi32_ps(whole)))
            }
        }
    }

    /// 16 f32 lanes in one AVX-512 register.
    ///
    /// Private to this module, and only ever named by [`run_avx512`]: a
    /// [`Kernel`] body meets it as an anonymous `W: Lanes`, so no value of
    /// it exists — and none of its methods runs — outside that trampoline.
    ///
    /// SAFETY note shared by every intrinsic call below: each runs inlined
    /// into [`run_avx512`], which [`super::run_on`] enters only after the
    /// CPU reported AVX-512F; the register-only intrinsics touch no memory.
    /// The `zmm` forms of `vaddps` / `vsubps` / `vmulps` / `vdivps` /
    /// `vmaxps` are the `xmm` ops on sixteen lanes, with the default
    /// rounding (no embedded rounding override): per lane the same
    /// IEEE-754 result.
    #[derive(Clone, Copy)]
    struct F32x16(__m512);

    impl Lanes for F32x16 {
        const N: usize = 16;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: AVX-512F detected (see type docs); register-only.
            Self(unsafe { _mm512_set1_ps(v) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            assert!(src.len() >= 16, "F32x16::load needs 16 elements");
            // SAFETY: AVX-512F detected (see type docs); the assert
            // guarantees 16 readable f32s at `src`, and loadu needs no
            // alignment.
            Self(unsafe { _mm512_loadu_ps(src.as_ptr()) })
        }

        /// `vcvtph2ps` on a `zmm` register (AVX-512F).
        #[inline(always)]
        fn load_half(src: &[u16]) -> Self {
            assert!(src.len() >= 16, "F32x16::load_half needs 16 elements");
            // SAFETY: AVX-512F detected (see type docs); the assert
            // guarantees 16 readable u16s (32 bytes) at `src`, and loadu
            // needs no alignment.
            Self(unsafe { _mm512_cvtph_ps(_mm256_loadu_si256(src.as_ptr().cast())) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= 16, "F32x16::store needs 16 elements");
            // SAFETY: AVX-512F detected (see type docs); the assert
            // guarantees 16 writable f32s at `dst`, and storeu needs no
            // alignment.
            unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX-512F detected (see type docs); register-only.
            Self(unsafe { _mm512_add_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX-512F detected (see type docs); register-only.
            Self(unsafe { _mm512_sub_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX-512F detected (see type docs); register-only.
            Self(unsafe { _mm512_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: AVX-512F detected (see type docs); register-only.
            Self(unsafe { _mm512_div_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            // SAFETY: AVX-512F detected (see type docs); register-only. A
            // `mul` intrinsic, then an `add` one, never `_mm512_fmadd_ps`:
            // the trampoline implies `fma`, but rustc does not contract.
            Self(unsafe { _mm512_add_ps(self.0, _mm512_mul_ps(w.0, x.0)) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: AVX-512F detected (see type docs); register-only.
            Self(unsafe { _mm512_max_ps(self.0, o.0) })
        }

        /// [`F32x4::cell_fraction`] on sixteen lanes: the `zmm` `vminps` /
        /// `vmaxps` return their second operand on NaN and on ±0 ties, as
        /// the `xmm` ones do.
        #[inline(always)]
        fn cell_fraction(self, cells: u32, cell: &mut [u32]) -> Self {
            assert!(cell.len() >= 16, "F32x16::cell_fraction needs 16 cells");
            let (top, last) = cell_bounds(cells);
            // SAFETY: AVX-512F detected (see type docs); the assert
            // guarantees 16 writable u32s at `cell`, and storeu needs no
            // alignment.
            unsafe {
                let zero = _mm512_setzero_ps();
                let clamped = _mm512_min_ps(_mm512_set1_ps(top), _mm512_max_ps(zero, self.0));
                let capped = _mm512_max_ps(_mm512_min_ps(_mm512_set1_ps(last), clamped), zero);
                let whole = _mm512_cvttps_epi32(capped);
                _mm512_storeu_si512(cell.as_mut_ptr().cast(), whole);
                Self(_mm512_sub_ps(clamped, _mm512_cvtepi32_ps(whole)))
            }
        }
    }

    /// The AVX instance of a [`Kernel`]: `#[inline(always)]` bodies inlined
    /// here are compiled with 256-bit registers and F16C's `vcvtph2ps`
    /// available.
    ///
    /// Callers must have checked that the CPU reports AVX and F16C.
    #[target_feature(enable = "avx,f16c")]
    pub fn run_avx<K: Kernel>(kernel: K) {
        kernel.run::<F32x8Avx, F32x4F16c, F32x4F16c>()
    }

    /// The AVX-512 instance of a [`Kernel`]: `#[inline(always)]` bodies
    /// inlined here are compiled with 512-bit registers available (and, as
    /// `avx512f` implies them, AVX for the 8-lane `H`), and F16C for its
    /// `vcvtph2ps`.
    ///
    /// Callers must have checked that the CPU reports AVX-512F and F16C.
    #[target_feature(enable = "avx512f,f16c")]
    pub fn run_avx512<K: Kernel>(kernel: K) {
        kernel.run::<F32x16, F32x8Avx, F32x4F16c>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `kernel` on every backend this build can run on this host.
    fn on_every_backend<K: Kernel + Copy>(kernel: K) {
        for backend in Backend::ALL {
            if !backend.supported() {
                println!("skipping {backend:?}: not supported in this build on this host");
                continue;
            }
            run_on(backend, kernel);
        }
    }

    /// A test body run once per lane vector of a backend: its `W`, `H` and
    /// `Q` and the `[f32; 1]` tail every kernel uses.
    trait PerVector: Copy {
        fn check<V: Lanes>(self);
    }

    #[derive(Clone, Copy)]
    struct OnEachVector<T>(T);

    impl<T: PerVector> Kernel for OnEachVector<T> {
        #[inline(always)]
        fn run<W: Lanes, H: Lanes, Q: Lanes>(self) {
            assert!(matches!((W::N, H::N, Q::N), (8, 4, 4) | (16, 8, 4)));
            assert!(W::N <= MAX_LANES);
            self.0.check::<W>();
            self.0.check::<H>();
            self.0.check::<Q>();
            self.0.check::<[f32; 1]>();
        }
    }

    #[derive(Clone, Copy)]
    struct LanewiseOps;

    impl PerVector for LanewiseOps {
        #[inline(always)]
        fn check<V: Lanes>(self) {
            // Signed zeros, tiny and huge magnitudes, a zero and an infinite
            // divisor, NaNs. No lane performs an invalid operation (0 · ∞,
            // ∞ − ∞, 0 / 0): the NaN those *create* is the one value a
            // constant-folded scalar expression may spell differently from
            // the hardware. `max` is held to its documented contract: any
            // left operand, 0.0 on the right.
            #[rustfmt::skip]
            let a = [
                1.5f32, -2.25, 0.0, 1e-30, 3.75e8, -0.0, f32::NAN, 123.456,
                -1e-38, 7.0, f32::INFINITY, -0.0, 2.5e-3, -6.5e7, -3.0, 1.0,
            ];
            #[rustfmt::skip]
            let b = [
                0.5f32, 3.0, -1.0, 1e30, 0.0, 4.0, -7.0, f32::INFINITY,
                3.0, -0.0, 2.0, f32::NAN, -4e-3, 1.0, -0.0, 3.0,
            ];
            #[rustfmt::skip]
            let w = [
                -0.75f32, 1e-20, 2.0, f32::NAN, 0.1, 9.0, 1.0, -1e10,
                -5e-3, 5.5, -2.0, 0.25, f32::INFINITY, -3.0, 1e-40, 0.0,
            ];
            type ScalarOp = fn(f32, f32, f32) -> f32;
            for at in (0..16).step_by(V::N) {
                let (va, vb, vw) = (V::load(&a[at..]), V::load(&b[at..]), V::load(&w[at..]));
                let checks: [(&str, V, ScalarOp); 6] = [
                    ("add", va.add(vb), |x, y, _| x + y),
                    ("sub", va.sub(vb), |x, y, _| x - y),
                    ("mul", va.mul(vb), |x, y, _| x * y),
                    ("div", va.div(vb), |x, y, _| x / y),
                    ("add_mul", va.add_mul(vw, vb), |x, y, w| x + w * y),
                    ("max", vw.max(V::splat(0.0)), |_, _, w| w.max(0.0)),
                ];
                for (op, wide, scalar) in checks {
                    let mut got = [0.0f32; MAX_LANES];
                    wide.store(&mut got);
                    for (lane, i) in (at..at + V::N).enumerate() {
                        let want = scalar(a[i], b[i], w[i]);
                        assert_eq!(
                            got[lane].to_bits(),
                            want.to_bits(),
                            "{op} on {} lanes, element {i}",
                            V::N
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lanewise_ops_match_scalar_bitwise() {
        on_every_backend(OnEachVector(LanewiseOps));
    }

    #[derive(Clone, Copy)]
    struct CellSplit;

    impl PerVector for CellSplit {
        #[inline(always)]
        fn check<V: Lanes>(self) {
            // Lane 0 of each group varies, so every vector sees NaN, ±∞,
            // ±0.0, the clamp bound and one ulp either side of it.
            for cells in [1u32, 2, 78, 4096, 1 << 24] {
                let top = cells as f32 - 1e-4;
                #[rustfmt::skip]
                let u = [
                    f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, top, top.next_up(),
                    top.next_down(), f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 0.5, -3.0,
                    cells as f32 - 1.0, cells as f32, 1e9, 0.999_999_94,
                ];
                for at in 0..16 {
                    let mut lanes = [0.0f32; MAX_LANES];
                    for (i, l) in lanes[..V::N].iter_mut().enumerate() {
                        *l = u[(at + i) % 16];
                    }
                    let (mut cell, mut fraction) = ([u32::MAX; MAX_LANES], [0.0f32; MAX_LANES]);
                    V::load(&lanes)
                        .cell_fraction(cells, &mut cell)
                        .store(&mut fraction);
                    for lane in 0..V::N {
                        let (want_cell, want) = crate::encoding::cell_fraction(lanes[lane], cells);
                        let at = (V::N, cells, lanes[lane]);
                        assert_eq!(cell[lane], want_cell, "{at:?}");
                        assert_eq!(fraction[lane].to_bits(), want.to_bits(), "{at:?}");
                    }
                    assert!(
                        cell[V::N..].iter().all(|&c| c == u32::MAX),
                        "wrote past {} cells",
                        V::N
                    );
                }
            }
        }
    }

    #[test]
    fn cell_fraction_matches_scalar_bitwise() {
        on_every_backend(OnEachVector(CellSplit));
    }

    #[derive(Clone, Copy)]
    struct MulAddChain;

    impl PerVector for MulAddChain {
        #[inline(always)]
        fn check<V: Lanes>(self) {
            // The kernel idiom: acc starts from a splat, then ascending
            // `acc += w * x` terms. Must match the scalar loop bit for bit.
            let xs: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let ws: Vec<f32> = (0..4).map(|i| 0.71f32.powi(i) - 0.4).collect();
            let bias = 0.125f32;

            let mut acc = V::splat(bias);
            for (i, &w) in ws.iter().enumerate() {
                acc = acc.add_mul(V::splat(w), V::load(&xs[i * 16..]));
            }
            let mut wide = [0.0f32; MAX_LANES];
            acc.max(V::splat(0.0)).store(&mut wide);

            for lane in 0..V::N {
                let mut acc = bias;
                for (i, &w) in ws.iter().enumerate() {
                    acc += w * xs[i * 16 + lane];
                }
                acc = acc.max(0.0);
                assert_eq!(
                    wide[lane].to_bits(),
                    acc.to_bits(),
                    "lane {lane} of {}",
                    V::N
                );
            }
        }
    }

    #[test]
    fn mul_add_chain_matches_scalar_accumulation() {
        on_every_backend(OnEachVector(MulAddChain));
    }

    #[derive(Clone, Copy)]
    struct Unfused;

    impl PerVector for Unfused {
        #[inline(always)]
        fn check<V: Lanes>(self) {
            // w = 1 + k·2^-12 (k odd), x = 1 + 2^-12: the exact product
            // 1 + (k+1)·2^-12 + k·2^-24 sits half an ulp off an f32, so the
            // product rounds; a = -1 or minus that rounded product then
            // exposes the rounding a fused multiply-add would skip. Lanes 8
            // and up repeat the first eight with a and x negated.
            let (mut a, mut w, mut x) = ([0.0f32; MAX_LANES], [0.0; MAX_LANES], [0.0; MAX_LANES]);
            for i in 0..MAX_LANES {
                let step = 1.0 / 4096.0;
                w[i] = 1.0 + (2 * (i % 4) + 1) as f32 * step;
                x[i] = 1.0 + step;
                a[i] = if i % 2 == 0 { -1.0 } else { -(w[i] * x[i]) };
                if i >= 8 {
                    (a[i], x[i]) = (-a[i], -x[i]);
                }
            }
            for at in (0..MAX_LANES).step_by(V::N) {
                let mut got = [0.0f32; MAX_LANES];
                V::load(&a[at..])
                    .add_mul(V::load(&w[at..]), V::load(&x[at..]))
                    .store(&mut got);
                for (lane, i) in (at..at + V::N).enumerate() {
                    let twice = a[i] + w[i] * x[i];
                    assert_ne!(twice, w[i].mul_add(x[i], a[i]), "input {i} cannot tell");
                    assert_eq!(
                        got[lane].to_bits(),
                        twice.to_bits(),
                        "fused on {} lanes",
                        V::N
                    );
                }
            }
        }
    }

    /// `add_mul` is a multiply rounded, then an add rounded, on every
    /// backend — the AVX-512 trampoline included, where `fma` is implied and
    /// only "rustc never contracts, no fused intrinsic is called" keeps the
    /// pair apart.
    #[test]
    fn no_backend_fuses_add_mul() {
        on_every_backend(OnEachVector(Unfused));
    }

    #[derive(Clone, Copy)]
    struct LoadStore;

    impl PerVector for LoadStore {
        #[inline(always)]
        fn check<V: Lanes>(self) {
            let src: [f32; MAX_LANES + 1] = std::array::from_fn(|i| i as f32 + 1.0);
            let mut dst = [0.0f32; MAX_LANES + 1];
            V::load(&src).store(&mut dst);
            assert_eq!(&dst[..V::N], &src[..V::N]);
            assert!(dst[V::N..].iter().all(|&x| x == 0.0), "{} lanes", V::N);
        }
    }

    #[test]
    fn load_store_round_trip() {
        on_every_backend(OnEachVector(LoadStore));
    }

    #[derive(Clone, Copy)]
    struct WidenEveryHalf;

    impl PerVector for WidenEveryHalf {
        #[inline(always)]
        fn check<V: Lanes>(self) {
            let halves: Vec<u16> = (0..=u16::MAX).collect();
            let mut got = [0.0f32; MAX_LANES];
            for at in (0..halves.len()).step_by(V::N) {
                V::load_half(&halves[at..]).store(&mut got);
                for (lane, &h) in halves[at..at + V::N].iter().enumerate() {
                    assert_eq!(
                        got[lane].to_bits(),
                        widen_half(h).to_bits(),
                        "half {h:#06x} on {} lanes",
                        V::N
                    );
                }
            }
        }
    }

    /// Every half, NaNs included, through `load_half` on every backend's
    /// `W`, `H`, `Q` and `[f32; 1]`: the bits of the scalar widening
    /// (`vcvtph2ps` on the AVX and AVX-512 instances).
    #[test]
    fn load_half_widens_every_half_as_the_scalar() {
        on_every_backend(OnEachVector(WidenEveryHalf));
    }

    /// The scalar widening against the value a half's fields spell:
    /// `(−1)^s · m · 2⁻²⁴` subnormal, `(−1)^s · (2¹⁰ + m) · 2^(e − 25)`
    /// normal, ±∞, and a NaN with its payload on top and the quiet bit set.
    #[test]
    fn widen_half_is_exact() {
        for h in 0..=u16::MAX {
            let (sign, e, m) = (h >> 15, i32::from(h >> 10 & 0x1f), u32::from(h & 0x3ff));
            let got = widen_half(h);
            assert_eq!(got.is_sign_negative(), sign == 1, "{h:#06x}");
            if e == 31 && m != 0 {
                let want = 0x7fc0_0000 | m << 13 | u32::from(sign) << 31;
                assert_eq!(got.to_bits(), want, "NaN {h:#06x}");
                continue;
            }
            let magnitude = match e {
                0 => f64::from(m) * 2f64.powi(-24),
                31 => f64::INFINITY,
                _ => f64::from(1024 + m) * 2f64.powi(e - 25),
            };
            assert_eq!(f64::from(got).abs(), magnitude, "{h:#06x}");
        }
    }

    /// `round_to_half` against every half: each one round-trips, and between
    /// two neighbours the midpoint goes to the even one (ties to even, the
    /// subnormals and the step to the smallest normal included) while one
    /// f32 ulp off it goes to the nearer. Then the named edges.
    #[test]
    fn round_to_half_is_nearest_ties_to_even() {
        for h in 0..=u16::MAX {
            if h & 0x7c00 != 0x7c00 || h & 0x3ff == 0 {
                assert_eq!(round_to_half(widen_half(h)), h, "{h:#06x} round trip");
            }
        }
        for sign in [0u16, 0x8000] {
            for h in 0..0x7bff_u16 {
                let (lo, hi) = (sign | h, sign | (h + 1));
                let (a, b) = (f64::from(widen_half(lo)), f64::from(widen_half(hi)));
                // Two neighbouring halves' midpoint needs 12 significant
                // bits: exact in f32.
                let mid = ((a + b) / 2.0) as f32;
                assert_eq!(f64::from(mid), (a + b) / 2.0);
                let even = if h & 1 == 0 { lo } else { hi };
                assert_eq!(
                    round_to_half(mid),
                    even,
                    "tie between {lo:#06x} and {hi:#06x}"
                );
                let (toward_lo, toward_hi) = if sign == 0 {
                    (mid.next_down(), mid.next_up())
                } else {
                    (mid.next_up(), mid.next_down())
                };
                assert_eq!(round_to_half(toward_lo), lo, "just past {lo:#06x}");
                assert_eq!(round_to_half(toward_hi), hi, "just short of {hi:#06x}");
            }
        }
        let named: [(f32, u16); 14] = [
            (65504.0, 0x7bff),
            (65520.0f32.next_down(), 0x7bff),
            (65520.0, 0x7c00),
            (-65520.0, 0xfc00),
            (f32::MAX, 0x7c00),
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
            (2f32.powi(-24), 0x0001),
            (2f32.powi(-25), 0x0000),
            (2f32.powi(-25).next_up(), 0x0001),
            (-2f32.powi(-25), 0x8000),
            (3.0 * 2f32.powi(-25), 0x0002),
            (2f32.powi(-14), 0x0400),
            (f32::MIN_POSITIVE, 0x0000),
        ];
        for (v, want) in named {
            assert_eq!(round_to_half(v), want, "{v:e}");
        }
        assert_eq!(round_to_half(f32::NAN) & 0x7e00, 0x7e00, "a quiet NaN");
        assert_eq!(round_to_half(-f32::NAN), 0x8000 | round_to_half(f32::NAN));
    }

    /// `round_to_half` against F16C's `vcvtps2ph` (round to nearest even)
    /// on every 4099th f32 bit pattern, NaNs and both signs included,
    /// where the CPU has it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn round_to_half_is_vcvtps2ph() {
        use std::arch::x86_64::{_mm_cvtps_ph, _mm_cvtsi128_si32, _mm_set1_ps};
        #[target_feature(enable = "f16c")]
        fn hardware(v: f32) -> u16 {
            _mm_cvtsi128_si32(_mm_cvtps_ph::<0>(_mm_set1_ps(v))) as u16
        }
        if !std::arch::is_x86_feature_detected!("f16c") {
            println!("skipping: the CPU does not report F16C");
            return;
        }
        for bits in (0..=u32::MAX).step_by(4099) {
            let v = f32::from_bits(bits);
            // SAFETY: F16C was just detected.
            let want = unsafe { hardware(v) };
            assert_eq!(round_to_half(v), want, "{bits:#010x}");
        }
    }

    #[test]
    fn toggle_reflects_feature_gate() {
        // What the build can give: off x86_64 no cap selects anything wider
        // than the portable instance.
        assert!(Backend::Portable.supported());
        assert_eq!(Backend::Sse2.supported(), cfg!(target_arch = "x86_64"));
    }

    #[test]
    fn backend_matches_compilation() {
        // The cap is process-wide. Other tests of this crate render while
        // this one moves it, which is fine: every backend computes the same
        // bits.
        set_backend_cap(Backend::WIDEST);
        if Backend::Sse2.supported() {
            // What was dispatched: AVX-512 or AVX where the CPU has it, else
            // SSE2.
            let widest = Backend::ALL.into_iter().rfind(|b| b.supported());
            assert_eq!(Some(dispatched()), widest);
            assert!(matches!(backend(), "avx512" | "avx" | "sse2"));
            set_backend_cap(Backend::Sse2);
            assert_eq!(backend(), "sse2");
        } else {
            assert!(!Backend::Avx.supported());
        }
        set_backend_cap(Backend::Portable);
        assert_eq!(backend(), "portable");
        set_backend_cap(Backend::WIDEST);
    }
}
