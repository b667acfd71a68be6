//! Explicit wide-vector kernels: an `f32x8` wrapper, a lane-vector trait
//! for kernels that run at the host's real width, and a portable fallback.
//!
//! The SoA sample engine (PR 5) relies on the autovectorizer to find lanes in
//! `forward_block` and the batched feature gathers. This module makes the
//! lanes explicit, at two levels:
//!
//! - [`F32x8`] is an 8-wide f32 vector backed by two SSE2 `__m128`
//!   registers when the `simd` cargo feature is enabled on an x86_64 target
//!   (SSE2 is baseline on x86_64, so it needs no CPU detection), and by a
//!   plain `[f32; 8]` with per-lane loops everywhere else. The SPARW row
//!   passes are written against it.
//! - [`Lanes`] + [`Kernel`] + [`dispatch`]: a kernel body written **once**
//!   over an abstract lane vector and instantiated per [`Backend`] —
//!   portable `[f32; N]`, the SSE2 pair, and a 256-bit AVX `__m256` that is
//!   selected at run time (`is_x86_feature_detected!("avx")`, cached). The
//!   MLP block kernel and the three encoding gathers, where the time goes,
//!   run this way.
//!
//! | backend | 8-lane `W` | 4-lane `H` | selected when |
//! |---|---|---|---|
//! | `avx` | one `__m256` | one `__m128` | feature on, x86_64, CPU reports AVX |
//! | `sse2` | two `__m128` ([`F32x8`]) | one `__m128` | feature on, x86_64 |
//! | `portable` | `[f32; 8]` | `[f32; 4]` | kernels off, feature off, or another target |
//!
//! # Determinism contract
//!
//! The wide kernels must be **bit-identical** to the scalar paths they
//! replace, so the whole determinism suite holds on every backend. The
//! rules every wide kernel follows:
//!
//! - **Same expression tree per lane.** Each lane of a wide op computes
//!   exactly the scalar expression: `_mm_add_ps` / `_mm_mul_ps` /
//!   `_mm_div_ps` / `_mm_max_ps` are per-lane IEEE-754 identical to the
//!   scalar `+`, `*`, `/` and `f32::max`. No `rsqrt`/`rcp` approximations,
//!   no horizontal ops.
//! - **No FMA contraction.** Rust never contracts `a * b + c` into a fused
//!   multiply-add (rustc compiles with contraction off), and this module
//!   only emits mul-then-add pairs — the scalar and wide paths round
//!   identically at every step.
//! - **Width changes nothing.** The 256-bit `_mm256_mul_ps` and
//!   `_mm256_add_ps` are the 128-bit ops on eight lanes: each lane is
//!   rounded on its own, exactly as `mulss` / `addss` round a scalar. What
//!   would differ is a *fused* multiply-add (one rounding instead of two),
//!   and the AVX instance cannot contain one: its trampoline enables `avx`
//!   only, not `fma`, and calls no fused intrinsic.
//! - **Fixed accumulation order.** Accumulators start from the same value
//!   as the scalar code (the bias, or 0.0) and add terms in the same
//!   ascending order. Adding into a register instead of a memory slot does
//!   not change results: f32 addition is deterministic regardless of where
//!   the operand lives.
//! - **Operand order preserved.** `max` keeps the scalar operand order
//!   (`acc.max(0.0)`, not `0.0.max(acc)`) so NaN propagation matches maxss.
//! - **Scalar tails run the scalar code.** Remainder lanes (block size not
//!   a multiple of 8, trailing channels) fall through to the untouched
//!   scalar loops — or, in a [`Kernel`], to the same body over `[f32; 1]` —
//!   which is trivially bit-identical.
//!
//! # Runtime dispatch
//!
//! Compiling with `--features simd` makes the wide kernels *available*;
//! whether hot loops route through them is a process-wide runtime switch so
//! one binary can compare the paths (the equivalence tests and the
//! `kernels` bench flip it). The switch defaults to **on** when the feature
//! is compiled in, and can be disabled with `CICERO_SIMD=0` (or `off`).
//! Without the feature, [`kernels_enabled`] is always `false`.
//!
//! With the switch on, [`dispatch`] runs a [`Kernel`] on the widest backend
//! the host supports; [`backend`] names it. `CICERO_SIMD=sse2`, or
//! [`set_backend_cap`], holds it to a narrower one. That cap exists for the
//! equivalence tests and the bench and is not part of any configuration:
//! the output does not depend on it.
//!
//! # Adding a wide kernel
//!
//! Over [`F32x8`] (8 channels or pixels at a time, one width):
//!
//! 1. Write the scalar loop first; it stays in place as the fallback and
//!    the oracle.
//! 2. Express the inner loop over [`F32x8`] groups with the same
//!    accumulation order and operand order, and finish with the scalar
//!    code for the `len % 8` tail.
//! 3. Dispatch with `if simd::kernels_enabled() { wide(...); return; }` at
//!    the top of the scalar function.
//! 4. Add a bitwise unit test (wide vs scalar over irregular sizes) next to
//!    the kernel, and extend `tests/simd_equivalence.rs` if the kernel
//!    feeds a new end-to-end path.
//!
//! Over [`Lanes`] (one body at every width, and no scalar twin to keep in
//! step — `Layer::forward_block` in `mlp.rs` and `interpolate_block_into` of
//! the three encodings):
//!
//! 1. Put the arguments in a struct and implement [`Kernel`] for it. Write
//!    `run` against `W` (8 lanes), `H` (4 lanes) and `[f32; 1]` for the
//!    tail, using only the [`Lanes`] ops, and mark it and its helpers
//!    `#[inline(always)]`. Keep [`Lanes`] ops out of closures handed to std
//!    helpers (`array::map`, iterator adaptors): the helper is compiled
//!    outside the AVX trampoline, so the ops inside it are calls, not
//!    instructions (a tensor gather written that way ran at half speed).
//!    There is no second, scalar copy: the portable instance is the scalar
//!    path, and the per-element code it replaces (`Layer::forward`, the
//!    encodings' `interpolate_into`) stays as the oracle.
//! 2. Call [`dispatch`] where the loop used to be.
//! 3. Test every backend with [`run_on`] against the oracle, skipping the
//!    ones [`Backend::supported`] rules out on the host.
//! 4. An op the body needs and [`Lanes`] lacks is added to the trait and to
//!    its four implementors, with the scalar expression it equals per lane.

// Unsafe is confined to the x86 backends below: unaligned load/store
// intrinsics behind slice-length asserts, and the one call into the AVX
// trampoline behind run-time detection. The portable backend and
// everything else in this module is unsafe-free.
#![cfg_attr(all(feature = "simd", target_arch = "x86_64"), allow(unsafe_code))]

use std::sync::atomic::{AtomicU8, Ordering};

/// Lane count of [`F32x8`]. Wide kernels process `LANES` samples (or
/// channels) per group and fall back to scalar code for the remainder.
pub const LANES: usize = 8;

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
}

impl Backend {
    /// Every backend, narrowest first.
    pub const ALL: [Backend; 3] = [Backend::Portable, Backend::Sse2, Backend::Avx];

    /// The name [`backend`] reports: `"portable"`, `"sse2"` or `"avx"`.
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            Backend::Sse2 => "sse2",
            Backend::Avx => "avx",
        }
    }

    /// Can this process run the backend? Needs the `simd` feature on
    /// x86_64 for anything but [`Backend::Portable`], and the CPU's say-so
    /// for [`Backend::Avx`].
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

// Process-wide kernel switch: 0 = unset (read CICERO_SIMD on first use),
// 1 = off, 2 = on.
static KERNELS: AtomicU8 = AtomicU8::new(0);

// The widest backend the on-path dispatches, as `Backend::code`: the host's
// widest, lowered by `CICERO_SIMD=sse2` or `set_backend_cap`. 0 = unset
// (detect and read the environment on first use).
static WIDEST: AtomicU8 = AtomicU8::new(0);

/// Whether the `simd` cargo feature was compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "simd")
}

/// Name of the backend [`dispatch`] selects right now: `"avx"` or `"sse2"`
/// with the kernels on, `"portable"` with them off or not compiled in.
pub fn backend() -> &'static str {
    dispatched().name()
}

/// The backend [`dispatch`] selects right now: [`Backend::Portable`] while
/// the kernels are off, otherwise the host's widest under the cap.
#[inline]
pub fn dispatched() -> Backend {
    if !kernels_enabled() {
        return Backend::Portable;
    }
    match WIDEST.load(Ordering::Relaxed) {
        0 => init_widest(),
        code => Backend::from_code(code),
    }
}

/// Should hot loops route through the wide kernels right now?
///
/// Always `false` without the `simd` feature. With it, defaults to `true`
/// unless `CICERO_SIMD=0`/`off` is set or [`set_kernels_enabled`] turned
/// the kernels off.
#[inline]
pub fn kernels_enabled() -> bool {
    if !compiled() {
        return false;
    }
    match KERNELS.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = !matches!(
        std::env::var("CICERO_SIMD").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    );
    KERNELS.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

#[cold]
fn init_widest() -> Backend {
    set_backend_cap(match std::env::var("CICERO_SIMD").as_deref() {
        Ok("sse2") => Backend::Sse2,
        _ => Backend::Avx,
    });
    Backend::from_code(WIDEST.load(Ordering::Relaxed))
}

/// The widest backend this process can run: compiled in, and for AVX
/// reported by the CPU (`is_x86_feature_detected!` caches its answer).
fn host_widest() -> Backend {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            Backend::Avx
        } else {
            Backend::Sse2
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    Backend::Portable
}

/// Force the wide kernels on or off for this process (overrides the
/// `CICERO_SIMD` environment default). A no-op without the `simd` feature:
/// the wide path cannot be enabled if it was not compiled in — though the
/// wide kernel *functions* are always compiled (over the portable backend)
/// so their unit tests run in every configuration.
pub fn set_kernels_enabled(on: bool) {
    KERNELS.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Caps the backend [`dispatch`] selects while the kernels are on
/// (overrides the `CICERO_SIMD=sse2` environment default); the host's
/// widest still applies, so [`Backend::Avx`] means "no cap". Only the
/// equivalence tests and the `kernels` bench have a reason to call it.
pub fn set_backend_cap(cap: Backend) {
    WIDEST.store(host_widest().min(cap).code(), Ordering::Relaxed);
}

/// One lane vector of a [`Kernel`] body: `N` f32 lanes and the ops the
/// block kernels need (a bias-first dot product with ReLU; weighted sums
/// and lerps of feature rows). Every op is per-lane IEEE-754 identical to
/// the scalar `+`, `*` and `f32::max`, on every implementor.
pub trait Lanes: Copy {
    /// Lane count.
    const N: usize;
    /// All lanes set to `v`.
    fn splat(v: f32) -> Self;
    /// Load lanes from `src[0..N]`. Panics if `src` is shorter than `N`.
    fn load(src: &[f32]) -> Self;
    /// Store lanes to `dst[0..N]`. Panics if `dst` is shorter than `N`.
    fn store(self, dst: &mut [f32]);
    /// Lane-wise `self * o`, rounded once.
    fn mul(self, o: Self) -> Self;
    /// Lane-wise `self + w * x`: a rounded multiply, then a rounded add —
    /// two ops, never fused.
    fn add_mul(self, w: Self, x: Self) -> Self;
    /// Lane-wise `self.max(o)`; see [`F32x8::max`] for the operand rule.
    fn max(self, o: Self) -> Self;
}

/// The portable backend, at any width: `[f32; 1]` is the scalar tail of
/// every instance.
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
    fn store(self, dst: &mut [f32]) {
        dst[..N].copy_from_slice(&self);
    }

    // Plain indexed loops: an unoptimised build (the tier-1 suite) pays a
    // call per iterator step, and this is its MLP.
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
}

/// A block kernel written once over [`Lanes`] and instantiated per backend
/// by [`dispatch`]. `W` is the backend's 8-lane vector and `H` its 4-lane
/// one; bodies take the scalar tail as `[f32; 1]`.
///
/// Mark `run` and everything it calls `#[inline(always)]`: the AVX instance
/// only becomes AVX code by being inlined into this module's
/// `#[target_feature]` trampoline.
pub trait Kernel {
    /// The body.
    fn run<W: Lanes, H: Lanes>(self);
}

/// Runs `kernel` on the backend [`dispatched`] names.
#[inline]
pub fn dispatch<K: Kernel>(kernel: K) {
    run_on(dispatched(), kernel)
}

/// Runs `kernel` on one named backend, whatever the process-wide switch
/// says (the per-kernel bitwise tests compare backends this way).
///
/// # Panics
///
/// Panics if the backend is not [`supported`](Backend::supported).
#[inline]
pub fn run_on<K: Kernel>(backend: Backend, kernel: K) {
    assert!(backend.supported(), "{backend:?} cannot run on this host");
    match backend {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        // SAFETY: `supported` just confirmed the CPU reports AVX.
        Backend::Avx => unsafe { backend::run_avx(kernel) },
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Backend::Sse2 => kernel.run::<F32x8, backend::F32x4>(),
        // Off x86_64 `supported` admits nothing wider than portable.
        _ => kernel.run::<[f32; 8], [f32; 4]>(),
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod backend {
    use super::{Kernel, Lanes};
    use std::arch::x86_64::{
        __m128, __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_max_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_storeu_ps, _mm_add_ps, _mm_div_ps, _mm_loadu_ps, _mm_max_ps,
        _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps, _mm_sub_ps,
    };

    /// 8 f32 lanes in two SSE2 registers (lo = lanes 0–3, hi = lanes 4–7).
    ///
    /// SAFETY note shared by every intrinsic call below: SSE/SSE2 are part
    /// of the x86_64 baseline ABI, statically enabled for every x86_64
    /// target, so the `#[target_feature]` requirement on the intrinsics is
    /// always met; the register-only intrinsics touch no memory.
    #[derive(Clone, Copy)]
    pub struct F32x8 {
        lo: __m128,
        hi: __m128,
    }

    // Named `add`/`mul`/... rather than operator traits: kernel call
    // sites chain them explicitly (`acc.add(w.mul(x))`), mirroring the
    // documented accumulation order; `impl Add` would also invite silent
    // operator mixing with scalars.
    #[allow(clippy::should_implement_trait)]
    impl F32x8 {
        /// All 8 lanes set to `v`.
        #[inline]
        pub fn splat(v: f32) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            let r = unsafe { _mm_set1_ps(v) };
            Self { lo: r, hi: r }
        }

        /// Load lanes from `src[0..8]`. Panics if `src` is shorter than 8.
        #[inline]
        pub fn load(src: &[f32]) -> Self {
            assert!(src.len() >= super::LANES, "F32x8::load needs 8 elements");
            // SAFETY: the assert guarantees 8 readable f32s at `src`;
            // loadu has no alignment requirement.
            unsafe {
                Self {
                    lo: _mm_loadu_ps(src.as_ptr()),
                    hi: _mm_loadu_ps(src.as_ptr().add(4)),
                }
            }
        }

        /// Store lanes to `dst[0..8]`. Panics if `dst` is shorter than 8.
        #[inline]
        pub fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= super::LANES, "F32x8::store needs 8 elements");
            // SAFETY: the assert guarantees 8 writable f32s at `dst`;
            // storeu has no alignment requirement.
            unsafe {
                _mm_storeu_ps(dst.as_mut_ptr(), self.lo);
                _mm_storeu_ps(dst.as_mut_ptr().add(4), self.hi);
            }
        }

        /// Lane-wise `a + b` (addps ≡ per-lane scalar `+`).
        #[inline]
        pub fn add(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            unsafe {
                Self {
                    lo: _mm_add_ps(self.lo, o.lo),
                    hi: _mm_add_ps(self.hi, o.hi),
                }
            }
        }

        /// Lane-wise `a - b`.
        #[inline]
        pub fn sub(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            unsafe {
                Self {
                    lo: _mm_sub_ps(self.lo, o.lo),
                    hi: _mm_sub_ps(self.hi, o.hi),
                }
            }
        }

        /// Lane-wise `a * b` (never contracted with a following add).
        #[inline]
        pub fn mul(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            unsafe {
                Self {
                    lo: _mm_mul_ps(self.lo, o.lo),
                    hi: _mm_mul_ps(self.hi, o.hi),
                }
            }
        }

        /// Lane-wise `a / b` (divps: correctly rounded, ≡ scalar `/`).
        #[inline]
        pub fn div(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            unsafe {
                Self {
                    lo: _mm_div_ps(self.lo, o.lo),
                    hi: _mm_div_ps(self.hi, o.hi),
                }
            }
        }

        /// Lane-wise `self.max(o)`. Bit-identical to scalar `f32::max` as
        /// long as `o` has no NaN or -0.0 lanes (maxps returns the second
        /// operand on NaN or ±0 ties, which then coincides with scalar
        /// maximumNumber semantics) — the kernels only ever pass
        /// `o = splat(0.0)`, the relu threshold, which satisfies both.
        #[inline]
        pub fn max(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see type docs); register-only.
            unsafe {
                Self {
                    lo: _mm_max_ps(self.lo, o.lo),
                    hi: _mm_max_ps(self.hi, o.hi),
                }
            }
        }

        /// Copy lanes out to an array (for scalar-side scatters).
        #[inline]
        pub fn to_array(self) -> [f32; 8] {
            let mut out = [0.0f32; 8];
            self.store(&mut out);
            out
        }
    }

    /// The SSE2 8-lane vector of a [`Kernel`]: the register pair above.
    impl Lanes for F32x8 {
        const N: usize = 8;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            F32x8::splat(v)
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            F32x8::load(src)
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            F32x8::store(self, dst)
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            F32x8::mul(self, o)
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            F32x8::add(self, F32x8::mul(w, x))
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            F32x8::max(self, o)
        }
    }

    /// 4 f32 lanes in one SSE2 register: the 4-sample tail group of the
    /// SSE2 and AVX instances. Same SAFETY note as [`F32x8`].
    #[derive(Clone, Copy)]
    pub struct F32x4(__m128);

    impl Lanes for F32x4 {
        const N: usize = 4;

        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: sse2 baseline (see `F32x8`); register-only.
            Self(unsafe { _mm_set1_ps(v) })
        }

        #[inline(always)]
        fn load(src: &[f32]) -> Self {
            assert!(src.len() >= 4, "F32x4::load needs 4 elements");
            // SAFETY: the assert guarantees 4 readable f32s at `src`;
            // loadu has no alignment requirement.
            Self(unsafe { _mm_loadu_ps(src.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= 4, "F32x4::store needs 4 elements");
            // SAFETY: the assert guarantees 4 writable f32s at `dst`;
            // storeu has no alignment requirement.
            unsafe { _mm_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see `F32x8`); register-only.
            Self(unsafe { _mm_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            // SAFETY: sse2 baseline (see `F32x8`); register-only.
            Self(unsafe { _mm_add_ps(self.0, _mm_mul_ps(w.0, x.0)) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: sse2 baseline (see `F32x8`); register-only.
            Self(unsafe { _mm_max_ps(self.0, o.0) })
        }
    }

    /// 8 f32 lanes in one AVX register.
    ///
    /// Private to this module, and only ever named by [`run_avx`]: a
    /// [`Kernel`] body meets it as an anonymous `W: Lanes`, so no value of
    /// it exists — and none of its methods runs — outside that trampoline.
    ///
    /// SAFETY note shared by every intrinsic call below: each runs inlined
    /// into [`run_avx`], which [`super::run_on`] enters only after the CPU
    /// reported AVX; the register-only intrinsics touch no memory.
    /// `vaddps` / `vmulps` / `vmaxps` on a `ymm` register are the `xmm`
    /// ops on eight lanes instead of four: per lane the same IEEE-754
    /// result, and a separate `mul` and `add` are never fused.
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

        #[inline(always)]
        fn store(self, dst: &mut [f32]) {
            assert!(dst.len() >= 8, "F32x8Avx::store needs 8 elements");
            // SAFETY: AVX detected (see type docs); the assert guarantees
            // 8 writable f32s at `dst`, and storeu needs no alignment.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_mul_ps(self.0, o.0) })
        }

        #[inline(always)]
        fn add_mul(self, w: Self, x: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only. The two
            // intrinsics are two instructions: nothing here enables `fma`.
            Self(unsafe { _mm256_add_ps(self.0, _mm256_mul_ps(w.0, x.0)) })
        }

        #[inline(always)]
        fn max(self, o: Self) -> Self {
            // SAFETY: AVX detected (see type docs); register-only.
            Self(unsafe { _mm256_max_ps(self.0, o.0) })
        }
    }

    /// The AVX instance of a [`Kernel`]: `#[inline(always)]` bodies inlined
    /// here are compiled with 256-bit registers available.
    ///
    /// Callers must have checked that the CPU reports AVX.
    #[target_feature(enable = "avx")]
    pub fn run_avx<K: Kernel>(kernel: K) {
        kernel.run::<F32x8Avx, F32x4>()
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
mod backend {
    /// Portable 8-lane fallback: per-lane loops over `[f32; 8]`. Same
    /// per-lane expression trees as the SSE2 backend, so results are
    /// bit-identical across backends too.
    #[derive(Clone, Copy)]
    pub struct F32x8([f32; 8]);

    // Named `add`/`mul`/... rather than operator traits: kernel call
    // sites chain them explicitly (`acc.add(w.mul(x))`), mirroring the
    // documented accumulation order; `impl Add` would also invite silent
    // operator mixing with scalars.
    #[allow(clippy::should_implement_trait)]
    impl F32x8 {
        /// All 8 lanes set to `v`.
        #[inline]
        pub fn splat(v: f32) -> Self {
            Self([v; 8])
        }

        /// Load lanes from `src[0..8]`. Panics if `src` is shorter than 8.
        #[inline]
        pub fn load(src: &[f32]) -> Self {
            let mut lanes = [0.0f32; 8];
            lanes.copy_from_slice(&src[..super::LANES]);
            Self(lanes)
        }

        /// Store lanes to `dst[0..8]`. Panics if `dst` is shorter than 8.
        #[inline]
        pub fn store(self, dst: &mut [f32]) {
            dst[..super::LANES].copy_from_slice(&self.0);
        }

        /// Lane-wise `a + b`.
        #[inline]
        pub fn add(mut self, o: Self) -> Self {
            for (a, b) in self.0.iter_mut().zip(o.0) {
                *a += b;
            }
            self
        }

        /// Lane-wise `a - b`.
        #[inline]
        pub fn sub(mut self, o: Self) -> Self {
            for (a, b) in self.0.iter_mut().zip(o.0) {
                *a -= b;
            }
            self
        }

        /// Lane-wise `a * b`.
        #[inline]
        pub fn mul(mut self, o: Self) -> Self {
            for (a, b) in self.0.iter_mut().zip(o.0) {
                *a *= b;
            }
            self
        }

        /// Lane-wise `a / b`.
        #[inline]
        pub fn div(mut self, o: Self) -> Self {
            for (a, b) in self.0.iter_mut().zip(o.0) {
                *a /= b;
            }
            self
        }

        /// Lane-wise `self.max(o)` (scalar `f32::max` semantics).
        #[inline]
        pub fn max(mut self, o: Self) -> Self {
            for (a, b) in self.0.iter_mut().zip(o.0) {
                *a = a.max(b);
            }
            self
        }

        /// Copy lanes out to an array (for scalar-side scatters).
        #[inline]
        pub fn to_array(self) -> [f32; 8] {
            self.0
        }
    }
}

pub use backend::F32x8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanewise_ops_match_scalar_bitwise() {
        let a = [1.5f32, -2.25, 0.0, 1e-30, 3.75e8, -0.0, 7.0, 123.456];
        let b = [0.5f32, 3.0, -1.0, 1e30, 2.5, 4.0, -7.0, 0.001];
        let va = F32x8::load(&a);
        let vb = F32x8::load(&b);
        type ScalarOp = fn(f32, f32) -> f32;
        let checks: [(F32x8, ScalarOp); 5] = [
            (va.add(vb), |x, y| x + y),
            (va.sub(vb), |x, y| x - y),
            (va.mul(vb), |x, y| x * y),
            (va.div(vb), |x, y| x / y),
            (va.max(vb), |x, y| x.max(y)),
        ];
        for (wide, scalar) in checks {
            let got = wide.to_array();
            for i in 0..LANES {
                assert_eq!(got[i].to_bits(), scalar(a[i], b[i]).to_bits(), "lane {i}");
            }
        }
    }

    #[test]
    fn mul_add_chain_matches_scalar_accumulation() {
        // The kernel idiom: acc starts from a splat, then ascending
        // `acc += w * x` terms. Must match the scalar loop bit for bit.
        let xs: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let ws: Vec<f32> = (0..4).map(|i| 0.71f32.powi(i) - 0.4).collect();
        let bias = 0.125f32;

        let mut acc = F32x8::splat(bias);
        for (i, &w) in ws.iter().enumerate() {
            acc = acc.add(F32x8::splat(w).mul(F32x8::load(&xs[i * 8..])));
        }
        let wide = acc.max(F32x8::splat(0.0)).to_array();

        for lane in 0..LANES {
            let mut acc = bias;
            for (i, &w) in ws.iter().enumerate() {
                acc += w * xs[i * 8 + lane];
            }
            acc = acc.max(0.0);
            assert_eq!(wide[lane].to_bits(), acc.to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn load_store_round_trip() {
        let src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let v = F32x8::load(&src);
        let mut dst = [0.0f32; 9];
        v.store(&mut dst);
        assert_eq!(&dst[..8], &src[..8]);
        assert_eq!(dst[8], 0.0);
        assert_eq!(v.to_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    /// The switch and the cap are process-wide; the tests that set them
    /// take turns. (Other tests of this crate render while these flip the
    /// switch, which is fine: every backend computes the same bits.)
    fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn toggle_reflects_feature_gate() {
        let _guard = switch_lock();
        set_kernels_enabled(true);
        assert_eq!(kernels_enabled(), compiled());
        set_kernels_enabled(false);
        assert!(!kernels_enabled());
        assert_eq!(backend(), "portable");
        // Leave the switch on (the compiled-in default) for other tests.
        set_kernels_enabled(true);
    }

    #[test]
    fn backend_matches_compilation() {
        let _guard = switch_lock();
        set_kernels_enabled(true);
        set_backend_cap(Backend::Avx);
        if compiled() && cfg!(target_arch = "x86_64") {
            // What was dispatched: AVX where the CPU has it, else SSE2.
            let widest = Backend::ALL.into_iter().rfind(|b| b.supported());
            assert_eq!(Some(dispatched()), widest);
            assert!(matches!(backend(), "avx" | "sse2"));
            assert!(Backend::Sse2.supported());
            set_backend_cap(Backend::Sse2);
            assert_eq!(backend(), "sse2");
            set_backend_cap(Backend::Portable);
            assert_eq!(backend(), "portable");
            assert!(kernels_enabled(), "the cap narrows, the switch stays on");
            set_backend_cap(Backend::Avx);
        } else {
            assert_eq!(backend(), "portable");
            assert!(!Backend::Sse2.supported() && !Backend::Avx.supported());
        }
    }
}
