//! SIMD execution layer for the fused D3Q19 kernel (the paper's vectorization rung).
//!
//! SunwayLB's Fig. 8 optimization ladder gains a large share of its single-node
//! speedup from explicit 256-bit vectorization of the fused propagation+collision
//! kernel (the SW26010 vector unit is 4 × f64). This module is the host mirror:
//! a fixed-width f64 [`Lane`] abstraction with
//!
//! * an AVX2+FMA lane (`std::arch` intrinsics behind `is_x86_feature_detected!`),
//! * a portable `[f64; 4]` lane that compiles everywhere and carries exactly the
//!   scalar kernel's rounding (every lane op is a separately rounded f64 op, so
//!   the expression tree matches the generic BGK collision bit for bit),
//!
//! and the streaming sweeps [`d3q19_sweep`] (AB) and [`aa_d3q19_sweep`] (AA),
//! which walk each z-pencil once: its precomputed run-length-encoded interior
//! runs ([`crate::kernels::InteriorRuns`]) go through the lane kernel, each
//! gap between runs through the generic per-cell update. The SoA layout is
//! z-innermost (`idx = (y·nx + x)·nz + z`), so within a run all 19
//! pull-scheme gathers are plain contiguous (unaligned) lane-wide loads from
//! a shifted line. Sub-lane run tails go through the one-wide [`ScalarLane`],
//! which rounds exactly like the scalar reference. For AA the odd flavor
//! pulls from reversed slots and scatters, the even flavor is a purely local
//! load/collide/reversed-store permute.
//!
//! Lane widths: the AVX2 lane and the default portable lane are 4 × f64
//! ([`LANES`]); an 8 × f64 AVX-512F lane (plus a bit-exact `[f64; 8]` portable
//! twin for pinning its chunking without the hardware) rides behind the same
//! [`Lane`] trait via its associated `WIDTH`.
//!
//! Dispatch policy (what [`select_fast_path`] resolves, reported per step via
//! the `kernel_class` observability gauge):
//!
//! * AVX-512F detected at runtime → the 8-wide AVX-512 lane
//!   ([`KernelClass::Simd`]); else AVX2+FMA detected → the AVX2 lane (also
//!   `Simd`). Both agree with the scalar kernel within 1e-12 (FMA contracts
//!   `a*b + c` into one rounding).
//! * `SWLB_NO_SIMD=1` in the environment, or no vector unit → the portable lane
//!   ([`KernelClass::Scalar`]); results are bit-exact against the scalar kernel.
//! * Benchmarks force the one-wide scalar lane via [`LanePolicy::ForceScalar`]
//!   for honest scalar baselines; equivalence runs pin specific lanes via
//!   `ForcePortable`/`ForceAvx2`/`ForceAvx512`.
//!
//! The module also hosts the host-metadata helpers (`cpu_features`,
//! `logical_cores`, `physical_cores`) that bench output and the CLI exit
//! summary embed so performance anomalies are diagnosable from the JSON alone.

use crate::collision::CollisionKind;
use crate::flags::FlagField;
use crate::geometry::GridDims;
use crate::kernels::{aa_generic_cell, generic_cell, InteriorRuns, MAX_Q};
use crate::lattice::{Lattice, D3Q19};
use crate::layout::{AaParity, PopField, SoaField};
use crate::Scalar;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Baseline lane width: 4 × f64, matching both AVX2 (256-bit) and the SW26010
/// vector unit the paper targets. The AVX-512 lane is 8 wide; kernels read the
/// width off [`Lane::WIDTH`], not this constant.
pub const LANES: usize = 4;

// ---------------------------------------------------------------------------
// Kernel class + dispatch policy.
// ---------------------------------------------------------------------------

/// Which kernel implementation served a step — exported as the `kernel_class`
/// observability gauge by `Solver` and `DistributedSolver`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Generic reference kernel (non-BGK collision, non-SoA layout, or a
    /// lattice without a fast path).
    Generic,
    /// Scalar-semantics interior fast path: the one-wide scalar lane or a
    /// portable lane (all bit-exact against the reference).
    Scalar,
    /// AVX2+FMA vectorized interior fast path (within 1e-12 of the reference).
    Simd,
}

impl KernelClass {
    /// Stable short name (used in bench JSON and the CLI exit summary).
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Generic => "generic",
            KernelClass::Scalar => "scalar",
            KernelClass::Simd => "simd",
        }
    }

    /// Numeric encoding for the `kernel_class` gauge (gauges are f64-only).
    pub fn as_gauge(self) -> f64 {
        match self {
            KernelClass::Generic => 0.0,
            KernelClass::Scalar => 1.0,
            KernelClass::Simd => 2.0,
        }
    }

    /// Inverse of [`KernelClass::as_gauge`].
    pub fn from_gauge(v: f64) -> Option<Self> {
        match v as i64 {
            0 => Some(KernelClass::Generic),
            1 => Some(KernelClass::Scalar),
            2 => Some(KernelClass::Simd),
            _ => None,
        }
    }
}

/// Process-wide override of the interior fast-path lane selection.
///
/// `Auto` (the default) resolves from the environment and CPU; the `Force*`
/// variants pin a specific implementation — benchmarks use `ForceScalar` for
/// an honest scalar baseline, equivalence tests use `ForcePortable` to pin the
/// bit-exact fallback lane without re-execing under `SWLB_NO_SIMD=1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePolicy {
    /// Resolve from `SWLB_NO_SIMD` and runtime CPU feature detection.
    Auto,
    /// Always run the portable `[f64; 4]` lane (scalar-exact).
    ForcePortable,
    /// Always run the one-wide scalar lane.
    ForceScalar,
    /// Pin the 4-wide AVX2+FMA lane even when AVX-512F is available (falls back
    /// to the portable 4-wide lane on CPUs without AVX2+FMA).
    ForceAvx2,
    /// Pin the 8-wide AVX-512F lane (falls back to the *8-wide* portable lane
    /// on CPUs without AVX-512F, preserving the 8-wide chunk split bit-exactly).
    ForceAvx512,
}

static LANE_POLICY: AtomicU8 = AtomicU8::new(0);

/// Set the process-wide lane policy (tests serialize on their own mutex; the
/// policy is read once per dispatched step, so flipping it mid-run is safe).
pub fn set_lane_policy(policy: LanePolicy) {
    let v = match policy {
        LanePolicy::Auto => 0,
        LanePolicy::ForcePortable => 1,
        LanePolicy::ForceScalar => 2,
        LanePolicy::ForceAvx2 => 3,
        LanePolicy::ForceAvx512 => 4,
    };
    LANE_POLICY.store(v, Ordering::Relaxed);
}

/// The active process-wide lane policy.
pub fn lane_policy() -> LanePolicy {
    match LANE_POLICY.load(Ordering::Relaxed) {
        1 => LanePolicy::ForcePortable,
        2 => LanePolicy::ForceScalar,
        3 => LanePolicy::ForceAvx2,
        4 => LanePolicy::ForceAvx512,
        _ => LanePolicy::Auto,
    }
}

/// `SWLB_NO_SIMD=1` disables the AVX2 lane for the whole process (read once;
/// use [`set_lane_policy`] for in-process toggling in tests).
pub fn no_simd_env() -> bool {
    static NO_SIMD: OnceLock<bool> = OnceLock::new();
    *NO_SIMD.get_or_init(|| {
        std::env::var("SWLB_NO_SIMD")
            .map(|v| v == "1")
            .unwrap_or(false)
    })
}

/// Whether the AVX2+FMA lane can run on this CPU (runtime detection; always
/// `false` off x86_64).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the 8-wide AVX-512F lane can run on this CPU (runtime detection;
/// always `false` off x86_64).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Concrete implementation choice for an *eligible* interior fast path
/// (SoA + D3Q19 + plain BGK with an interior index supplied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FastPath {
    /// 8-wide AVX-512F lane over interior runs.
    Avx512,
    /// AVX2+FMA lane over interior runs.
    Avx2,
    /// Portable `[f64; 4]` lane over interior runs (scalar-exact).
    Portable,
    /// Portable `[f64; 8]` lane over interior runs (scalar-exact, 8-wide
    /// chunking — the software twin of the AVX-512 lane).
    Portable8,
    /// One-wide `f64` lane over interior runs: the scalar kernel.
    Scalar,
}

/// Resolve the lane policy, environment and CPU into the fast path an eligible
/// step will take, plus the [`KernelClass`] it reports.
pub(crate) fn select_fast_path() -> (FastPath, KernelClass) {
    match lane_policy() {
        LanePolicy::ForceScalar => (FastPath::Scalar, KernelClass::Scalar),
        LanePolicy::ForcePortable => (FastPath::Portable, KernelClass::Scalar),
        LanePolicy::ForceAvx2 => {
            if !no_simd_env() && simd_available() {
                (FastPath::Avx2, KernelClass::Simd)
            } else {
                (FastPath::Portable, KernelClass::Scalar)
            }
        }
        LanePolicy::ForceAvx512 => {
            if !no_simd_env() && avx512_available() {
                (FastPath::Avx512, KernelClass::Simd)
            } else {
                (FastPath::Portable8, KernelClass::Scalar)
            }
        }
        LanePolicy::Auto => {
            if !no_simd_env() && avx512_available() {
                (FastPath::Avx512, KernelClass::Simd)
            } else if !no_simd_env() && simd_available() {
                (FastPath::Avx2, KernelClass::Simd)
            } else {
                (FastPath::Portable, KernelClass::Scalar)
            }
        }
    }
}

/// The [`KernelClass`] an eligible D3Q19/BGK fast-path step reports under the
/// current policy/environment/CPU.
pub fn selected_kernel_class() -> KernelClass {
    select_fast_path().1
}

/// Maximum absolute deviation from the scalar reference the active dispatch
/// may introduce per comparison: `0.0` (bit-exact) unless an FMA-contracting
/// vector lane (AVX2+FMA or AVX-512F) is selected, where fused roundings
/// deviate (≤ 1e-12 over the short runs the equivalence tests pin).
pub fn dispatch_tolerance() -> f64 {
    if selected_kernel_class() == KernelClass::Simd {
        1e-12
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// The Lane abstraction.
// ---------------------------------------------------------------------------

/// A fixed-width vector of [`Lane::WIDTH`] f64 values.
///
/// The kernel body is written once against this trait; the portable lanes give
/// it scalar-exact rounding (`mul_add` is two separately rounded ops), the
/// AVX2/AVX-512 lanes give it FMA contraction and 4-/8-wide arithmetic.
pub trait Lane: Copy {
    /// Implementation name (diagnostics).
    const NAME: &'static str;

    /// Number of f64 elements per vector.
    const WIDTH: usize;

    /// Load [`Lane::WIDTH`] consecutive f64 values (no alignment requirement).
    ///
    /// # Safety
    /// `p` must be valid for reading `WIDTH` f64 values.
    unsafe fn load(p: *const Scalar) -> Self;

    /// Store [`Lane::WIDTH`] consecutive f64 values (no alignment requirement).
    ///
    /// # Safety
    /// `p` must be valid for writing `WIDTH` f64 values.
    unsafe fn store(self, p: *mut Scalar);

    /// Broadcast one scalar into every element.
    fn splat(v: Scalar) -> Self;

    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;

    /// `self * b + c` — fused (one rounding) on the AVX2 lane, two separately
    /// rounded ops on the portable lane (matching scalar `a*b + c`).
    fn mul_add(self, b: Self, c: Self) -> Self;

    /// Elementwise negation (exact sign flip).
    fn neg(self) -> Self;

    /// `(jx/ρ, jy/ρ, jz/ρ)` via one reciprocal (`j · (1/ρ)`, matching the
    /// scalar kernel), with the vacuum guard: elements where `|ρ| < 1e-300`
    /// yield `+0.0`.
    fn velocities(jx: Self, jy: Self, jz: Self, rho: Self) -> (Self, Self, Self);
}

/// Defines a portable `[f64; N]` lane: plain f64 arithmetic per element. Rust
/// performs no floating-point contraction, so each op is one IEEE rounding —
/// the same expression tree as the scalar kernel, hence bit-exact results.
macro_rules! portable_lane {
    ($(#[$doc:meta])* $name:ident, $width:expr, $label:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy)]
        pub struct $name([Scalar; $width]);

        impl Lane for $name {
            const NAME: &'static str = $label;
            const WIDTH: usize = $width;

            #[inline(always)]
            unsafe fn load(p: *const Scalar) -> Self {
                let mut v = [0.0; $width];
                for (i, slot) in v.iter_mut().enumerate() {
                    *slot = unsafe { *p.add(i) };
                }
                $name(v)
            }

            #[inline(always)]
            unsafe fn store(self, p: *mut Scalar) {
                for (i, v) in self.0.iter().enumerate() {
                    unsafe { *p.add(i) = *v };
                }
            }

            #[inline(always)]
            fn splat(v: Scalar) -> Self {
                $name([v; $width])
            }

            #[inline(always)]
            fn add(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$width {
                    r[i] += o.0[i];
                }
                $name(r)
            }

            #[inline(always)]
            fn sub(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$width {
                    r[i] -= o.0[i];
                }
                $name(r)
            }

            #[inline(always)]
            fn mul(self, o: Self) -> Self {
                let mut r = self.0;
                for i in 0..$width {
                    r[i] *= o.0[i];
                }
                $name(r)
            }

            #[inline(always)]
            fn mul_add(self, b: Self, c: Self) -> Self {
                // Deliberately NOT f64::mul_add: two roundings, like scalar.
                let mut r = [0.0; $width];
                for i in 0..$width {
                    r[i] = self.0[i] * b.0[i] + c.0[i];
                }
                $name(r)
            }

            #[inline(always)]
            fn neg(self) -> Self {
                let mut r = self.0;
                for v in &mut r {
                    *v = -*v;
                }
                $name(r)
            }

            #[inline(always)]
            fn velocities(jx: Self, jy: Self, jz: Self, rho: Self) -> (Self, Self, Self) {
                let (mut ux, mut uy, mut uz) = ([0.0; $width], [0.0; $width], [0.0; $width]);
                for i in 0..$width {
                    // Mirror `equilibrium::velocity`'s vacuum guard exactly.
                    if rho.0[i].abs() < 1e-300 {
                        ux[i] = 0.0;
                        uy[i] = 0.0;
                        uz[i] = 0.0;
                    } else {
                        let inv = 1.0 / rho.0[i];
                        ux[i] = jx.0[i] * inv;
                        uy[i] = jy.0[i] * inv;
                        uz[i] = jz.0[i] * inv;
                    }
                }
                ($name(ux), $name(uy), $name(uz))
            }
        }
    };
}

portable_lane!(
    /// Portable 4-wide lane (scalar-exact rounding; the `SWLB_NO_SIMD` and
    /// no-AVX2 fallback).
    PortableLane,
    LANES,
    "portable"
);
portable_lane!(
    /// One-wide lane: the scalar kernel. `ForceScalar` sweeps with it, and
    /// every wider lane finishes its sub-lane run tails with it, so tails
    /// round exactly like the scalar reference.
    ScalarLane,
    1,
    "scalar"
);
portable_lane!(
    /// Portable 8-wide lane: the software twin of the AVX-512 lane. Same
    /// scalar-exact rounding as [`PortableLane`], but 8-wide chunking, so
    /// `ForceAvx512`-pinned runs reproduce the AVX-512 vector/scalar chunk
    /// split bit-exactly on hardware without AVX-512F.
    Portable8Lane,
    8,
    "portable8"
);

/// AVX2 + FMA 4 × f64 lane.
///
/// Only constructed behind a successful `is_x86_feature_detected!` check; the
/// kernel instantiation is wrapped in a `#[target_feature(enable = "avx2,fma")]`
/// function so every intrinsic inlines into a feature-enabled region.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lane, Scalar};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub struct Avx2Lane(__m256d);

    impl Lane for Avx2Lane {
        const NAME: &'static str = "avx2+fma";
        const WIDTH: usize = 4;

        #[inline(always)]
        unsafe fn load(p: *const Scalar) -> Self {
            Avx2Lane(unsafe { _mm256_loadu_pd(p) })
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut Scalar) {
            unsafe { _mm256_storeu_pd(p, self.0) };
        }

        #[inline(always)]
        fn splat(v: Scalar) -> Self {
            Avx2Lane(unsafe { _mm256_set1_pd(v) })
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Avx2Lane(unsafe { _mm256_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Avx2Lane(unsafe { _mm256_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Avx2Lane(unsafe { _mm256_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul_add(self, b: Self, c: Self) -> Self {
            Avx2Lane(unsafe { _mm256_fmadd_pd(self.0, b.0, c.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // Exact sign flip: xor with the sign-bit mask.
            Avx2Lane(unsafe { _mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)) })
        }

        #[inline(always)]
        fn velocities(jx: Self, jy: Self, jz: Self, rho: Self) -> (Self, Self, Self) {
            unsafe {
                let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
                let tiny = _mm256_set1_pd(1e-300);
                // vacuum ⇒ lane is all-ones in `vac`, cleared by andnot below.
                let vac = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_and_pd(rho.0, abs_mask), tiny);
                let inv = _mm256_div_pd(_mm256_set1_pd(1.0), rho.0);
                let ux = _mm256_andnot_pd(vac, _mm256_mul_pd(jx.0, inv));
                let uy = _mm256_andnot_pd(vac, _mm256_mul_pd(jy.0, inv));
                let uz = _mm256_andnot_pd(vac, _mm256_mul_pd(jz.0, inv));
                (Avx2Lane(ux), Avx2Lane(uy), Avx2Lane(uz))
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::Avx2Lane;

/// AVX-512F 8 × f64 lane.
///
/// Only constructed behind a successful `is_x86_feature_detected!("avx512f")`
/// check; kernel instantiations are wrapped in `#[target_feature(enable =
/// "avx512f")]` functions so every intrinsic inlines into a feature-enabled
/// region. Sign/abs manipulation goes through the 512-bit integer domain
/// (`_mm512_xor_si512`/`_mm512_and_si512`), which is plain AVX-512F — the
/// floating-point bitwise ops (`_mm512_xor_pd` …) would require AVX-512DQ.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Lane, Scalar};
    use std::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub struct Avx512Lane(__m512d);

    impl Lane for Avx512Lane {
        const NAME: &'static str = "avx512f";
        const WIDTH: usize = 8;

        #[inline(always)]
        unsafe fn load(p: *const Scalar) -> Self {
            Avx512Lane(unsafe { _mm512_loadu_pd(p) })
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut Scalar) {
            unsafe { _mm512_storeu_pd(p, self.0) };
        }

        #[inline(always)]
        fn splat(v: Scalar) -> Self {
            Avx512Lane(unsafe { _mm512_set1_pd(v) })
        }

        #[inline(always)]
        fn add(self, o: Self) -> Self {
            Avx512Lane(unsafe { _mm512_add_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            Avx512Lane(unsafe { _mm512_sub_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            Avx512Lane(unsafe { _mm512_mul_pd(self.0, o.0) })
        }

        #[inline(always)]
        fn mul_add(self, b: Self, c: Self) -> Self {
            Avx512Lane(unsafe { _mm512_fmadd_pd(self.0, b.0, c.0) })
        }

        #[inline(always)]
        fn neg(self) -> Self {
            // Exact sign flip via integer xor with the sign-bit mask.
            Avx512Lane(unsafe {
                _mm512_castsi512_pd(_mm512_xor_si512(
                    _mm512_castpd_si512(self.0),
                    _mm512_set1_epi64(i64::MIN),
                ))
            })
        }

        #[inline(always)]
        fn velocities(jx: Self, jy: Self, jz: Self, rho: Self) -> (Self, Self, Self) {
            unsafe {
                // |ρ| via integer-domain abs mask (AVX-512F-only).
                let abs = _mm512_castsi512_pd(_mm512_and_si512(
                    _mm512_castpd_si512(rho.0),
                    _mm512_set1_epi64(0x7fff_ffff_ffff_ffff),
                ));
                // Vacuum ⇔ |ρ| < tiny (ordered, so NaN ρ is *not* vacuum and
                // propagates through the product, matching the scalar guard);
                // maskz with the complement zeroes exactly the vacuum elements.
                let vac: __mmask8 =
                    _mm512_cmp_pd_mask::<_CMP_LT_OQ>(abs, _mm512_set1_pd(1e-300));
                let ok = !vac;
                let inv = _mm512_div_pd(_mm512_set1_pd(1.0), rho.0);
                let ux = _mm512_maskz_mul_pd(ok, jx.0, inv);
                let uy = _mm512_maskz_mul_pd(ok, jy.0, inv);
                let uz = _mm512_maskz_mul_pd(ok, jz.0, inv);
                (Avx512Lane(ux), Avx512Lane(uy), Avx512Lane(uz))
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx512::Avx512Lane;

// ---------------------------------------------------------------------------
// The lane kernels and the streaming sweeps.
// ---------------------------------------------------------------------------

/// The D3Q19 BGK collision applied to one lane group of pre-gathered
/// populations, shared by the AB and both AA lane kernels. Same expression
/// tree as the generic BGK collision, so the scalar and portable
/// instantiations are bit-exact against the reference kernel.
#[inline(always)]
fn lane_collide<V: Lane>(f: &mut [V; 19], omega: Scalar) {
    // Moments: same left-associated reduction order as the scalar kernel.
    let rho = f[0]
        .add(f[1])
        .add(f[2])
        .add(f[3])
        .add(f[4])
        .add(f[5])
        .add(f[6])
        .add(f[7])
        .add(f[8])
        .add(f[9])
        .add(f[10])
        .add(f[11])
        .add(f[12])
        .add(f[13])
        .add(f[14])
        .add(f[15])
        .add(f[16])
        .add(f[17])
        .add(f[18]);
    let jx = f[1]
        .sub(f[2])
        .add(f[7])
        .sub(f[8])
        .add(f[9])
        .sub(f[10])
        .add(f[11])
        .sub(f[12])
        .add(f[13])
        .sub(f[14]);
    let jy = f[3]
        .sub(f[4])
        .add(f[7])
        .sub(f[8])
        .sub(f[9])
        .add(f[10])
        .add(f[15])
        .sub(f[16])
        .add(f[17])
        .sub(f[18]);
    let jz = f[5]
        .sub(f[6])
        .add(f[11])
        .sub(f[12])
        .sub(f[13])
        .add(f[14])
        .add(f[15])
        .sub(f[16])
        .sub(f[17])
        .add(f[18]);
    let (ux, uy, uz) = V::velocities(jx, jy, jz, rho);
    // usq15 = 1.5·(ux² + uy² + uz²), same reduction order as scalar.
    let usq15 = {
        let t = ux.mul(ux);
        let t = uy.mul_add(uy, t);
        let t = uz.mul_add(uz, t);
        V::splat(1.5).mul(t)
    };

    const W0: Scalar = 1.0 / 3.0;
    const WA: Scalar = 1.0 / 18.0;
    const WE: Scalar = 1.0 / 36.0;
    let one = V::splat(1.0);
    let three = V::splat(3.0);
    let four5 = V::splat(4.5);
    let neg_omega = V::splat(-omega);
    macro_rules! relax {
        ($q:literal, $w:expr, $cu:expr) => {{
            let cu = $cu;
            // feq = (w·ρ) · ((1 + 3cu + 4.5cu²) − usq15): unfused this is the
            // scalar tree exactly; under FMA two products contract.
            let t = cu.mul_add(three, one);
            let t = four5.mul(cu).mul_add(cu, t);
            let t = t.sub(usq15);
            let feq = V::splat($w).mul(rho).mul(t);
            // f ← f − ω(f − feq) = (f − feq)·(−ω) + f (bit-equal unfused).
            f[$q] = f[$q].sub(feq).mul_add(neg_omega, f[$q]);
        }};
    }
    relax!(0, W0, V::splat(0.0));
    relax!(1, WA, ux);
    relax!(2, WA, ux.neg());
    relax!(3, WA, uy);
    relax!(4, WA, uy.neg());
    relax!(5, WA, uz);
    relax!(6, WA, uz.neg());
    relax!(7, WE, ux.add(uy));
    relax!(8, WE, ux.neg().sub(uy));
    relax!(9, WE, ux.sub(uy));
    relax!(10, WE, ux.neg().add(uy));
    relax!(11, WE, ux.add(uz));
    relax!(12, WE, ux.neg().sub(uz));
    relax!(13, WE, ux.sub(uz));
    relax!(14, WE, ux.neg().add(uz));
    relax!(15, WE, uy.add(uz));
    relax!(16, WE, uy.neg().sub(uz));
    relax!(17, WE, uy.sub(uz));
    relax!(18, WE, uy.neg().add(uz));
}

/// One lane-wide fused AB update of [`Lane::WIDTH`] consecutive-z interior
/// cells starting at linear index `this`: pull-gather from `sraw`, collide,
/// store to `draw`.
///
/// # Safety
/// Cells `this .. this + WIDTH` must all be interior (inside one run),
/// `sraw`/`draw` must cover `19 * cells` scalars, and no other thread may
/// write these cells concurrently.
#[inline(always)]
unsafe fn lane_update<V: Lane>(
    sraw: &[Scalar],
    draw: *mut Scalar,
    cells: usize,
    off: &[isize; 19],
    this: usize,
    omega: Scalar,
) {
    let sp = sraw.as_ptr();
    let mut f = [V::splat(0.0); 19];
    macro_rules! pull {
        ($($q:literal)*) => {$(
            f[$q] = unsafe {
                V::load(sp.add(($q * cells as isize + this as isize + off[$q]) as usize))
            };
        )*};
    }
    pull!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18);
    lane_collide::<V>(&mut f, omega);
    macro_rules! push {
        ($($q:literal)*) => {$(
            unsafe { f[$q].store(draw.add($q * cells + this)) };
        )*};
    }
    push!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18);
}

/// One lane-wide AA **odd** (pull + scatter) update of [`Lane::WIDTH`]
/// consecutive-z interior cells. The grid holds the *reversed* state
/// (`raw[x][q] = f*_opp(q)(x)`), so streaming-in population `q` lives in plane
/// `opp(q)` of the pull neighbor (`this + off[q]`); post-collision values
/// scatter to plane `q` of the push neighbor (`this − off[q]`), producing the
/// *streamed* state. All 19 loads complete before any store, and a slot's only
/// odd-step writer is the cell whose own gather reads it, so any traversal
/// order (and any slab/lane partition) is race-free.
///
/// # Safety
/// As [`lane_update`], with `raw` both read and written (single grid).
#[inline(always)]
unsafe fn aa_odd_lane_update<V: Lane>(
    raw: *mut Scalar,
    cells: usize,
    off: &[isize; 19],
    this: usize,
    omega: Scalar,
) {
    let mut f = [V::splat(0.0); 19];
    // opp(q) pairs: 0↔0, then (1,2)(3,4)…(17,18).
    macro_rules! pull {
        ($(($q:literal, $opp:literal))*) => {$(
            f[$q] = unsafe {
                V::load(raw.add(($opp * cells as isize + this as isize + off[$q]) as usize))
            };
        )*};
    }
    pull!((0, 0) (1, 2) (2, 1) (3, 4) (4, 3) (5, 6) (6, 5) (7, 8) (8, 7) (9, 10) (10, 9)
          (11, 12) (12, 11) (13, 14) (14, 13) (15, 16) (16, 15) (17, 18) (18, 17));
    lane_collide::<V>(&mut f, omega);
    macro_rules! scatter {
        ($($q:literal)*) => {$(
            unsafe {
                f[$q].store(raw.offset($q * cells as isize + this as isize - off[$q]));
            }
        )*};
    }
    scatter!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18);
}

/// One lane-wide AA **even** (local permute) update of [`Lane::WIDTH`]
/// consecutive-z interior cells. The grid holds the *streamed* state
/// (`raw[y][q] = f*_q(y − c_q)`), so every gather is the cell's own slot;
/// post-collision values store back locally with slots reversed, producing the
/// *reversed* state. Purely cell-local — no neighbor traffic at all.
///
/// # Safety
/// As [`aa_odd_lane_update`].
#[inline(always)]
unsafe fn aa_even_lane_update<V: Lane>(raw: *mut Scalar, cells: usize, this: usize, omega: Scalar) {
    let mut f = [V::splat(0.0); 19];
    macro_rules! pull {
        ($($q:literal)*) => {$(
            f[$q] = unsafe { V::load(raw.add($q * cells + this).cast_const()) };
        )*};
    }
    pull!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18);
    lane_collide::<V>(&mut f, omega);
    macro_rules! store_rev {
        ($(($q:literal, $opp:literal))*) => {$(
            unsafe { f[$q].store(raw.add($opp * cells + this)) };
        )*};
    }
    store_rev!((0, 0) (1, 2) (2, 1) (3, 4) (4, 3) (5, 6) (6, 5) (7, 8) (8, 7) (9, 10) (10, 9)
               (11, 12) (12, 11) (13, 14) (14, 13) (15, 16) (16, 15) (17, 18) (18, 17));
}

/// Per-direction linear offset of the pull source (`x − c_q`) on a
/// z-innermost grid.
fn pull_offsets(dims: GridDims) -> [isize; 19] {
    let (nx, nz) = (dims.nx as isize, dims.nz as isize);
    std::array::from_fn(|q| {
        let c = D3Q19::C[q];
        -((c[1] as isize * nx + c[0] as isize) * nz + c[2] as isize)
    })
}

/// The AB streaming sweep over `xr × ys`: each z-pencil is walked once, in
/// ascending z. Interior runs go through [`lane_update`] in full `V` lanes
/// with sub-lane tails on [`ScalarLane`]; every other cell (walls, fluid next
/// to walls, ghost and boundary cells) goes through the generic per-cell
/// update with the caller's `collision` where the walk meets it.
///
/// # Safety
/// See [`d3q19_sweep`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn ab_sweep_impl<V: Lane>(
    flags: &FlagField,
    src: &SoaField<D3Q19>,
    draw: *mut Scalar,
    collision: &CollisionKind,
    omega: Scalar,
    xr: Range<usize>,
    ys: Range<usize>,
    runs: &InteriorRuns,
) {
    let dims = flags.dims();
    let (nx, nz, cells) = (dims.nx, dims.nz, dims.cells());
    let sraw = src.raw();
    debug_assert_eq!(sraw.len(), 19 * cells);
    let off = pull_offsets(dims);
    let mut f = [0.0; MAX_Q];
    // SAFETY (all calls below): a run certifies its cells interior (all 18
    // pull sources in bounds); the caller certifies buffers and exclusivity.
    let mut gap = |z0: usize, z1: usize, x: usize, y: usize| {
        for z in z0..z1 {
            unsafe { generic_cell::<D3Q19, _>(flags, src, draw, collision, x, y, z, &mut f) };
        }
    };
    for y in ys {
        for x in xr.clone() {
            let pencil = y * nx + x;
            let base = pencil * nz;
            let mut z = 0;
            for &(rz0, rz1) in runs.pencil(pencil) {
                let (rz0, rz1) = (rz0 as usize, rz1 as usize);
                gap(z, rz0, x, y);
                z = rz0;
                while z + V::WIDTH <= rz1 {
                    unsafe { lane_update::<V>(sraw, draw, cells, &off, base + z, omega) };
                    z += V::WIDTH;
                }
                while z < rz1 {
                    unsafe { lane_update::<ScalarLane>(sraw, draw, cells, &off, base + z, omega) };
                    z += 1;
                }
            }
            gap(z, nz, x, y);
        }
    }
}

/// The AA twin of [`ab_sweep_impl`]: the same pencil walk (so the lane/tail
/// split per cell is identical to the AB sweep at equal lane width), running
/// the odd or even AA lane update per [`AaParity`] on interior runs and the
/// generic AA cell update on the gaps.
///
/// # Safety
/// See [`aa_d3q19_sweep`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn aa_sweep_impl<V: Lane>(
    flags: &FlagField,
    raw: *mut Scalar,
    collision: &CollisionKind,
    omega: Scalar,
    parity: AaParity,
    xr: Range<usize>,
    ys: Range<usize>,
    runs: &InteriorRuns,
) {
    let dims = flags.dims();
    let (nx, nz, cells) = (dims.nx, dims.nz, dims.cells());
    let off = pull_offsets(dims);
    let mut f = [0.0; MAX_Q];
    // SAFETY (all calls below): a run certifies its cells interior (all 18
    // neighbors fluid and in bounds, so odd scatters stay in bounds); the
    // caller certifies the buffer and the AA slot-ownership argument.
    let mut gap = |z0: usize, z1: usize, x: usize, y: usize| {
        for z in z0..z1 {
            unsafe { aa_generic_cell::<D3Q19>(flags, raw, collision, parity, x, y, z, &mut f) };
        }
    };
    macro_rules! run {
        ($lane:ty, $this:expr) => {
            match parity {
                AaParity::Reversed => unsafe {
                    aa_odd_lane_update::<$lane>(raw, cells, &off, $this, omega)
                },
                AaParity::Streamed => unsafe {
                    aa_even_lane_update::<$lane>(raw, cells, $this, omega)
                },
            }
        };
    }
    for y in ys {
        for x in xr.clone() {
            let pencil = y * nx + x;
            let base = pencil * nz;
            let mut z = 0;
            for &(rz0, rz1) in runs.pencil(pencil) {
                let (rz0, rz1) = (rz0 as usize, rz1 as usize);
                gap(z, rz0, x, y);
                z = rz0;
                while z + V::WIDTH <= rz1 {
                    run!(V, base + z);
                    z += V::WIDTH;
                }
                while z < rz1 {
                    run!(ScalarLane, base + z);
                    z += 1;
                }
            }
            gap(z, nz, x, y);
        }
    }
}

/// Instantiates `$impl` for one hardware lane inside a `target_feature`
/// wrapper, so every intrinsic inlines into one feature-enabled region (no
/// per-op function calls).
macro_rules! hw_sweep {
    ($name:ident, $impl:ident, $lane:ty, $feat:literal, ($($arg:ident: $ty:ty),*)) => {
        /// # Safety
        /// The CPU must support the enabled features (checked by the
        /// dispatcher), plus the contract of the dispatching sweep.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name($($arg: $ty),*) {
            unsafe { $impl::<$lane>($($arg),*) };
        }
    };
}

hw_sweep!(ab_sweep_avx2, ab_sweep_impl, Avx2Lane, "avx2,fma",
    (flags: &FlagField, src: &SoaField<D3Q19>, draw: *mut Scalar, collision: &CollisionKind,
     omega: Scalar, xr: Range<usize>, ys: Range<usize>, runs: &InteriorRuns));
hw_sweep!(ab_sweep_avx512, ab_sweep_impl, Avx512Lane, "avx512f",
    (flags: &FlagField, src: &SoaField<D3Q19>, draw: *mut Scalar, collision: &CollisionKind,
     omega: Scalar, xr: Range<usize>, ys: Range<usize>, runs: &InteriorRuns));
hw_sweep!(aa_sweep_avx2, aa_sweep_impl, Avx2Lane, "avx2,fma",
    (flags: &FlagField, raw: *mut Scalar, collision: &CollisionKind, omega: Scalar,
     parity: AaParity, xr: Range<usize>, ys: Range<usize>, runs: &InteriorRuns));
hw_sweep!(aa_sweep_avx512, aa_sweep_impl, Avx512Lane, "avx512f",
    (flags: &FlagField, raw: *mut Scalar, collision: &CollisionKind, omega: Scalar,
     parity: AaParity, xr: Range<usize>, ys: Range<usize>, runs: &InteriorRuns));

/// One AB stream+collide sweep over `xr × ys` (full z depth) with plain BGK
/// relaxation rate `omega` on interior runs and the caller's `collision` on
/// the gaps — the raw entry the unified dispatch (serial, pooled and
/// distributed) shares. `path` selects the lane ([`select_fast_path`]).
///
/// # Safety
/// `draw` must point at `19 * cells` writable scalars distinct from `src`,
/// `runs` must describe interior cells of `flags` (every run cell has all 18
/// pull sources in bounds), no other thread may write any cell in `xr × ys`
/// concurrently, and hardware lanes require their CPU feature (guaranteed by
/// [`select_fast_path`]).
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn d3q19_sweep(
    flags: &FlagField,
    src: &SoaField<D3Q19>,
    draw: *mut Scalar,
    collision: &CollisionKind,
    omega: Scalar,
    xr: Range<usize>,
    ys: Range<usize>,
    runs: &InteriorRuns,
    path: FastPath,
) {
    // SAFETY: caller contract; hardware paths are feature-checked upstream.
    unsafe {
        match path {
            #[cfg(target_arch = "x86_64")]
            FastPath::Avx512 => {
                debug_assert!(
                    avx512_available(),
                    "AVX-512 lane dispatched without support"
                );
                ab_sweep_avx512(flags, src, draw, collision, omega, xr, ys, runs)
            }
            #[cfg(target_arch = "x86_64")]
            FastPath::Avx2 => {
                debug_assert!(simd_available(), "AVX2 lane dispatched without support");
                ab_sweep_avx2(flags, src, draw, collision, omega, xr, ys, runs)
            }
            FastPath::Portable8 => {
                ab_sweep_impl::<Portable8Lane>(flags, src, draw, collision, omega, xr, ys, runs)
            }
            FastPath::Scalar => {
                ab_sweep_impl::<ScalarLane>(flags, src, draw, collision, omega, xr, ys, runs)
            }
            _ => ab_sweep_impl::<PortableLane>(flags, src, draw, collision, omega, xr, ys, runs),
        }
    }
}

/// The AA-pattern counterpart of [`d3q19_sweep`]: one in-place sweep of the
/// step flavor selected by `parity` over the single grid `raw`.
///
/// # Safety
/// `raw` must point at `19 * cells` writable scalars; `runs` must describe
/// interior cells of `flags`; no other code may read or write the grid during
/// the sweep except through the AA step itself (whose slot-ownership
/// discipline makes concurrent slabs race-free); hardware lanes require their
/// CPU feature.
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn aa_d3q19_sweep(
    flags: &FlagField,
    raw: *mut Scalar,
    collision: &CollisionKind,
    omega: Scalar,
    parity: AaParity,
    xr: Range<usize>,
    ys: Range<usize>,
    runs: &InteriorRuns,
    path: FastPath,
) {
    // SAFETY: caller contract; hardware paths are feature-checked upstream.
    unsafe {
        match path {
            #[cfg(target_arch = "x86_64")]
            FastPath::Avx512 => {
                debug_assert!(
                    avx512_available(),
                    "AVX-512 lane dispatched without support"
                );
                aa_sweep_avx512(flags, raw, collision, omega, parity, xr, ys, runs)
            }
            #[cfg(target_arch = "x86_64")]
            FastPath::Avx2 => {
                debug_assert!(simd_available(), "AVX2 lane dispatched without support");
                aa_sweep_avx2(flags, raw, collision, omega, parity, xr, ys, runs)
            }
            FastPath::Portable8 => {
                aa_sweep_impl::<Portable8Lane>(flags, raw, collision, omega, parity, xr, ys, runs)
            }
            FastPath::Scalar => {
                aa_sweep_impl::<ScalarLane>(flags, raw, collision, omega, parity, xr, ys, runs)
            }
            _ => aa_sweep_impl::<PortableLane>(flags, raw, collision, omega, parity, xr, ys, runs),
        }
    }
}

// ---------------------------------------------------------------------------
// Host metadata (bench JSON + CLI exit summary).
// ---------------------------------------------------------------------------

/// Detected CPU SIMD features as a stable `+`-joined list (e.g.
/// `"sse2+sse4.2+avx+avx2+fma"`), `"none"` when nothing relevant is present.
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = Vec::new();
        macro_rules! probe {
            ($name:tt) => {
                if std::arch::is_x86_feature_detected!($name) {
                    feats.push($name);
                }
            };
        }
        probe!("sse2");
        probe!("sse4.2");
        probe!("avx");
        probe!("avx2");
        probe!("fma");
        probe!("avx512f");
        if feats.is_empty() {
            "none".into()
        } else {
            feats.join("+")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".into()
    }
}

/// Logical core count visible to this process.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical core count: unique `(physical id, core id)` pairs from
/// `/proc/cpuinfo` where available, else the logical count. Oversubscription
/// (bench threads > this) is exactly the anomaly host metadata exists to
/// explain.
pub fn physical_cores() -> usize {
    if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
        let mut pairs = std::collections::BTreeSet::new();
        let (mut phys, mut core) = (None::<u64>, None::<u64>);
        for line in text.lines().chain(std::iter::once("")) {
            if line.trim().is_empty() {
                if let (Some(p), Some(c)) = (phys, core) {
                    pairs.insert((p, c));
                }
                phys = None;
                core = None;
                continue;
            }
            let mut kv = line.splitn(2, ':');
            let key = kv.next().unwrap_or("").trim();
            let val = kv.next().unwrap_or("").trim();
            match key {
                "physical id" => phys = val.parse().ok(),
                "core id" => core = val.parse().ok(),
                _ => {}
            }
        }
        if !pairs.is_empty() {
            return pairs.len();
        }
    }
    logical_cores()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_class_gauge_roundtrips() {
        for c in [KernelClass::Generic, KernelClass::Scalar, KernelClass::Simd] {
            assert_eq!(KernelClass::from_gauge(c.as_gauge()), Some(c));
        }
        assert_eq!(KernelClass::from_gauge(7.0), None);
        assert_eq!(KernelClass::Simd.name(), "simd");
    }

    #[test]
    fn portable_lane_roundtrips_and_is_unfused() {
        let src = [1.0, -2.5, 3.25, 1e-3];
        let mut dst = [0.0; LANES];
        unsafe {
            let v = PortableLane::load(src.as_ptr());
            v.store(dst.as_mut_ptr());
        }
        assert_eq!(src, dst);
        // mul_add must round twice (no FMA): pick operands where it matters.
        let a = 1.0 + 2f64.powi(-30);
        let v = PortableLane::splat(a);
        let r = v.mul_add(v, PortableLane::splat(-1.0));
        let expect = a * a - 1.0; // two roundings
        unsafe { r.store(dst.as_mut_ptr()) };
        assert_eq!(dst[0], expect);
        assert_ne!(dst[0], a.mul_add(a, -1.0), "portable lane must not fuse");
    }

    #[test]
    fn portable_velocities_apply_vacuum_guard() {
        let j = PortableLane::splat(0.5);
        let rho = unsafe { PortableLane::load([2.0, 0.0, 1e-301, -4.0].as_ptr()) };
        let (ux, _, _) = PortableLane::velocities(j, j, j, rho);
        let mut out = [0.0; LANES];
        unsafe { ux.store(out.as_mut_ptr()) };
        assert_eq!(out[0], 0.5 * (1.0 / 2.0));
        assert_eq!(out[1], 0.0);
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], 0.5 * (1.0 / -4.0));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_lane_matches_portable_elementwise() {
        if !simd_available() {
            return;
        }
        let a = [1.5, -0.25, 3.0, 1e-10];
        let b = [2.0, 4.0, -1.0, 7.5];
        let mut out_a = [0.0; LANES];
        let mut out_p = [0.0; LANES];
        unsafe {
            let (va, vb) = (Avx2Lane::load(a.as_ptr()), Avx2Lane::load(b.as_ptr()));
            va.add(vb).mul(va.sub(vb)).neg().store(out_a.as_mut_ptr());
            let (pa, pb) = (
                PortableLane::load(a.as_ptr()),
                PortableLane::load(b.as_ptr()),
            );
            pa.add(pb).mul(pa.sub(pb)).neg().store(out_p.as_mut_ptr());
        }
        // add/sub/mul/neg are single-rounding ops on both lanes: bit-equal.
        assert_eq!(out_a, out_p);
        let rho = unsafe { Avx2Lane::load([2.0, 0.0, 1e-301, -4.0].as_ptr()) };
        let j = Avx2Lane::splat(0.5);
        let (ux, _, _) = Avx2Lane::velocities(j, j, j, rho);
        unsafe { ux.store(out_a.as_mut_ptr()) };
        assert_eq!(out_a, [0.25, 0.0, 0.0, -0.125]);
    }

    #[test]
    fn host_metadata_is_sane() {
        assert!(logical_cores() >= 1);
        assert!(physical_cores() >= 1);
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn policy_roundtrip_and_selection() {
        let prev = lane_policy();
        set_lane_policy(LanePolicy::ForceScalar);
        assert_eq!(select_fast_path(), (FastPath::Scalar, KernelClass::Scalar));
        set_lane_policy(LanePolicy::ForcePortable);
        assert_eq!(
            select_fast_path(),
            (FastPath::Portable, KernelClass::Scalar)
        );
        assert_eq!(dispatch_tolerance(), 0.0);

        // The force-hardware policies degrade to their portable twin (same
        // chunk width for ForceAvx512) when the feature is absent or masked.
        set_lane_policy(LanePolicy::ForceAvx2);
        if simd_available() && !no_simd_env() {
            assert_eq!(select_fast_path(), (FastPath::Avx2, KernelClass::Simd));
        } else {
            assert_eq!(select_fast_path(), (FastPath::Portable, KernelClass::Scalar));
        }
        set_lane_policy(LanePolicy::ForceAvx512);
        if avx512_available() && !no_simd_env() {
            assert_eq!(select_fast_path(), (FastPath::Avx512, KernelClass::Simd));
        } else {
            assert_eq!(
                select_fast_path(),
                (FastPath::Portable8, KernelClass::Scalar)
            );
        }

        set_lane_policy(LanePolicy::Auto);
        let (path, class) = select_fast_path();
        if avx512_available() && !no_simd_env() {
            assert_eq!((path, class), (FastPath::Avx512, KernelClass::Simd));
            assert_eq!(dispatch_tolerance(), 1e-12);
        } else if simd_available() && !no_simd_env() {
            assert_eq!((path, class), (FastPath::Avx2, KernelClass::Simd));
            assert_eq!(dispatch_tolerance(), 1e-12);
        } else {
            assert_eq!((path, class), (FastPath::Portable, KernelClass::Scalar));
        }
        set_lane_policy(prev);
    }

    #[test]
    fn portable8_lane_matches_portable_semantics() {
        // Same unfused arithmetic as the 4-wide portable lane, 8 elements.
        let src = [1.0, -2.5, 3.25, 1e-3, -7.0, 0.5, 42.0, -0.125];
        let mut dst = [0.0; 8];
        unsafe {
            let v = Portable8Lane::load(src.as_ptr());
            v.store(dst.as_mut_ptr());
        }
        assert_eq!(src, dst);
        assert_eq!(Portable8Lane::WIDTH, 8);
        let a = 1.0 + 2f64.powi(-30);
        let v = Portable8Lane::splat(a);
        let r = v.mul_add(v, Portable8Lane::splat(-1.0));
        unsafe { r.store(dst.as_mut_ptr()) };
        assert_eq!(dst[0], a * a - 1.0, "portable8 lane must not fuse");
        // Vacuum guard across all 8 elements.
        let rho = unsafe {
            Portable8Lane::load([2.0, 0.0, 1e-301, -4.0, 1.0, -1e-310, 8.0, 1e-299].as_ptr())
        };
        let j = Portable8Lane::splat(0.5);
        let (ux, _, _) = Portable8Lane::velocities(j, j, j, rho);
        unsafe { ux.store(dst.as_mut_ptr()) };
        assert_eq!(
            dst,
            [0.25, 0.0, 0.0, -0.125, 0.5, 0.0, 0.0625, 0.5 * (1.0 / 1e-299)]
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_lane_matches_portable_elementwise() {
        if !avx512_available() {
            return;
        }
        let a = [1.5, -0.25, 3.0, 1e-10, -6.5, 0.75, 2.25, -9.0];
        let b = [2.0, 4.0, -1.0, 7.5, 0.5, -3.0, 1.25, 6.0];
        let mut out_v = [0.0; 8];
        let mut out_p = [0.0; 8];
        unsafe {
            let (va, vb) = (Avx512Lane::load(a.as_ptr()), Avx512Lane::load(b.as_ptr()));
            va.add(vb).mul(va.sub(vb)).neg().store(out_v.as_mut_ptr());
            let (pa, pb) = (
                Portable8Lane::load(a.as_ptr()),
                Portable8Lane::load(b.as_ptr()),
            );
            pa.add(pb).mul(pa.sub(pb)).neg().store(out_p.as_mut_ptr());
        }
        // add/sub/mul/neg are single-rounding ops on both lanes: bit-equal.
        assert_eq!(out_v, out_p);
        // Vacuum guard, including NaN propagation (NaN ρ is not vacuum).
        let rho = unsafe {
            Avx512Lane::load([2.0, 0.0, 1e-301, -4.0, f64::NAN, 1.0, -8.0, 1e-299].as_ptr())
        };
        let j = Avx512Lane::splat(0.5);
        let (ux, _, _) = Avx512Lane::velocities(j, j, j, rho);
        unsafe { ux.store(out_v.as_mut_ptr()) };
        assert_eq!(out_v[0], 0.25);
        assert_eq!(out_v[1], 0.0);
        assert_eq!(out_v[2], 0.0);
        assert_eq!(out_v[3], -0.125);
        assert!(out_v[4].is_nan(), "NaN density must propagate");
        assert_eq!(out_v[5], 0.5);
        assert_eq!(out_v[6], -0.0625);
        assert_eq!(out_v[7], 0.5 * (1.0 / 1e-299));
    }
}
