//! Which instantiation of a lane-compiled kernel runs.
//!
//! The hot loops of this crate — the GEMM panel in [`crate::linalg`], the
//! slice passes in [`crate::math`] — are each one source compiled twice
//! on x86-64: for the target's baseline (SSE2) and again with AVX
//! enabled. A call picks the AVX one when
//! `is_x86_feature_detected!("avx")` says the CPU has it. That is a
//! platform selection the code observes, not an option — nothing sets it
//! and nothing can: `vmulpd` / `vaddpd` / `vdivpd` / `vsqrtpd` round each
//! 64-bit lane exactly as their 2-lane and scalar forms do (IEEE 754
//! binary64, round to nearest even), lanes never interact, and which
//! lanes share a register decides no element's operation order, so the
//! wider instantiation cannot change a bit. FMA is never enabled, and no
//! kernel source has a `mul_add`: a fused multiply-add rounds once where
//! the spelled-out code rounds twice, which *would* change bits. Other
//! targets compile the baseline instantiation only.
//!
//! Calling the AVX instantiation is the one `unsafe` block of this
//! crate; every kernel goes through it.

/// A loop body that [`Isa::run`] compiles once per instantiation.
///
/// Implementations mark `run` `#[inline(always)]`, with everything below
/// it, so the body is compiled with the features of the function it is
/// inlined into.
pub(crate) trait Kernel {
    /// Runs the kernel over the slices it holds.
    fn run(self);
}

/// Which instantiation of a [`Kernel`] a call runs. The field is private
/// to this module and only [`Isa::detect`] ever sets it — what the
/// `unsafe` call in [`Isa::run`] relies on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Isa {
    avx: bool,
}

impl Isa {
    /// The baseline instantiation, compiled for the target's default
    /// features (SSE2 on x86-64); the only one off x86-64.
    pub(crate) const PORTABLE: Isa = Isa { avx: false };

    /// The widest instantiation this CPU runs.
    pub(crate) fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx") {
            return Isa { avx: true };
        }
        Isa::PORTABLE
    }

    /// Runs `kernel` in this instantiation.
    #[inline]
    pub(crate) fn run<K: Kernel>(self, kernel: K) {
        #[cfg(target_arch = "x86_64")]
        if self.avx {
            // SAFETY: `avx` is set by `Isa::detect` alone, after
            // `is_x86_feature_detected!("avx")` held on this CPU; AVX is
            // the only feature `run_avx` enables.
            #[allow(unsafe_code)]
            unsafe {
                run_avx(kernel)
            };
            return;
        }
        kernel.run();
    }
}

/// [`Kernel::run`] compiled a second time with AVX enabled: the same
/// source, 4-lane instructions where the baseline has 2-lane ones.
/// Never `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn run_avx<K: Kernel>(kernel: K) {
    kernel.run();
}
