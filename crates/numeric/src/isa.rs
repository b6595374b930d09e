//! Which instantiation of a lane-compiled kernel runs.
//!
//! The hot loops of the evaluation pipeline are each one source compiled
//! three times on x86-64: for the target's baseline (SSE2, 2 lanes), with
//! AVX enabled (4 lanes) and with AVX-512F enabled (8 lanes). A call picks
//! the widest one the CPU reports: `is_x86_feature_detected!("avx512f")`
//! (which also checks that the OS saves the zmm state), else
//! `is_x86_feature_detected!("avx")`, else the baseline; both wide
//! instantiations also enable, and require, `popcnt`, so a count's
//! `count_ones` is one instruction there (an integer count is exact in
//! any instruction). That is a
//! platform selection the code observes, not an option — nothing sets it
//! and nothing can: `mulpd` / `addpd` / `divpd` / `sqrtpd` round each
//! 64-bit lane exactly as their 2-lane and scalar forms do (IEEE 754
//! binary64, round to nearest even), `addps` each 32-bit lane as `addss`
//! does (binary32), compares decide a lane alike, at every width, lanes
//! never interact,
//! and which lanes share a register decides no element's operation
//! order, so a wider instantiation cannot change a bit. Other targets
//! compile the baseline instantiation only.
//!
//! # Who implements [`Kernel`]
//!
//! In this crate: the GEMM panel in [`crate::linalg`] and the slice
//! passes of [`crate::math`] (`exp_slice`, `box_muller`,
//! `softmax_columns`). Outside it, `shapley::group`'s coalition walk —
//! the member-trie adds and then, for a labelled utility such as the
//! contract's accuracy utility, the label screen (`f32` label-minus-rival
//! sums of 16 rows a vector against their thresholds), or, for an
//! unlabelled one, the `1/|S|` scale and the utility's tally — so that
//! crates which forbid `unsafe` code reach the wider instantiations
//! through [`Isa::run`] alone. A kernel from any crate is
//! sound to run: the only `unsafe` step is entering an instantiation, and
//! an [`Isa`] names one only after the CPU reported its feature.
//!
//! # No fused multiply-add
//!
//! A fused multiply-add rounds once where the spelled-out `a * b + c`
//! rounds twice, which *would* change bits. The AVX instantiation does
//! not enable FMA; the AVX-512F one cannot help it — in rustc `avx512f`
//! implies the `fma` target feature. Two facts keep FMA out of every
//! instantiation: no kernel source calls `mul_add`, and rustc never
//! contracts a multiply and an add into one. `scripts/no_fma.sh` checks
//! both: it greps the non-test source of `numeric`, `ml`, `shapley` and
//! `fedchain` for `mul_add` and disassembles a release binary for any
//! `vfmadd` / `vfmsub` / `vfnmadd` / `vfnmsub`.
//!
//! Calling a wider instantiation is the one `unsafe` block of this crate;
//! every kernel goes through it.

/// A loop body that [`Isa::run`] compiles once per instantiation.
///
/// Implementations mark `run` `#[inline(always)]`, with everything below
/// it — a generic caller's trait methods included — so the body is
/// compiled with the features of the function it is inlined into; what is
/// not inlined runs as the baseline build of it.
pub trait Kernel {
    /// Runs the kernel over the slices it holds, compiled for vector
    /// registers of `LANES` `f64` lanes: 2 in the portable instantiation
    /// (16 `xmm` registers on x86-64), 4 with AVX (16 `ymm`), 8 with
    /// AVX-512F (32 `zmm`). A kernel whose blocking depends on the
    /// register file — the GEMM micro-tile, the coalition walk's register
    /// groups — picks it from `LANES`; the others ignore it.
    fn run<const LANES: usize>(self);
}

/// Which instantiation of a [`Kernel`] a call runs. The field is private
/// to this module, and every `Isa` above the portable one is built from a
/// tier whose feature this CPU reported — what the `unsafe` call in
/// [`Isa::run`] relies on. Only [`Isa::detect`] and [`Isa::each`] make
/// one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Isa {
    tier: Tier,
}

/// The three instantiations.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tier {
    /// The target's default features (SSE2 on x86-64).
    Portable,
    /// AVX: 4-lane `ymm` code.
    Avx,
    /// AVX-512F: 8-lane `zmm` code.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    const ALL: [Tier; 3] = [Tier::Portable, Tier::Avx, Tier::Avx512];

    /// Whether this CPU reports the features the tier's instantiation
    /// enables: its vector extension and `popcnt`.
    fn reported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let popcnt = std::arch::is_x86_feature_detected!("popcnt");
        match self {
            Tier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx => popcnt && std::arch::is_x86_feature_detected!("avx"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => popcnt && std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx | Tier::Avx512 => false,
        }
    }
}

impl Isa {
    /// The baseline instantiation, compiled for the target's default
    /// features (SSE2 on x86-64); the only one off x86-64.
    pub(crate) const PORTABLE: Isa = Isa {
        tier: Tier::Portable,
    };

    /// The widest instantiation this CPU runs.
    pub fn detect() -> Isa {
        Tier::ALL
            .into_iter()
            .rfind(|t| t.reported())
            .map_or(Isa::PORTABLE, |tier| Isa { tier })
    }

    /// Every instantiation this CPU runs, narrowest (the portable one)
    /// first: what a test holds each instantiation to.
    pub fn each() -> Vec<Isa> {
        Tier::ALL
            .into_iter()
            .filter(|t| t.reported())
            .map(|tier| Isa { tier })
            .collect()
    }

    /// Runs `kernel` in this instantiation.
    #[inline]
    pub fn run<K: Kernel>(self, kernel: K) {
        #[cfg(target_arch = "x86_64")]
        if self.tier != Tier::Portable {
            // SAFETY: this `Isa` came from `detect` or `each`, so
            // `self.tier.reported()` held on this CPU:
            // `is_x86_feature_detected!` reported `"popcnt"` and, for
            // `Avx512`, `"avx512f"`, for `Avx`, `"avx"`. Those are the
            // features `run_avx512` / `run_avx` enable (with what rustc
            // implies by them, which every CPU reporting them implements).
            #[allow(unsafe_code)]
            unsafe {
                if self.tier == Tier::Avx512 {
                    run_avx512(kernel)
                } else {
                    run_avx(kernel)
                }
            };
            return;
        }
        kernel.run::<2>();
    }
}

/// [`Kernel::run`] compiled a second time with AVX enabled: the same
/// source, 4-lane instructions where the baseline has 2-lane ones, and
/// `u64::count_ones` one `popcnt` instead of a bit-count sequence.
/// Never `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx,popcnt")]
fn run_avx<K: Kernel>(kernel: K) {
    kernel.run::<4>();
}

/// [`Kernel::run`] compiled a third time with AVX-512F enabled: the same
/// source, 8-lane instructions, `popcnt` as in [`run_avx`]. `avx512f`
/// implies `fma`, so only the source (no `mul_add`) and rustc (no
/// contraction) keep FMA out — the module docs, "No fused multiply-add".
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,popcnt")]
fn run_avx512<K: Kernel>(kernel: K) {
    kernel.run::<8>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_the_widest_tier_of_each() {
        let each = Isa::each();
        assert_eq!(each[0], Isa::PORTABLE);
        assert_eq!(each.last(), Some(&Isa::detect()));
    }
}
