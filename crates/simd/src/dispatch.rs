//! One-time runtime ISA detection and the process-wide dispatch choice.
//!
//! The active [`Isa`] is resolved once — `is_x86_feature_detected!` capped
//! by the `DLR_SIMD` environment variable — and cached in an atomic
//! (`OnceLock`-style: one CAS on first use, a relaxed load afterwards).
//! Kernels take an explicit [`Isa`] argument, so the cached value is a
//! *default*, not a hidden global: tests pin paths by passing the ISA
//! directly, and [`force`] exists for whole-program experiments
//! (benchmarks, `DLR_SIMD=scalar` CI runs, debugging a suspect path).

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set levels the kernels are specialized for, in ascending
/// preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Isa {
    /// Portable safe-Rust kernels; always available on every target.
    Scalar = 0,
    /// 128-bit SSE2 (the x86-64 baseline): a GEMM tile of its own
    /// (mul-then-add, bit-identical to scalar); SDMM and QuickScorer run
    /// their scalar paths at this level.
    Sse2 = 1,
    /// 256-bit AVX2 with FMA: the oneDNN/LIBXSMM configuration the paper
    /// benchmarks. GEMM uses fused multiply-add (ULP-bounded vs. scalar);
    /// SDMM stays bit-identical; QuickScorer scans each group of up to
    /// 32 documents in one kernel, bit-identical to the lane loop.
    Avx2 = 2,
}

impl Isa {
    /// All levels, ascending.
    pub const ALL: [Isa; 3] = [Isa::Scalar, Isa::Sse2, Isa::Avx2];

    /// Stable lowercase name (matches the `DLR_SIMD` spellings).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Sse2 => "sse2",
            Isa::Avx2 => "avx2",
        }
    }

    /// Parse a `DLR_SIMD` spelling. `auto`/empty means "no cap".
    pub fn parse(s: &str) -> Option<Isa> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "sse2" => Some(Isa::Sse2),
            "avx2" | "avx2+fma" | "avx2fma" => Some(Isa::Avx2),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Isa {
        match v {
            1 => Isa::Sse2,
            2 => Isa::Avx2,
            _ => Isa::Scalar,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Is `isa` usable on this host? [`Isa::Scalar`] always is; SSE2 is the
/// x86-64 baseline; AVX2 additionally requires FMA (the kernels assume
/// both, exactly as oneDNN's AVX2 JIT does).
pub fn supported(isa: Isa) -> bool {
    match isa {
        Isa::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => true,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// Best ISA this host supports, ignoring the environment cap.
pub fn detect_best() -> Isa {
    for isa in Isa::ALL.iter().rev() {
        if supported(*isa) {
            return *isa;
        }
    }
    Isa::Scalar
}

/// Best supported ISA capped by `DLR_SIMD` (unset/`auto`/unrecognized
/// spellings leave detection unrestricted; a cap *above* host support is
/// clamped down, never up).
fn resolve() -> Isa {
    let best = detect_best();
    match std::env::var("DLR_SIMD") {
        Ok(v) => match Isa::parse(&v) {
            Some(cap) => cap.min(best),
            None => best,
        },
        Err(_) => best,
    }
}

/// Cached dispatch choice: 0 = unresolved, otherwise `isa as u8 + 1`.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The process-wide active ISA: resolved on first call (detection ∧
/// `DLR_SIMD` cap), cached afterwards. This is what the scoring crates
/// pass to the kernels when the caller has no opinion.
pub fn active() -> Isa {
    let v = ACTIVE.load(Ordering::Relaxed);
    if v != 0 {
        return Isa::from_u8(v - 1);
    }
    let resolved = resolve();
    // Benign race: concurrent first calls resolve to the same value.
    ACTIVE.store(resolved as u8 + 1, Ordering::Relaxed);
    resolved
}

/// Force the process-wide dispatch choice (benchmarks sweeping each path,
/// or pinning a path while debugging). Returns the previous choice, or
/// `Err` with the host's best level when `isa` is not supported here.
/// Calls made *while a kernel is running on another thread* affect only
/// subsequent kernel invocations — every kernel reads the ISA exactly
/// once per call.
pub fn force(isa: Isa) -> Result<Isa, Isa> {
    if !supported(isa) {
        return Err(detect_best());
    }
    let prev = active();
    ACTIVE.store(isa as u8 + 1, Ordering::Relaxed);
    Ok(prev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        assert!(supported(Isa::Scalar));
        assert!(supported(detect_best()));
    }

    #[test]
    fn parse_accepts_the_documented_spellings() {
        assert_eq!(Isa::parse("scalar"), Some(Isa::Scalar));
        assert_eq!(Isa::parse("SSE2"), Some(Isa::Sse2));
        assert_eq!(Isa::parse(" avx2 "), Some(Isa::Avx2));
        assert_eq!(Isa::parse("avx2+fma"), Some(Isa::Avx2));
        assert_eq!(Isa::parse("auto"), None);
        assert_eq!(Isa::parse(""), None);
        assert_eq!(Isa::parse("neon"), None);
    }

    #[test]
    fn ordering_matches_preference() {
        assert!(Isa::Scalar < Isa::Sse2);
        assert!(Isa::Sse2 < Isa::Avx2);
        for isa in Isa::ALL {
            assert_eq!(Isa::from_u8(isa as u8), isa);
        }
    }

    #[test]
    fn force_round_trips_and_rejects_unsupported() {
        let initial = active();
        let prev = force(Isa::Scalar).expect("scalar always forceable");
        assert_eq!(prev, initial);
        assert_eq!(active(), Isa::Scalar);
        // Restore whatever the host had.
        force(initial).expect("restoring a previously-active ISA");
        assert_eq!(active(), initial);
        if !supported(Isa::Avx2) {
            assert_eq!(force(Isa::Avx2), Err(detect_best()));
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Sse2.to_string(), "sse2");
        assert_eq!(Isa::Avx2.name(), "avx2");
    }
}
