//! The vQS lane update (§2.2): compare 8 document-lane feature values
//! against one node threshold and AND the node's bitvector mask into the
//! lanes whose test is *false* (branch-free lane select).
//!
//! The update is a float compare followed by pure bitwise arithmetic, and
//! it has one implementation: the lane loop below, which the compiler
//! vectorizes for the build target. Intrinsics for the step read slower
//! than this loop on the reference host (`simd.qs_mask_ns` in
//! `results/benchmark/score-forest.txt`), so no [`Isa`] level has a
//! kernel of its own and every level yields the same bits by
//! construction.

use crate::dispatch::Isa;
use crate::LANES;

/// Apply one QuickScorer condition to the 8 traversal bitvectors:
/// `dst[lane] &= if xf[lane] > threshold { mask } else { !0 }`.
///
/// Runs the lane loop at every `isa` level: no level has a kernel of its
/// own, the argument is kept for the callers that sweep [`Isa::ALL`].
/// This must stay a plain call so the loop inlines into vQS's condition
/// loop.
pub fn mask_step(_isa: Isa, xf: &[f32; LANES], threshold: f32, mask: u64, dst: &mut [u64; LANES]) {
    mask_step_scalar(xf, threshold, mask, dst);
}

/// The auto-vectorizable lane loop; `>` is false on NaN, so a NaN lane
/// keeps its bits.
fn mask_step_scalar(xf: &[f32; LANES], threshold: f32, mask: u64, dst: &mut [u64; LANES]) {
    for lane in 0..LANES {
        let keep = if xf[lane] > threshold { mask } else { u64::MAX };
        dst[lane] &= keep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    fn run(isa: Isa, xf: [f32; LANES], threshold: f32, mask: u64, init: [u64; LANES]) -> [u64; 8] {
        let mut dst = init;
        mask_step(isa, &xf, threshold, mask, &mut dst);
        dst
    }

    #[test]
    fn all_supported_paths_are_bit_identical() {
        let cases: &[([f32; 8], f32, u64)] = &[
            (
                [0.5, -1.0, 2.0, 0.0, 3.5, -0.1, 0.1, 9.0],
                0.0,
                0xDEAD_BEEF_F00D_u64,
            ),
            ([1.0; 8], 1.0, 0b1010),
            ([-1.0; 8], -2.0, u64::MAX - 1),
            (
                [
                    f32::NAN,
                    1.0,
                    f32::NAN,
                    -1.0,
                    0.0,
                    2.0,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                ],
                0.5,
                0x0F0F,
            ),
            (
                [f32::MIN, f32::MAX, 0.0, -0.0, 1e-38, -1e-38, 7.0, -7.0],
                -0.0,
                1,
            ),
        ];
        let init = [
            u64::MAX,
            0xAAAA_5555_AAAA_5555,
            0,
            1,
            u64::MAX >> 1,
            0xFF00_FF00_FF00_FF00,
            42,
            u64::MAX,
        ];
        for &(xf, th, mask) in cases {
            let want = run(Isa::Scalar, xf, th, mask, init);
            for isa in [Isa::Sse2, Isa::Avx2] {
                if !dispatch::supported(isa) {
                    continue;
                }
                assert_eq!(
                    want,
                    run(isa, xf, th, mask, init),
                    "{isa} xf={xf:?} th={th}"
                );
            }
        }
    }

    #[test]
    fn scalar_semantics_match_the_definition() {
        let xf = [1.0, 0.0, 2.0, -3.0, 0.5, 0.5, 10.0, -10.0];
        let got = run(Isa::Scalar, xf, 0.5, 0b0110, [u64::MAX; 8]);
        for (lane, &g) in got.iter().enumerate() {
            let expect = if xf[lane] > 0.5 { 0b0110 } else { u64::MAX };
            assert_eq!(g, expect, "lane {lane}");
        }
    }

    #[test]
    fn nan_lanes_test_false_on_every_path() {
        let xf = [f32::NAN; 8];
        for isa in Isa::ALL {
            if !dispatch::supported(isa) {
                continue;
            }
            // NaN > t is false: every lane keeps its bits.
            let got = run(isa, xf, f32::NEG_INFINITY, 0, [0xABCD; 8]);
            assert_eq!(got, [0xABCD; 8], "{isa}");
        }
    }
}
