//! Golden fingerprints of the blocked GEMM's output bits, per ISA.
//!
//! A fingerprint is one FNV-1a `u64` over every output element's bits of
//! `C = A·B` at every shape of the grid below, computed through each of
//! the three entry points that share the loop nest: the plain driver
//! (`gemm_with`), weights packed ahead of time (`gemm_with_prepacked_a`)
//! and row chunks against a shared packed B (`gemm_rows_with`). All three
//! must read the same value, and that value is pinned per ISA.
//!
//! Every element's reduction chain is fixed by the contract: one
//! multiply-add per `k` step inside a `k_c` block, then `C += tile`, so a
//! change to tile shape, packing or loop order that keeps the contract
//! leaves every value here unchanged. Scalar and SSE2 are bit-identical
//! to each other by that contract; AVX2 fuses the multiply-add and has its
//! own value. The expected values were taken on the 8×8-tile GEMM before
//! the tile was reshaped.
//!
//! The grid straddles every edge the blocking has: rows around the tile
//! heights, reductions at and past `k_c` = 256, columns around the tile
//! widths and the serving batch sizes.

use dlr_dense::{
    gemm_rows_with, gemm_with, gemm_with_prepacked_a, GemmWorkspace, GotoParams, Matrix,
    PrepackedA, PrepackedB,
};
use dlr_simd::Isa;

const MS: [usize; 9] = [1, 6, 7, 12, 13, 50, 100, 200, 400];
const KS: [usize; 5] = [1, 136, 256, 257, 400];
const NS: [usize; 8] = [1, 4, 8, 9, 16, 17, 64, 256];

/// Golden fingerprint per ISA (scalar and SSE2 share one by contract).
const GOLDEN: [(Isa, u64); 3] = [
    (Isa::Scalar, 0x147d_5d88_98b7_c4a3),
    (Isa::Sse2, 0x147d_5d88_98b7_c4a3),
    (Isa::Avx2, 0x6d33_aa22_a1ec_1dcc),
];

/// FNV-1a over `f32` bit patterns.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, values: &[f32]) {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// The three entry points over one shape grid; one fingerprint each.
fn fingerprints() -> [u64; 3] {
    let kmax = KS[KS.len() - 1];
    let a_pool = Matrix::random(MS[MS.len() - 1], kmax, 1.0, 0xa);
    let b_pool = Matrix::random(kmax, NS[NS.len() - 1], 1.0, 0xb);
    let params = GotoParams::default();
    let mut ws = GemmWorkspace::default();
    let mut apack = Vec::new();
    let mut fnv = [Fnv::new(), Fnv::new(), Fnv::new()];
    for m in MS {
        for k in KS {
            for n in NS {
                let a = &a_pool.as_slice()[..m * k];
                let b = &b_pool.as_slice()[..k * n];
                let mut c = vec![f32::NAN; m * n];
                gemm_with(m, k, n, a, b, &mut c, params, &mut ws);
                fnv[0].eat(&c);

                c.fill(f32::NAN);
                let pa = PrepackedA::pack(a, m, k, params);
                gemm_with_prepacked_a(n, &pa, b, &mut c, &mut ws);
                fnv[1].eat(&c);

                c.fill(f32::NAN);
                let pb = PrepackedB::pack(b, k, n, params);
                let mc = pb.effective_mc(m);
                for (chunk, rows) in c.chunks_mut(mc * n).enumerate() {
                    gemm_rows_with(m, chunk * mc, a, &pb, rows, &mut apack);
                }
                fnv[2].eat(&c);
            }
        }
    }
    fnv.map(|f| f.0)
}

#[test]
fn gemm_output_bits_keep_their_fingerprints() {
    for (isa, want) in GOLDEN {
        let Ok(prev) = dlr_simd::force(isa) else {
            continue; // not on this host
        };
        let got = fingerprints();
        dlr_simd::force(prev).expect("restoring a previously active ISA");
        for (path, got) in ["gemm_with", "prepacked A", "row chunks"].iter().zip(got) {
            assert_eq!(
                got, want,
                "{isa} {path}: fingerprint {got:#018x}, want {want:#018x}"
            );
        }
    }
}
