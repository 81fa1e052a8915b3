//! The Goto GEMM micro-kernels: a register tile of C accumulated as `kcb`
//! rank-1 updates over packed panel strips (§4.1).
//!
//! The packed layout is the one `dlr-dense` produces. A is packed in
//! [`MR`]-row strips, column-major per reduction step (zero-padded past the
//! edge); B in [`NR`]-column strips, row-major per step, except that a
//! panel's last strip of at most [`NR_NARROW`] columns is packed that wide.
//! Each reduction step broadcasts one A element against the B vectors of
//! its row — on AVX2 one `vfmadd231ps` per 8 lanes, the oneDNN inner loop.
//!
//! Three tiles share one body per ISA, with the shape as const parameters
//! (AVX2 adds a second body for the 12×8 tile over at most 6 columns):
//!
//! * [`micro_kernel_6x16`] — a full B strip: 6 rows × two 8-lane vectors,
//!   12 accumulators. Per reduction step 2 B loads and 6 broadcasts feed
//!   12 FMAs, so two FMA ports stay busy and twelve independent chains
//!   cover their latency. The 8×8 tile has 8 chains and needs 9 loads per
//!   8 FMAs: the load ports, not the FMA ports, bound it.
//! * [`micro_kernel_12x8`] — a narrow B strip (≤ 8 columns): two
//!   consecutive A strips against one vector, again 12 accumulators. On
//!   AVX2 a strip of 1–6 columns takes a second body with rows as lanes:
//!   each A strip is one vector per step, each real B column a broadcast,
//!   `2·cols` FMAs per step instead of 12. A 4-document batch computes 4
//!   columns, not 8. At 7 columns that body would need 17 ymm registers
//!   and 14 FMAs, so 7 and 8 keep the 12-accumulator body.
//! * [`micro_kernel_8x8`] — the original 8×8 tile over 8-row strips. No
//!   product path runs it; the benchmark times it (`simd.gemm_tile_ns`).
//!
//! Numeric contract: every tile accumulates each element as one
//! multiply-add per reduction step from zero, then adds the tile to C, so
//! neither the tile shape nor the body that runs it changes a bit of the
//! output. The scalar and SSE2 paths perform the same multiply-then-add
//! per lane in the same order and are **bit-identical**. The AVX2 path
//! fuses the multiply-add (single rounding per step), so its output
//! differs from scalar by at most `kcb` half-ULP steps per element — the
//! documented ULP policy (see the crate docs).

use crate::dispatch::{supported, Isa};
use crate::LANES;

/// Rows of one packed A strip: the height of the full tile.
pub const MR: usize = 6;
/// Columns of one full packed B strip: the width of the full tile.
pub const NR: usize = 2 * LANES;
/// Columns of a narrow packed B strip: a panel's last strip of at most
/// this many columns, which [`micro_kernel_12x8`] multiplies.
pub const NR_NARROW: usize = LANES;

/// Accumulate `kcb` rank-1 updates of a 6×16 tile into
/// `C[row0.., col0..]` with edge clipping (`rows ≤ 6`, `cols ≤ 16`).
///
/// `astrip` is one packed [`MR`]-row strip (`kcb·6` elements), `bstrip`
/// one full packed [`NR`]-column strip (`kcb·16`); `c` is the row-major
/// output with leading dimension `ldc`. An unsupported `isa` silently falls
/// back to scalar, so the call is total on every host.
///
/// # Panics
/// Panics when the strips are shorter than `kcb` steps, the tile exceeds
/// 6×16, or the clipped tile does not fit inside `c`.
#[allow(clippy::too_many_arguments)]
pub fn micro_kernel_6x16(
    isa: Isa,
    astrip: &[f32],
    bstrip: &[f32],
    kcb: usize,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
) {
    tile::<MR, 2, MR>(isa, astrip, bstrip, kcb, c, ldc, row0, col0, rows, cols);
}

/// Accumulate `kcb` rank-1 updates of a 12×8 tile into
/// `C[row0.., col0..]` with edge clipping (`rows ≤ 12`, `cols ≤ 8`).
///
/// `astrips` is two consecutive packed [`MR`]-row strips (`kcb·12`
/// elements: rows 0–5, then rows 6–11), `bstrip` one narrow packed
/// [`NR_NARROW`]-column strip (`kcb·8`). On AVX2, `cols ≤ 6` runs a body
/// that multiplies only those columns, with the same output bits.
/// Otherwise as [`micro_kernel_6x16`].
///
/// # Panics
/// Panics when the strips are shorter than `kcb` steps, the tile exceeds
/// 12×8, or the clipped tile does not fit inside `c`.
#[allow(clippy::too_many_arguments)]
pub fn micro_kernel_12x8(
    isa: Isa,
    astrips: &[f32],
    bstrip: &[f32],
    kcb: usize,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
) {
    tile::<{ 2 * MR }, 1, MR>(isa, astrips, bstrip, kcb, c, ldc, row0, col0, rows, cols);
}

/// Accumulate `kcb` rank-1 updates of an 8×8 tile into
/// `C[row0.., col0..]` with edge clipping (`rows ≤ 8`, `cols ≤ 8`).
///
/// `astrip` holds 8 rows of A column-major per reduction step (`kcb·8`
/// elements), `bstrip` 8 columns of B row-major per step (`kcb·8`). No
/// product path packs for this tile any more; it is kept, with its
/// contract, as the instrument the benchmark times.
///
/// # Panics
/// Panics when the strips are shorter than `kcb` steps, the tile exceeds
/// 8×8, or the clipped tile does not fit inside `c`.
#[allow(clippy::too_many_arguments)]
pub fn micro_kernel_8x8(
    isa: Isa,
    astrip: &[f32],
    bstrip: &[f32],
    kcb: usize,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
) {
    tile::<LANES, 1, LANES>(isa, astrip, bstrip, kcb, c, ldc, row0, col0, rows, cols);
}

/// The one tile: `R` rows × `V` 8-lane vectors, A read from one or two
/// consecutive `H`-row strips. Checks the contract, then dispatches.
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const V: usize, const H: usize>(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    kcb: usize,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
) {
    const { assert!(R == H || R == 2 * H) };
    assert!(a.len() >= kcb * R, "A strip shorter than kcb steps");
    assert!(b.len() >= kcb * V * LANES, "B strip shorter than kcb steps");
    assert!(rows <= R && cols <= V * LANES, "tile exceeds its shape");
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(cols <= ldc, "tile wider than the C leading dimension");
    assert!(
        (row0 + rows - 1) * ldc + col0 + cols <= c.len(),
        "tile out of C bounds"
    );
    let isa = if supported(isa) { isa } else { Isa::Scalar };
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // SAFETY: AVX2+FMA availability was checked by `supported`
            // above; the slice-length and tile-bounds asserts above
            // guarantee every pointer the kernel dereferences (A up to
            // `kcb·R`, B up to `kcb·8V`, C rows `row0..row0+rows` clipped
            // to `cols`) stays inside the borrowed slices.
            unsafe {
                x86::tile_avx2::<R, V, H>(
                    a.as_ptr(),
                    b.as_ptr(),
                    kcb,
                    c.as_mut_ptr().add(row0 * ldc + col0),
                    ldc,
                    rows,
                    cols,
                );
            }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Sse2 => {
            // SAFETY: SSE2 is the x86-64 baseline (checked by `supported`);
            // pointer validity follows from the same asserts as the AVX2
            // arm — the kernel touches at most `kcb·R` A and `kcb·8V` B
            // elements and the clipped `rows × cols` window of C.
            unsafe {
                x86::tile_sse2::<R, V, H>(
                    a.as_ptr(),
                    b.as_ptr(),
                    kcb,
                    c.as_mut_ptr().add(row0 * ldc + col0),
                    ldc,
                    rows,
                    cols,
                );
            }
        }
        _ => tile_scalar::<R, V, H>(a, b, kcb, c, ldc, row0, col0, rows, cols),
    }
}

/// Portable fallback: the fixed-size accumulator-array loop the compiler
/// auto-vectorizes, kept as the semantic reference all SIMD paths are
/// tested against.
#[allow(clippy::too_many_arguments)]
fn tile_scalar<const R: usize, const V: usize, const H: usize>(
    a: &[f32],
    b: &[f32],
    kcb: usize,
    c: &mut [f32],
    ldc: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
) {
    let width = V * LANES;
    let mut acc = [[[0.0f32; LANES]; V]; R];
    let (first, second) = a.split_at((H * kcb).min(a.len()));
    for p in 0..kcb {
        let bvec = &b[p * width..(p + 1) * width];
        for (i, row) in acc.iter_mut().enumerate() {
            let strip = if i < H { first } else { second };
            let ai = strip[p * H + i % H];
            for (lanes, bl) in row.iter_mut().zip(bvec.chunks_exact(LANES)) {
                for (x, &bv) in lanes.iter_mut().zip(bl) {
                    *x += ai * bv;
                }
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(rows) {
        let start = (row0 + i) * ldc + col0;
        for (cv, &x) in c[start..start + cols].iter_mut().zip(row.iter().flatten()) {
            *cv += x;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The hand-written kernels. Private: callable only through the
    //! dispatch wrapper above (enforced by dlr-lint's
    //! `SIMD_TARGET_FEATURE` rule).

    use super::MR;
    use crate::LANES;
    use core::arch::x86_64::*;

    /// AVX2+FMA `R × 8V` tile: `R·V` ymm accumulators, one broadcast per
    /// row and one FMA per accumulator per reduction step.
    ///
    /// # Safety
    /// Caller must ensure AVX2 and FMA are available, `a` is readable for
    /// `kcb·R` floats and `b` for `kcb·8V`, and `c` is writable for `rows`
    /// rows of `ldc` stride with `cols` valid lanes each.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_avx2_impl<const R: usize, const V: usize, const H: usize>(
        a: *const f32,
        b: *const f32,
        kcb: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        // The (at most two) A strips; the second is dereferenced only when
        // the tile has rows in it.
        let strips = [a, a.wrapping_add(H * kcb)];
        // Index loops over the const shape unroll completely, so the tile
        // stays in registers.
        for p in 0..kcb {
            let bp = b.add(p * V * LANES);
            let mut bv = [_mm256_setzero_ps(); V];
            #[allow(clippy::needless_range_loop)]
            for v in 0..V {
                bv[v] = _mm256_loadu_ps(bp.add(v * LANES));
            }
            #[allow(clippy::needless_range_loop)]
            for i in 0..R {
                let ai = _mm256_broadcast_ss(&*strips[i / H].add(p * H + i % H));
                for v in 0..V {
                    acc[i][v] = _mm256_fmadd_ps(ai, bv[v], acc[i][v]);
                }
            }
        }
        let mut spill = [0.0f32; LANES];
        #[allow(clippy::needless_range_loop)]
        for i in 0..R {
            if i == rows {
                break;
            }
            let cp = c.add(i * ldc);
            for v in 0..V {
                let lanes = cols.saturating_sub(v * LANES).min(LANES);
                let cv = cp.add(v * LANES);
                if lanes == LANES {
                    _mm256_storeu_ps(cv, _mm256_add_ps(_mm256_loadu_ps(cv), acc[i][v]));
                } else if lanes > 0 {
                    _mm256_storeu_ps(spill.as_mut_ptr(), acc[i][v]);
                    for (j, &s) in spill.iter().enumerate().take(lanes) {
                        *cv.add(j) += s;
                    }
                }
            }
        }
    }

    /// Widest strip [`narrow_avx2_impl`] takes. Up to 6 columns its `2N`
    /// accumulators, two A vectors and a broadcast fit the 16 ymm
    /// registers, and it issues no more FMAs than the 12 of
    /// [`tile_avx2_impl`]; at 7 one accumulator would round-trip through
    /// the stack every step and 14 FMAs would do the work of 12.
    const NARROW_MAX_COLS: usize = 6;

    /// AVX2+FMA `12 × N` tile for a narrow strip of `N ≤ 6` columns, with
    /// rows as lanes: each 6-row A strip is loaded as one vector per
    /// reduction step (lanes 6–7 hold the next step's first rows and never
    /// reach C), each of the `N` B columns is broadcast, and the `2N`
    /// accumulators (column, strip) take one FMA each per step — `2N`
    /// FMAs where [`tile_avx2_impl`] spends 12 at any width. Every lane is
    /// the same fused multiply-add chain from zero as there, so the
    /// output bits are the same.
    ///
    /// # Safety
    /// Same contract as [`tile_avx2_impl`] with `R = 12`, `V = 1`,
    /// `H = 6` and `cols = N`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn narrow_avx2_impl<const N: usize>(
        a: *const f32,
        b: *const f32,
        kcb: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
    ) {
        let strips = [a, a.wrapping_add(MR * kcb)];
        let mut acc = [[_mm256_setzero_ps(); 2]; N];
        // Every step but the last reads its own 6 floats of a strip and
        // the next step's first 2, still inside the strip.
        for p in 0..kcb.saturating_sub(1) {
            let av = strips.map(|s| _mm256_loadu_ps(s.add(p * MR)));
            narrow_step(&mut acc, av, b.add(p * LANES));
        }
        if kcb > 0 {
            // The last step masks lanes 6–7 off: nothing past a strip is
            // read.
            let p = kcb - 1;
            let keep = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, 0, 0);
            let av = strips.map(|s| _mm256_maskload_ps(s.add(p * MR), keep));
            narrow_step(&mut acc, av, b.add(p * LANES));
        }
        let mut spill = [0.0f32; LANES];
        for (j, pair) in acc.iter().enumerate() {
            for (s, &v) in pair.iter().enumerate() {
                _mm256_storeu_ps(spill.as_mut_ptr(), v);
                let strip_rows = rows.saturating_sub(s * MR).min(MR);
                for (i, &x) in spill.iter().enumerate().take(strip_rows) {
                    *c.add((s * MR + i) * ldc + j) += x;
                }
            }
        }
    }

    /// One reduction step of [`narrow_avx2_impl`]: broadcast each of the
    /// `N` B elements at `b` against both A strip vectors.
    ///
    /// # Safety
    /// Caller must ensure AVX2 and FMA are available and `b` is readable
    /// for `N` floats.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn narrow_step<const N: usize>(
        acc: &mut [[__m256; 2]; N],
        av: [__m256; 2],
        b: *const f32,
    ) {
        for (j, pair) in acc.iter_mut().enumerate() {
            let bj = _mm256_broadcast_ss(&*b.add(j));
            pair[0] = _mm256_fmadd_ps(av[0], bj, pair[0]);
            pair[1] = _mm256_fmadd_ps(av[1], bj, pair[1]);
        }
    }

    /// Dispatch-table entry for the AVX2 tile: a 12×8 tile over at most
    /// [`NARROW_MAX_COLS`] columns takes [`narrow_avx2_impl`] at its width,
    /// every other tile [`tile_avx2_impl`].
    ///
    /// # Safety
    /// Same contract as [`tile_avx2_impl`].
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn tile_avx2<const R: usize, const V: usize, const H: usize>(
        a: *const f32,
        b: *const f32,
        kcb: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        // SAFETY: forwarded verbatim; the caller upholds the target
        // feature and pointer-validity contract, and a narrow body reads
        // the same `kcb·12` A and `cols` of each `kcb·8` B floats.
        unsafe {
            if (R, V, H) != (2 * MR, 1, MR) || cols > NARROW_MAX_COLS {
                tile_avx2_impl::<R, V, H>(a, b, kcb, c, ldc, rows, cols)
            } else {
                // `cols` is 1..=NARROW_MAX_COLS here (`tile` returns on 0).
                match cols {
                    1 => narrow_avx2_impl::<1>(a, b, kcb, c, ldc, rows),
                    2 => narrow_avx2_impl::<2>(a, b, kcb, c, ldc, rows),
                    3 => narrow_avx2_impl::<3>(a, b, kcb, c, ldc, rows),
                    4 => narrow_avx2_impl::<4>(a, b, kcb, c, ldc, rows),
                    5 => narrow_avx2_impl::<5>(a, b, kcb, c, ldc, rows),
                    _ => narrow_avx2_impl::<6>(a, b, kcb, c, ldc, rows),
                }
            }
        }
    }

    /// SSE2 `RS × 8` sub-tile over one A strip: `2·RS` xmm accumulators
    /// (at most 12, so the sub-tile stays in the 16 registers).
    /// Multiply-then-add per lane in scalar order: bit-identical to the
    /// scalar kernel.
    ///
    /// `a` points at the sub-tile's first row inside its strip (`a_step`
    /// floats per reduction step), `b` at its first column (`b_step`
    /// floats per step).
    ///
    /// # Safety
    /// Caller must ensure `a` is readable at `p·a_step + i` and `b` at
    /// `p·b_step + j` for `p < kcb`, `i < RS`, `j < 8`, and `c` is
    /// writable for `rows ≤ RS` rows of `ldc` stride with `cols ≤ 8` valid
    /// lanes each (SSE2 itself is the x86-64 baseline).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse2")]
    unsafe fn block_sse2_impl<const RS: usize>(
        a: *const f32,
        a_step: usize,
        b: *const f32,
        b_step: usize,
        kcb: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        let mut acc = [[_mm_setzero_ps(); 2]; RS];
        for p in 0..kcb {
            let blo = _mm_loadu_ps(b.add(p * b_step));
            let bhi = _mm_loadu_ps(b.add(p * b_step + 4));
            let ap = a.add(p * a_step);
            for (i, pair) in acc.iter_mut().enumerate() {
                let ai = _mm_set1_ps(*ap.add(i));
                pair[0] = _mm_add_ps(pair[0], _mm_mul_ps(ai, blo));
                pair[1] = _mm_add_ps(pair[1], _mm_mul_ps(ai, bhi));
            }
        }
        let mut spill = [0.0f32; LANES];
        for (i, pair) in acc.iter().enumerate().take(rows) {
            _mm_storeu_ps(spill.as_mut_ptr(), pair[0]);
            _mm_storeu_ps(spill.as_mut_ptr().add(4), pair[1]);
            let cp = c.add(i * ldc);
            for (j, &s) in spill.iter().enumerate().take(cols) {
                *cp.add(j) += s;
            }
        }
    }

    /// Dispatch-table entry for the SSE2 tile: the `R × 8V` tile as two
    /// sub-tiles of `R·V/2` rows × 8 columns — two column halves of a
    /// 16-wide tile, or two row halves of an 8-wide one.
    ///
    /// # Safety
    /// Same contract as [`tile_avx2_impl`], minus the AVX2/FMA
    /// requirement.
    #[allow(clippy::missing_safety_doc)]
    pub(super) unsafe fn tile_sse2<const R: usize, const V: usize, const H: usize>(
        a: *const f32,
        b: *const f32,
        kcb: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        const { assert!(V <= 2 && (R * V == 12 || R * V == 8)) };
        let sub_rows = R * V / 2;
        for half in 0..2 {
            let (r0, c0) = if V == 2 {
                (0, half * LANES)
            } else {
                (half * sub_rows, 0)
            };
            let (rows, cols) = (
                rows.saturating_sub(r0).min(sub_rows),
                cols.saturating_sub(c0).min(LANES),
            );
            if rows == 0 || cols == 0 {
                continue;
            }
            // A sub-tile's rows lie inside one strip, so they start at
            // that strip's base plus their offset within it.
            let (a, b, c) = (
                a.add((r0 / H) * H * kcb + r0 % H),
                b.add(c0),
                c.add(r0 * ldc + c0),
            );
            let b_step = V * LANES;
            // SAFETY: the caller's contract covers the whole tile; each
            // sub-tile reads `sub_rows` rows of one strip and 8 columns of
            // B inside it and writes its clipped window of C.
            unsafe {
                if sub_rows == 6 {
                    block_sse2_impl::<6>(a, H, b, b_step, kcb, c, ldc, rows, cols);
                } else {
                    block_sse2_impl::<4>(a, H, b, b_step, kcb, c, ldc, rows, cols);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;

    /// The three tiles by shape: (rows, cols, entry point).
    type Kernel = fn(Isa, &[f32], &[f32], usize, &mut [f32], usize, usize, usize, usize, usize);
    const TILES: [(usize, usize, Kernel); 3] = [
        (6, 16, micro_kernel_6x16),
        (12, 8, micro_kernel_12x8),
        (8, 8, micro_kernel_8x8),
    ];

    /// Build one packed strip pair + dirty C, run `kernel`, and return C.
    fn run(
        kernel: Kernel,
        (tr, tc): (usize, usize),
        isa: Isa,
        kcb: usize,
        rows: usize,
        cols: usize,
    ) -> Vec<f32> {
        let astrip: Vec<f32> = (0..kcb * tr)
            .map(|i| ((i * 7) % 13) as f32 * 0.25 - 1.0)
            .collect();
        let bstrip: Vec<f32> = (0..kcb * tc)
            .map(|i| ((i * 5) % 11) as f32 * 0.5 - 2.0)
            .collect();
        let ldc = tc + 2;
        let mut c = vec![1.0f32; (tr + 1) * ldc];
        kernel(isa, &astrip, &bstrip, kcb, &mut c, ldc, 1, 1, rows, cols);
        c
    }

    #[test]
    fn sse2_is_bit_identical_to_scalar() {
        if !dispatch::supported(Isa::Sse2) {
            return;
        }
        for (tr, tc, kernel) in TILES {
            for kcb in [0usize, 1, 3, 8, 57, 257] {
                for rows in 1..=tr {
                    for cols in 1..=tc {
                        assert_eq!(
                            run(kernel, (tr, tc), Isa::Scalar, kcb, rows, cols),
                            run(kernel, (tr, tc), Isa::Sse2, kcb, rows, cols),
                            "{tr}x{tc} kcb={kcb} rows={rows} cols={cols}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_matches_scalar_within_ulp_policy() {
        if !dispatch::supported(Isa::Avx2) {
            return;
        }
        // Every clipped shape of every tile: a 12×8 tile over at most 6
        // columns runs the narrow body, over 7 or 8 the full one.
        for (tr, tc, kernel) in TILES {
            for kcb in [0usize, 1, 3, 4, 33, 57, 128, 257] {
                for rows in 1..=tr {
                    for cols in 1..=tc {
                        let s = run(kernel, (tr, tc), Isa::Scalar, kcb, rows, cols);
                        let v = run(kernel, (tr, tc), Isa::Avx2, kcb, rows, cols);
                        for (a, b) in s.iter().zip(&v) {
                            let tol = kcb as f32 * f32::EPSILON * 16.0 * a.abs().max(1.0);
                            assert!(
                                (a - b).abs() <= tol,
                                "{tr}x{tc} kcb={kcb} rows={rows} cols={cols}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tile_computes_each_element_alike() {
        // The same element through every tile shape reads the same bits:
        // neither the shape nor the body a 12×8 tile takes at its width
        // changes the reduction chain.
        let kcb = 37;
        let a_rows: Vec<f32> = (0..12 * kcb)
            .map(|i| ((i * 29) % 31) as f32 / 7.0 - 2.0)
            .collect();
        let b_cols: Vec<f32> = (0..16 * kcb)
            .map(|i| ((i * 13) % 17) as f32 / 5.0 - 1.5)
            .collect();
        // Pack rows `r0..r0+h` of the 12×kcb A into one strip of height h.
        let strip = |r0: usize, h: usize| -> Vec<f32> {
            (0..kcb)
                .flat_map(|p| (0..h).map(move |r| (p, r)))
                .map(|(p, r)| a_rows[(r0 + r) * kcb + p])
                .collect()
        };
        // Pack the first `w` columns of B into a strip `width` wide, zero
        // past `w`, as `dlr-dense` packs a panel's last strip.
        let bpack = |w: usize, width: usize| -> Vec<f32> {
            (0..kcb)
                .flat_map(|p| (0..width).map(move |j| (p, j)))
                .map(|(p, j)| if j < w { b_cols[j * kcb + p] } else { 0.0 })
                .collect()
        };
        let pair = [strip(0, 6), strip(6, 6)].concat();
        let padded = [strip(0, 6), vec![0.0; 6 * kcb]].concat();
        // C starts dirty, so an element written that should not be shows.
        let dirty = 1.0f32;
        for isa in Isa::ALL.into_iter().filter(|&i| dispatch::supported(i)) {
            // The reference: rows 0–5 and 6–11 as two 6×16 tiles.
            let mut full = vec![dirty; 12 * 16];
            for r0 in [0, 6] {
                let a = strip(r0, 6);
                micro_kernel_6x16(isa, &a, &bpack(16, 16), kcb, &mut full, 16, r0, 0, 6, 16);
            }
            let mut square = vec![dirty; 8 * 8];
            let a = strip(0, 8);
            micro_kernel_8x8(isa, &a, &bpack(8, 8), kcb, &mut square, 8, 0, 0, 8, 8);
            for i in 0..8 {
                for j in 0..8 {
                    let f = full[i * 16 + j].to_bits();
                    assert_eq!(f, square[i * 8 + j].to_bits(), "{isa} ({i},{j}) 8x8");
                }
            }
            for cols in 1..=8 {
                // All 12 rows over a full strip pair, and 5 rows over a
                // pair whose second strip is the zero pad.
                for (a, rows) in [(&pair, 12), (&padded, 5)] {
                    let mut narrow = vec![dirty; 12 * 8];
                    let b = bpack(cols, 8);
                    micro_kernel_12x8(isa, a, &b, kcb, &mut narrow, 8, 0, 0, rows, cols);
                    for i in 0..12 {
                        for j in 0..8 {
                            let want = if i < rows && j < cols {
                                full[i * 16 + j]
                            } else {
                                dirty
                            };
                            assert_eq!(
                                want.to_bits(),
                                narrow[i * 8 + j].to_bits(),
                                "{isa} ({i},{j}) 12x8 rows={rows} cols={cols}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn untouched_c_region_stays_dirty() {
        for (tr, tc, kernel) in TILES {
            let c = run(kernel, (tr, tc), Isa::Scalar, 4, 2, 3);
            let ldc = tc + 2;
            // Row 0 and column 0 are outside the (row0=1, col0=1) tile.
            assert!(c[..ldc].iter().all(|&v| v == 1.0));
            assert_eq!(c[ldc], 1.0);
            // Beyond the 2x3 tile too.
            assert_eq!(c[ldc + 4], 1.0);
            assert_eq!(c[3 * ldc + 1], 1.0);
        }
    }

    #[test]
    fn zero_sized_tiles_are_noops() {
        let before = vec![5.0f32; 40];
        for (tr, tc, kernel) in TILES {
            let mut c = before.clone();
            let (a, b) = (vec![0.0; tr], vec![0.0; tc]);
            kernel(Isa::Scalar, &a, &b, 1, &mut c, 8, 0, 0, 0, 5);
            kernel(Isa::Scalar, &a, &b, 1, &mut c, 8, 0, 0, 5, 0);
            assert_eq!(before, c);
        }
    }

    #[test]
    #[should_panic(expected = "tile out of C bounds")]
    fn oversized_tile_is_rejected() {
        let mut c = vec![0.0f32; 16];
        micro_kernel_8x8(Isa::Scalar, &[0.0; 8], &[0.0; 8], 1, &mut c, 8, 1, 0, 2, 8);
    }

    #[test]
    #[should_panic(expected = "tile exceeds its shape")]
    fn a_narrow_tile_rejects_a_full_strip_width() {
        let mut c = vec![0.0f32; 64];
        micro_kernel_12x8(
            Isa::Scalar,
            &[0.0; 12],
            &[0.0; 16],
            1,
            &mut c,
            16,
            0,
            0,
            1,
            9,
        );
    }
}
