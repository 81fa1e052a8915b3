//! Goto-algorithm blocked GEMM (oneDNN `dnnl_sgemm` stand-in).
//!
//! Follows the decomposition described in §4.1 of the paper (after Goto &
//! van de Geijn, and the BLIS formulation):
//!
//! 1. partition C and B along columns into `n_c`-wide panels;
//! 2. partition A's columns / B's rows into `k_c`-deep panels, turning the
//!    product into a series of rank-`k_c` updates; pack the B panel into a
//!    contiguous buffer (`B̃`, destined for L3) reordered in `n_r`-wide
//!    column strips;
//! 3. partition A's rows into `m_c`-tall blocks; pack each into `Ã`
//!    (destined for L2) reordered in `m_r`-tall row strips;
//! 4. the **macro-kernel** walks `B̃` strip by strip; the **micro-kernel**
//!    computes an `m_r × n_r` tile of C as `k_c` rank-1 updates with the
//!    tile held in registers.
//!
//! One loop nest serves every entry point: each operand is either packed
//! on the fly or read from a packing made ahead of time ([`PrepackedA`],
//! [`PrepackedB`]), and packing reads an operand as stored or transposed
//! ([`Trans`], BLAS `transa`/`transb`), so a caller holding `Wᵀ` or `Xᵀ`
//! never materialises the transpose.
//!
//! The micro-kernels are `dlr-simd`'s register tiles: 6×16
//! ([`dlr_simd::gemm::micro_kernel_6x16`]) for full 16-column B strips and
//! 12×8 ([`dlr_simd::gemm::micro_kernel_12x8`], two 6-row A strips) for a
//! panel's last strip of at most 8 columns, which is packed 8 wide — so a
//! 4-document batch computes 8 columns, not 16. Each has hand-written
//! AVX2+FMA and SSE2 `std::arch` paths behind a safe wrapper,
//! runtime-dispatched per macro-kernel call with a portable scalar
//! fallback — the role the JIT-generated kernels play in oneDNN/BLIS.
//! Every element is one multiply-add per reduction step inside a `k_c`
//! block, then `C += tile`, whatever the tile: the output depends on `k_c`
//! alone, never on `m_c`, `n_c` or the tile shape. The AVX2 path fuses
//! multiply-adds, so results may differ from the scalar path by the
//! documented ULP envelope (see the `dlr-simd` crate docs); SSE2 and
//! scalar are bit-identical.
//!
//! Small shapes use the oneDNN-style `rnd_up` refinement quoted in §4.2:
//! `m̄_c = rnd_up(min(max(m, m_r), m_c), m_r)`, so tiny layers do not pay
//! for full-size packing buffers.

use super::GemmShapeError;
use crate::matrix::Matrix;
use dlr_simd::gemm::{micro_kernel_12x8, micro_kernel_6x16, NR_NARROW};
use std::ops::Range;

// The packing routines below produce exactly the strip layout the
// dlr-simd micro-kernels consume; keep the tile constants in lock-step.
const _: () = assert!(MR == dlr_simd::gemm::MR && NR == dlr_simd::gemm::NR);

/// Shape guard shared by the `try_` entry points.
fn check_shape(what: &'static str, expected: usize, got: usize) -> Result<(), GemmShapeError> {
    if expected == got {
        Ok(())
    } else {
        Err(GemmShapeError {
            what,
            expected,
            got,
        })
    }
}

/// Micro-kernel tile height (rows of one packed A strip).
pub const MR: usize = 6;
/// Micro-kernel tile width (columns of one full packed B strip).
pub const NR: usize = 16;

/// How a GEMM operand is stored relative to the product's view of it, as
/// BLAS `transa`/`transb`: [`Trans::N`] reads the row-major slice as the
/// operand, [`Trans::T`] reads it as the operand's transpose (an `m×k` A
/// stored `k×m`, a `k×n` B stored `n×k`). Only packing reads the flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Stored as the operand.
    N,
    /// Stored as the operand's transpose.
    T,
}

/// Cache-blocking parameters of the Goto algorithm.
///
/// Defaults target a typical desktop cache hierarchy (32 KiB L1d, 256 KiB+
/// L2): `k_c·n_r` floats ≤ half of L1, `m_c·k_c` floats within L2, as the
/// paper prescribes. `m_r`/`n_r` are compile-time ([`MR`], [`NR`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GotoParams {
    /// Row-block height of A packed into L2.
    pub mc: usize,
    /// Column-block width of B packed into L3.
    pub nc: usize,
    /// Reduction-depth of each rank-k update.
    pub kc: usize,
}

impl GotoParams {
    /// Parameters quoted in the paper for oneDNN with AVX2
    /// (`m_c = 10000, n_c = 384, k_c = 192`). Useful for reproducing the
    /// library's behaviour on large shapes; the `rnd_up` refinement keeps
    /// them sane on small ones.
    pub fn onednn_avx2() -> GotoParams {
        GotoParams {
            mc: 10_000,
            nc: 384,
            kc: 192,
        }
    }

    /// Round `a` up to the next multiple of `b` (the paper's `rnd_up`).
    #[inline]
    fn rnd_up(a: usize, b: usize) -> usize {
        a.div_ceil(b) * b
    }

    /// Effective parameters for a concrete `(m, k, n)` problem, applying
    /// the small-shape refinement from §4.2:
    /// `m̄_c = rnd_up(min(max(m, m_r), m_c), m_r)` and likewise for `n̄_c`
    /// (with `n_r`) and `k̄_c` (clamped to `k`).
    pub fn effective(&self, m: usize, k: usize, n: usize) -> GotoParams {
        GotoParams {
            mc: Self::rnd_up(m.max(MR).min(self.mc), MR),
            nc: Self::rnd_up(n.max(NR).min(self.nc), NR),
            kc: k.max(1).min(self.kc),
        }
    }
}

impl Default for GotoParams {
    fn default() -> Self {
        // kc*NR = 256*16 floats = 16 KiB ≤ half of a 32 KiB L1d;
        // mc*kc = 132*256 floats = 132 KiB fits a 256 KiB L2 (132 is
        // eleven pairs of 6-row strips).
        GotoParams {
            mc: 132,
            nc: 4096,
            kc: 256,
        }
    }
}

/// Reusable packing buffers so repeated GEMMs (a forward pass, a benchmark
/// loop) allocate nothing after warm-up.
#[derive(Debug, Default)]
pub struct GemmWorkspace {
    apack: Vec<f32>,
    bpack: Vec<f32>,
}

/// All `(jc, pc)` panels of one `k×n` B operand packed ahead of time
/// (`B̃` in the Goto decomposition, destined for L3).
///
/// Two call sites motivate this: the parallel row-panel driver packs B
/// **once** and shares it read-only across workers, and a model whose B
/// operand is fixed across calls packs at load time instead of inside
/// every `score_batch`. Panels are packed by the same `pack_b` the
/// serial path uses, so any GEMM built on them is bit-identical to
/// [`gemm_with`].
#[derive(Debug, Clone, Default)]
pub struct PrepackedB {
    k: usize,
    n: usize,
    /// Base parameters the packing was built with.
    params: GotoParams,
    /// Effective `n_c` (`rnd_up`-refined for this `n`).
    nc: usize,
    /// Effective `k_c` (clamped to `k`).
    kc: usize,
    /// Start of panel `(jc_idx · num_pc + pc_idx)` in `data`; the first
    /// is 64-byte aligned where `data` was packed.
    offsets: Vec<usize>,
    data: Vec<f32>,
}

impl PrepackedB {
    /// Pack the row-major `k×n` slice `b` under `params`. The effective
    /// `n_c`/`k_c` do not depend on `m`, so one packing serves any A.
    ///
    /// # Panics
    /// Panics when `b.len() != k * n`.
    pub fn pack(b: &[f32], k: usize, n: usize, params: GotoParams) -> PrepackedB {
        let mut packed = PrepackedB::default();
        packed.pack_into(b, k, n, params);
        packed
    }

    /// Re-pack in place, reusing the existing allocations — the zero-churn
    /// path for operands that change every call (e.g. activations).
    ///
    /// # Panics
    /// Panics when `b.len() != k * n`.
    pub fn pack_into(&mut self, b: &[f32], k: usize, n: usize, params: GotoParams) {
        assert_eq!(b.len(), k * n, "B must be k×n");
        // `m` only influences the effective `m_c`; pass MR as a stand-in.
        let p = params.effective(MR, k.max(1), n.max(1));
        self.k = k;
        self.n = n;
        self.params = params;
        self.nc = p.nc;
        self.kc = p.kc;
        self.offsets.clear();
        self.data.clear();
        if k == 0 || n == 0 {
            return;
        }
        // One allocation, the panels back to back from an aligned start.
        let len: usize = (0..n)
            .step_by(self.nc)
            .map(|jc| packed_b_len(self.nc.min(n - jc), k))
            .sum();
        self.data.resize(len + ALIGN_PAD, 0.0);
        let mut start = aligned_start(&self.data);
        let b = Operand::new(b, k, n, Trans::N);
        for jc in (0..n).step_by(self.nc) {
            let ncb = self.nc.min(n - jc);
            for pc in (0..k).step_by(self.kc) {
                let kcb = self.kc.min(k - pc);
                let end = start + packed_b_len(ncb, kcb);
                self.offsets.push(start);
                pack_b(b, pc, kcb, jc, ncb, &mut self.data[start..end]);
                start = end;
            }
        }
        // The last panel ends where `data` does.
        self.data.truncate(start);
    }

    /// Reduction depth (`k`) this packing was built for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count (`n`) this packing was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Base parameters this packing was built with.
    #[inline]
    pub fn params(&self) -> GotoParams {
        self.params
    }

    /// Effective `m_c` grid the serial kernel would use for an `m`-row A
    /// against this packing — the chunk alignment the parallel driver
    /// tiles its row chunks on.
    #[inline]
    pub fn effective_mc(&self, m: usize) -> usize {
        self.params.effective(m, self.k.max(1), self.n.max(1)).mc
    }

    /// Packed panel for column block `jc_idx`, reduction block `pc_idx`.
    #[inline]
    fn panel(&self, jc_idx: usize, pc_idx: usize) -> &[f32] {
        panel_at(
            &self.offsets,
            &self.data,
            jc_idx * self.k.div_ceil(self.kc) + pc_idx,
        )
    }
}

/// All `(ic, pc)` blocks of one `m×k` A operand packed ahead of time
/// (`Ã`, destined for L2).
///
/// An MLP's weight matrices sit in the A slot of every layer GEMM and
/// never change between batches, yet the plain entry points re-pack them
/// on every call; packing once at model-load removes that from the hot
/// path. Uses the same `pack_a` as the serial kernel, so
/// [`gemm_with_prepacked_a`] is bit-identical to [`gemm_with`].
#[derive(Debug, Clone, Default)]
pub struct PrepackedA {
    m: usize,
    k: usize,
    /// Base parameters the packing was built with.
    params: GotoParams,
    /// Effective `m_c` (`rnd_up`-refined for this `m`).
    mc: usize,
    /// Effective `k_c` (clamped to `k`).
    kc: usize,
    /// Start of block `(ic_idx · num_pc + pc_idx)` in `data`.
    offsets: Vec<usize>,
    data: Vec<f32>,
}

impl PrepackedA {
    /// Pack the row-major `m×k` slice `a` under `params`. The effective
    /// `m_c`/`k_c` do not depend on `n`, so one packing serves any B.
    ///
    /// # Panics
    /// Panics when `a.len() != m * k`.
    pub fn pack(a: &[f32], m: usize, k: usize, params: GotoParams) -> PrepackedA {
        assert_eq!(a.len(), m * k, "A must be m×k");
        // `n` only influences the effective `n_c`; pass NR as a stand-in.
        let p = params.effective(m.max(1), k.max(1), NR);
        let mut packed = PrepackedA {
            m,
            k,
            params,
            mc: p.mc,
            kc: p.kc,
            offsets: Vec::new(),
            data: Vec::new(),
        };
        if m == 0 || k == 0 {
            return packed;
        }
        let a = Operand::new(a, m, k, Trans::N);
        for ic in (0..m).step_by(packed.mc) {
            let mcb = packed.mc.min(m - ic);
            for pc in (0..k).step_by(packed.kc) {
                let kcb = packed.kc.min(k - pc);
                let start = packed.data.len();
                packed.offsets.push(start);
                packed.data.resize(start + packed_a_len(mcb, kcb), 0.0);
                pack_a(a, ic, mcb, pc, kcb, &mut packed.data[start..]);
            }
        }
        packed
    }

    /// Row count (`m`) this packing was built for.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction depth (`k`) this packing was built for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packed block for row block `ic_idx`, reduction block `pc_idx`.
    #[inline]
    fn block(&self, ic_idx: usize, pc_idx: usize) -> &[f32] {
        panel_at(
            &self.offsets,
            &self.data,
            ic_idx * self.k.div_ceil(self.kc) + pc_idx,
        )
    }
}

/// Slack floats a buffer of packed B keeps, so that the packing can start
/// on a 64-byte boundary.
const ALIGN_PAD: usize = 16;

/// Index of the first 64-byte-aligned float of `buf`. Packed B starts
/// there: every strip row is then 32-byte aligned, so the tiles' 256-bit
/// B loads never split a cache line (an unaligned one does, on every
/// other load, and costs a second load slot; the allocator aligns to 16).
fn aligned_start(buf: &[f32]) -> usize {
    (buf.as_ptr() as usize).wrapping_neg() % 64 / 4
}

/// Packing `idx` of a prepacked operand: from its offset to the next one.
fn panel_at<'d>(offsets: &[usize], data: &'d [f32], idx: usize) -> &'d [f32] {
    let end = offsets.get(idx + 1).copied().unwrap_or(data.len());
    &data[offsets[idx]..end]
}

/// `C = A·B` with A packed ahead of time (weights-as-A fast path).
/// B is packed into `ws.bpack` per call; `c` is overwritten. Bit-identical
/// to [`gemm_with`] under the same `GotoParams` the packing was built
/// with.
///
/// # Panics
/// Panics when slice lengths disagree with `(pa.m(), pa.k(), n)`.
pub fn gemm_with_prepacked_a(
    n: usize,
    pa: &PrepackedA,
    b: &[f32],
    c: &mut [f32],
    ws: &mut GemmWorkspace,
) {
    try_gemm_with_prepacked_a(n, pa, b, c, ws).unwrap_or_else(|e| panic!("{e}"));
}

/// [`gemm_with_prepacked_a`] returning a typed error instead of
/// panicking.
///
/// # Errors
/// [`GemmShapeError`] when slice lengths disagree with
/// `(pa.m(), pa.k(), n)`.
pub fn try_gemm_with_prepacked_a(
    n: usize,
    pa: &PrepackedA,
    b: &[f32],
    c: &mut [f32],
    ws: &mut GemmWorkspace,
) -> Result<(), GemmShapeError> {
    let (m, k) = (pa.m, pa.k);
    check_shape("B must be k×n", k * n, b.len())?;
    check_shape("C must be m×n", m * n, c.len())?;
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    // `n_c` comes from the packing's own parameters so the walk matches
    // `gemm_with` under those parameters exactly.
    let blocks = GotoParams {
        mc: pa.mc,
        nc: pa.params.effective(m, k, n).nc,
        kc: pa.kc,
    };
    let b = Operand::new(b, k, n, Trans::N);
    loop_nest(
        PanelA::Packed(pa),
        PanelB::Pack(b),
        0..m,
        k,
        n,
        blocks,
        c,
        &mut ws.apack,
        &mut ws.bpack,
    );
    Ok(())
}

/// Compute C rows `[row0, row0 + c_rows.len()/n)` of `C = A·B` against a
/// shared [`PrepackedB`], writing only into the caller-supplied row slice
/// — the per-chunk kernel of the parallel GEMM driver.
///
/// `a` is the **full** `m×k` operand; `apack` is per-caller scratch
/// (per-*thread* in the parallel driver), grown as needed and reused
/// across calls. Accumulation for each output element runs over `pc`
/// ascending, exactly as in [`gemm_with`], so any row chunking
/// concatenates to output **bit-identical** to the serial kernel; the
/// parallel driver tiles `0..m` on multiples of the effective `m_c`.
///
/// # Panics
/// Panics when `a.len() != m * pb.k()`, `c_rows.len()` is not a multiple
/// of `pb.n()`, or the row range exceeds `m`.
pub fn gemm_rows_with(
    m: usize,
    row0: usize,
    a: &[f32],
    pb: &PrepackedB,
    c_rows: &mut [f32],
    apack: &mut Vec<f32>,
) {
    let (k, n) = (pb.k, pb.n);
    assert_eq!(a.len(), m * k, "A must be m×k");
    if n == 0 {
        assert!(c_rows.is_empty(), "C must be mrows×n");
        return;
    }
    assert_eq!(c_rows.len() % n, 0, "C must be mrows×n");
    let mrows = c_rows.len() / n;
    assert!(row0 + mrows <= m, "row range exceeds m");
    debug_assert!(
        a[row0 * k..(row0 + mrows) * k]
            .iter()
            .all(|v| v.is_finite()),
        "A rows [{row0}, {}) must be finite",
        row0 + mrows
    );
    c_rows.fill(0.0);
    if mrows == 0 || k == 0 {
        return;
    }
    // The effective m_c of the *global* problem, so in-chunk blocks land
    // on the same grid the serial kernel uses.
    let blocks = GotoParams {
        mc: pb.params.effective(m, k, n).mc,
        nc: pb.nc,
        kc: pb.kc,
    };
    let a = Operand::new(a, m, k, Trans::N);
    loop_nest(
        PanelA::Pack(a),
        PanelB::Packed(pb),
        row0..row0 + mrows,
        k,
        n,
        blocks,
        c_rows,
        apack,
        &mut Vec::new(),
    );
}

/// `C = A·B` with the blocked kernel and default parameters.
///
/// # Panics
/// Panics when `a.cols() != b.rows()`.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_into(
        a.rows(),
        a.cols(),
        b.cols(),
        a.as_slice(),
        b.as_slice(),
        c.as_mut_slice(),
    );
    c
}

/// `C = A·B` over raw row-major slices with default parameters.
pub fn gemm_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut ws = GemmWorkspace::default();
    gemm_with(m, k, n, a, b, c, GotoParams::default(), &mut ws);
}

/// [`gemm_into`] returning a typed error instead of panicking on shape
/// mismatches — the panic-free entry point for serving paths.
///
/// # Errors
/// [`GemmShapeError`] when slice lengths disagree with `(m, k, n)`.
pub fn try_gemm_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) -> Result<(), GemmShapeError> {
    let mut ws = GemmWorkspace::default();
    try_gemm_with(m, k, n, a, b, c, GotoParams::default(), &mut ws)
}

/// Full-control entry point: explicit parameters and caller-owned
/// workspace. `c` is overwritten.
///
/// # Panics
/// Panics when slice lengths disagree with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    params: GotoParams,
    ws: &mut GemmWorkspace,
) {
    gemm_trans_with(Trans::N, Trans::N, m, k, n, a, b, c, params, ws);
}

/// [`gemm_with`] returning a typed error instead of panicking on shape
/// mismatches.
///
/// # Errors
/// [`GemmShapeError`] when slice lengths disagree with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn try_gemm_with(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    params: GotoParams,
    ws: &mut GemmWorkspace,
) -> Result<(), GemmShapeError> {
    try_gemm_trans_with(Trans::N, Trans::N, m, k, n, a, b, c, params, ws)
}

/// `C = op(A)·op(B)` with `op` per [`Trans`]: `a` holds the `m×k` A as
/// stored (`k×m` under [`Trans::T`]), `b` the `k×n` B (`n×k` under
/// [`Trans::T`]). Packing reads the transposed operand in place, so the
/// output is bit-identical to [`gemm_with`] on an explicitly transposed
/// copy. `c` is overwritten.
///
/// # Panics
/// Panics when slice lengths disagree with `(m, k, n)`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_trans_with(
    ta: Trans,
    tb: Trans,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    params: GotoParams,
    ws: &mut GemmWorkspace,
) {
    try_gemm_trans_with(ta, tb, m, k, n, a, b, c, params, ws).unwrap_or_else(|e| panic!("{e}"));
}

/// [`gemm_trans_with`] returning a typed error.
#[allow(clippy::too_many_arguments)]
fn try_gemm_trans_with(
    ta: Trans,
    tb: Trans,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    params: GotoParams,
    ws: &mut GemmWorkspace,
) -> Result<(), GemmShapeError> {
    check_shape("A must be m×k", m * k, a.len())?;
    check_shape("B must be k×n", k * n, b.len())?;
    check_shape("C must be m×n", m * n, c.len())?;
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    loop_nest(
        PanelA::Pack(Operand::new(a, m, k, ta)),
        PanelB::Pack(Operand::new(b, k, n, tb)),
        0..m,
        k,
        n,
        params.effective(m, k, n),
        c,
        &mut ws.apack,
        &mut ws.bpack,
    );
    Ok(())
}

/// One GEMM operand as stored: the row-major slice, its leading dimension,
/// and whether it holds the operand or its transpose.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    ld: usize,
    trans: Trans,
}

impl<'a> Operand<'a> {
    /// An operand of `rows × cols` in the product's view.
    fn new(data: &'a [f32], rows: usize, cols: usize, trans: Trans) -> Operand<'a> {
        let ld = match trans {
            Trans::N => cols,
            Trans::T => rows,
        };
        Operand { data, ld, trans }
    }
}

/// Where the loop nest takes its A blocks from.
#[derive(Clone, Copy)]
enum PanelA<'a> {
    /// Packed per `(ic, pc)` block into the nest's A buffer.
    Pack(Operand<'a>),
    /// Read from a packing made ahead of time on the nest's `m_c` grid.
    Packed(&'a PrepackedA),
}

/// Where the loop nest takes its B panels from.
#[derive(Clone, Copy)]
enum PanelB<'a> {
    /// Packed per `(jc, pc)` panel into the nest's B buffer.
    Pack(Operand<'a>),
    /// Read from a packing made ahead of time on the nest's `n_c` grid.
    Packed(&'a PrepackedB),
}

/// The Goto loop nest over C rows `rows` (`c` holds exactly those rows),
/// under the effective blocking `blocks`: panels of B along `n` (loop 5),
/// rank-`k_c` updates along `k` (loop 4), blocks of A along `m` (loop 3),
/// then the macro-kernel. Every element accumulates over `pc` ascending.
#[allow(clippy::too_many_arguments)]
fn loop_nest(
    a: PanelA<'_>,
    b: PanelB<'_>,
    rows: Range<usize>,
    k: usize,
    n: usize,
    blocks: GotoParams,
    c: &mut [f32],
    apack: &mut Vec<f32>,
    bpack: &mut Vec<f32>,
) {
    let GotoParams { mc, nc, kc } = blocks;
    if let PanelA::Pack(_) = a {
        apack.resize(packed_a_len(mc, kc), 0.0);
    }
    let mut b_at = 0;
    if let PanelB::Pack(_) = b {
        bpack.resize(packed_b_len(nc, kc) + ALIGN_PAD, 0.0);
        b_at = aligned_start(bpack);
    }
    for (jc_idx, jc) in (0..n).step_by(nc).enumerate() {
        let ncb = nc.min(n - jc);
        for (pc_idx, pc) in (0..k).step_by(kc).enumerate() {
            let kcb = kc.min(k - pc);
            let bpanel: &[f32] = match b {
                PanelB::Pack(op) => {
                    let panel = &mut bpack[b_at..b_at + packed_b_len(ncb, kcb)];
                    pack_b(op, pc, kcb, jc, ncb, panel);
                    panel
                }
                PanelB::Packed(pb) => pb.panel(jc_idx, pc_idx),
            };
            for ic in rows.clone().step_by(mc) {
                let mcb = mc.min(rows.end - ic);
                let ablock: &[f32] = match a {
                    PanelA::Pack(op) => {
                        let block = &mut apack[..packed_a_len(mcb, kcb)];
                        pack_a(op, ic, mcb, pc, kcb, block);
                        block
                    }
                    PanelA::Packed(pa) => pa.block(ic / mc, pc_idx),
                };
                // C is addressed by chunk-local rows.
                macro_kernel(ablock, bpanel, c, n, ic - rows.start, mcb, jc, ncb, kcb);
            }
        }
    }
}

/// Floats of one packed A block: `mcb` rows in `MR`-row strips, padded to
/// an even strip count so the 12×8 tile can always read a strip pair.
fn packed_a_len(mcb: usize, kcb: usize) -> usize {
    mcb.div_ceil(2 * MR) * 2 * MR * kcb
}

/// Packed width of a B strip holding `cols` columns: a strip of at most
/// `NR_NARROW` columns (only ever a panel's last) is packed narrow.
fn strip_width(cols: usize) -> usize {
    if cols <= NR_NARROW {
        NR_NARROW
    } else {
        NR
    }
}

/// Floats of one packed B panel of `ncb` columns.
fn packed_b_len(ncb: usize, kcb: usize) -> usize {
    let last = match ncb % NR {
        0 => 0,
        cols => strip_width(cols),
    };
    (ncb / NR * NR + last) * kcb
}

/// Pack `op(A)[ic..ic+mcb, pc..pc+kcb]` into `m_r`-tall strips,
/// column-major within each strip (the access order of the micro-kernel).
/// Rows past the edge, and the strip that evens the count, are zero, so
/// the kernel never branches on tile height.
fn pack_a(a: Operand<'_>, ic: usize, mcb: usize, pc: usize, kcb: usize, apack: &mut [f32]) {
    for (s, dst) in apack.chunks_exact_mut(MR * kcb).enumerate() {
        let row0 = ic + s * MR;
        let rows = MR.min((ic + mcb).saturating_sub(row0));
        if rows < MR {
            dst.fill(0.0);
            if rows == 0 {
                continue;
            }
        }
        match a.trans {
            Trans::N => {
                for r in 0..rows {
                    let src = &a.data[(row0 + r) * a.ld + pc..][..kcb];
                    for (step, &v) in dst.chunks_exact_mut(MR).zip(src) {
                        step[r] = v;
                    }
                }
            }
            Trans::T => {
                for (p, step) in dst.chunks_exact_mut(MR).enumerate() {
                    let src = (pc + p) * a.ld + row0;
                    for (d, &v) in step.iter_mut().zip(&a.data[src..src + rows]) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// Pack `op(B)[pc..pc+kcb, jc..jc+ncb]` into `n_r`-wide strips, row-major
/// within each strip; a last strip of at most `NR_NARROW` columns is
/// packed that wide. Columns past the edge are zero.
fn pack_b(b: Operand<'_>, pc: usize, kcb: usize, jc: usize, ncb: usize, bpack: &mut [f32]) {
    let mut start = 0;
    for col0 in (jc..jc + ncb).step_by(NR) {
        let cols = NR.min(jc + ncb - col0);
        let width = strip_width(cols);
        let dst = &mut bpack[start..start + width * kcb];
        start += width * kcb;
        if cols < width {
            dst.fill(0.0);
        }
        match b.trans {
            // A full strip: one fixed-size row copy per reduction step.
            Trans::N if cols == NR => {
                for (p, step) in dst.chunks_exact_mut(NR).enumerate() {
                    let src = (pc + p) * b.ld + col0;
                    step.copy_from_slice(&b.data[src..src + NR]);
                }
            }
            // A partial strip: a few floats per step, copied in a loop (a
            // `copy_from_slice` of a length not known at compile time is a
            // `memcpy` call per step).
            Trans::N => {
                for (p, step) in dst.chunks_exact_mut(width).enumerate() {
                    let src = (pc + p) * b.ld + col0;
                    for (d, &v) in step.iter_mut().zip(&b.data[src..src + cols]) {
                        *d = v;
                    }
                }
            }
            Trans::T => {
                for j in 0..cols {
                    let src = &b.data[(col0 + j) * b.ld + pc..][..kcb];
                    for (step, &v) in dst.chunks_exact_mut(width).zip(src) {
                        step[j] = v;
                    }
                }
            }
        }
    }
}

/// The macro-kernel: walk all register tiles of the current
/// `C[ic.., jc..]` block, B strip by B strip (each stays in L1 while the
/// A strips stream past). A full strip takes the 6×16 tile per A strip, a
/// narrow one the 12×8 tile per A strip pair. Each tile stays in
/// registers for the whole `kcb` loop and touches C exactly once, the
/// property Eq. 3's cost model is built on.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    mcb: usize,
    jc: usize,
    ncb: usize,
    kcb: usize,
) {
    // One dispatch decision per macro-kernel invocation: a relaxed atomic
    // load, never re-detected in the tile loop.
    let isa = dlr_simd::active();
    let mut start = 0;
    for col0 in (jc..jc + ncb).step_by(NR) {
        let cols = NR.min(jc + ncb - col0);
        let width = strip_width(cols);
        let bstrip = &bpack[start..start + width * kcb];
        start += width * kcb;
        let height = if width == NR { MR } else { 2 * MR };
        for (s, astrip) in apack.chunks_exact(height * kcb).enumerate() {
            let row0 = ic + s * height;
            if row0 >= ic + mcb {
                break;
            }
            let rows = height.min(ic + mcb - row0);
            if width == NR {
                micro_kernel_6x16(isa, astrip, bstrip, kcb, c, ldc, row0, col0, rows, cols);
            } else {
                micro_kernel_12x8(isa, astrip, bstrip, kcb, c, ldc, row0, col0, rows, cols);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive::naive_gemm;

    fn check(m: usize, k: usize, n: usize, seed: u64) {
        let a = Matrix::random(m, k, 1.0, seed);
        let b = Matrix::random(k, n, 1.0, seed + 1);
        let expect = naive_gemm(&a, &b);
        let got = gemm(&a, &b);
        let diff = expect.max_abs_diff(&got);
        // f32 accumulation-order differences only.
        let tol = 1e-3 * (k as f32).sqrt();
        assert!(diff < tol, "({m},{k},{n}) diff {diff} > {tol}");
    }

    #[test]
    fn matches_naive_on_small_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (7, 5, 3),
            (8, 8, 8),
            (9, 9, 9),
            (16, 16, 16),
        ] {
            check(m, k, n, 11);
        }
    }

    #[test]
    fn matches_naive_on_edge_shapes() {
        // Shapes straddling MR/NR/kc boundaries and extreme aspect ratios,
        // the "edge matrix dimensions" §4.2 calls out.
        for &(m, k, n) in &[
            (1, 136, 64),
            (400, 136, 64),
            (8, 257, 8),
            (17, 3, 31),
            (100, 1, 100),
            (3, 300, 2),
            (65, 65, 65),
        ] {
            check(m, k, n, 23);
        }
    }

    #[test]
    fn matches_naive_with_blocking_forced() {
        // Tiny blocking parameters force every loop level to iterate.
        let a = Matrix::random(37, 29, 1.0, 5);
        let b = Matrix::random(29, 41, 1.0, 6);
        let expect = naive_gemm(&a, &b);
        let mut c = Matrix::zeros(37, 41);
        let params = GotoParams {
            mc: 16,
            nc: 16,
            kc: 8,
        };
        let mut ws = GemmWorkspace::default();
        gemm_with(
            37,
            29,
            41,
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
            params,
            &mut ws,
        );
        assert!(expect.max_abs_diff(&c) < 1e-3);
    }

    #[test]
    fn onednn_params_work_on_small_shapes() {
        let a = Matrix::random(10, 12, 1.0, 8);
        let b = Matrix::random(12, 5, 1.0, 9);
        let mut c = Matrix::zeros(10, 5);
        let mut ws = GemmWorkspace::default();
        gemm_with(
            10,
            12,
            5,
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
            GotoParams::onednn_avx2(),
            &mut ws,
        );
        assert!(naive_gemm(&a, &b).max_abs_diff(&c) < 1e-3);
    }

    #[test]
    fn effective_params_respect_rnd_up() {
        let p = GotoParams::default();
        let e = p.effective(3, 5, 2);
        assert_eq!(e.mc % MR, 0);
        assert_eq!(e.nc % NR, 0);
        assert_eq!(e.mc, MR); // rnd_up(max(3, 6) = 6, 6) = 6
        assert_eq!(e.kc, 5);
        // Large problems keep the configured blocks.
        let e = p.effective(100_000, 100_000, 100_000);
        assert_eq!(e.mc, p.mc);
        assert_eq!(e.kc, p.kc);
    }

    #[test]
    fn overwrites_previous_c_contents() {
        let a = Matrix::random(4, 4, 1.0, 1);
        let b = Matrix::random(4, 4, 1.0, 2);
        let mut c = Matrix::from_fn(4, 4, |_, _| 99.0);
        gemm_into(4, 4, 4, a.as_slice(), b.as_slice(), c.as_mut_slice());
        assert!(naive_gemm(&a, &b).max_abs_diff(&c) < 1e-4);
    }

    #[test]
    fn zero_k_yields_zero_c() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = gemm(&a, &b);
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn workspace_is_reusable_across_shapes() {
        let mut ws = GemmWorkspace::default();
        for &(m, k, n) in &[(8, 8, 8), (33, 17, 9), (5, 64, 128)] {
            let a = Matrix::random(m, k, 1.0, m as u64);
            let b = Matrix::random(k, n, 1.0, n as u64);
            let mut c = Matrix::zeros(m, n);
            gemm_with(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                c.as_mut_slice(),
                GotoParams::default(),
                &mut ws,
            );
            assert!(naive_gemm(&a, &b).max_abs_diff(&c) < 1e-2);
        }
    }

    #[test]
    fn prepacked_a_is_bit_identical_to_gemm_with() {
        for &(m, k, n) in &[(1, 1, 1), (8, 8, 8), (37, 29, 41), (130, 220, 300)] {
            let a = Matrix::random(m, k, 1.0, 3);
            let b = Matrix::random(k, n, 1.0, 4);
            let mut expect = Matrix::zeros(m, n);
            let mut ws = GemmWorkspace::default();
            gemm_with(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                expect.as_mut_slice(),
                GotoParams::default(),
                &mut ws,
            );
            let pa = PrepackedA::pack(a.as_slice(), m, k, GotoParams::default());
            assert_eq!(pa.m(), m);
            assert_eq!(pa.k(), k);
            let mut got = Matrix::zeros(m, n);
            gemm_with_prepacked_a(n, &pa, b.as_slice(), got.as_mut_slice(), &mut ws);
            assert_eq!(
                expect.as_slice(),
                got.as_slice(),
                "({m},{k},{n}) prepacked-A diverged"
            );
        }
    }

    #[test]
    fn prepacked_a_with_tiny_blocking_is_bit_identical() {
        let params = GotoParams {
            mc: 16,
            nc: 16,
            kc: 8,
        };
        let a = Matrix::random(37, 29, 1.0, 5);
        let b = Matrix::random(29, 41, 1.0, 6);
        let mut expect = Matrix::zeros(37, 41);
        let mut ws = GemmWorkspace::default();
        gemm_with(
            37,
            29,
            41,
            a.as_slice(),
            b.as_slice(),
            expect.as_mut_slice(),
            params,
            &mut ws,
        );
        let pa = PrepackedA::pack(a.as_slice(), 37, 29, params);
        let mut got = Matrix::zeros(37, 41);
        gemm_with_prepacked_a(41, &pa, b.as_slice(), got.as_mut_slice(), &mut ws);
        assert_eq!(expect.as_slice(), got.as_slice());
    }

    #[test]
    fn prepacked_a_rejects_bad_shapes_with_typed_error() {
        let pa = PrepackedA::pack(&[1.0; 6], 2, 3, GotoParams::default());
        let mut c = [0.0f32; 4];
        assert!(matches!(
            try_gemm_with_prepacked_a(2, &pa, &[0.0; 5], &mut c, &mut GemmWorkspace::default()),
            Err(GemmShapeError {
                what: "B must be k×n",
                ..
            })
        ));
        assert!(matches!(
            try_gemm_with_prepacked_a(
                2,
                &pa,
                &[0.0; 6],
                &mut [0.0; 3],
                &mut GemmWorkspace::default()
            ),
            Err(GemmShapeError {
                what: "C must be m×n",
                ..
            })
        ));
    }

    #[test]
    fn gemm_rows_tiled_on_mc_grid_is_bit_identical_to_serial() {
        for &(m, k, n, params) in &[
            (37, 29, 41, GotoParams::default()),
            (
                300,
                64,
                77,
                GotoParams {
                    mc: 32,
                    nc: 24,
                    kc: 16,
                },
            ),
            (8, 1, 1, GotoParams::default()),
        ] {
            let a = Matrix::random(m, k, 1.0, 7);
            let b = Matrix::random(k, n, 1.0, 8);
            let mut expect = Matrix::zeros(m, n);
            let mut ws = GemmWorkspace::default();
            gemm_with(
                m,
                k,
                n,
                a.as_slice(),
                b.as_slice(),
                expect.as_mut_slice(),
                params,
                &mut ws,
            );
            let pb = PrepackedB::pack(b.as_slice(), k, n, params);
            assert_eq!(pb.k(), k);
            assert_eq!(pb.n(), n);
            let mc = pb.effective_mc(m);
            let mut got = Matrix::zeros(m, n);
            let mut apack = Vec::new();
            // Serial walk over the same chunks the parallel driver uses.
            let mut row0 = 0;
            while row0 < m {
                let rows = mc.min(m - row0);
                gemm_rows_with(
                    m,
                    row0,
                    a.as_slice(),
                    &pb,
                    &mut got.as_mut_slice()[row0 * n..(row0 + rows) * n],
                    &mut apack,
                );
                row0 += rows;
            }
            assert_eq!(
                expect.as_slice(),
                got.as_slice(),
                "({m},{k},{n}) row-panel GEMM diverged"
            );
        }
    }

    #[test]
    fn prepacked_b_pack_into_reuses_allocations() {
        let params = GotoParams::default();
        let b1 = Matrix::random(12, 9, 1.0, 10);
        // Panels are compared, not buffers: each packing starts at its own
        // allocation's first 64-byte boundary.
        let panels = |pb: &PrepackedB| -> Vec<Vec<f32>> {
            (0..pb.offsets.len())
                .map(|i| panel_at(&pb.offsets, &pb.data, i).to_vec())
                .collect()
        };
        let mut pb = PrepackedB::pack(b1.as_slice(), 12, 9, params);
        let once = PrepackedB::pack(b1.as_slice(), 12, 9, params);
        assert_eq!(panels(&pb), panels(&once));
        // Repack with a different operand and shape: must match a fresh
        // packing exactly.
        let b2 = Matrix::random(5, 21, 1.0, 11);
        pb.pack_into(b2.as_slice(), 5, 21, params);
        let fresh = PrepackedB::pack(b2.as_slice(), 5, 21, params);
        assert_eq!(panels(&pb), panels(&fresh));
        assert_eq!(pb.panel(0, 0).as_ptr() as usize % 64, 0);
        // Degenerate shapes pack to nothing and don't panic.
        pb.pack_into(&[], 0, 4, params);
        assert_eq!(pb.n(), 4);
        assert!(pb.data.is_empty());
    }

    #[test]
    fn try_gemm_into_reports_typed_shape_error() {
        let mut c = [0.0f32; 4];
        assert_eq!(
            try_gemm_into(2, 3, 2, &[0.0; 5], &[0.0; 6], &mut c),
            Err(GemmShapeError {
                what: "A must be m×k",
                expected: 6,
                got: 5,
            })
        );
        assert!(matches!(
            try_gemm_into(2, 3, 2, &[0.0; 6], &[0.0; 7], &mut c),
            Err(GemmShapeError {
                what: "B must be k×n",
                ..
            })
        ));
        // Well-shaped input succeeds and zero dims are a no-op.
        assert!(try_gemm_into(2, 0, 2, &[], &[], &mut c).is_ok());
        assert!(c.iter().all(|&v| v == 0.0));
    }

    /// Row-major `rows × cols` → `cols × rows`.
    fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols * rows)
            .map(|i| x[(i % rows) * cols + i / rows])
            .collect()
    }

    #[test]
    fn transposed_operands_are_bit_identical_to_explicit_transposes() {
        let tiny = GotoParams {
            mc: 12,
            nc: 16,
            kc: 7,
        };
        for params in [GotoParams::default(), tiny] {
            for &(m, k, n) in &[
                (1, 1, 1),
                (7, 13, 4),
                (13, 257, 17),
                (50, 40, 9),
                (12, 30, 40),
            ] {
                let a = Matrix::random(m, k, 1.0, 41);
                let b = Matrix::random(k, n, 1.0, 42);
                let (at, bt) = (
                    transposed(a.as_slice(), m, k),
                    transposed(b.as_slice(), k, n),
                );
                let mut ws = GemmWorkspace::default();
                let mut want = vec![0.0f32; m * n];
                gemm_with(
                    m,
                    k,
                    n,
                    a.as_slice(),
                    b.as_slice(),
                    &mut want,
                    params,
                    &mut ws,
                );
                for (ta, tb) in [
                    (Trans::T, Trans::N),
                    (Trans::N, Trans::T),
                    (Trans::T, Trans::T),
                ] {
                    let a_stored = if ta == Trans::T { &at } else { a.as_slice() };
                    let b_stored = if tb == Trans::T { &bt } else { b.as_slice() };
                    let mut got = vec![f32::NAN; m * n];
                    gemm_trans_with(
                        ta, tb, m, k, n, a_stored, b_stored, &mut got, params, &mut ws,
                    );
                    assert_eq!(want, got, "({m},{k},{n}) {ta:?}{tb:?} {params:?}");
                }
            }
        }
    }

    #[test]
    fn a_narrow_last_strip_is_packed_eight_wide() {
        // 17 columns: one full 16-wide strip and a 1-column strip packed
        // 8 wide; 4 columns: one 8-wide strip.
        assert_eq!(packed_b_len(17, 3), (16 + 8) * 3);
        assert_eq!(packed_b_len(4, 3), 8 * 3);
        assert_eq!(packed_b_len(9, 3), 16 * 3);
        assert_eq!(packed_b_len(32, 3), 32 * 3);
        // A blocks hold an even number of 6-row strips.
        assert_eq!(packed_a_len(7, 2), 12 * 2);
        assert_eq!(packed_a_len(13, 2), 24 * 2);
        assert_eq!(packed_a_len(132, 2), 132 * 2);
    }
}
