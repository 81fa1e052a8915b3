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
//! The micro-kernel is `dlr-simd`'s fixed 8×8 register tile
//! ([`dlr_simd::gemm::micro_kernel_8x8`]): hand-written AVX2+FMA and SSE2
//! `std::arch` paths behind a safe wrapper, runtime-dispatched per GEMM
//! call with a portable scalar fallback — the same role the JIT-generated
//! kernels play in oneDNN/BLIS. Packing, blocking, and the macro-kernel
//! walk are unchanged; only the innermost tile computation moved. The
//! AVX2 path fuses multiply-adds, so results may differ from the scalar
//! path by the documented ULP envelope (see the `dlr-simd` crate docs);
//! SSE2 and scalar are bit-identical.
//!
//! Small shapes use the oneDNN-style `rnd_up` refinement quoted in §4.2:
//! `m̄_c = rnd_up(min(max(m, m_r), m_c), m_r)`, so tiny layers do not pay
//! for full-size packing buffers.

use super::GemmShapeError;
use crate::matrix::Matrix;
use dlr_simd::Isa;

// The packing routines below produce exactly the strip layout the
// dlr-simd micro-kernel consumes; keep the tile constants in lock-step.
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

/// Micro-kernel tile height (rows of A per register tile).
pub const MR: usize = 8;
/// Micro-kernel tile width (columns of B per register tile).
pub const NR: usize = 8;

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
        // kc*NR = 256*8 floats = 8 KiB ≤ half of a 32 KiB L1d;
        // mc*kc = 128*256 floats = 128 KiB fits a 256 KiB L2.
        GotoParams {
            mc: 128,
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
    /// Start of panel `(jc_idx · num_pc + pc_idx)` in `data`.
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
        let mut jc = 0;
        while jc < n {
            let ncb = self.nc.min(n - jc);
            let strips = ncb.div_ceil(NR);
            let mut pc = 0;
            while pc < k {
                let kcb = self.kc.min(k - pc);
                let start = self.data.len();
                self.offsets.push(start);
                self.data.resize(start + strips * NR * kcb, 0.0);
                pack_b(b, n, pc, kcb, jc, ncb, &mut self.data[start..]);
                pc += self.kc;
            }
            jc += self.nc;
        }
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
    /// must honour for bit-identical output.
    #[inline]
    pub fn effective_mc(&self, m: usize) -> usize {
        self.params.effective(m, self.k.max(1), self.n.max(1)).mc
    }

    #[inline]
    fn num_pc(&self) -> usize {
        self.k.div_ceil(self.kc)
    }

    /// Packed panel for column block `jc_idx`, reduction block `pc_idx`.
    #[inline]
    fn panel(&self, jc_idx: usize, pc_idx: usize) -> &[f32] {
        let idx = jc_idx * self.num_pc() + pc_idx;
        let start = self.offsets[idx];
        let end = self
            .offsets
            .get(idx + 1)
            .copied()
            .unwrap_or(self.data.len());
        &self.data[start..end]
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
        let mut ic = 0;
        while ic < m {
            let mcb = packed.mc.min(m - ic);
            let strips = mcb.div_ceil(MR);
            let mut pc = 0;
            while pc < k {
                let kcb = packed.kc.min(k - pc);
                let start = packed.data.len();
                packed.offsets.push(start);
                packed.data.resize(start + strips * MR * kcb, 0.0);
                pack_a(a, k, ic, mcb, pc, kcb, &mut packed.data[start..]);
                pc += packed.kc;
            }
            ic += packed.mc;
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

    #[inline]
    fn num_pc(&self) -> usize {
        self.k.div_ceil(self.kc)
    }

    /// Packed block for row block `ic_idx`, reduction block `pc_idx`.
    #[inline]
    fn block(&self, ic_idx: usize, pc_idx: usize) -> &[f32] {
        let idx = ic_idx * self.num_pc() + pc_idx;
        let start = self.offsets[idx];
        let end = self
            .offsets
            .get(idx + 1)
            .copied()
            .unwrap_or(self.data.len());
        &self.data[start..end]
    }
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
    // Same loop nest as `try_gemm_with`, with `pack_a` replaced by a
    // lookup; `n_c` comes from the packing's own parameters so the walk
    // matches `gemm_with` under those parameters exactly.
    let nc = pa.params.effective(m, k, n).nc;
    let kc = pa.kc;
    ws.bpack.resize(kc * nc, 0.0);
    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        let mut pc = 0;
        let mut pc_idx = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            pack_b(b, n, pc, kcb, jc, ncb, &mut ws.bpack);
            let mut ic = 0;
            let mut ic_idx = 0;
            while ic < m {
                let mcb = pa.mc.min(m - ic);
                let apack = pa.block(ic_idx, pc_idx);
                macro_kernel(apack, &ws.bpack, c, n, ic, mcb, jc, ncb, kcb);
                ic += pa.mc;
                ic_idx += 1;
            }
            pc += kc;
            pc_idx += 1;
        }
        jc += nc;
    }
    Ok(())
}

/// Compute C rows `[row0, row0 + c_rows.len()/n)` of `C = A·B` against a
/// shared [`PrepackedB`], writing only into the caller-supplied row slice
/// — the per-chunk kernel of the parallel GEMM driver.
///
/// `a` is the **full** `m×k` operand; `apack` is per-caller scratch
/// (per-*thread* in the parallel driver), grown as needed and reused
/// across calls. Accumulation for each output element runs over `pc`
/// ascending, exactly as in [`gemm_with`], so when the row chunks tile
/// `0..m` on multiples of the effective `m_c` the concatenated output is
/// **bit-identical** to the serial kernel.
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
    let mc = pb.params.effective(m, k, n).mc;
    apack.resize(mc * pb.kc, 0.0);
    let mut jc = 0;
    let mut jc_idx = 0;
    while jc < n {
        let ncb = pb.nc.min(n - jc);
        let mut pc = 0;
        let mut pc_idx = 0;
        while pc < k {
            let kcb = pb.kc.min(k - pc);
            let bpack = pb.panel(jc_idx, pc_idx);
            let mut ic = row0;
            while ic < row0 + mrows {
                let mcb = mc.min(row0 + mrows - ic);
                pack_a(a, k, ic, mcb, pc, kcb, apack);
                // Address C by chunk-local rows: the macro kernel sees the
                // chunk slice as an `mrows×n` matrix starting at row 0.
                macro_kernel(apack, bpack, c_rows, n, ic - row0, mcb, jc, ncb, kcb);
                ic += mc;
            }
            pc += pb.kc;
            pc_idx += 1;
        }
        jc += pb.nc;
        jc_idx += 1;
    }
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
    try_gemm_with(m, k, n, a, b, c, params, ws).unwrap_or_else(|e| panic!("{e}"));
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
    check_shape("A must be m×k", m * k, a.len())?;
    check_shape("B must be k×n", k * n, b.len())?;
    check_shape("C must be m×n", m * n, c.len())?;
    c.fill(0.0);
    if m == 0 || n == 0 || k == 0 {
        return Ok(());
    }
    let p = params.effective(m, k, n);
    let (mc, nc, kc) = (p.mc, p.nc, p.kc);

    ws.apack.resize(mc * kc, 0.0);
    ws.bpack.resize(kc * nc, 0.0);

    // Loop 5 (jc): panels of B / C along n.
    let mut jc = 0;
    while jc < n {
        let ncb = nc.min(n - jc);
        // Loop 4 (pc): rank-kc updates along the reduction dimension.
        let mut pc = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            pack_b(b, n, pc, kcb, jc, ncb, &mut ws.bpack);
            // Loop 3 (ic): blocks of A / C along m.
            let mut ic = 0;
            while ic < m {
                let mcb = mc.min(m - ic);
                pack_a(a, k, ic, mcb, pc, kcb, &mut ws.apack);
                macro_kernel(&ws.apack, &ws.bpack, c, n, ic, mcb, jc, ncb, kcb);
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
    Ok(())
}

/// Pack `A[ic..ic+mcb, pc..pc+kcb]` into `m_r`-tall strips, column-major
/// within each strip (the access order of the micro-kernel). Rows past the
/// edge are zero-padded so the kernel never branches on tile height.
fn pack_a(a: &[f32], lda: usize, ic: usize, mcb: usize, pc: usize, kcb: usize, apack: &mut [f32]) {
    let strips = mcb.div_ceil(MR);
    for s in 0..strips {
        let row0 = ic + s * MR;
        let rows = MR.min(ic + mcb - row0);
        let dst = &mut apack[s * MR * kcb..(s + 1) * MR * kcb];
        for p in 0..kcb {
            let col = pc + p;
            for r in 0..MR {
                dst[p * MR + r] = if r < rows {
                    a[(row0 + r) * lda + col]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pack `B[pc..pc+kcb, jc..jc+ncb]` into `n_r`-wide strips, row-major
/// within each strip. Columns past the edge are zero-padded.
fn pack_b(b: &[f32], ldb: usize, pc: usize, kcb: usize, jc: usize, ncb: usize, bpack: &mut [f32]) {
    let strips = ncb.div_ceil(NR);
    for s in 0..strips {
        let col0 = jc + s * NR;
        let cols = NR.min(jc + ncb - col0);
        let dst = &mut bpack[s * NR * kcb..(s + 1) * NR * kcb];
        for p in 0..kcb {
            let src_row = (pc + p) * ldb;
            for cidx in 0..NR {
                dst[p * NR + cidx] = if cidx < cols {
                    b[src_row + col0 + cidx]
                } else {
                    0.0
                };
            }
        }
    }
}

/// The macro-kernel: walk all `(m_r × n_r)` tiles of the current
/// `C[ic.., jc..]` block, invoking the micro-kernel on packed panels.
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
    let a_strips = mcb.div_ceil(MR);
    let b_strips = ncb.div_ceil(NR);
    for jr in 0..b_strips {
        let bstrip = &bpack[jr * NR * kcb..(jr + 1) * NR * kcb];
        let col0 = jc + jr * NR;
        let cols = NR.min(jc + ncb - col0);
        for ir in 0..a_strips {
            let astrip = &apack[ir * MR * kcb..(ir + 1) * MR * kcb];
            let row0 = ic + ir * MR;
            let rows = MR.min(ic + mcb - row0);
            micro_kernel(isa, astrip, bstrip, kcb, c, ldc, row0, col0, rows, cols);
        }
    }
}

/// The micro-kernel: `kcb` rank-1 updates accumulated into an `MR×NR`
/// register tile, then added to C with edge clipping — delegated to the
/// runtime-dispatched `dlr-simd` tile kernel (the tile stays in registers
/// for the whole `kcb` loop and touches memory exactly once, the property
/// Eq. 3's cost model is built on).
#[allow(clippy::too_many_arguments)]
#[inline]
fn micro_kernel(
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
    dlr_simd::gemm::micro_kernel_8x8(isa, astrip, bstrip, kcb, c, ldc, row0, col0, rows, cols);
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
        assert_eq!(e.mc, MR); // rnd_up(max(3, 8) = 8, 8) = 8
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
        let mut pb = PrepackedB::pack(b1.as_slice(), 12, 9, params);
        let once = PrepackedB::pack(b1.as_slice(), 12, 9, params);
        assert_eq!(pb.data, once.data);
        // Repack with a different operand and shape: must match a fresh
        // packing exactly.
        let b2 = Matrix::random(5, 21, 1.0, 11);
        pb.pack_into(b2.as_slice(), 5, 21, params);
        let fresh = PrepackedB::pack(b2.as_slice(), 5, 21, params);
        assert_eq!(pb.data, fresh.data);
        assert_eq!(pb.offsets, fresh.offsets);
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
}
