//! Dense row-major linear algebra.
//!
//! The logistic-regression trainer in `fl-ml` needs a small set of matrix
//! kernels: matrix–matrix product, transpose, row-wise softmax support,
//! AXPY updates and flattening to/from the weight vectors that travel
//! through secure aggregation. There is no BLAS in the offline
//! dependency set, so the product is implemented here as one
//! cache-blocked GEMM kernel driven by the deterministic fork-join layer
//! in [`crate::par`]. The trainer runs its two products class-major
//! through that same kernel, over the [`Matrix::transpose`]s it takes
//! once per training call.
//!
//! # Determinism contract
//!
//! Every coalition retraining is re-executed by miners on arbitrary
//! hardware, so [`Matrix::matmul`] must be **bit-identical for any
//! thread count and any CPU** — and it additionally pins itself to the
//! naive reference loop:
//!
//! * Output element `(i, j)` accumulates its products `a[i][k]·b[k][j]`
//!   **strictly in ascending `k` order**: k-tiles are visited in ascending
//!   order, the register accumulator of each micro-tile is seeded from the
//!   current output value and written back after the tile, and no kernel
//!   ever combines partial sums in a tree or uses fused multiply-add. For
//!   **finite** operands the result is therefore bit-identical to the
//!   textbook `for i { for k { for j { out[i][j] += a[i][k] * b[k][j] } } }`
//!   loop ([`Matrix::matmul_naive`], the property tests' oracle) —
//!   including that loop's skip of exact-zero lhs entries, which for
//!   finite rhs values only ever adds `±0.0` terms that cannot change a
//!   running sum's bits. With `Inf`/`NaN` operands the skip is
//!   observable (`0.0 * Inf = NaN` is computed here, skipped there);
//!   nothing in this workspace feeds non-finite values into the kernels.
//! * Work fans out over contiguous *row panels* of the output via
//!   [`crate::par::par_fill_rows`]: each output row is a pure function of
//!   its global row index, so panel boundaries move with the thread count
//!   but row contents never do.
//!
//! The property tests in `shapley/tests/par_determinism.rs` pin the
//! thread-count half of the contract; the proptests at the bottom of this
//! file pin the naive-reference half, for every instantiation below.
//!
//! # Instantiations
//!
//! The kernel is one source compiled three times on x86-64 — for the
//! baseline (SSE2), with AVX and with AVX-512F — and a product runs the
//! widest instantiation the CPU has. That is a platform selection the
//! code observes, not an option: the [`crate::isa`] module holds
//! the dispatch, shared with [`crate::math`]'s slice passes, and the
//! argument why wider lanes cannot change a bit. None may fuse: the AVX
//! one does not enable FMA, and in the AVX-512F one (where rustc's
//! `avx512f` implies `fma`) only the unfused `acc += x * seg` spelling
//! and rustc's refusal to contract it keep each product rounded before
//! its add; `scripts/no_fma.sh` disassembles a release binary to check.
//!
//! The micro-tile — output rows × columns held in registers across a
//! k-tile — is per instantiation too, the widest the register file
//! holds without spilling, chosen with the ISA and no more an option
//! than it is: AVX-512F runs 5 rows × 32 columns (20 `zmm` accumulators
//! plus four rhs vectors and a broadcast, of 32), AVX 3 × 12 (nine `ymm`
//! accumulators and three broadcasts, of 16; 4 × 12 spilled three
//! accumulators), the SSE2 baseline 2 × 10 (ten `xmm` accumulators). The shape decides no element's operation order —
//! each element still folds its own products in ascending `k` — so it
//! cannot change a bit either. It matters for the trainer's class-major
//! products, ten rows by hundreds of columns: a 2-row tile leaves two
//! accumulator chains per row there and the product latency-bound,
//! while 5 × 32 keeps both `zmm` pipes busy (about half the time at
//! 10 × 65 × 500).
//!
//! The last column tile of a row may be up to 10 wide (a 10-class
//! row-major product, the test-set scoring, is one tile, not 8 + 2).
//! That bound is the SSE2 register file's and binds SSE2 alone: two rows
//! × 10 columns are ten 2-lane accumulators, plus two lhs broadcasts,
//! one rhs segment and one product — 14 of 16 registers, and the
//! disassembly shows no spill. The wider files hold that last tile over
//! their taller row groups (5 × 10 is five `zmm` and five `xmm`
//! accumulators).

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::isa::Isa;

/// A dense, row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// A convenience alias: a vector is an owned `f64` buffer.
pub type Vector = Vec<f64>;

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize` (in release builds the
    /// raw multiplication would wrap silently and leave the element count
    /// inconsistent with the shape).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; checked_len(rows, cols)],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or `rows * cols` overflows.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            checked_len(rows, cols),
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows: expected {c}, got {}", row.len());
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs` through the blocked GEMM kernel (see
    /// the module docs for the determinism contract).
    ///
    /// An empty inner dimension is well-defined: the result is the
    /// `rows × rhs.cols` zero matrix (a sum over zero terms).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Like [`Matrix::matmul`], writing into a caller-owned output matrix
    /// (overwritten, not accumulated) — the trainer's per-epoch logits
    /// and gradient buffers are reused through this.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` is not
    /// `self.rows × rhs.cols`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul output shape mismatch: got {:?}, need {:?}",
            out.shape(),
            (self.rows, rhs.cols)
        );
        gemm::gemm_into(
            Isa::detect(),
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// The textbook `i-k-j` product `self · rhs`, skipping exact-zero lhs
    /// entries — the seed implementation's loop.
    ///
    /// Oracle duty only: this module's property tests hold
    /// [`Matrix::matmul`] to it bit for bit (module docs, "Determinism
    /// contract"), and `fl-ml`'s trainer test spells its epoch loop with
    /// it. Nothing on a production path calls it.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "oracle shape mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let v = self.data[i * self.cols + k];
                if v == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &w) in out_row.iter_mut().zip(rhs_row) {
                    *o += v * w;
                }
            }
        }
        out
    }

    /// The transposed product `selfᵀ · rhs` as the seed folded it: rows
    /// in ascending order, exact-zero lhs entries skipped. For finite
    /// operands it equals `self.transpose().matmul(rhs)` bit for bit.
    ///
    /// Oracle duty only, like [`Matrix::matmul_naive`].
    ///
    /// # Panics
    ///
    /// Panics if the two row counts differ.
    pub fn t_matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "oracle shape mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let left = &self.data[r * self.cols..(r + 1) * self.cols];
            let right = &rhs.data[r * rhs.cols..(r + 1) * rhs.cols];
            for (i, &v) in left.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &w) in out_row.iter_mut().zip(right) {
                    *o += v * w;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// `self += alpha * rhs` (element-wise AXPY).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Element-wise sum of the matrix.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maps every element through `f`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Appends a constant `1.0` column (bias feature).
    pub fn with_bias_column(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            out.data[r * (self.cols + 1)..r * (self.cols + 1) + self.cols]
                .copy_from_slice(self.row(r));
            out.data[r * (self.cols + 1) + self.cols] = 1.0;
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, " …")?;
            }
            writeln!(f, " ]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// `rows * cols` with an overflow check, so a shape can never disagree
/// with its element count (release-mode wrapping would otherwise produce
/// a tiny buffer that passes the length assert and mis-indexes later).
fn checked_len(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("matrix shape {rows}x{cols} overflows usize"))
}

/// The cache-blocked GEMM kernel on [`crate::par`].
///
/// Layout of the computation (see the module docs for the determinism
/// contract these loops implement):
///
/// * the output fans out over contiguous **row panels**
///   ([`crate::par::par_fill_rows`]), one worker per panel;
/// * inside a panel, the reduction dimension is walked in **k-tiles** of
///   [`KC`] in ascending order; every micro-tile seeds its register
///   accumulators from the current output values and writes them back
///   after the tile, so each output element folds its products strictly
///   in ascending reduction order;
/// * micro-tiles cover `MR` output rows × `NR` columns, the shape the
///   instantiation's register file holds (module docs, "Instantiations");
///   the rows left below `MR` go two and then one at a time, the columns
///   left below `NR` in [`NR_MID`]-wide tiles and one last tile of up to
///   [`NR_LAST`]. Each rhs row segment is loaded once per reduction step
///   and reused for every row of the tile, and the accumulators live in
///   registers across the whole k-tile.
mod gemm {
    use crate::isa::{Isa, Kernel};
    use crate::par;

    /// Reduction-tile length: a `KC`-row rhs slab stays cache-resident
    /// across a whole row panel.
    const KC: usize = 256;
    /// Width of the column tiles between the last full `NR` tile and the
    /// last tile of a row.
    const NR_MID: usize = 8;
    /// Widest last tile of a row, so that a 9- or 10-column product (the
    /// 10-class test-set scoring) is one tile and not 8 plus a sliver;
    /// bounded by the SSE2 register file (module docs, "Instantiations").
    const NR_LAST: usize = 10;
    /// One row panel of a product, as the [`Kernel`] [`Isa::run`]
    /// instantiates.
    struct Panel<'a> {
        a: &'a [f64],
        k: usize,
        b: &'a [f64],
        n: usize,
        out: &'a mut [f64],
    }

    impl Kernel for Panel<'_> {
        #[inline(always)]
        fn run<const LANES: usize>(self) {
            let Panel { a, k, b, n, out } = self;
            // The micro-tile (rows × columns) of each instantiation
            // (module docs, "Instantiations"); `LANES` is a constant of
            // the instantiation, so each compiles one arm.
            match LANES {
                8 => panel_kernel::<5, 32>(a, k, b, n, out),
                4 => panel_kernel::<3, 12>(a, k, b, n, out),
                _ => panel_kernel::<2, 10>(a, k, b, n, out),
            }
        }
    }

    /// `out = a(m×k) · b(k×n)`; every output element is fully written
    /// (the first k-tile seeds the accumulators with zero), so stale
    /// buffer contents never leak through.
    pub(super) fn gemm_into(
        isa: Isa,
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        if m == 0 || k == 0 || n == 0 {
            // An empty reduction is a sum over zero terms.
            out.fill(0.0);
            return;
        }
        // A row is `2·k·n` flops: with [`par::LEASE_FLOPS`] a 65-column ×
        // 10-class product first splits at ≈ 6 500 rows, where cap 2 reads
        // 0.75–1.05 × cap 1 (at 2¹⁸ the 500-row trainer shape split and
        // read 3–4 × cap 1).
        let min_rows = par::items_per_lease(2 * k * n);
        par::par_fill_rows(out, n, min_rows, |row0, panel| {
            let a = &a[row0 * k..][..panel.len() / n * k];
            isa.run(Panel {
                a,
                k,
                b,
                n,
                out: panel,
            });
        });
    }

    /// One row panel `out = a(rows×k) · b(k×n)`, its k-tiles in ascending
    /// order, through `MR × NR` micro-tiles.
    ///
    /// Inlined, with everything below it, into [`Panel::run`]: the body
    /// is compiled once per instantiation (see [`crate::isa`]).
    #[inline(always)]
    fn panel_kernel<const MR: usize, const NR: usize>(
        a: &[f64],
        k: usize,
        b: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        for kt in (0..k).step_by(KC) {
            let kc = KC.min(k - kt);
            let b_tile = &b[kt * n..(kt + kc) * n];
            let first = kt == 0;
            // `MR` rows at a time, then pairs, then a last single row.
            // (Indexing `out` afresh for each group, rather than walking
            // `split_at_mut` remainders, keeps the rows' common stride
            // visible to the optimizer: the walked form reloaded every
            // lhs row pointer each reduction step and read 1.7 × slower.)
            let m = out.len() / n;
            let mut i = 0;
            while m - i >= MR {
                let rows = &mut out[i * n..(i + MR) * n];
                row_tiles::<MR, NR>(a, k, kt, kc, i, b_tile, first, n, rows);
                i += MR;
            }
            while m - i >= 2 {
                let rows = &mut out[i * n..(i + 2) * n];
                row_tiles::<2, NR>(a, k, kt, kc, i, b_tile, first, n, rows);
                i += 2;
            }
            if m > i {
                row_tiles::<1, NR>(a, k, kt, kc, i, b_tile, first, n, &mut out[i * n..]);
            }
        }
    }

    /// `R` output rows (`rows`, `n` wide, from row `i` of the panel) against
    /// one k-tile `kt..kt + kc`: `out[r][j] += Σ_{kk<kc} a[(i+r)*k + kt +
    /// kk] · b_tile[kk*n + j]`, accumulated per element in ascending `kk`
    /// on top of the current output value. On the first tile (`first`)
    /// the accumulators are seeded with `0.0` instead of loading the
    /// output, which lets callers skip a zero-fill pass — bit-identical,
    /// since the seed value is exactly what the fill would have stored.
    ///
    /// Full `NR` tiles while at least `NR` and more than [`NR_LAST`]
    /// columns remain, [`NR_MID`] tiles while more than [`NR_LAST`]
    /// remain, then one last tile of what is left (none after a whole
    /// number of `NR` tiles), monomorphized per width.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn row_tiles<const R: usize, const NR: usize>(
        a: &[f64],
        k: usize,
        kt: usize,
        kc: usize,
        i: usize,
        b_tile: &[f64],
        first: bool,
        n: usize,
        rows: &mut [f64],
    ) {
        let a: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * k + kt..][..kc]);
        let mut rows = rows.chunks_exact_mut(n);
        let mut out: [&mut [f64]; R] =
            std::array::from_fn(|_| rows.next().expect("R rows of n columns"));
        let mut j = 0;
        while n - j >= NR && n - j > NR_LAST {
            tile::<R, NR>(a, b_tile, n, j, first, &mut out);
            j += NR;
        }
        while n - j > NR_LAST {
            tile::<R, NR_MID>(a, b_tile, n, j, first, &mut out);
            j += NR_MID;
        }
        match n - j {
            0 => {}
            1 => tile::<R, 1>(a, b_tile, n, j, first, &mut out),
            2 => tile::<R, 2>(a, b_tile, n, j, first, &mut out),
            3 => tile::<R, 3>(a, b_tile, n, j, first, &mut out),
            4 => tile::<R, 4>(a, b_tile, n, j, first, &mut out),
            5 => tile::<R, 5>(a, b_tile, n, j, first, &mut out),
            6 => tile::<R, 6>(a, b_tile, n, j, first, &mut out),
            7 => tile::<R, 7>(a, b_tile, n, j, first, &mut out),
            8 => tile::<R, 8>(a, b_tile, n, j, first, &mut out),
            9 => tile::<R, 9>(a, b_tile, n, j, first, &mut out),
            10 => tile::<R, 10>(a, b_tile, n, j, first, &mut out),
            rem => unreachable!("last tile width {rem} outside 1..={NR_LAST}"),
        }
    }

    /// `R` output rows × `W` columns starting at column `j`: each rhs
    /// segment is loaded once per reduction step and reused for every
    /// row; accumulators are seeded from the output (or `0.0` on the
    /// first tile) and written back, so the per-element fold stays in
    /// ascending reduction order. The rhs is walked by its row stride
    /// `n` (a `chunks_exact(n)` here costs a 64-bit division per call).
    #[inline(always)]
    fn tile<const R: usize, const W: usize>(
        a: [&[f64]; R],
        b_tile: &[f64],
        n: usize,
        j: usize,
        first: bool,
        out: &mut [&mut [f64]; R],
    ) {
        let mut acc = [[0.0f64; W]; R];
        if !first {
            for r in 0..R {
                acc[r].copy_from_slice(&out[r][j..j + W]);
            }
        }
        for kk in 0..a[0].len() {
            let seg = &b_tile[kk * n + j..][..W];
            for r in 0..R {
                let x = a[r][kk];
                for t in 0..W {
                    acc[r][t] += x * seg[t];
                }
            }
        }
        for r in 0..R {
            out[r][j..j + W].copy_from_slice(&acc[r]);
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` over slices.
pub fn axpy_slice(y: &mut [f64], alpha: f64, x: &[f64]) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm of a slice.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Element-wise mean of several equal-length vectors.
///
/// # Panics
///
/// Panics if `vectors` is empty or lengths mismatch.
pub fn mean_vectors(vectors: &[Vec<f64>]) -> Vec<f64> {
    assert!(!vectors.is_empty(), "mean of zero vectors");
    let len = vectors[0].len();
    let mut acc = vec![0.0; len];
    for v in vectors {
        assert_eq!(v.len(), len, "mean_vectors length mismatch");
        axpy_slice(&mut acc, 1.0, v);
    }
    let inv = 1.0 / vectors.len() as f64;
    for a in &mut acc {
        *a *= inv;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.as_slice().len(), 6);
        let m2 = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m2[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn bad_buffer_length_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn identity_matmul_is_identity_map() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.0, 3.0]);
        assert_eq!(a.t_matmul_naive(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 5.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn bias_column_appended() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.with_bias_column();
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b.row(0), &[1.0, 2.0, 1.0]);
        assert_eq!(b.row(1), &[3.0, 4.0, 1.0]);
    }

    #[test]
    fn norms_and_sum() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_eq!(a.frobenius_norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn dot_and_axpy_slice() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy_slice(&mut y, 3.0, &[1.0, 2.0]);
        assert_eq!(y, vec![4.0, 7.0]);
    }

    #[test]
    fn mean_vectors_averages() {
        let m = mean_vectors(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m, vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "zero vectors")]
    fn mean_of_nothing_panics() {
        let _ = mean_vectors(&[]);
    }

    #[test]
    fn map_applies_function() {
        let a = Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        let b = a.map(f64::abs);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn debug_render_is_bounded() {
        let a = Matrix::zeros(100, 100);
        let s = format!("{a:?}");
        assert!(s.len() < 2000, "debug output must stay bounded");
    }

    /// `a · b` through every instantiation of the kernel this CPU can
    /// run ([`Isa::each`]: the portable one, then AVX and AVX-512F where
    /// the CPU has them).
    fn matmul_each_isa(a: &Matrix, b: &Matrix) -> Vec<Matrix> {
        Isa::each()
            .into_iter()
            .map(|isa| {
                let mut out = Matrix::zeros(a.rows, b.cols);
                gemm::gemm_into(isa, a.rows, a.cols, b.cols, &a.data, &b.data, &mut out.data);
                out
            })
            .collect()
    }

    fn dense_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(salt) as f64 * 1e-9).sin())
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn blocked_matmul_bit_identical_at_tile_boundaries() {
        // Shapes straddling the k-tile (KC = 256, first and later tiles)
        // and the 2-row pair, at every column split of the narrow tiles:
        // one last tile of 1..=10, 8 + 3 … 8 + 10, 8 + 8 + 3 … 8 + 8 + 8.
        for n in 1..=24 {
            for (m, k) in [
                (1, 1),
                (2, 255),
                (3, 256),
                (5, 257),
                (4, 300),
                (2, 513),
                (7, 64),
            ] {
                let a = dense_matrix(m, k, 11);
                let b = dense_matrix(k, n, 23);
                let naive = a.matmul_naive(&b);
                let at = dense_matrix(k, m, 31);
                let naive_t = at.t_matmul_naive(&b);
                for out in matmul_each_isa(&a, &b) {
                    assert_eq!(
                        out, naive,
                        "matmul {m}x{k}x{n} must be bit-identical to the naive loop"
                    );
                }
                for out in matmul_each_isa(&at.transpose(), &b) {
                    assert_eq!(
                        out, naive_t,
                        "{k}x{m}ᵀx{n} must be bit-identical to the naive transposed loop"
                    );
                }
            }
        }
    }

    #[test]
    fn side_by_side_products_equal_the_separate_ones_bit_for_bit() {
        // `X · [W_1 | … | W_m]`, the scoring of m models in one product:
        // column block j is `X · W_j` to the bit in every instantiation,
        // however the wider product tiles its columns. Shapes:
        // `sharded_1k`'s second level and cohorts (410 × 17, 32 and 4
        // models of 4 classes), Table I (1 124 × 65, 9 models of 10), a
        // reduction past the k-tile, one-column blocks.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, k, classes, models) in [
            (410, 17, 4, 32),
            (410, 17, 4, 4),
            (1_124, 65, 10, 9),
            (7, 300, 3, 5),
            (11, 2, 1, 33),
        ] {
            let x = dense_matrix(rows, k, 61);
            let ws: Vec<Matrix> = (0..models)
                .map(|j| dense_matrix(k, classes, 67 + j as u64))
                .collect();
            let mut side_by_side = Matrix::zeros(k, models * classes);
            for (j, w) in ws.iter().enumerate() {
                for r in 0..k {
                    side_by_side.row_mut(r)[j * classes..(j + 1) * classes]
                        .copy_from_slice(w.row(r));
                }
            }
            let products = matmul_each_isa(&x, &side_by_side);
            for (j, w) in ws.iter().enumerate() {
                for (product, alone) in products.iter().zip(matmul_each_isa(&x, w)) {
                    for r in 0..rows {
                        assert_eq!(
                            bits(&product.row(r)[j * classes..(j + 1) * classes]),
                            bits(alone.row(r)),
                            "{rows} x {k} x {classes}, model {j} of {models}, row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn class_major_epoch_products_bit_identical_across_wide_tiles() {
        // The trainer's two class-major products, `m` classes by `n`
        // columns over a `k`-long reduction, in every instantiation: `m`
        // on both sides of the 3- and 5-row tiles and of the pairs below
        // them, `n` on both sides of one and two 32-column tiles (and of
        // the 12- and 10-column ones) and at a Table I shard, `k` across
        // the k-tile cut.
        for m in [1, 4, 5, 6, 9, 10, 11] {
            for n in [31, 32, 33, 63, 64, 65, 500] {
                for k in [255, 256, 257, 500] {
                    // Logits: `Wᵀ · Xᵀ` against `(X · W)ᵀ`, `X` being
                    // `n × k` and `W` `k × m`.
                    let x = dense_matrix(n, k, 41);
                    let w = dense_matrix(k, m, 43);
                    let naive = x.matmul_naive(&w).transpose();
                    for out in matmul_each_isa(&w.transpose(), &x.transpose()) {
                        assert_eq!(out, naive, "Wᵀ·Xᵀ at {m}x{k}x{n}");
                    }
                    // Gradient: `Rᵀ · X` against `(Xᵀ · R)ᵀ`, the
                    // reduction running over `k` examples.
                    let x = dense_matrix(k, n, 47);
                    let r = dense_matrix(k, m, 53);
                    let naive = x.t_matmul_naive(&r).transpose();
                    for out in matmul_each_isa(&r.transpose(), &x) {
                        assert_eq!(out, naive, "Rᵀ·X at {m}x{k}x{n}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_dimension_products_are_well_defined() {
        // A zero inner dimension is a sum over zero terms: zeros of the
        // outer shape, not a panic or a garbage read.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        assert_eq!(a.matmul(&b), Matrix::zeros(3, 4));
        assert_eq!(
            a.transpose().matmul(&Matrix::zeros(3, 2)),
            Matrix::zeros(0, 2)
        );
        // Zero outer dimensions give empty results of the right shape.
        let e = Matrix::zeros(0, 5);
        assert_eq!(e.matmul(&Matrix::zeros(5, 2)).shape(), (0, 2));
        assert_eq!(
            e.transpose().matmul(&Matrix::zeros(0, 3)),
            Matrix::zeros(5, 3)
        );
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_inner_dim_mismatch_panics() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "matmul output shape mismatch")]
    fn matmul_into_wrong_output_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn matmul_into_overwrites_stale_contents() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        let mut out = Matrix::from_vec(1, 1, vec![999.0]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.as_slice(), &[11.0]);
        let mut tout = Matrix::from_vec(2, 1, vec![7.0, 7.0]);
        a.transpose()
            .matmul_into(&Matrix::from_vec(1, 1, vec![2.0]), &mut tout);
        assert_eq!(tout.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn shape_overflow_is_an_explicit_panic() {
        // Release-mode wrapping would otherwise size the buffer at
        // `usize::MAX * 2 mod 2^64` — a tiny allocation whose shape lies.
        let _ = Matrix::zeros(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn from_vec_shape_overflow_panics() {
        let _ = Matrix::from_vec(usize::MAX, 2, vec![0.0; 2]);
    }

    fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f64..10.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    proptest! {
        #[test]
        fn prop_matmul_associative(
            a in arb_matrix(3, 4), b in arb_matrix(4, 2), c in arb_matrix(2, 5)
        ) {
            let lhs = a.matmul(&b).matmul(&c);
            let rhs = a.matmul(&b.matmul(&c));
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_transpose_matmul_law(
            a in arb_matrix(3, 4), b in arb_matrix(4, 2)
        ) {
            // (AB)ᵀ = BᵀAᵀ
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_blocked_matmul_equals_naive_reference(
            m in 1usize..=9,
            k in 1usize..=300,
            n in 1usize..=24,
            seed in any::<u64>(),
        ) {
            // The oracle is the seed's naive loop, `Matrix::matmul_naive`;
            // equality is exact (bit-identical), not approximate. `k`
            // ranges past KC = 256 so the tile fold is exercised, `n`
            // over every last-tile width behind zero, one and two
            // full tiles.
            let a = dense_matrix(m, k, seed);
            let b = dense_matrix(k, n, seed ^ 0xabcd);
            let naive = a.matmul_naive(&b);
            for out in matmul_each_isa(&a, &b) {
                prop_assert_eq!(&out, &naive);
            }
        }

        #[test]
        fn prop_transposed_matmul_equals_naive_t_reference(
            rows in 1usize..=600,
            ac in 1usize..=9,
            n in 1usize..=17,
            seed in any::<u64>(),
        ) {
            // The gradient's spelling, `Xᵀ` materialized and sent
            // through the one GEMM, held to the naive transposed loop:
            // `rows` (the reduction dimension, an owner shard's
            // examples) folds in ascending order across up to three
            // k-tiles.
            let a = dense_matrix(rows, ac, seed);
            let b = dense_matrix(rows, n, seed ^ 0x1234);
            let naive = a.t_matmul_naive(&b);
            for out in matmul_each_isa(&a.transpose(), &b) {
                prop_assert_eq!(&out, &naive);
            }
        }

        #[test]
        fn prop_dot_symmetric(
            v in proptest::collection::vec(-10.0f64..10.0, 1..32)
        ) {
            let w: Vec<f64> = v.iter().rev().cloned().collect();
            prop_assert!((dot(&v, &w) - dot(&w, &v)).abs() < 1e-12);
        }
    }
}
