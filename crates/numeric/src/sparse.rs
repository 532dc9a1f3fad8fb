//! Sparse matrix storage: COO builder and CSR compute format.

use crate::NumericError;

/// A coordinate-format (COO) sparse-matrix builder.
///
/// MNA stamping naturally produces duplicate `(row, col)` contributions;
/// duplicates are summed when compressing to CSR, so element stamps can be
/// pushed independently.
///
/// ```
/// use vpd_numeric::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 2.0); // duplicate: summed on compression
/// coo.push(1, 1, 4.0);
/// let csr = coo.to_csr();
/// assert_eq!(csr.matvec(&[1.0, 1.0]), vec![3.0, 4.0]);
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty builder of the given shape.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds a contribution at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index lies outside the declared shape — stamping out
    /// of bounds is a programming error, not a recoverable condition.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "sparse stamp ({row}, {col}) outside {}x{}",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Number of raw (pre-merge) entries.
    #[must_use]
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Declared number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Declared number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Records a structural entry at `(row, col)` with a placeholder
    /// value of `1.0`.
    ///
    /// Unlike [`CooMatrix::push`], a structural entry is never dropped,
    /// which makes the raw-entry sequence independent of the numeric
    /// values — the invariant [`CooMatrix::to_csr_with_pattern`] needs so
    /// that a later [`CsrMatrix::update_values`] can restamp coefficients
    /// that happen to be zero.
    ///
    /// # Panics
    ///
    /// Panics if the index lies outside the declared shape.
    pub fn push_structural(&mut self, row: usize, col: usize) {
        assert!(
            row < self.rows && col < self.cols,
            "sparse stamp ({row}, {col}) outside {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, 1.0));
    }

    /// Compresses to CSR, summing duplicate coordinates and dropping
    /// entries that cancel to exactly zero.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut values = Vec::with_capacity(sorted.len());
        let mut col_indices = Vec::with_capacity(sorted.len());
        let mut row_ptr = vec![0usize; self.rows + 1];

        let mut i = 0;
        while i < sorted.len() {
            let (r, c, mut v) = sorted[i];
            i += 1;
            while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                v += sorted[i].2;
                i += 1;
            }
            if v != 0.0 {
                values.push(v);
                col_indices.push(c);
                row_ptr[r + 1] += 1;
            }
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }

        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_indices,
            values,
        }
    }

    /// Compresses to CSR while recording the symbolic pattern, so later
    /// solves with the same sparsity can restamp values in place via
    /// [`CsrMatrix::update_values`] instead of re-sorting and merging.
    ///
    /// Unlike [`CooMatrix::to_csr`], entries whose duplicates sum to
    /// exactly zero are **kept** (stored as explicit zeros): the pattern
    /// must not depend on the numeric values, or a restamp with different
    /// coefficients would change the sparsity. Build the pattern with
    /// [`CooMatrix::push_structural`] so value-dependent dropping in
    /// [`CooMatrix::push`] cannot skew the raw-entry sequence either.
    ///
    /// The returned [`PatternCache`] maps each raw entry (in push order)
    /// to its merged CSR slot; values are accumulated in raw order both
    /// here and in `update_values`, so a restamp with the original values
    /// reproduces the original matrix bitwise.
    #[must_use]
    pub fn to_csr_with_pattern(&self) -> (CsrMatrix, PatternCache) {
        // Deterministic total order: (row, col, raw index) has no ties.
        // A counting sort by row leaves each row's raw indices ascending,
        // so a stable sort by column within the row completes the order.
        let mut row_start = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            row_start[r + 1] += 1;
        }
        for r in 0..self.rows {
            row_start[r + 1] += row_start[r];
        }
        let mut order = vec![0usize; self.entries.len()];
        let mut next = row_start.clone();
        for (k, &(r, _, _)) in self.entries.iter().enumerate() {
            order[next[r]] = k;
            next[r] += 1;
        }
        for r in 0..self.rows {
            order[row_start[r]..row_start[r + 1]].sort_by_key(|&k| self.entries[k].1);
        }

        let mut slot_of_raw = vec![0usize; self.entries.len()];
        let mut col_indices = Vec::with_capacity(self.entries.len());
        let mut row_ptr = vec![0usize; self.rows + 1];

        let mut i = 0;
        while i < order.len() {
            let (r, c, _) = self.entries[order[i]];
            let slot = col_indices.len();
            col_indices.push(c);
            row_ptr[r + 1] += 1;
            while i < order.len() && self.entries[order[i]].0 == r && self.entries[order[i]].1 == c
            {
                slot_of_raw[order[i]] = slot;
                i += 1;
            }
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }

        let mut csr = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            values: vec![0.0; col_indices.len()],
            col_indices,
        };
        let pattern = PatternCache {
            rows: self.rows,
            cols: self.cols,
            slot_of_raw,
            nnz: csr.values.len(),
        };
        // Accumulate in raw order — the same order update_values uses —
        // so compile-time and restamped values agree bitwise.
        for (k, &(_, _, v)) in self.entries.iter().enumerate() {
            csr.values[pattern.slot_of_raw[k]] += v;
        }
        (csr, pattern)
    }
}

/// The cached symbolic side of a [`CooMatrix`] → [`CsrMatrix`]
/// compression: a map from each raw COO entry to its merged CSR value
/// slot.
///
/// Splitting assembly into a symbolic compile (sort + merge, done once)
/// and a numeric restamp (scatter-add, done per solve) is what lets
/// repeated solves on a fixed topology — Monte-Carlo sampling, design
/// sweeps, placement annealing — skip the dominant assembly cost.
///
/// ```
/// use vpd_numeric::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push_structural(0, 0);
/// coo.push_structural(0, 0); // duplicate: same CSR slot
/// coo.push_structural(1, 1);
/// let (mut csr, pattern) = coo.to_csr_with_pattern();
/// csr.update_values(&pattern, &[1.0, 2.0, 4.0]).unwrap();
/// assert_eq!(csr.matvec(&[1.0, 1.0]), vec![3.0, 4.0]);
/// csr.update_values(&pattern, &[0.5, 0.5, 9.0]).unwrap();
/// assert_eq!(csr.matvec(&[1.0, 1.0]), vec![1.0, 9.0]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternCache {
    rows: usize,
    cols: usize,
    slot_of_raw: Vec<usize>,
    nnz: usize,
}

impl PatternCache {
    /// Number of raw COO entries the pattern was compiled from — the
    /// length [`CsrMatrix::update_values`] expects.
    #[must_use]
    pub fn raw_len(&self) -> usize {
        self.slot_of_raw.len()
    }

    /// Number of merged CSR slots.
    #[must_use]
    pub const fn nnz(&self) -> usize {
        self.nnz
    }
}

/// A compressed-sparse-row (CSR) matrix.
///
/// Produced from a [`CooMatrix`]; immutable once built. Supports the
/// operations iterative solvers need: `matvec`, diagonal extraction, and
/// row iteration.
#[derive(Clone, PartialEq, Debug)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    #[must_use]
    pub const fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub const fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Matrix–vector product into a caller-provided buffer
    /// ([C-CALLER-CONTROL]); the hot path of conjugate gradient.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec input dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output dimension mismatch");
        for (w, yr) in self.row_ptr.windows(2).zip(y) {
            *yr = self.span_dot(w[0], w[1], x);
        }
    }

    /// One row of `A·x`: the stored entries `start..end` in CSR order,
    /// summed from `0.0`. Both product kernels go through it, so they
    /// agree bitwise.
    #[inline]
    fn span_dot(&self, start: usize, end: usize, x: &[f64]) -> f64 {
        let mut sum = 0.0;
        for (&v, &c) in self.values[start..end]
            .iter()
            .zip(&self.col_indices[start..end])
        {
            sum += v * x[c];
        }
        sum
    }

    /// `y = A·x` for square `A`, returning `xᵀy` summed row by row —
    /// the same order and start as `vector::dot(x, y)`. Pass 1 of the
    /// fused CG iteration.
    pub(crate) fn matvec_dot_into(&self, x: &[f64], y: &mut [f64]) -> f64 {
        assert!(
            x.len() == self.cols && y.len() == self.rows && self.rows == self.cols,
            "matvec_dot dimension mismatch"
        );
        let mut xty = crate::vector::SUM_ZERO;
        for ((w, yr), &xr) in self.row_ptr.windows(2).zip(y.iter_mut()).zip(x) {
            let sum = self.span_dot(w[0], w[1], x);
            *yr = sum;
            xty += xr * sum;
        }
        xty
    }

    /// Replaces the stored values by scatter-adding `raw_values` through
    /// a [`PatternCache`], without touching the symbolic structure.
    ///
    /// `raw_values[k]` is the value of the `k`-th raw COO entry (in the
    /// push order of the builder the pattern was compiled from);
    /// duplicates accumulate into their shared slot in that same order,
    /// so restamping the original values reproduces the original matrix
    /// bitwise. This is the numeric half of assembly: O(nnz) with no
    /// sort, no merge, and no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the pattern was
    /// compiled for a different shape or entry count than this matrix.
    pub fn update_values(
        &mut self,
        pattern: &PatternCache,
        raw_values: &[f64],
    ) -> Result<(), NumericError> {
        if pattern.rows != self.rows
            || pattern.cols != self.cols
            || pattern.nnz != self.values.len()
        {
            return Err(NumericError::DimensionMismatch {
                expected: format!(
                    "pattern for {}x{} with {} slots",
                    self.rows,
                    self.cols,
                    self.values.len()
                ),
                found: format!(
                    "pattern for {}x{} with {} slots",
                    pattern.rows, pattern.cols, pattern.nnz
                ),
            });
        }
        if raw_values.len() != pattern.slot_of_raw.len() {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{} raw values", pattern.slot_of_raw.len()),
                found: format!("{} raw values", raw_values.len()),
            });
        }
        self.values.fill(0.0);
        for (slot, v) in pattern.slot_of_raw.iter().zip(raw_values) {
            self.values[*slot] += v;
        }
        Ok(())
    }

    /// The main diagonal (zero where no entry is stored); the Jacobi
    /// preconditioner.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.rows.min(self.cols)];
        self.diagonal_into(&mut d);
        d
    }

    /// Writes the main diagonal into a caller-provided buffer
    /// ([C-CALLER-CONTROL]) — the allocation-free path reused solvers
    /// take each restamp.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != min(rows, cols)`.
    pub fn diagonal_into(&self, d: &mut [f64]) {
        assert_eq!(
            d.len(),
            self.rows.min(self.cols),
            "diagonal buffer dimension mismatch"
        );
        d.fill(0.0);
        for r in 0..self.rows.min(self.cols) {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.col_indices[k] == r {
                    d[r] = self.values[k];
                }
            }
        }
    }

    /// The stored non-zero values in CSR order.
    ///
    /// Exposed so plan layers can fingerprint the numeric state of a
    /// matrix (e.g. to skip a refactorization when a restamp reproduced
    /// the previous values bitwise).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The symmetric permutation `P·A·Pᵀ`: returns `B` with
    /// `B[i][j] = A[perm[i]][perm[j]]`.
    ///
    /// `perm` maps new indices to old (`perm[new] = old`) — the
    /// convention fill-reducing orderings produce. Column indices of the
    /// result are sorted within each row, so the output is a valid CSR
    /// matrix regardless of how `perm` scrambles them.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the matrix is not
    /// square or `perm` is not a permutation of `0..rows`.
    pub fn permuted(&self, perm: &[usize]) -> Result<CsrMatrix, NumericError> {
        let n = self.rows;
        if self.cols != n {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        if perm.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("permutation of length {n}"),
                found: format!("length {}", perm.len()),
            });
        }
        // Invert while checking that every old index appears exactly once.
        let mut iperm = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n || iperm[old] != usize::MAX {
                return Err(NumericError::DimensionMismatch {
                    expected: format!("a permutation of 0..{n}"),
                    found: format!("duplicate or out-of-range index {old}"),
                });
            }
            iperm[old] = new;
        }

        let mut row_ptr = vec![0usize; n + 1];
        for new_row in 0..n {
            let old = perm[new_row];
            row_ptr[new_row + 1] = row_ptr[new_row] + (self.row_ptr[old + 1] - self.row_ptr[old]);
        }
        let nnz = row_ptr[n];
        let mut col_indices = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for new_row in 0..n {
            scratch.clear();
            scratch.extend(self.row_entries(perm[new_row]).map(|(c, v)| (iperm[c], v)));
            // Distinct old columns map to distinct new columns, so sorting
            // by the new column alone is a deterministic total order.
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let base = row_ptr[new_row];
            for (k, &(c, v)) in scratch.iter().enumerate() {
                col_indices[base + k] = c;
                values[base + k] = v;
            }
        }
        Ok(CsrMatrix {
            rows: n,
            cols: n,
            row_ptr,
            col_indices,
            values,
        })
    }

    /// Entry lookup (O(row nnz)).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        if row >= self.rows {
            return 0.0;
        }
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            if self.col_indices[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// Iterates the stored entries of one row as `(col, value)` pairs.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        (start..end).map(move |k| (self.col_indices[k], self.values[k]))
    }

    /// Maximum absolute asymmetry over stored entries (0 for symmetric).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the matrix is not
    /// square.
    pub fn asymmetry(&self) -> Result<f64, NumericError> {
        if self.rows != self.cols {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", self.rows, self.cols),
            });
        }
        let mut worst: f64 = 0.0;
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                worst = worst.max((v - self.get(c, r)).abs());
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based pattern assembly `to_csr_with_pattern` replaced:
    /// one comparison sort of raw indices by `(row, col, raw index)`.
    /// Kept as the oracle the counting-sort version must match bitwise.
    fn reference_csr_with_pattern(coo: &CooMatrix) -> (CsrMatrix, PatternCache) {
        let entries = &coo.entries;
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_unstable_by_key(|&k| (entries[k].0, entries[k].1, k));

        let mut slot_of_raw = vec![0usize; entries.len()];
        let mut col_indices = Vec::new();
        let mut row_ptr = vec![0usize; coo.rows + 1];
        let mut i = 0;
        while i < order.len() {
            let (r, c, _) = entries[order[i]];
            let slot = col_indices.len();
            col_indices.push(c);
            row_ptr[r + 1] += 1;
            while i < order.len() && entries[order[i]].0 == r && entries[order[i]].1 == c {
                slot_of_raw[order[i]] = slot;
                i += 1;
            }
        }
        for r in 0..coo.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut values = vec![0.0; col_indices.len()];
        for (k, &(_, _, v)) in entries.iter().enumerate() {
            values[slot_of_raw[k]] += v;
        }
        let nnz = values.len();
        let csr = CsrMatrix {
            rows: coo.rows,
            cols: coo.cols,
            row_ptr,
            col_indices,
            values,
        };
        let pattern = PatternCache {
            rows: coo.rows,
            cols: coo.cols,
            slot_of_raw,
            nnz,
        };
        (csr, pattern)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Counting-sort pattern assembly reproduces the sort-based
        /// oracle exactly: same row pointers, columns, slot map, and
        /// value bits, on inputs with duplicates, empty rows, explicit
        /// zeros and duplicates that cancel to zero.
        #[test]
        fn prop_pattern_matches_sort_based_oracle(
            rows in 1usize..12,
            cols in 1usize..12,
            coords in proptest::collection::vec(0usize..144, 0..96),
            picks in proptest::collection::vec(0usize..6, 96),
            smooth in proptest::collection::vec(-4.0_f64..4.0, 96),
        ) {
            // Picks 0..5 draw from a small set so exact zeros and
            // cancelling duplicates are common; pick 5 is a generic float.
            const SET: [f64; 5] = [0.0, 1.5, -1.5, 0.25, -3.0];
            let entries = coords
                .iter()
                .enumerate()
                .map(|(k, &rc)| {
                    let v = if picks[k] < SET.len() { SET[picks[k]] } else { smooth[k] };
                    (rc / cols % rows, rc % cols, v)
                })
                .collect();
            let coo = CooMatrix { rows, cols, entries };

            let (csr, pattern) = coo.to_csr_with_pattern();
            let (want_csr, want_pattern) = reference_csr_with_pattern(&coo);
            prop_assert_eq!(&csr.row_ptr, &want_csr.row_ptr);
            prop_assert_eq!(&csr.col_indices, &want_csr.col_indices);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&csr.values), bits(&want_csr.values));
            prop_assert_eq!(pattern, want_pattern);
        }
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 1.5);
        coo.push(1, 0, 2.5);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(1, 0), 4.0);
    }

    #[test]
    fn cancelling_entries_are_dropped() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 3.0);
        coo.push(0, 0, -3.0);
        assert_eq!(coo.to_csr().nnz(), 0);
    }

    #[test]
    fn zero_pushes_are_ignored() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.0);
        assert_eq!(coo.raw_len(), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_stamp_panics() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let mut coo = CooMatrix::new(3, 3);
        // Tridiagonal Laplacian-ish
        for i in 0..3 {
            coo.push(i, i, 2.0);
        }
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.matvec(&[1.0, 2.0, 3.0]), vec![0.0, 0.0, 4.0]);
        assert_eq!(csr.asymmetry().unwrap(), 0.0);
    }

    #[test]
    fn diagonal_extraction() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 5.0);
        coo.push(1, 0, 7.0); // off-diagonal only on row 1
        let d = coo.to_csr().diagonal();
        assert_eq!(d, vec![5.0, 0.0]);
    }

    #[test]
    fn get_missing_entry_is_zero() {
        let coo = CooMatrix::new(2, 2);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 1), 0.0);
        assert_eq!(csr.get(9, 9), 0.0);
    }

    #[test]
    fn asymmetry_detects() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        let a = coo.to_csr().asymmetry().unwrap();
        assert_eq!(a, 1.0);
    }

    #[test]
    fn pattern_restamp_matches_fresh_assembly() {
        // Build the same tridiagonal matrix twice: once merged fresh,
        // once by restamping a structural pattern.
        let coords = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1), (2, 2)];
        let vals = [2.0, -1.0, -1.0, 1.5, 0.5, 3.0];

        let mut fresh = CooMatrix::new(3, 3);
        for (&(r, c), &v) in coords.iter().zip(&vals) {
            fresh.push(r, c, v);
        }
        let want = fresh.to_csr();

        let mut structural = CooMatrix::new(3, 3);
        for &(r, c) in &coords {
            structural.push_structural(r, c);
        }
        let (mut csr, pattern) = structural.to_csr_with_pattern();
        assert_eq!(pattern.raw_len(), coords.len());
        csr.update_values(&pattern, &vals).unwrap();

        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(csr.get(r, c), want.get(r, c), "({r},{c})");
            }
        }
    }

    #[test]
    fn pattern_keeps_zero_valued_slots() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push_structural(0, 0);
        coo.push_structural(1, 1);
        let (mut csr, pattern) = coo.to_csr_with_pattern();
        csr.update_values(&pattern, &[0.0, 4.0]).unwrap();
        // The zero is stored explicitly: the pattern never shrinks.
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 0.0);
        assert_eq!(csr.get(1, 1), 4.0);
        // And a later restamp can revive it.
        csr.update_values(&pattern, &[7.0, 4.0]).unwrap();
        assert_eq!(csr.get(0, 0), 7.0);
    }

    #[test]
    fn restamp_is_bitwise_repeatable() {
        let mut coo = CooMatrix::new(2, 2);
        for _ in 0..3 {
            coo.push_structural(0, 0); // three duplicates, one slot
        }
        let (mut csr, pattern) = coo.to_csr_with_pattern();
        let vals = [0.1, 0.2, 0.3];
        csr.update_values(&pattern, &vals).unwrap();
        let first = csr.get(0, 0);
        csr.update_values(&pattern, &vals).unwrap();
        assert_eq!(csr.get(0, 0).to_bits(), first.to_bits());
    }

    #[test]
    fn update_values_rejects_wrong_lengths() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push_structural(0, 0);
        let (mut csr, pattern) = coo.to_csr_with_pattern();
        assert!(csr.update_values(&pattern, &[1.0, 2.0]).is_err());

        let mut other = CooMatrix::new(2, 2);
        other.push_structural(0, 0);
        other.push_structural(1, 1);
        let (_, wrong_pattern) = other.to_csr_with_pattern();
        assert!(csr.update_values(&wrong_pattern, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn diagonal_into_matches_diagonal() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 5.0);
        coo.push(2, 2, -1.0);
        coo.push(1, 0, 7.0);
        let csr = coo.to_csr();
        let mut d = vec![9.0; 3];
        csr.diagonal_into(&mut d);
        assert_eq!(d, csr.diagonal());
    }

    #[test]
    fn permuted_reverses_a_chain() {
        // 3-node chain, reversed: entry (0,1) must land at (2,1).
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0 + i as f64);
        }
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 2, -0.5);
        coo.push(2, 1, -0.5);
        let a = coo.to_csr();
        let p = [2usize, 1, 0];
        let b = a.permuted(&p).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(i, j), a.get(p[i], p[j]), "({i},{j})");
            }
        }
        assert_eq!(b.nnz(), a.nnz());
        assert_eq!(b.asymmetry().unwrap(), 0.0);
    }

    #[test]
    fn permuted_rejects_bad_permutations() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(a.permuted(&[0]).is_err(), "wrong length");
        assert!(a.permuted(&[0, 2]).is_err(), "out of range");
        assert!(a.permuted(&[1, 1]).is_err(), "duplicate");
        let mut rect = CooMatrix::new(2, 3);
        rect.push(0, 0, 1.0);
        assert!(rect.to_csr().permuted(&[0, 1]).is_err(), "not square");
    }

    #[test]
    fn empty_rows_have_empty_ranges() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(2, 2, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row_entries(0).count(), 0);
        assert_eq!(csr.row_entries(1).count(), 0);
        assert_eq!(csr.row_entries(2).count(), 1);
    }
}
