//! Symbolic/numeric split of the Gilbert–Peierls factorization.
//!
//! A Newton–Raphson solve factorizes the same Jacobian *pattern* hundreds of
//! times with different values: the MNA stamping in `rlpta-mna` keeps
//! summed-to-zero entries structural, so the sparsity pattern is fixed across
//! iterations, PTA steps and sweep points of one circuit. The expensive part
//! of [`SparseLu::factorize`] that depends only on the pattern — the
//! per-column depth-first search over the graph of `L`, the topological
//! ordering, the pivot sequence and the fill-in pattern — can therefore be
//! computed once and replayed.
//!
//! [`SymbolicLu`] records that replayable state (KLU-style): the row/column
//! permutations `p`/`q` and the exact `L`/`U` pattern of a completed
//! factorization. [`SymbolicLu::refactorize`] then performs the numeric-only
//! left-looking pass inside the recorded pattern — no DFS, no pivot search —
//! and produces a [`SparseLu`] that is bit-identical to what the full
//! factorization would compute, at a fraction of the cost.
//!
//! Refactorization is *guarded*: if the new matrix has an entry outside the
//! recorded pattern (e.g. a Gmin bump added diagonal entries), or a recorded
//! pivot decays below [`SymbolicLu::REFACTOR_PIVOT_THRESHOLD`] of its
//! column maximum, it fails with [`LinalgError::PatternChanged`] and the
//! caller redoes the full factorization (which re-pivots). [`LuWorkspace`]
//! packages that retry policy: call [`LuWorkspace::factorize`] every
//! iteration and it transparently uses the cheap path when it can.
//!
//! [`SymbolicLu::factorize_fresh`] is the stricter sibling for callers that
//! need exactly what a fresh [`SparseLu::factorize`] returns (certification
//! grades the pivot growth and condition of *that* factorization): the same
//! replay loop, but each recorded pivot must be the row the fresh
//! factorization's threshold rule would pick on the new values, and any
//! doubt falls back to the fresh factorization itself.

use crate::{ColumnOrdering, CsrMatrix, LinalgError, SparseLu};
use std::sync::Arc;

const EMPTY: usize = usize::MAX;

/// FNV-1a over machine words, finished with an avalanche step. The
/// standard library's `DefaultHasher` is keyed per
/// [`std::collections::hash_map::RandomState`] instance, so its values
/// cannot serve as stable cache keys across processes; FNV is
/// deterministic, collision-resistant enough for sparsity patterns (the
/// caller additionally discriminates on dimension and entry count), and
/// needs no dependency. Public so structure-keyed caches above this crate
/// (e.g. `rlpta-core`'s service layer) can fold their own topology data
/// into the same stable key space as [`CsrMatrix::pattern_hash`].
///
/// Each `u64` folds in as one word — one xor and one multiply, not eight.
/// A word-wise multiply only carries information upward, so the low bits
/// of the running state see only the low bits of the input;
/// [`FnvHasher::finish`] therefore ends with an avalanche (MurmurHash3's
/// `fmix64`) so that every output bit depends on every input bit —
/// callers pick shards with `hash % shards`, i.e. from the low bits.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds one `u64` in as a single word.
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
    }

    /// Folds one machine word in (as `u64`, so the hash is width-stable).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a word slice in, element order significant.
    pub fn write_slice(&mut self, vs: &[usize]) {
        for &v in vs {
            self.write_usize(v);
        }
    }

    /// The accumulated hash, avalanched (see the type docs).
    pub fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl CsrMatrix {
    /// Deterministic 64-bit hash of the sparsity *structure* (dimensions,
    /// `row_ptr`, `col_indices`) — values do not contribute. Two matrices
    /// with identical structure hash identically whatever their entries,
    /// so the hash keys caches of structure-dependent state such as
    /// [`SymbolicLu`] scatter plans.
    pub fn pattern_hash(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write_usize(self.rows());
        h.write_usize(self.cols());
        h.write_slice(self.row_ptr());
        h.write_slice(self.col_indices());
        h.finish()
    }
}

/// The pattern half of a completed [`SparseLu`] factorization: permutations
/// plus `L`/`U` sparsity structure, with no numeric values.
///
/// Obtained from [`SparseLu::symbolic`]; consumed by
/// [`SymbolicLu::refactorize`]. Immutable and cheap to clone relative to a
/// full factorization (plain index vectors, no graph work).
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// `p[j]` = original row pivoted at step `j`.
    p: Vec<usize>,
    /// Column permutation: column `q[j]` of `A` eliminated at step `j`.
    q: Vec<usize>,
    /// Inverse of `p`: `pinv[orig_row]` = pivot position.
    pinv: Vec<usize>,
    /// Pattern of `L` by column (original row ids, strictly below pivot).
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    /// `pinv[l_rows[m]]` precomputed — the dense-workspace position every
    /// `L` entry updates, so the hot replay loop does no indirection.
    l_pos: Vec<usize>,
    /// Pattern of `U` by column (pivot positions `< j`), stored in a valid
    /// topological order for the left-looking triangular solve.
    u_ptr: Vec<usize>,
    u_rows: Vec<usize>,
    /// Fast replay plan for matrices structurally identical to the one the
    /// pattern was recorded from. [`SparseLu::factorize`] keeps exact zeros
    /// structural, so a pattern recorded from the factorization of `a`
    /// itself always validates; `None` is a defensive fallback to the
    /// guarded general path.
    plan: Option<ScatterPlan>,
}

/// Precomputed column-major traversal of the recorded `A` structure: where
/// every raw CSR value of `A` lands in the dense replay workspace. Valid
/// only while `A`'s structure matches the recorded `row_ptr`/`col_indices`
/// arrays exactly, which the replay verifies with two slice compares.
#[derive(Debug, Clone)]
struct ScatterPlan {
    a_row_ptr: Vec<usize>,
    a_col_indices: Vec<usize>,
    /// Per processing column `j`: entries `csc_ptr[j]..csc_ptr[j + 1]` of
    /// `src`/`dst`.
    csc_ptr: Vec<usize>,
    /// Index into `A.values()` of each entry, column-major order.
    src: Vec<usize>,
    /// Dense-workspace (pivot-position) destination of each entry.
    dst: Vec<usize>,
    /// Whether the recorded column order `q` is the one
    /// [`SparseLu::factorize`] computes for this structure (the ordering
    /// depends on the structure alone) — the precondition for
    /// [`SymbolicLu::factorize_fresh`] to replay at all.
    default_order: bool,
}

/// How a replay checks each recorded pivot against the new values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PivotRule {
    /// [`SymbolicLu::refactorize`]: the recorded pivot may have drifted
    /// from the fresh choice, as long as it stays above
    /// [`SymbolicLu::REFACTOR_PIVOT_THRESHOLD`] of its column maximum.
    Decay,
    /// [`SymbolicLu::factorize_fresh`]: the recorded pivot must be the row
    /// [`SparseLu::factorize`]'s threshold rule picks on these values.
    Fresh,
}

impl SparseLu {
    /// Extracts the reusable symbolic pattern of this factorization.
    ///
    /// `a` must be the matrix this factorization was computed from; its
    /// structure is recorded so later [`SymbolicLu::refactorize`] calls on
    /// structurally identical matrices can replay through a precomputed
    /// scatter plan with no per-entry pattern checks.
    ///
    /// # Panics
    ///
    /// Panics if `a` has different dimensions than the factorization.
    pub fn symbolic(&self, a: &CsrMatrix) -> SymbolicLu {
        assert_eq!(a.rows(), self.n, "pattern/matrix row mismatch");
        assert_eq!(a.cols(), self.n, "pattern/matrix column mismatch");
        let n = self.n;
        let mut pinv = vec![EMPTY; n];
        for (j, &row) in self.p.iter().enumerate() {
            pinv[row] = j;
        }
        let l_pos: Vec<usize> = self.l_rows.iter().map(|&r| pinv[r]).collect();
        let mut sym = SymbolicLu {
            n,
            p: self.p.clone(),
            q: self.q.clone(),
            pinv,
            l_ptr: self.l_ptr.clone(),
            l_rows: self.l_rows.clone(),
            l_pos,
            u_ptr: self.u_ptr.clone(),
            u_rows: self.u_rows.clone(),
            plan: None,
        };
        sym.plan = sym.build_plan(a);
        sym
    }
}

impl SymbolicLu {
    /// Relative pivot-decay tolerance for refactorization. The recorded
    /// pivot row is accepted while `|pivot| >= threshold * max_i |x_i|` over
    /// the not-yet-pivoted rows of the column; below that the recorded pivot
    /// sequence is considered numerically unsafe and the refactorization
    /// bails out so the caller can re-pivot via a full factorization. One
    /// decade looser than [`SparseLu::PIVOT_THRESHOLD`], since the recorded
    /// sequence was chosen against the threshold on a nearby matrix.
    pub const REFACTOR_PIVOT_THRESHOLD: f64 = 0.01;

    /// Dimension of the recorded system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Deterministic hash of the *input* structure this pattern was
    /// recorded from ([`CsrMatrix::pattern_hash`] of the original matrix),
    /// falling back to a hash of the `L`/`U` pattern when no scatter plan
    /// was recordable. Cross-run-stable cache key material: a matrix whose
    /// `pattern_hash` equals this value will (modulo deliberate hash
    /// collisions) take the exact-replay fast path.
    pub fn pattern_hash(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write_usize(self.n);
        match &self.plan {
            Some(plan) => {
                h.write_usize(self.n);
                h.write_slice(&plan.a_row_ptr);
                h.write_slice(&plan.a_col_indices);
            }
            None => {
                // No recorded input structure: key on the factorization
                // pattern itself (permutations + L/U structure).
                h.write_slice(&self.p);
                h.write_slice(&self.q);
                h.write_slice(&self.l_ptr);
                h.write_slice(&self.l_rows);
                h.write_slice(&self.u_ptr);
                h.write_slice(&self.u_rows);
            }
        }
        h.finish()
    }

    /// Whether `a` is structurally identical to the matrix this pattern was
    /// recorded from — the precondition for the no-checks exact replay.
    /// Matrices that fail this check can still [`SymbolicLu::refactorize`]
    /// through the guarded general path (structural *subsets* succeed
    /// there), but a cache layer should treat `false` as a pattern
    /// mismatch and record a fresh analysis rather than replay blind.
    pub fn compatible_with(&self, a: &CsrMatrix) -> bool {
        if a.rows() != self.n || a.cols() != self.n {
            return false;
        }
        match &self.plan {
            Some(plan) => {
                plan.a_row_ptr == a.row_ptr() && plan.a_col_indices == a.col_indices()
            }
            None => false,
        }
    }

    /// Approximate heap footprint in bytes (index vectors plus the scatter
    /// plan). Used by byte-budgeted caches to meter eviction; exactness is
    /// not required, only monotonicity in pattern size.
    pub fn approx_bytes(&self) -> usize {
        const W: usize = std::mem::size_of::<usize>();
        let own = (self.p.len()
            + self.q.len()
            + self.pinv.len()
            + self.l_ptr.len()
            + self.l_rows.len()
            + self.l_pos.len()
            + self.u_ptr.len()
            + self.u_rows.len())
            * W;
        let plan = self.plan.as_ref().map_or(0, |p| {
            (p.a_row_ptr.len() + p.a_col_indices.len() + p.csc_ptr.len() + p.src.len()
                + p.dst.len())
                * W
        });
        std::mem::size_of::<Self>() + own + plan
    }

    /// Numeric-only factorization of `a` inside the recorded pattern.
    ///
    /// Replays the recorded pivot sequence and fill pattern with the values
    /// of `a`; given the matrix the pattern was recorded from, the result is
    /// bit-identical to [`SparseLu::factorize`] (same operations in the same
    /// order) at a fraction of the cost.
    ///
    /// When `a` is structurally identical to the recorded matrix (two slice
    /// compares against the recorded `row_ptr`/`col_indices`), the replay
    /// runs through a precomputed scatter plan: no transpose, no per-entry
    /// pattern checks, no permutation lookups in the inner loop — only the
    /// numeric work and the pivot-decay guard. Otherwise (an entry dropped,
    /// or no plan was recordable) a guarded general replay checks every
    /// entry against the pattern.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] — `a` is not `n × n`.
    /// * [`LinalgError::PatternChanged`] — `a` has an entry outside the
    ///   recorded pattern, or a pivot decayed below
    ///   [`SymbolicLu::REFACTOR_PIVOT_THRESHOLD`] of its column maximum.
    ///   Recoverable: redo [`SparseLu::factorize`], which re-pivots.
    /// * [`LinalgError::Singular`] — only under the `faults` feature, via
    ///   the same seeded injection hook as the full factorization.
    pub fn refactorize(&self, a: &CsrMatrix) -> Result<SparseLu, LinalgError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("{}x{}", a.rows(), a.cols()),
                expected: format!("{n}x{n}", n = self.n),
            });
        }
        // Injected fault, mirroring `SparseLu::factorize_with`: the numeric
        // path must exercise the same recovery ladders as the full path.
        #[cfg(feature = "faults")]
        if crate::faults::fire_singular() {
            return Err(LinalgError::Singular {
                step: 0,
                pivot: 0.0,
            });
        }
        if let Some(plan) = &self.plan {
            if plan.a_row_ptr == a.row_ptr() && plan.a_col_indices == a.col_indices() {
                return self.replay_exact(a, plan, PivotRule::Decay);
            }
        }
        self.replay_general(a)
    }

    /// Factorizes `a` and returns **bitwise** what [`SparseLu::factorize`]
    /// returns — every factor, permutation and `max|A|`, or the same error
    /// — replaying the recorded pattern when that provably gives the same
    /// result.
    ///
    /// The replay runs only when `a` is structurally identical to the
    /// recorded matrix and the recorded column order is the default one.
    /// In each column it then checks that the recorded pivot is the row the
    /// fresh factorization's threshold rule ([`SparseLu::PIVOT_THRESHOLD`])
    /// would pick on these values: every candidate finite, the column not
    /// singular, and either the recorded pivot is the diagonal and within
    /// the threshold of the column maximum, or the diagonal misses the
    /// threshold and the recorded pivot is the strictly unique maximum (a
    /// tie would be broken by the fresh factorization's search order, which
    /// the replay does not reproduce). With the same pivots the fresh
    /// factorization computes the same patterns and performs the same
    /// operations in the same order. Any failed check falls back to
    /// [`SparseLu::factorize`].
    ///
    /// `self` is never modified: a workspace's recorded pattern, and so
    /// every later replay it performs, is unaffected.
    ///
    /// Under the `faults` feature this consumes exactly the one
    /// singular-pivot draw [`SparseLu::factorize`] consumes, on a replay
    /// and on a fallback alike.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::factorize`].
    pub fn factorize_fresh(&self, a: &CsrMatrix) -> Result<SparseLu, LinalgError> {
        if a.rows() != a.cols() {
            return SparseLu::factorize(a);
        }
        #[cfg(feature = "faults")]
        if crate::faults::fire_singular() {
            return Err(LinalgError::Singular {
                step: 0,
                pivot: 0.0,
            });
        }
        if let Some(plan) = &self.plan {
            if plan.default_order
                && plan.a_row_ptr == a.row_ptr()
                && plan.a_col_indices == a.col_indices()
            {
                if let Ok(lu) = self.replay_exact(a, plan, PivotRule::Fresh) {
                    return Ok(lu);
                }
            }
        }
        SparseLu::gilbert_peierls(a, ColumnOrdering::default())
    }

    /// An empty numeric shell over the recorded pattern, ready for a replay
    /// to fill in. `a` is the matrix about to be replayed; its largest entry
    /// seeds the pivot-growth denominator so replayed factorizations report
    /// [`SparseLu::pivot_growth`] just like full ones.
    fn empty_lu(&self, a: &CsrMatrix) -> SparseLu {
        SparseLu {
            n: self.n,
            l_ptr: self.l_ptr.clone(),
            l_rows: self.l_rows.clone(),
            l_vals: vec![0.0; self.l_rows.len()],
            u_ptr: self.u_ptr.clone(),
            u_rows: self.u_rows.clone(),
            u_vals: vec![0.0; self.u_rows.len()],
            u_diag: vec![0.0; self.n],
            p: self.p.clone(),
            q: self.q.clone(),
            max_abs_a: a
                .values()
                .iter()
                .fold(0.0f64, |m, &v| m.max(v.abs())),
            row_scale: None,
            col_scale: None,
        }
    }

    /// Checks the recorded pivot for column `j` under `rule`, then commits
    /// the pivot and the scaled `L` column.
    #[inline]
    fn commit_column(
        &self,
        lu: &mut SparseLu,
        x: &[f64],
        j: usize,
        ll: usize,
        lh: usize,
        rule: PivotRule,
    ) -> Result<(), LinalgError> {
        let pivot = x[j];
        let accepted = match rule {
            PivotRule::Decay => {
                let mut max_abs = pivot.abs();
                for k in ll..lh {
                    max_abs = max_abs.max(x[self.l_pos[k]].abs());
                }
                // NaN/Inf pivots and NaN column maxima fail the
                // comparisons.
                pivot.is_finite()
                    && pivot.abs() >= f64::MIN_POSITIVE
                    && pivot.abs() >= Self::REFACTOR_PIVOT_THRESHOLD * max_abs
            }
            PivotRule::Fresh => self.fresh_rule_picks_recorded(x, j, ll, lh),
        };
        if !accepted {
            return Err(LinalgError::PatternChanged { step: j });
        }
        lu.u_diag[j] = pivot;
        for k in ll..lh {
            lu.l_vals[k] = x[self.l_pos[k]] / pivot;
        }
        Ok(())
    }

    /// Whether [`SparseLu::factorize`]'s pivot search, run on column `j`'s
    /// candidates (the recorded pivot at position `j` and the `L` rows at
    /// `l_pos[ll..lh]` — exactly the rows it would find unpivoted), picks
    /// the recorded pivot. Conservative: `false` whenever the answer would
    /// depend on NaN handling, on a singular column or on how the search
    /// breaks ties.
    fn fresh_rule_picks_recorded(&self, x: &[f64], j: usize, ll: usize, lh: usize) -> bool {
        let pivot_abs = x[j].abs();
        if !pivot_abs.is_finite() {
            return false;
        }
        // Where the column's own row (the fresh rule's preferred pivot)
        // sits; it is a candidate only at position `j` or among the L rows.
        let diag_pos = self.pinv[self.q[j]];
        let mut diag_abs = 0.0f64;
        let mut others_max = 0.0f64;
        for k in ll..lh {
            let pos = self.l_pos[k];
            let v = x[pos].abs();
            if !v.is_finite() {
                return false;
            }
            others_max = others_max.max(v);
            if pos == diag_pos {
                diag_abs = v;
            }
        }
        let max_abs = pivot_abs.max(others_max);
        if max_abs < f64::MIN_POSITIVE {
            return false;
        }
        let threshold = SparseLu::PIVOT_THRESHOLD * max_abs;
        if diag_pos == j {
            pivot_abs >= threshold
        } else {
            diag_abs < threshold && pivot_abs > others_max
        }
    }

    /// The hot path: structure already verified equal to the recorded
    /// matrix, so scatter through the plan and run the bare numeric loop,
    /// checking each recorded pivot under `rule`.
    fn replay_exact(
        &self,
        a: &CsrMatrix,
        plan: &ScatterPlan,
        rule: PivotRule,
    ) -> Result<SparseLu, LinalgError> {
        let n = self.n;
        let vals = a.values();
        let mut lu = self.empty_lu(a);
        // Dense workspace indexed by *pivot position*.
        let mut x = vec![0.0; n];
        for j in 0..n {
            let ul = lu.u_ptr[j];
            let uh = lu.u_ptr[j + 1];
            let ll = lu.l_ptr[j];
            let lh = lu.l_ptr[j + 1];

            // Clear the recorded pattern of this column, then scatter
            // A(:, q[j]) through the precomputed positions.
            for k in ul..uh {
                x[lu.u_rows[k]] = 0.0;
            }
            x[j] = 0.0;
            for k in ll..lh {
                x[self.l_pos[k]] = 0.0;
            }
            for t in plan.csc_ptr[j]..plan.csc_ptr[j + 1] {
                x[plan.dst[t]] = vals[plan.src[t]];
            }

            // Numeric left-looking triangular solve: the recorded U entries
            // are stored in a valid topological order, so a linear sweep
            // replays the same floating-point operations as the full
            // factorization's DFS-ordered solve. The plan's closure check
            // guarantees every update lands inside the cleared pattern.
            for k in ul..uh {
                let pos = lu.u_rows[k];
                let xj = x[pos];
                lu.u_vals[k] = xj;
                if xj != 0.0 {
                    for m in lu.l_ptr[pos]..lu.l_ptr[pos + 1] {
                        x[self.l_pos[m]] -= lu.l_vals[m] * xj;
                    }
                }
            }

            self.commit_column(&mut lu, &x, j, ll, lh, rule)?;
        }
        Ok(lu)
    }

    /// The guarded path for matrices whose structure deviates from the
    /// recorded one (an entry dropped to structural zero, or no plan):
    /// every scatter and every update is checked against the pattern.
    fn replay_general(&self, a: &CsrMatrix) -> Result<SparseLu, LinalgError> {
        let n = self.n;
        let at = a.transpose();
        let mut lu = self.empty_lu(a);

        // Dense workspace indexed by *pivot position*, plus a per-column
        // stamp marking which positions belong to the recorded pattern.
        let mut x = vec![0.0; n];
        let mut mark = vec![EMPTY; n];

        for j in 0..n {
            let ul = lu.u_ptr[j];
            let uh = lu.u_ptr[j + 1];
            let ll = lu.l_ptr[j];
            let lh = lu.l_ptr[j + 1];

            // Mark and clear the recorded pattern of this column.
            for k in ul..uh {
                mark[lu.u_rows[k]] = j;
                x[lu.u_rows[k]] = 0.0;
            }
            mark[j] = j;
            x[j] = 0.0;
            for k in ll..lh {
                let pos = self.l_pos[k];
                mark[pos] = j;
                x[pos] = 0.0;
            }

            // Scatter A(:, q[j]); every entry must land inside the pattern.
            let (a_rows, a_vals) = at.row(self.q[j]);
            for (&r, &v) in a_rows.iter().zip(a_vals) {
                let pos = self.pinv[r];
                if mark[pos] != j {
                    return Err(LinalgError::PatternChanged { step: j });
                }
                x[pos] = v;
            }

            // Checked left-looking triangular solve (same operation order
            // as the exact replay and the full factorization).
            for k in ul..uh {
                let pos = lu.u_rows[k];
                let xj = x[pos];
                lu.u_vals[k] = xj;
                if xj != 0.0 {
                    for m in lu.l_ptr[pos]..lu.l_ptr[pos + 1] {
                        let target = self.l_pos[m];
                        if mark[target] != j {
                            // Update lands outside the recorded pattern —
                            // not representable, re-pivot from scratch.
                            return Err(LinalgError::PatternChanged { step: j });
                        }
                        x[target] -= lu.l_vals[m] * xj;
                    }
                }
            }

            self.commit_column(&mut lu, &x, j, ll, lh, PivotRule::Decay)?;
        }
        Ok(lu)
    }

    /// Builds the exact-structure replay plan: column-major traversal of
    /// `a`'s raw CSR entries with their workspace destinations. Returns
    /// `None` when the recorded pattern is not closed under the replay's
    /// scatters and updates; since [`SparseLu::factorize`] keeps exact
    /// zeros structural, that cannot happen for the matrix the pattern was
    /// recorded from, and `None` only defends against a caller passing a
    /// mismatched `a` — those replays take the guarded general path.
    fn build_plan(&self, a: &CsrMatrix) -> Option<ScatterPlan> {
        let n = self.n;
        let row_ptr = a.row_ptr();
        let col_indices = a.col_indices();
        // Bucket A's CSR entries by original column, preserving the
        // increasing-row order the transpose-based path scatters in.
        let mut col_entries: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for r in 0..n {
            for idx in row_ptr[r]..row_ptr[r + 1] {
                col_entries[col_indices[idx]].push((idx, r));
            }
        }
        let mut mark = vec![EMPTY; n];
        let mut csc_ptr = Vec::with_capacity(n + 1);
        let mut src = Vec::with_capacity(a.nnz());
        let mut dst = Vec::with_capacity(a.nnz());
        csc_ptr.push(0);
        for j in 0..n {
            for k in self.u_ptr[j]..self.u_ptr[j + 1] {
                mark[self.u_rows[k]] = j;
            }
            mark[j] = j;
            for k in self.l_ptr[j]..self.l_ptr[j + 1] {
                mark[self.l_pos[k]] = j;
            }
            // Every A entry of this column must land inside the pattern.
            for &(idx, r) in &col_entries[self.q[j]] {
                let pos = self.pinv[r];
                if mark[pos] != j {
                    return None;
                }
                src.push(idx);
                dst.push(pos);
            }
            csc_ptr.push(src.len());
            // Every update target of the triangular pass must land inside
            // the pattern *whatever the values*: validating the closure
            // here once lets the exact replay skip all per-entry checks.
            for k in self.u_ptr[j]..self.u_ptr[j + 1] {
                let pos = self.u_rows[k];
                for m in self.l_ptr[pos]..self.l_ptr[pos + 1] {
                    if mark[self.l_pos[m]] != j {
                        return None;
                    }
                }
            }
        }
        Some(ScatterPlan {
            a_row_ptr: row_ptr.to_vec(),
            a_col_indices: col_indices.to_vec(),
            csc_ptr,
            src,
            dst,
            default_order: self.q == ColumnOrdering::default().permutation(a),
        })
    }
}

/// Counters describing how a [`LuWorkspace`] serviced its factorization
/// requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LuStats {
    /// Full (symbolic + numeric) factorizations performed.
    pub full_factorizations: u64,
    /// Cheap numeric-only refactorizations performed.
    pub refactorizations: u64,
    /// Refactorization attempts that bailed out (pattern change or pivot
    /// decay) and fell back to a full factorization. Each fallback is also
    /// counted in `full_factorizations`.
    pub fallbacks: u64,
}

/// How a [`LuWorkspace`] serviced its most recent factorization request.
///
/// This is the telemetry hook consumed by `rlpta-core`: downstream solvers
/// read it after each [`LuWorkspace::factorize`] call to emit distinct
/// `LuFactorized` / `LuReplayed` events without re-deriving the decision
/// from [`LuStats`] deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuOp {
    /// A full symbolic + numeric factorization ran (first call, pattern
    /// change, or pivot-decay fallback).
    Full,
    /// The recorded scatter plan was replayed with a numeric-only pass.
    Replay,
}

/// A factorization cache for repeated solves on one matrix pattern.
///
/// Call [`LuWorkspace::factorize`] wherever [`SparseLu::factorize`] was
/// called in a loop: the first call does the full factorization and records
/// its [`SymbolicLu`]; subsequent calls replay the pattern with the cheap
/// numeric pass, transparently falling back to a full factorization (and
/// re-recording the pattern) when the matrix outgrows it.
///
/// The workspace is single-circuit state: reuse it across iterations, steps
/// and sweep points of one circuit, and use one workspace per thread — it is
/// `Send` but deliberately not shared.
///
/// # Example
///
/// ```
/// use rlpta_linalg::{LuWorkspace, Triplet};
///
/// # fn main() -> Result<(), rlpta_linalg::LinalgError> {
/// let mut ws = LuWorkspace::new();
/// for scale in [1.0, 2.0, 3.0] {
///     let mut t = Triplet::new(2, 2);
///     t.push(0, 0, 4.0 * scale);
///     t.push(0, 1, 1.0);
///     t.push(1, 0, 1.0);
///     t.push(1, 1, 3.0 * scale);
///     let lu = ws.factorize(&t.to_csr())?;
///     let _x = lu.solve(&[1.0, 2.0])?;
/// }
/// // One full factorization, two pattern replays.
/// assert_eq!(ws.stats().full_factorizations, 1);
/// assert_eq!(ws.stats().refactorizations, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    /// The recorded pattern; an `Arc` so a cache can seed workspaces with
    /// its entry and take the (possibly unchanged) pattern back without a
    /// deep copy either way.
    symbolic: Option<Arc<SymbolicLu>>,
    stats: LuStats,
    last_op: Option<LuOp>,
}

impl LuWorkspace {
    /// An empty workspace; the first [`LuWorkspace::factorize`] call records
    /// the pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-seeded with a previously recorded pattern — the
    /// cross-request reuse hook: a cache that kept the [`SymbolicLu`] of an
    /// earlier solve hands it to a fresh workspace so the *first*
    /// factorization of the new solve is already a cheap numeric replay.
    ///
    /// Safety against staleness is inherited from
    /// [`LuWorkspace::factorize`]: a seeded pattern that no longer matches
    /// the matrix fails the guarded replay and transparently falls back to
    /// a full, re-recorded factorization (visible as a `fallbacks` bump in
    /// [`LuWorkspace::stats`]) — a stale seed can cost one wasted attempt,
    /// never a wrong result.
    ///
    /// Accepts a shared `Arc<SymbolicLu>` (the cache's own entry — the
    /// workspace replays it in place and [`LuWorkspace::symbolic`] hands
    /// back the same `Arc` until a fallback re-records) or a plain
    /// [`SymbolicLu`].
    pub fn with_symbolic(symbolic: impl Into<Arc<SymbolicLu>>) -> Self {
        Self {
            symbolic: Some(symbolic.into()),
            stats: LuStats::default(),
            last_op: None,
        }
    }

    /// Replaces the recorded pattern in place (same semantics as
    /// [`LuWorkspace::with_symbolic`] for an existing workspace). Counters
    /// and `last_op` are preserved.
    pub fn preload(&mut self, symbolic: impl Into<Arc<SymbolicLu>>) {
        self.symbolic = Some(symbolic.into());
    }

    /// Factorizes `a`, reusing the recorded symbolic pattern when possible.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::factorize`]; [`LinalgError::PatternChanged`] is
    /// never surfaced (it triggers the internal fallback).
    pub fn factorize(&mut self, a: &CsrMatrix) -> Result<SparseLu, LinalgError> {
        if let Some(sym) = &self.symbolic {
            if sym.dim() == a.rows() && a.rows() == a.cols() {
                match sym.refactorize(a) {
                    Ok(lu) => {
                        self.stats.refactorizations += 1;
                        self.last_op = Some(LuOp::Replay);
                        return Ok(lu);
                    }
                    Err(LinalgError::PatternChanged { .. })
                    | Err(LinalgError::Singular { .. }) => {
                        // Pattern outgrown or pivot decayed (or an injected
                        // singular under the `faults` feature): re-pivot
                        // from scratch below.
                        self.stats.fallbacks += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        let lu = SparseLu::factorize(a)?;
        self.stats.full_factorizations += 1;
        self.last_op = Some(LuOp::Full);
        self.symbolic = Some(Arc::new(lu.symbolic(a)));
        Ok(lu)
    }

    /// How the most recent *successful* [`LuWorkspace::factorize`] call was
    /// serviced; `None` before the first success. Failed calls leave the
    /// previous value untouched.
    pub fn last_op(&self) -> Option<LuOp> {
        self.last_op
    }

    /// Drops the recorded pattern; the next call re-records it. Use when
    /// switching the workspace to a different circuit.
    pub fn reset(&mut self) {
        self.symbolic = None;
    }

    /// The recorded pattern, if any — the seeded `Arc` itself until a
    /// full factorization re-records it.
    pub fn symbolic(&self) -> Option<&Arc<SymbolicLu>> {
        self.symbolic.as_ref()
    }

    /// Usage counters.
    pub fn stats(&self) -> LuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplet;
    use rand::prelude::*;

    fn residual_inf(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(yi, bi)| (yi - bi).abs())
            .fold(0.0, f64::max)
    }

    fn random_system(rng: &mut StdRng, n: usize) -> (CsrMatrix, Vec<f64>) {
        let mut t = Triplet::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0 + rng.gen::<f64>());
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                t.push(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        let b = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        (t.to_csr(), b)
    }

    /// Same matrix, same values: the replay must be bit-identical to the
    /// full factorization (same operations in the same order).
    #[test]
    fn refactorize_is_bit_identical_on_same_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let n = rng.gen_range(3..40);
            let (a, b) = random_system(&mut rng, n);
            let full = SparseLu::factorize(&a).unwrap();
            let replay = full.symbolic(&a).refactorize(&a).unwrap();
            assert_eq!(full.solve(&b).unwrap(), replay.solve(&b).unwrap());
        }
    }

    #[test]
    fn refactorize_solves_perturbed_values() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let n = rng.gen_range(3..40);
            let (a, b) = random_system(&mut rng, n);
            let sym = SparseLu::factorize(&a).unwrap().symbolic(&a);
            // Same pattern, different values: rebuild with scaled entries.
            let mut t = Triplet::new(n, n);
            for (r, c, v) in a.iter() {
                t.push(r, c, v * rng.gen_range(0.5..2.0));
            }
            let a2 = t.to_csr();
            let lu = sym.refactorize(&a2).unwrap();
            let x = lu.solve(&b).unwrap();
            assert!(residual_inf(&a2, &x, &b) < 1e-8);
        }
    }

    #[test]
    fn entry_outside_pattern_is_rejected() {
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        let a = t.to_csr();
        let sym = SparseLu::factorize(&a).unwrap().symbolic(&a);
        // Add an off-diagonal entry the diagonal pattern cannot hold.
        t.push(2, 0, -1.0);
        assert!(matches!(
            sym.refactorize(&t.to_csr()),
            Err(LinalgError::PatternChanged { .. })
        ));
    }

    #[test]
    fn decayed_pivot_is_rejected() {
        // Recorded with a healthy diagonal, replayed with the (0,0) pivot
        // collapsed relative to the subdiagonal: the recorded pivot choice
        // is no longer within tolerance.
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 3.0);
        let a = t.to_csr();
        let sym = SparseLu::factorize(&a).unwrap().symbolic(&a);
        let mut t2 = Triplet::new(2, 2);
        t2.push(0, 0, 1e-9);
        t2.push(1, 0, 1.0);
        t2.push(0, 1, 1.0);
        t2.push(1, 1, 3.0);
        assert!(matches!(
            sym.refactorize(&t2.to_csr()),
            Err(LinalgError::PatternChanged { .. })
        ));
    }

    #[test]
    fn nan_entry_is_rejected_not_propagated() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 2.0);
        let a = t.to_csr();
        let sym = SparseLu::factorize(&a).unwrap().symbolic(&a);
        let mut t2 = Triplet::new(2, 2);
        t2.push(0, 0, f64::NAN);
        t2.push(1, 1, 2.0);
        assert!(matches!(
            sym.refactorize(&t2.to_csr()),
            Err(LinalgError::PatternChanged { .. })
        ));
    }

    #[test]
    fn refactorize_rejects_wrong_dimension() {
        let sym = SparseLu::factorize(&CsrMatrix::identity(3))
            .unwrap()
            .symbolic(&CsrMatrix::identity(3));
        assert!(matches!(
            sym.refactorize(&CsrMatrix::identity(4)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn workspace_replays_then_falls_back_on_growth() {
        let mut ws = LuWorkspace::new();
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        ws.factorize(&t.to_csr()).unwrap();
        ws.factorize(&t.to_csr()).unwrap();
        assert_eq!(ws.stats().full_factorizations, 1);
        assert_eq!(ws.stats().refactorizations, 1);
        // Grow the pattern (like a Gmin bump adding coupling): fallback.
        t.push(0, 2, -0.5);
        t.push(2, 0, -0.5);
        let lu = ws.factorize(&t.to_csr()).unwrap();
        assert_eq!(ws.stats().fallbacks, 1);
        assert_eq!(ws.stats().full_factorizations, 2);
        // The grown pattern is now the recorded one.
        ws.factorize(&t.to_csr()).unwrap();
        assert_eq!(ws.stats().refactorizations, 2);
        let x = lu.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn workspace_shrunk_pattern_still_replays() {
        // A value dropping to exactly zero keeps the entry structural in
        // Triplet, but even a truly absent entry is a subset of the
        // recorded pattern and must replay fine.
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 4.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        let mut ws = LuWorkspace::new();
        ws.factorize(&t.to_csr()).unwrap();
        let mut t2 = Triplet::new(2, 2);
        t2.push(0, 0, 4.0);
        t2.push(1, 1, 3.0);
        let lu = ws.factorize(&t2.to_csr()).unwrap();
        assert_eq!(ws.stats().refactorizations, 1);
        assert_eq!(lu.solve(&[4.0, 3.0]).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn workspace_reset_forgets_pattern() {
        let mut ws = LuWorkspace::new();
        ws.factorize(&CsrMatrix::identity(3)).unwrap();
        ws.reset();
        assert!(ws.symbolic().is_none());
        ws.factorize(&CsrMatrix::identity(3)).unwrap();
        assert_eq!(ws.stats().full_factorizations, 2);
    }

    #[test]
    fn workspace_handles_dimension_switch() {
        let mut ws = LuWorkspace::new();
        ws.factorize(&CsrMatrix::identity(3)).unwrap();
        // Different size: silently re-records rather than erroring.
        ws.factorize(&CsrMatrix::identity(5)).unwrap();
        assert_eq!(ws.stats().full_factorizations, 2);
        assert_eq!(ws.stats().fallbacks, 0);
    }

    #[test]
    fn workspace_surfaces_genuine_singularity() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let mut ws = LuWorkspace::new();
        assert!(matches!(
            ws.factorize(&t.to_csr()),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn pattern_hash_tracks_structure_not_values() {
        let mut rng = StdRng::seed_from_u64(17);
        let (a, _) = random_system(&mut rng, 12);
        // Same structure, different values: hash must agree.
        let mut t = Triplet::new(12, 12);
        for (r, c, v) in a.iter() {
            t.push(r, c, v * 3.5 + 1.0);
        }
        let scaled = t.to_csr();
        assert_eq!(a.pattern_hash(), scaled.pattern_hash());
        // Different structure: hash must differ. Grow by an entry that is
        // genuinely absent from the random pattern.
        let (gr, gc) = (0..12)
            .flat_map(|r| (0..12).map(move |c| (r, c)))
            .find(|&(r, c)| a.get(r, c) == 0.0 && !a.iter().any(|(ar, ac, _)| (ar, ac) == (r, c)))
            .expect("a 12x12 random system with ~48 entries has a hole");
        let mut t2 = Triplet::new(12, 12);
        for (r, c, v) in a.iter() {
            t2.push(r, c, v);
        }
        t2.push(gr, gc, -0.25);
        let grown = t2.to_csr();
        assert_ne!(a.pattern_hash(), grown.pattern_hash());
        // The recorded symbolic pattern keys on the same hash.
        let sym = SparseLu::factorize(&a).unwrap().symbolic(&a);
        assert_eq!(sym.pattern_hash(), sym.pattern_hash());
        assert!(sym.compatible_with(&a));
        assert!(sym.compatible_with(&scaled));
        assert!(!sym.compatible_with(&grown));
    }

    #[test]
    fn fnv_finish_spreads_high_bit_differences_into_low_bits() {
        // Inputs differing only above bit 32 must still land on every
        // `hash % 8` shard: without the avalanche the low bits of a
        // word-wise FNV see only the inputs' low bits, so all 64 would
        // share one shard.
        let mut shards = [0usize; 8];
        for i in 0..64u64 {
            let mut h = FnvHasher::new();
            h.write_u64(i << 40);
            shards[(h.finish() % 8) as usize] += 1;
        }
        assert!(shards.iter().all(|&n| n > 0), "{shards:?}");
        // Word order is significant.
        let fold = |vs: &[usize]| {
            let mut h = FnvHasher::new();
            h.write_slice(vs);
            h.finish()
        };
        assert_ne!(fold(&[1, 2]), fold(&[2, 1]));
    }

    #[test]
    fn approx_bytes_grows_with_pattern() {
        let small = {
            let a = CsrMatrix::identity(4);
            SparseLu::factorize(&a).unwrap().symbolic(&a)
        };
        let mut rng = StdRng::seed_from_u64(5);
        let (a, _) = random_system(&mut rng, 40);
        let big = SparseLu::factorize(&a).unwrap().symbolic(&a);
        assert!(small.approx_bytes() > 0);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn preseeded_workspace_replays_first_call() {
        let mut rng = StdRng::seed_from_u64(33);
        let (a, b) = random_system(&mut rng, 20);
        let sym = SparseLu::factorize(&a).unwrap().symbolic(&a);
        let mut ws = LuWorkspace::with_symbolic(sym);
        let lu = ws.factorize(&a).unwrap();
        assert_eq!(ws.stats().full_factorizations, 0);
        assert_eq!(ws.stats().refactorizations, 1);
        assert_eq!(ws.last_op(), Some(LuOp::Replay));
        // Bit-identical to an uncached full factorization.
        let cold = SparseLu::factorize(&a).unwrap();
        assert_eq!(lu.solve(&b).unwrap(), cold.solve(&b).unwrap());
    }

    #[test]
    fn stale_preseed_falls_back_to_full() {
        let a = CsrMatrix::identity(3);
        let sym = SparseLu::factorize(&a).unwrap().symbolic(&a);
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        t.push(0, 2, -1.0);
        t.push(2, 0, -1.0);
        let grown = t.to_csr();
        let mut ws = LuWorkspace::with_symbolic(sym);
        let lu = ws.factorize(&grown).unwrap();
        assert_eq!(ws.stats().fallbacks, 1);
        assert_eq!(ws.stats().full_factorizations, 1);
        assert_eq!(ws.last_op(), Some(LuOp::Full));
        let x = lu.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        // The grown pattern was re-recorded: the next call replays.
        ws.factorize(&grown).unwrap();
        assert_eq!(ws.stats().refactorizations, 1);
    }

    #[test]
    fn long_replay_sequence_stays_accurate() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 30;
        let (a, b) = random_system(&mut rng, n);
        let mut ws = LuWorkspace::new();
        for _ in 0..50 {
            let mut t = Triplet::new(n, n);
            for (r, c, v) in a.iter() {
                t.push(r, c, v * rng.gen_range(0.8..1.25));
            }
            let ai = t.to_csr();
            let x = ws.factorize(&ai).unwrap().solve(&b).unwrap();
            assert!(residual_inf(&ai, &x, &b) < 1e-8);
        }
        assert_eq!(ws.stats().full_factorizations, 1);
        assert_eq!(ws.stats().refactorizations, 49);
    }

    /// Bitwise equality of two factorizations: every factor field, the
    /// permutations, `max|A|` and the scalings, plus the two health
    /// figures certification reads off them.
    fn assert_same_lu(a: &CsrMatrix, fresh: &SparseLu, full: &SparseLu) -> Result<(), String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let scale = |v: &Option<Vec<f64>>| v.as_deref().map(bits);
        let same = fresh.n == full.n
            && fresh.l_ptr == full.l_ptr
            && fresh.l_rows == full.l_rows
            && bits(&fresh.l_vals) == bits(&full.l_vals)
            && fresh.u_ptr == full.u_ptr
            && fresh.u_rows == full.u_rows
            && bits(&fresh.u_vals) == bits(&full.u_vals)
            && bits(&fresh.u_diag) == bits(&full.u_diag)
            && fresh.p == full.p
            && fresh.q == full.q
            && fresh.max_abs_a.to_bits() == full.max_abs_a.to_bits()
            && scale(&fresh.row_scale) == scale(&full.row_scale)
            && scale(&fresh.col_scale) == scale(&full.col_scale)
            && fresh.pivot_growth().to_bits() == full.pivot_growth().to_bits();
        if !same {
            return Err(format!("factors differ:\n{fresh:?}\nvs\n{full:?}"));
        }
        let cond = |lu: &SparseLu| lu.cond_estimate(a).map(f64::to_bits);
        if cond(fresh) != cond(full) {
            return Err("condition estimates differ".into());
        }
        Ok(())
    }

    /// `factorize_fresh(a)` against `SparseLu::factorize(a)`: the same
    /// factorization bit for bit, or the same error. Returns whether the
    /// replay branch was taken.
    fn check_fresh(sym: &SymbolicLu, a: &CsrMatrix) -> Result<bool, String> {
        let replayed = sym.plan.as_ref().is_some_and(|plan| {
            plan.default_order
                && plan.a_row_ptr == a.row_ptr()
                && plan.a_col_indices == a.col_indices()
                && sym.replay_exact(a, plan, PivotRule::Fresh).is_ok()
        });
        match (sym.factorize_fresh(a), SparseLu::factorize(a)) {
            (Ok(fresh), Ok(full)) => assert_same_lu(a, &fresh, &full)?,
            (Err(e1), Err(e2)) if format!("{e1:?}") == format!("{e2:?}") => {}
            (got, want) => {
                return Err(format!(
                    "outcomes differ: {:?} vs {:?}",
                    got.err(),
                    want.err()
                ))
            }
        }
        Ok(replayed)
    }

    /// `(row, col, value)` triplets of one generated matrix.
    type Entries = Vec<(usize, usize, f64)>;

    fn from_entries(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut t = Triplet::new(n, n);
        for &(r, c, v) in entries {
            t.push(r, c, v);
        }
        t.to_csr()
    }

    /// One generated case: a matrix and a structurally identical copy with
    /// other values to record the symbolic pattern from. Values come from a
    /// small set, so candidates tie in magnitude and cancel to exact zeros;
    /// diagonals are often structurally zero; a few entries are NaN or
    /// ±Inf, and small systems of repeated values are often singular. The
    /// recorded pivots are stale wherever the two copies' values disagree.
    fn fresh_case() -> impl proptest::prelude::Strategy<Value = (usize, Entries, Entries)> {
        use proptest::prelude::*;
        fn value() -> impl Strategy<Value = f64> {
            (0usize..16, -4.0f64..4.0).prop_map(|(pick, v)| match pick {
                0 => 1.0,
                1 => -1.0,
                2 => 2.0,
                3 => -0.5,
                4 => 0.0,
                5 => 1e-12,
                6 => f64::NAN,
                7 => f64::INFINITY,
                _ => v,
            })
        }
        (2usize..=9).prop_flat_map(|n| {
            let entry = (0..n, 0..n, value(), value());
            // A transversal `(i, (i + shift) % n)` keeps the structure
            // nonsingular, so the recording copy factorizes; any nonzero
            // shift leaves diagonals structurally zero.
            let transversal = proptest::collection::vec((0usize..4, -4.0f64..4.0), n);
            (
                Just(n),
                proptest::collection::vec(entry, 0..(3 * n)),
                0..n,
                transversal,
            )
                .prop_map(|(n, entries, shift, transversal)| {
                    let mut a = Vec::new();
                    let mut recorded = Vec::new();
                    for (r, c, v, w) in entries {
                        a.push((r, c, v));
                        // The recording copy stays finite so it factorizes.
                        recorded.push((r, c, if w.is_finite() { w } else { 3.0 }));
                    }
                    for (i, (pick, v)) in transversal.into_iter().enumerate() {
                        let v: f64 = v;
                        let c = (i + shift) % n;
                        a.push((i, c, if pick == 0 { 1.0 } else { v }));
                        recorded.push((i, c, 4.0 + v.abs()));
                    }
                    (n, a, recorded)
                })
        })
    }

    thread_local! {
        /// `(replayed, fell back)` counts of the current thread's
        /// [`factorize_fresh_cases`] run.
        static FRESH_BRANCHES: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
    }

    proptest::proptest! {
        fn factorize_fresh_cases(case in fresh_case()) {
            let (n, entries, recorded) = case;
            let a = from_entries(n, &entries);
            let r = from_entries(n, &recorded);
            proptest::prop_assume!(a.same_pattern(&r));
            let Ok(lu) = SparseLu::factorize(&r) else {
                return Err(proptest::prelude::TestCaseError::reject("recording copy singular"));
            };
            let sym = lu.symbolic(&r);
            // A stale pattern from the perturbed copy, and the pattern of
            // `a` itself when it factorizes.
            let mut syms = vec![sym];
            if let Ok(own) = SparseLu::factorize(&a) {
                syms.push(own.symbolic(&a));
            }
            for sym in &syms {
                let replayed =
                    check_fresh(sym, &a).map_err(proptest::prelude::TestCaseError::fail)?;
                FRESH_BRANCHES.with(|b| {
                    let (hit, miss) = b.get();
                    b.set(if replayed { (hit + 1, miss) } else { (hit, miss + 1) });
                });
            }
        }
    }

    #[test]
    fn factorize_fresh_is_bitwise_factorize() {
        FRESH_BRANCHES.with(|b| b.set((0, 0)));
        factorize_fresh_cases();
        let (replayed, fell_back) = FRESH_BRANCHES.with(|b| b.get());
        assert!(replayed > 0, "replay branch never taken");
        assert!(fell_back > 0, "fallback branch never taken");
    }

    #[test]
    fn factorize_fresh_falls_back_on_each_failed_check() {
        // Recorded with the diagonal pivots of a dominant diagonal.
        let recorded = from_entries(2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        let sym = SparseLu::factorize(&recorded).unwrap().symbolic(&recorded);
        let cases: [(&str, [f64; 4], bool); 6] = [
            ("same pivots", [3.0, 1.0, 1.0, 5.0], true),
            // (0,0) below the 0.1 threshold: the fresh rule pivots on row
            // 1, but the decay guard of `refactorize` would still accept.
            ("stale pivot", [0.05, 1.0, 1.0, 4.0], false),
            // Diagonal just at the threshold: still the diagonal.
            ("threshold", [0.1, 1.0, 1.0, 4.0], true),
            ("NaN candidate", [4.0, 1.0, f64::NAN, 4.0], false),
            ("Inf pivot", [f64::INFINITY, 1.0, 1.0, 4.0], false),
            ("singular", [0.0, 1.0, 0.0, 4.0], false),
        ];
        for (name, [a00, a01, a10, a11], hit) in cases {
            let a = from_entries(2, &[(0, 0, a00), (0, 1, a01), (1, 0, a10), (1, 1, a11)]);
            assert_eq!(check_fresh(&sym, &a), Ok(hit), "{name}");
        }
        let stale = from_entries(2, &[(0, 0, 0.05), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        assert!(sym.refactorize(&stale).is_ok(), "decay guard accepts it");

        // Column 0 is eliminated first and its diagonal is structurally
        // zero, so the recorded pivot is the larger of rows 1 and 2: a
        // strictly larger candidate replays, an exact tie falls back.
        let with_row2 = |v: f64| {
            from_entries(
                3,
                &[
                    (1, 0, 3.0),
                    (2, 0, v),
                    (0, 1, 1.0),
                    (1, 1, 1.0),
                    (2, 1, 1.0),
                    (0, 2, 2.0),
                    (2, 2, 1.0),
                ],
            )
        };
        let recorded = with_row2(1.0);
        let lu = SparseLu::factorize(&recorded).unwrap();
        assert_eq!((lu.q[0], lu.p[0]), (0, 1));
        let sym = lu.symbolic(&recorded);
        assert_eq!(check_fresh(&sym, &with_row2(-2.5)), Ok(true));
        assert_eq!(check_fresh(&sym, &with_row2(-3.0)), Ok(false), "tie");
        assert_eq!(check_fresh(&sym, &with_row2(4.0)), Ok(false), "stale");

        // Another structure, another column order: no replay.
        assert_eq!(check_fresh(&sym, &CsrMatrix::identity(3)), Ok(false));
        let natural = SparseLu::factorize_with(&recorded, ColumnOrdering::Natural).unwrap();
        let sym = natural.symbolic(&recorded);
        assert!(sym.plan.is_some());
        if natural.q != ColumnOrdering::default().permutation(&recorded) {
            assert_eq!(check_fresh(&sym, &recorded), Ok(false));
        }
        assert!(matches!(
            sym.factorize_fresh(&Triplet::new(2, 3).to_csr()),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn factorize_fresh_leaves_the_recorded_pattern_alone() {
        let mut rng = StdRng::seed_from_u64(8);
        let (a, b) = random_system(&mut rng, 25);
        let mut ws = LuWorkspace::new();
        ws.factorize(&a).unwrap();
        let before = Arc::clone(ws.symbolic().unwrap());
        let replay_before = ws.factorize(&a).unwrap().solve(&b).unwrap();
        // A fresh factorization of wildly different values (every pivot
        // stale) through the workspace's pattern.
        let mut t = Triplet::new(25, 25);
        for (r, c, v) in a.iter() {
            t.push(r, c, if r == c { 1e-6 * v } else { v });
        }
        let other = t.to_csr();
        let fresh = ws.symbolic().unwrap().factorize_fresh(&other).unwrap();
        assert_same_lu(&other, &fresh, &SparseLu::factorize(&other).unwrap()).unwrap();
        assert!(Arc::ptr_eq(&before, ws.symbolic().unwrap()));
        assert_eq!(ws.factorize(&a).unwrap().solve(&b).unwrap(), replay_before);
        assert_eq!(ws.stats().full_factorizations, 1);
    }

    /// Under `faults`, `factorize_fresh` draws exactly once per call, like
    /// `SparseLu::factorize`: the same seeded plan fails the same calls of
    /// a mixed replay/fallback sequence, and the draw counter ends in the
    /// same place.
    #[cfg(feature = "faults")]
    #[test]
    fn factorize_fresh_consumes_one_singular_draw() {
        let recorded = from_entries(2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        let sym = SparseLu::factorize(&recorded).unwrap().symbolic(&recorded);
        let hit = from_entries(2, &[(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 5.0)]);
        let fallback = from_entries(2, &[(0, 0, 0.05), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        assert_eq!(check_fresh(&sym, &hit), Ok(true));
        assert_eq!(check_fresh(&sym, &fallback), Ok(false));
        let inputs: Vec<&CsrMatrix> = (0..48)
            .map(|i| if i % 3 == 0 { &fallback } else { &hit })
            .collect();
        let run = |f: &dyn Fn(&CsrMatrix) -> Result<SparseLu, LinalgError>| {
            crate::faults::arm_singular(0xC0FFEE, 3);
            let outcomes: Vec<bool> = inputs.iter().map(|a| f(a).is_ok()).collect();
            let next: Vec<bool> = (0..16).map(|_| crate::faults::fire_singular()).collect();
            crate::faults::disarm();
            (outcomes, next)
        };
        let fresh = run(&|a| sym.factorize_fresh(a));
        let full = run(&|a| SparseLu::factorize(a));
        assert_eq!(fresh, full);
        assert!(fresh.0.iter().any(|&ok| ok) && fresh.0.iter().any(|&ok| !ok));
    }
}
