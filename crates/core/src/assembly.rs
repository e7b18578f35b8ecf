//! The per-context workspace for two-phase (resolve/write) stamping.
//!
//! The solvers assemble `J(x)` through a precompiled [`StampPlan`]:
//! resolve targets once per structure, then scatter values through the
//! slot table into a persistent CSR buffer every iteration — no triplet
//! allocation or sorting in the hot loop. Certification evaluates through
//! the same workspace: the warm path lends its device-only plan and
//! working buffer to `certify::Certifier`, which runs the plan's
//! limit-free pass into the buffer (every slot is rewritten by the next
//! solver evaluation). The triplet path (`Circuit::assemble_into` +
//! `Triplet::to_csr`) stays behind AC's small-signal matrix and as the
//! bitwise test oracle for the plan
//! (`crates/core/tests/assembly_identity.rs`, `tests/certify_oracle.rs`).

use rlpta_linalg::CsrMatrix;
use rlpta_mna::{BumpPlan, StampPlan};
use std::sync::Arc;

/// Per-solve-context assembly state, threaded through `newton_iterate`
/// alongside the LU workspace: the resolved plan (possibly shared from the
/// service plan cache), the persistent working CSR buffer it scatters
/// into, and the lazily-built Gmin-bump companion.
///
/// Like `LuWorkspace`, one instance serves a whole chain of solves on one
/// structure (PTA steps, continuation stages, sweep points): the plan
/// resolves once and every subsequent iteration is a pure write pass.
#[derive(Debug, Default)]
pub(crate) struct AssemblyWorkspace {
    plan: Option<Arc<StampPlan>>,
    /// Working values buffer over the plan's frozen pattern.
    matrix: Option<CsrMatrix>,
    /// Gmin-bump escalation state (pattern ∪ node diagonals), built on
    /// first singular factorization and reused after.
    bump: Option<(BumpPlan, CsrMatrix)>,
}

impl AssemblyWorkspace {
    /// An empty workspace: the plan resolves inside the first Newton run.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A workspace seeded with a cache-shared plan (the service warm
    /// path): the first Newton run skips stamp resolution entirely.
    pub(crate) fn with_plan(plan: Arc<StampPlan>) -> Self {
        Self {
            plan: Some(plan),
            matrix: None,
            bump: None,
        }
    }

    /// The resolved plan, if any (for cache write-back by the service).
    pub(crate) fn plan(&self) -> Option<&Arc<StampPlan>> {
        self.plan.as_ref()
    }

    /// Installs a freshly resolved plan, dropping buffers bound to any
    /// previous one.
    pub(crate) fn set_plan(&mut self, plan: Arc<StampPlan>) {
        self.plan = Some(plan);
        self.matrix = None;
        self.bump = None;
    }

    /// Drops a plan that no longer fits the circuit (dimension change).
    pub(crate) fn reset(&mut self) {
        self.plan = None;
        self.matrix = None;
        self.bump = None;
    }

    /// The plan plus its working matrix, split-borrowed from the
    /// workspace; the buffer is allocated on first use.
    ///
    /// # Panics
    ///
    /// Panics if no plan is installed.
    pub(crate) fn plan_and_matrix(&mut self) -> (&StampPlan, &mut CsrMatrix) {
        let plan = self
            .plan
            .as_deref()
            .expect("assembly workspace used before plan resolution");
        let matrix = self.matrix.get_or_insert_with(|| plan.new_matrix());
        (plan, matrix)
    }

    /// The Gmin-bump companion (built lazily) and the *base* working
    /// matrix, split-borrowed so the caller can scatter base → bumped.
    ///
    /// # Panics
    ///
    /// Panics if called before [`AssemblyWorkspace::plan_and_matrix`].
    pub(crate) fn bump_and_base(
        &mut self,
        num_nodes: usize,
    ) -> (&BumpPlan, &mut CsrMatrix, &CsrMatrix) {
        let plan = self
            .plan
            .as_ref()
            .expect("bump requested before plan resolution");
        if self.bump.is_none() {
            let bp = plan.bump_plan(num_nodes);
            let bm = bp.new_matrix();
            self.bump = Some((bp, bm));
        }
        let (bp, bm) = self.bump.as_mut().expect("bump state just built");
        let base = self
            .matrix
            .as_ref()
            .expect("bump requested before base assembly");
        (bp, bm, base)
    }
}
