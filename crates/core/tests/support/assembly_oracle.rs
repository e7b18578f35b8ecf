//! Plan≡triplet assembly oracle, shared by the assembly identity tests.
//!
//! `Circuit::assemble_into` followed by `Triplet::to_csr` is the reference
//! every `StampPlan::eval_into` pass must reproduce **bitwise**: the same
//! Jacobian pattern and values, the same residual, the same limiter state
//! left behind, and the same finiteness verdict (`Triplet::all_finite` on
//! the reference side). The Gmin-bump escalation `newton_iterate` falls
//! back to on a singular factorization is compared too: `BumpPlan` at
//! every level against cumulative diagonal pushes on the triplet.

use rlpta_devices::{EvalCtx, Stamper};
use rlpta_linalg::{CsrMatrix, Triplet};
use rlpta_mna::{BumpPlan, Circuit, StampPlan};

/// A solver extra-stamp hook: `(x, stamper)`, pushing a fixed target
/// sequence whose values may depend on `x`.
pub type Hook<'a> = dyn FnMut(&[f64], &mut Stamper<'_>) + 'a;

/// The hook of solvers without extra stamps.
pub fn no_hook(_: &[f64], _: &mut Stamper<'_>) {}

/// The Gmin shunt `newton_iterate` adds at bump level `level` (1..=3).
fn gshunt(level: i32) -> f64 {
    1e-9 * 100f64.powi(level)
}

/// One assembled Newton system and what assembly left behind.
pub struct Assembled {
    /// `J(x)` over the frozen pattern.
    pub matrix: CsrMatrix,
    /// `J(x)` after bump levels 1, 2 and 3, cumulatively.
    pub bumped: Vec<CsrMatrix>,
    /// `F(x)`.
    pub residual: Vec<f64>,
    /// Limiter state after the evaluation.
    pub state: Vec<f64>,
    /// Whether every raw Jacobian stamp was finite.
    pub finite: bool,
}

/// The reference path: triplet pushes, then sort/dedup in `to_csr`.
pub fn triplet_assemble(
    circuit: &Circuit,
    ctx: &EvalCtx<'_>,
    state: &[f64],
    hook: &mut Hook<'_>,
) -> Assembled {
    let dim = circuit.dim();
    let mut jac = Triplet::new(dim, dim);
    let mut residual = vec![0.0; dim];
    let mut state = state.to_vec();
    circuit.assemble_into(ctx, &mut jac, &mut residual, &mut state);
    hook(ctx.x, &mut Stamper::new(&mut jac, &mut residual));
    let finite = jac.all_finite();
    let matrix = jac.to_csr();
    let bumped = (1..=3)
        .map(|level| {
            for i in 0..circuit.num_nodes() {
                jac.push(i, i, gshunt(level));
            }
            jac.to_csr()
        })
        .collect();
    Assembled {
        matrix,
        bumped,
        residual,
        state,
        finite,
    }
}

/// The production path's per-structure buffers: the plan (resolved with
/// the hook, as `newton_iterate` does), its working matrix and residual
/// and the bump companion, all reused across evaluations.
pub struct PlanSide {
    plan: StampPlan,
    matrix: CsrMatrix,
    residual: Vec<f64>,
    bump: BumpPlan,
    bumped: CsrMatrix,
}

impl PlanSide {
    /// Resolves the plan at `x = 0` with `hook` in declare mode.
    pub fn resolve(circuit: &Circuit, hook: &mut Hook<'_>) -> Self {
        let x0 = vec![0.0; circuit.dim()];
        let plan = StampPlan::resolve(circuit, &mut |st| hook(&x0, st));
        let matrix = plan.new_matrix();
        let bump = plan.bump_plan(circuit.num_nodes());
        let bumped = bump.new_matrix();
        Self {
            plan,
            matrix,
            residual: vec![0.0; circuit.dim()],
            bump,
            bumped,
        }
    }

    /// One write pass through the plan, then the bump levels.
    pub fn assemble(
        &mut self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        state: &[f64],
        hook: &mut Hook<'_>,
    ) -> Assembled {
        let mut state = state.to_vec();
        let finite = self.plan.eval_into(
            circuit,
            ctx,
            &mut self.matrix,
            &mut self.residual,
            &mut state,
            &mut |st| hook(ctx.x, st),
        );
        self.bump.scatter_base(&self.matrix, &mut self.bumped);
        let bumped = (1..=3)
            .map(|level| {
                self.bump.add_diag(&mut self.bumped, gshunt(level));
                self.bumped.clone()
            })
            .collect();
        Assembled {
            matrix: self.matrix.clone(),
            bumped,
            residual: self.residual.clone(),
            state,
            finite,
        }
    }
}

fn assert_matrix_bits(reference: &CsrMatrix, plan: &CsrMatrix, what: &str) {
    assert!(reference.same_pattern(plan), "{what}: pattern differs");
    for (k, (a, b)) in reference.values().iter().zip(plan.values()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: slot {k}: {a:?} vs {b:?}");
    }
}

fn assert_vec_bits(reference: &[f64], plan: &[f64], what: &str) {
    assert_eq!(reference.len(), plan.len(), "{what}: length differs");
    for (i, (a, b)) in reference.iter().zip(plan).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}[{i}]: {a:?} vs {b:?}");
    }
}

/// Asserts the plan side reproduced the reference bit for bit; `label`
/// names the circuit and point in the failure message.
pub fn assert_bit_identical(reference: &Assembled, plan: &Assembled, label: &str) {
    assert_eq!(reference.finite, plan.finite, "{label}: finiteness flag");
    assert_matrix_bits(
        &reference.matrix,
        &plan.matrix,
        &format!("{label}: jacobian"),
    );
    for (level, (a, b)) in reference.bumped.iter().zip(&plan.bumped).enumerate() {
        assert_matrix_bits(a, b, &format!("{label}: bump level {}", level + 1));
    }
    assert_vec_bits(
        &reference.residual,
        &plan.residual,
        &format!("{label}: residual"),
    );
    assert_vec_bits(
        &reference.state,
        &plan.state,
        &format!("{label}: limiter state"),
    );
}

/// Assembles at `ctx` from `state` through both paths and asserts
/// identity; returns the reference result so callers can carry its
/// limiter state to the next point.
pub fn check(
    circuit: &Circuit,
    side: &mut PlanSide,
    ctx: &EvalCtx<'_>,
    state: &[f64],
    hook: &mut Hook<'_>,
    label: &str,
) -> Assembled {
    let reference = triplet_assemble(circuit, ctx, state, hook);
    let plan = side.assemble(circuit, ctx, state, hook);
    assert_bit_identical(&reference, &plan, label);
    reference
}
