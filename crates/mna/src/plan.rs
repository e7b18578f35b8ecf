//! Precompiled stamp plans: index-resolved MNA assembly.
//!
//! A [`StampPlan`] is the structural half of two-phase assembly. One
//! declare pass over the circuit ([`Circuit::declare_targets`], plus any
//! solver extra stamps) records every ground-filtered `(row, col)`
//! Jacobian target in push order and binds the sequence to direct
//! nnz-slot indices in a frozen CSR pattern via [`StampSlots`]. Every later
//! evaluation ([`StampPlan::eval_into`]) replays the sequence through the
//! slot table — no triplet allocation, no sorting, no hashing, just a
//! cursor walk scattering values in place.
//!
//! This is the only assembly path the Newton loop and certification run:
//! [`StampPlan::eval_into`] for the solvers, and
//! [`StampPlan::eval_limit_free_into`] for the limit-free re-evaluation
//! certification grades. Bit-identity with [`Circuit::assemble_into`]
//! followed by [`Triplet::to_csr`] (limit-free:
//! [`Circuit::assemble_limit_free`]) is the contract: the same device code
//! runs on both sides (the [`Stamper`] sink is what differs), the frozen
//! pattern comes from the same shared counting sort, and each slot
//! accumulates its duplicates in push order. See `rlpta-linalg::StampSlots`
//! for the mechanics; the oracle tests are
//! `crates/core/tests/assembly_identity.rs`, `tests/assembly_oracle.rs`
//! and `tests/certify_oracle.rs`. The triplet path's one production caller
//! is AC, which reads its small-signal conductance matrix from
//! [`Circuit::assemble_limit_free`].
//!
//! The declare loop is shared: plan resolution and the service's structure
//! key both run [`Circuit::declare_targets`], and
//! [`StampPlan::compatible_with`] takes that pass's output, so a caller that
//! already declared (the service, keying a job) re-verifies a cached plan
//! without declaring again.

use crate::Circuit;
use rlpta_devices::{EvalCtx, Stamper};
use rlpta_linalg::{CsrMatrix, StampSlots, Triplet};

/// A resolved assembly plan for one circuit structure (and one solver
/// extra-stamp shape).
///
/// Immutable once built — share it via `Arc` across sweep points, PTA
/// steps, and service jobs with the same [`StructureKey`]-equivalent
/// structure. Working values buffers come from [`StampPlan::new_matrix`].
#[derive(Debug, Clone)]
pub struct StampPlan {
    slots: StampSlots,
    /// The frozen pattern with all values zero.
    template: CsrMatrix,
    /// The declared push sequence (devices first, then extra stamps) —
    /// kept for cheap [`StampPlan::compatible_with`] re-verification.
    targets: Vec<(usize, usize)>,
    /// How many of `targets` came from the devices alone (prefix length);
    /// the rest were declared by the solver's extra-stamp hook.
    device_pushes: usize,
    dim: usize,
    state_len: usize,
}

impl StampPlan {
    /// Resolves a plan for `circuit`: runs the devices' structural declare
    /// pass ([`Circuit::declare_targets`]) followed by `extra`, the
    /// solver's extra-stamp hook in declare mode, then freezes the induced
    /// pattern.
    ///
    /// `extra` must push the same ordered Jacobian targets the solver's
    /// evaluation-time hook will (values are ignored here). Solvers without
    /// extra stamps pass a no-op closure.
    ///
    /// No fault-injection draws are consumed (declare-mode [`Stamper`]
    /// contract), so resolving a plan never shifts seeded NaN sequences.
    pub fn resolve(circuit: &Circuit, extra: &mut dyn FnMut(&mut Stamper<'_>)) -> StampPlan {
        let dim = circuit.dim();
        let mut targets = Vec::with_capacity(16 * circuit.devices().len() + 2 * dim);
        circuit.declare_targets(&mut targets);
        let device_pushes = targets.len();
        {
            let mut scratch_res = vec![0.0; dim];
            let mut st = Stamper::declare(&mut targets, &mut scratch_res);
            extra(&mut st);
        }
        let (template, slots) = StampSlots::build(dim, dim, &targets);
        StampPlan {
            slots,
            template,
            targets,
            device_pushes,
            dim,
            state_len: circuit.state_len(),
        }
    }

    /// MNA system dimension the plan was resolved for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Structural non-zeros of the frozen pattern.
    pub fn nnz(&self) -> usize {
        self.template.nnz()
    }

    /// Total pushes one evaluation replays (devices + extra stamps).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` when the plan expects no pushes at all.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Approximate heap footprint in bytes (for cache byte budgets).
    pub fn approx_bytes(&self) -> usize {
        self.slots.approx_bytes()
            + self.targets.len() * std::mem::size_of::<(usize, usize)>()
            + self.template.nnz()
                * (std::mem::size_of::<f64>() + std::mem::size_of::<usize>())
            + (self.dim + 1) * std::mem::size_of::<usize>()
    }

    /// A fresh working matrix: the frozen pattern with zeroed values. One
    /// per solve context; [`StampPlan::eval_into`] rewrites it in place.
    pub fn new_matrix(&self) -> CsrMatrix {
        self.template.clone()
    }

    /// Cheap structural re-verification, the plan-side analogue of
    /// `SymbolicLu::compatible_with`: whether a circuit of MNA dimension
    /// `dim` and limiter-state length `state_len` whose device declare pass
    /// ([`Circuit::declare_targets`]) produced `device_targets` can
    /// evaluate through this plan — the dimensions agree and the target
    /// sequence equals this plan's device prefix. Value-only edits (a sweep
    /// jittering source values) keep the sequence identical; any topology
    /// change breaks it.
    pub fn compatible_with(
        &self,
        dim: usize,
        state_len: usize,
        device_targets: &[(usize, usize)],
    ) -> bool {
        dim == self.dim
            && state_len == self.state_len
            && device_targets == &self.targets[..self.device_pushes]
    }

    /// The frozen CSR pattern every evaluation scatters into (values
    /// zero) — what a `SymbolicLu` recorded from this plan's matrices must
    /// match.
    pub fn pattern(&self) -> &CsrMatrix {
        &self.template
    }

    /// Numeric assembly through the plan: zeroes `residual`, replays every
    /// device's stamp sequence (and then `extra`) scattering Jacobian
    /// values into `matrix`'s slots in place, exactly mirroring
    /// [`Circuit::assemble_into`]. Returns `true` when every raw Jacobian
    /// stamp was finite — the scatter-path equivalent of
    /// [`Triplet::all_finite`] (the caller checks the residual itself).
    ///
    /// # Panics
    ///
    /// Panics if `matrix`/`residual`/`state` have the wrong shape or the
    /// push sequence no longer matches the plan (topology drift since
    /// resolve — guard with [`StampPlan::compatible_with`]).
    pub fn eval_into(
        &self,
        circuit: &Circuit,
        ctx: &EvalCtx<'_>,
        matrix: &mut CsrMatrix,
        residual: &mut [f64],
        state: &mut [f64],
        extra: &mut dyn FnMut(&mut Stamper<'_>),
    ) -> bool {
        assert_eq!(residual.len(), self.dim, "residual dimension mismatch");
        assert_eq!(state.len(), self.state_len, "state dimension mismatch");
        residual.fill(0.0);
        let mut st = Stamper::scatter(self.slots.writer(matrix), residual);
        circuit.stamp_all(ctx, &mut st, state);
        extra(&mut st);
        st.finish()
    }

    /// The original system's limit-free linearization at `x` through the
    /// plan: zeroes `residual` and runs one device pass (default gmin, full
    /// sources) through a limit-free scatter [`Stamper`] on a fresh state,
    /// so `matrix` and `residual` receive bitwise the CSR and `F(x)` that
    /// [`Circuit::assemble_limit_free`] followed by [`Triplet::to_csr`]
    /// gives — the same device code, the same shared counting sort behind
    /// the frozen pattern, and slots that assign on first touch and add in
    /// push order. Returns `true` when every raw Jacobian stamp was finite.
    ///
    /// `matrix` may be a solver's working buffer over this plan: every slot
    /// is overwritten here, and again by the next [`StampPlan::eval_into`].
    ///
    /// # Panics
    ///
    /// Panics if the plan carries solver extra stamps (the limit-free
    /// system is the circuit's own), or on the shape mismatches
    /// [`StampPlan::eval_into`] rejects.
    pub fn eval_limit_free_into(
        &self,
        circuit: &Circuit,
        x: &[f64],
        matrix: &mut CsrMatrix,
        residual: &mut [f64],
    ) -> bool {
        assert_eq!(
            self.device_pushes,
            self.targets.len(),
            "limit-free evaluation needs a device-only plan"
        );
        assert_eq!(x.len(), self.dim, "operating point dimension mismatch");
        assert_eq!(residual.len(), self.dim, "residual dimension mismatch");
        residual.fill(0.0);
        let mut state = circuit.new_state();
        let mut st = Stamper::scatter(self.slots.writer(matrix), residual).limit_free();
        circuit.stamp_all(&EvalCtx::dc(x), &mut st, &mut state);
        st.finish()
    }

    /// Builds the Gmin-bump companion: the frozen pattern united with every
    /// node diagonal, plus the scatter maps needed to replay a bumped
    /// factorization bit-identically to `jac.push(i, i, gshunt)` on the
    /// reference triplet.
    pub fn bump_plan(&self, num_nodes: usize) -> BumpPlan {
        // Union pattern via the triplet reference machinery — same stable
        // dedup as everything else.
        let mut t = Triplet::with_capacity(
            self.dim,
            self.dim,
            self.template.nnz() + num_nodes,
        );
        for (r, c, _) in self.template.iter() {
            t.push(r, c, 0.0);
        }
        for i in 0..num_nodes {
            t.push(i, i, 0.0);
        }
        let template = t.to_csr();
        let find = |r: usize, c: usize| -> usize {
            let lo = template.row_ptr()[r];
            let hi = template.row_ptr()[r + 1];
            let cols = &template.col_indices()[lo..hi];
            // The union contains every base entry and every diagonal by
            // construction.
            lo + cols.binary_search(&c).expect("entry present in union")
        };
        let base_map = self.template.iter().map(|(r, c, _)| find(r, c)).collect();
        let diag_slots = (0..num_nodes).map(|i| find(i, i)).collect();
        BumpPlan {
            template,
            base_map,
            diag_slots,
        }
    }
}

/// Scatter maps for the singular-matrix Gmin-bump escalation under a
/// [`StampPlan`]: the base pattern extended with all node diagonals.
///
/// The reference for a bumped system is the triplet with `gshunt` pushes
/// appended on every node diagonal and re-converted; summation order there
/// is "base entries first, then each bump in order". The maps here
/// reproduce exactly that: copy base slot values across, then `+=` the
/// shunt on the diagonals, cumulatively per bump level.
#[derive(Debug, Clone)]
pub struct BumpPlan {
    template: CsrMatrix,
    /// For each base-pattern slot, its slot in the bumped pattern.
    base_map: Vec<usize>,
    /// Bumped-pattern slots of `(i, i)` for each node unknown `i`.
    diag_slots: Vec<usize>,
}

impl BumpPlan {
    /// A fresh working matrix over the bumped pattern (values zeroed).
    pub fn new_matrix(&self) -> CsrMatrix {
        self.template.clone()
    }

    /// Loads `base`'s values into `into` (zeroing entries that exist only
    /// in the bumped pattern). Bitwise copy — signed zeros survive.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `into` do not match the patterns this plan was
    /// built from.
    pub fn scatter_base(&self, base: &CsrMatrix, into: &mut CsrMatrix) {
        assert_eq!(base.nnz(), self.base_map.len(), "base pattern mismatch");
        let values = into.values_mut();
        assert_eq!(values.len(), self.template.nnz(), "bumped pattern mismatch");
        values.fill(0.0);
        for (v, &slot) in base.values().iter().zip(&self.base_map) {
            values[slot] = *v;
        }
    }

    /// Adds `gshunt` on every node diagonal — one call per bump level, so
    /// repeated calls escalate cumulatively like repeated triplet pushes.
    pub fn add_diag(&self, into: &mut CsrMatrix, gshunt: f64) {
        let values = into.values_mut();
        for &slot in &self.diag_slots {
            values[slot] += gshunt;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;
    use rlpta_devices::{Diode, DiodeModel, Node, Resistor, Vsource};

    fn diode_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("plan-test");
        let vin = b.node("in");
        let out = b.node("out");
        b.add(Vsource::new("V1", vin, Node::GROUND, 5.0));
        b.add(Resistor::new("R1", vin, out, 1e3));
        b.add(Diode::new("D1", out, Node::GROUND, DiodeModel::default()));
        b.build().unwrap()
    }

    /// Assembles via both paths at `x` and asserts bitwise equality.
    fn assert_bit_identical(circuit: &Circuit, x: &[f64]) {
        let ctx = EvalCtx::dc(x);
        // Triplet reference. Fresh state on both sides so limiting history
        // is identical.
        let mut jac = Triplet::new(circuit.dim(), circuit.dim());
        let mut res_t = vec![0.0; circuit.dim()];
        let mut state_t = circuit.new_state();
        circuit.assemble_into(&ctx, &mut jac, &mut res_t, &mut state_t);
        let reference = jac.to_csr();

        let plan = StampPlan::resolve(circuit, &mut |_| {});
        let mut m = plan.new_matrix();
        let mut res_p = vec![0.0; circuit.dim()];
        let mut state_p = circuit.new_state();
        let finite = plan.eval_into(circuit, &ctx, &mut m, &mut res_p, &mut state_p, &mut |_| {});
        assert!(finite);
        assert!(reference.same_pattern(&m), "pattern mismatch");
        for (a, b) in reference.values().iter().zip(m.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        for (a, b) in res_t.iter().zip(&res_p) {
            assert_eq!(a.to_bits(), b.to_bits(), "residual {a} vs {b}");
        }
        assert_eq!(state_t, state_p, "limiter state diverged");
    }

    #[test]
    fn plan_matches_triplet_at_zero_and_biased_points() {
        let c = diode_circuit();
        assert_bit_identical(&c, &vec![0.0; c.dim()]);
        assert_bit_identical(&c, &[5.0, 0.62, -4.3e-3]);
        assert_bit_identical(&c, &[-2.0, -1.0, 1e-3]);
    }

    #[test]
    fn limit_free_pass_matches_limit_free_triplet() {
        let c = diode_circuit();
        let plan = StampPlan::resolve(&c, &mut |_| {});
        // A working buffer left dirty by a limited solver pass.
        let mut m = plan.new_matrix();
        let mut res = vec![0.0; c.dim()];
        let mut state = c.new_state();
        let x0 = [3.0, 0.9, -1e-3];
        plan.eval_into(&c, &EvalCtx::dc(&x0), &mut m, &mut res, &mut state, &mut |_| {});
        for x in [[0.0; 3], [5.0, 0.62, -4.3e-3], [-2.0, 3.5, 1e-3]] {
            let (jac, reference_res) = c.assemble_limit_free(&x);
            let reference = jac.to_csr();
            assert!(plan.eval_limit_free_into(&c, &x, &mut m, &mut res));
            assert!(reference.same_pattern(&m));
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(reference.values()), bits(m.values()), "J at {x:?}");
            assert_eq!(bits(&reference_res), bits(&res), "F at {x:?}");
        }
    }

    #[test]
    #[should_panic(expected = "device-only plan")]
    fn limit_free_pass_rejects_extra_stamps() {
        let c = diode_circuit();
        let plan = StampPlan::resolve(&c, &mut |st| st.jac_raw(0, 0, 0.0));
        let mut m = plan.new_matrix();
        let mut res = vec![0.0; c.dim()];
        plan.eval_limit_free_into(&c, &[0.0; 3], &mut m, &mut res);
    }

    #[test]
    fn plan_reuse_does_not_accumulate() {
        let c = diode_circuit();
        let plan = StampPlan::resolve(&c, &mut |_| {});
        let mut m = plan.new_matrix();
        let mut res = vec![0.0; c.dim()];
        let mut state = c.new_state();
        let x = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x);
        plan.eval_into(&c, &ctx, &mut m, &mut res, &mut state, &mut |_| {});
        let first: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        plan.eval_into(&c, &ctx, &mut m, &mut res, &mut state, &mut |_| {});
        let second: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(first, second, "second pass must overwrite, not add");
    }

    #[test]
    fn extra_stamps_are_planned_too() {
        let c = diode_circuit();
        let dim = c.dim();
        // Pseudo-element-style extra: shunts on every node diagonal.
        let plan = StampPlan::resolve(&c, &mut |st| {
            for i in 0..2 {
                st.jac_raw(i, i, 0.0);
            }
        });
        let ctx_x = vec![0.0; dim];
        let ctx = EvalCtx::dc(&ctx_x);

        let mut jac = Triplet::new(dim, dim);
        let mut res_t = vec![0.0; dim];
        let mut state_t = c.new_state();
        c.assemble_into(&ctx, &mut jac, &mut res_t, &mut state_t);
        for i in 0..2 {
            jac.push(i, i, 3.5);
        }
        let reference = jac.to_csr();

        let mut m = plan.new_matrix();
        let mut res_p = vec![0.0; dim];
        let mut state_p = c.new_state();
        plan.eval_into(&c, &ctx, &mut m, &mut res_p, &mut state_p, &mut |st| {
            for i in 0..2 {
                st.jac_raw(i, i, 3.5);
            }
        });
        assert!(reference.same_pattern(&m));
        for (a, b) in reference.values().iter().zip(m.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn compatible_with_accepts_value_edits_rejects_topology_changes() {
        let compatible = |plan: &StampPlan, c: &Circuit| {
            let mut targets = Vec::new();
            c.declare_targets(&mut targets);
            plan.compatible_with(c.dim(), c.state_len(), &targets)
        };
        let mut c = diode_circuit();
        let plan = StampPlan::resolve(&c, &mut |_| {});
        assert!(compatible(&plan, &c));
        // Value-only edit: same structure.
        assert!(c.set_source_dc("V1", 4.9));
        assert!(compatible(&plan, &c));
        // Different topology: reject.
        let mut b = CircuitBuilder::new("other");
        let a = b.node("a");
        b.add(Vsource::new("V1", a, Node::GROUND, 1.0));
        b.add(Resistor::new("R1", a, Node::GROUND, 1.0));
        let other = b.build().unwrap();
        assert!(!compatible(&plan, &other));
        // Same targets, different limiter-state layout: reject.
        let mut targets = Vec::new();
        c.declare_targets(&mut targets);
        assert!(!plan.compatible_with(c.dim(), c.state_len() + 1, &targets));
        // Extra-stamp targets are not part of the device prefix.
        let extra = StampPlan::resolve(&c, &mut |st| st.jac_raw(0, 0, 0.0));
        assert!(extra.compatible_with(c.dim(), c.state_len(), &targets));
    }

    #[test]
    fn bump_plan_matches_triplet_escalation() {
        let c = diode_circuit();
        let num_nodes = c.num_nodes();
        let x = vec![0.0; c.dim()];
        let ctx = EvalCtx::dc(&x);

        // Triplet path: assemble, then push two escalating shunt rounds.
        let mut jac = Triplet::new(c.dim(), c.dim());
        let mut res = vec![0.0; c.dim()];
        let mut state = c.new_state();
        c.assemble_into(&ctx, &mut jac, &mut res, &mut state);
        for i in 0..num_nodes {
            jac.push(i, i, 1e-7);
        }
        let ref_bump1 = jac.to_csr();
        for i in 0..num_nodes {
            jac.push(i, i, 1e-5);
        }
        let ref_bump2 = jac.to_csr();

        // Plan path: base eval, scatter into bumped pattern, add shunts.
        let plan = StampPlan::resolve(&c, &mut |_| {});
        let mut base = plan.new_matrix();
        let mut res_p = vec![0.0; c.dim()];
        let mut state_p = c.new_state();
        plan.eval_into(&c, &ctx, &mut base, &mut res_p, &mut state_p, &mut |_| {});
        let bump = plan.bump_plan(num_nodes);
        let mut work = bump.new_matrix();
        bump.scatter_base(&base, &mut work);
        bump.add_diag(&mut work, 1e-7);
        assert!(ref_bump1.same_pattern(&work));
        for (a, b) in ref_bump1.values().iter().zip(work.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        bump.add_diag(&mut work, 1e-5);
        for (a, b) in ref_bump2.values().iter().zip(work.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
