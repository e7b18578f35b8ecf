//! Independent solution certification and numerical-health grading.
//!
//! A solver reporting "converged" is a claim about its *own* update norm —
//! not proof the operating point satisfies KCL. This module re-derives the
//! evidence at the returned iterate: it re-evaluates the nonlinear
//! residual `F(x)` and the Jacobian `J(x)` of the original system
//! (limiter-free, default Gmin, full sources), factorizes the Jacobian
//! afresh and reads off three health signals:
//!
//! * **residual norm** — `‖F(x)‖_∞`, the direct KCL error,
//! * **condition estimate** — Hager's 1-norm estimate of `κ₁(J)`
//!   ([`SparseLu::cond_estimate`]), how much of the residual accuracy
//!   survives the linear algebra,
//! * **pivot growth** — [`SparseLu::pivot_growth`], element growth during
//!   elimination (the classic backward-stability red flag).
//!
//! "Independent" means independent of **solver state**: no limiter
//! history, no Gmin or source-stepping scale, no PTA pseudo-element
//! stamps, no pivot choices of the solve. The report is a pure function of
//! the circuit and `x`. It is *not* independent of the stamp plan: the
//! evaluation runs through a device-only [`StampPlan`]
//! ([`StampPlan::eval_limit_free_into`]), which tier-1 oracles prove
//! bitwise equal to triplet assembly, and the factorization is bitwise
//! [`SparseLu::factorize`]'s — on the warm path through
//! [`SymbolicLu::factorize_fresh`], which replays the solver's recorded LU
//! pattern only where the fresh pivot rule provably picks the same pivots.
//! The warm path ([`DcEngine`](crate::DcEngine)'s sweep points and every
//! service job) certifies through its own plan and recorded pattern; the
//! other gates and the public [`certify`] resolve a throwaway plan. The
//! triplet re-assembly this replaced is the test oracle
//! (`crates/core/tests/support/certify_oracle.rs`, `tests/certify_oracle.rs`).
//!
//! The three fold into a [`HealthGrade`]:
//!
//! * [`Certified`](HealthGrade::Certified) — residual at or below the
//!   solver's own convergence tolerance **and** no conditioning red flags.
//! * [`Suspect`](HealthGrade::Suspect) — the residual is acceptable but the
//!   factorization looks fragile (huge condition estimate, runaway pivot
//!   growth, or the certification factorization itself failed). The
//!   solution is still returned; downstream consumers decide.
//! * [`Rejected`](HealthGrade::Rejected) — the independently re-evaluated
//!   residual is non-finite or far above tolerance. The engine never
//!   returns such a point as-is: [`certify_into`] first attempts an
//!   iterative-refinement rescue (plain, then equilibrated), and if the
//!   point stays rejected the ladder demotes it and escalates to the next
//!   strategy ([`SolveError::CertificationFailed`]).
//!
//! Every certified solve emits one [`Payload::Certified`] telemetry event
//! (after any rescue) and each rescue correction emits
//! [`Payload::RefinementStep`], so the metrics registry counts grades and
//! rescue work per run with no extra bookkeeping.

use crate::error::SolveError;
use crate::telemetry::{Payload, Tele};
use crate::Solution;
use rlpta_linalg::{norms, CsrMatrix, LinalgError, SparseLu, SymbolicLu};
use rlpta_mna::{Circuit, StampPlan};

/// Residual infinity-norm at or below which a solution can be graded
/// [`HealthGrade::Certified`] — matches the plain Newton solver's default
/// `residual_tol`, so an honestly converged solve certifies cleanly.
pub const RESIDUAL_CERTIFIED: f64 = 1e-6;

/// Residual infinity-norm above which a solution is graded
/// [`HealthGrade::Rejected`] outright (three decades of slack over
/// [`RESIDUAL_CERTIFIED`] for loosened user tolerances).
pub const RESIDUAL_REJECTED: f64 = 1e-3;

/// Condition estimate at or above which an otherwise-clean solution is
/// downgraded to [`HealthGrade::Suspect`]: at `κ₁ ≈ 1e12` roughly twelve of
/// sixteen double-precision digits are lost in the linear solves.
pub const COND_SUSPECT: f64 = 1e12;

/// Pivot growth at or above which an otherwise-clean solution is downgraded
/// to [`HealthGrade::Suspect`] — the same threshold at which the
/// factorization itself switches to equilibration.
pub const GROWTH_SUSPECT: f64 = 1e8;

/// Maximum Newton-correction steps per rescue attempt in [`certify_into`].
const RESCUE_STEPS: usize = 3;

/// Refinement-iteration cap per rescue correction.
const RESCUE_REFINEMENT_CAP: usize = 8;

/// Certification verdict on one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthGrade {
    /// Independently verified: small residual, no conditioning red flags.
    Certified,
    /// Usable but fragile: acceptable residual, questionable numerics.
    Suspect,
    /// The residual check failed; the point must not be trusted.
    Rejected,
}

impl HealthGrade {
    /// Stable lowercase name (used in telemetry and reports).
    pub fn name(&self) -> &'static str {
        match self {
            HealthGrade::Certified => "certified",
            HealthGrade::Suspect => "suspect",
            HealthGrade::Rejected => "rejected",
        }
    }
}

impl std::fmt::Display for HealthGrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The numerical-health record attached to every engine-returned
/// [`Solution`].
///
/// All float fields are guaranteed finite-or-infinite, never NaN (a NaN
/// measurement is reported as `f64::INFINITY`), so the derived `PartialEq`
/// honours the engine's bit-identical determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// `‖F(x)‖_∞` of the independently re-assembled KCL residual.
    pub residual_norm: f64,
    /// Hager 1-norm condition estimate of `J(x)`; `INFINITY` when the
    /// certification factorization failed.
    pub cond_estimate: f64,
    /// Pivot growth of the certification factorization; `INFINITY` when it
    /// failed.
    pub pivot_growth: f64,
    /// The folded verdict.
    pub grade: HealthGrade,
}

/// Maps NaN to `INFINITY` so reports stay `PartialEq`-comparable.
fn sanitize(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

fn grade_of(residual_norm: f64, cond: f64, growth: f64) -> HealthGrade {
    if !residual_norm.is_finite() || residual_norm > RESIDUAL_REJECTED {
        HealthGrade::Rejected
    } else if residual_norm <= RESIDUAL_CERTIFIED && cond < COND_SUSPECT && growth < GROWTH_SUSPECT
    {
        HealthGrade::Certified
    } else {
        HealthGrade::Suspect
    }
}

/// The report of a point that cannot be evaluated: wrong dimension or a
/// non-finite coordinate.
fn rejected() -> HealthReport {
    HealthReport {
        residual_norm: f64::INFINITY,
        cond_estimate: f64::INFINITY,
        pivot_growth: f64::INFINITY,
        grade: HealthGrade::Rejected,
    }
}

/// Whether `x` is a point of `circuit`'s system that can be evaluated.
fn admissible(circuit: &Circuit, x: &[f64]) -> bool {
    x.len() == circuit.dim() && x.iter().all(|v| v.is_finite())
}

/// Independently certifies an operating point: re-evaluates the residual
/// and Jacobian at `x` from the circuit alone (no solver state, through a
/// throwaway device-only stamp plan) and grades the result. Pure — same
/// circuit and `x` always produce the same report.
pub fn certify(circuit: &Circuit, x: &[f64]) -> HealthReport {
    let plan = StampPlan::resolve(circuit, &mut |_| {});
    let mut matrix = plan.new_matrix();
    Certifier::new(&plan, &mut matrix, None).report(circuit, x)
}

/// Certifies `solution` in place through a throwaway device-only plan —
/// the gate of the ladder and of the direct Newton/PTA strategies, whose
/// own plans carry solver stamps. See [`Certifier::certify_into`].
pub(crate) fn certify_into(
    circuit: &Circuit,
    solution: &mut Solution,
    tele: &Tele<'_>,
) -> HealthGrade {
    let plan = StampPlan::resolve(circuit, &mut |_| {});
    let mut matrix = plan.new_matrix();
    Certifier::new(&plan, &mut matrix, None).certify_into(circuit, solution, tele)
}

/// The one certification body: what it evaluates through — a device-only
/// [`StampPlan`] with a working matrix over its pattern, and optionally a
/// recorded LU pattern to replay — and the grading and rescue on top.
///
/// The warm path lends its own workspaces (the plan, its working buffer
/// and the solver's [`SymbolicLu`]); every slot of the buffer is
/// overwritten here and again by the solver's next evaluation, and the
/// pattern is only read. Reports are bitwise the same either way.
pub(crate) struct Certifier<'a> {
    plan: &'a StampPlan,
    matrix: &'a mut CsrMatrix,
    symbolic: Option<&'a SymbolicLu>,
}

impl<'a> Certifier<'a> {
    /// A certifier over `plan` (device-only) and `matrix` (a buffer over
    /// its pattern), replaying `symbolic` where it provably matches a
    /// fresh factorization.
    pub(crate) fn new(
        plan: &'a StampPlan,
        matrix: &'a mut CsrMatrix,
        symbolic: Option<&'a SymbolicLu>,
    ) -> Self {
        Self {
            plan,
            matrix,
            symbolic,
        }
    }

    /// Bitwise [`SparseLu::factorize`] of the working matrix.
    fn factorize(&self) -> Result<SparseLu, LinalgError> {
        match self.symbolic {
            Some(sym) => sym.factorize_fresh(self.matrix),
            None => SparseLu::factorize(self.matrix),
        }
    }

    /// Grades `x`: one limit-free evaluation, one fresh factorization.
    fn report(&mut self, circuit: &Circuit, x: &[f64]) -> HealthReport {
        if !admissible(circuit, x) {
            return rejected();
        }
        let mut res = vec![0.0; circuit.dim()];
        self.plan
            .eval_limit_free_into(circuit, x, self.matrix, &mut res);
        // `inf_norm` folds with `f64::max`, which discards NaN — scan first so a
        // poisoned residual rejects instead of reading as 0.0.
        let residual_norm = if res.iter().all(|v| v.is_finite()) {
            norms::inf_norm(&res)
        } else {
            f64::INFINITY
        };
        let (cond_estimate, pivot_growth) = match self.factorize() {
            Ok(lu) => (
                sanitize(lu.cond_estimate(self.matrix).unwrap_or(f64::INFINITY)),
                sanitize(lu.pivot_growth()),
            ),
            Err(_) => (f64::INFINITY, f64::INFINITY),
        };
        HealthReport {
            residual_norm: sanitize(residual_norm),
            cond_estimate,
            pivot_growth,
            grade: grade_of(residual_norm, cond_estimate, pivot_growth),
        }
    }

    /// One rescue pass: up to [`RESCUE_STEPS`] Newton corrections at the
    /// current iterate, each linear solve iteratively refined to its residual
    /// plateau. Mutates `x` only with strictly improving steps; returns the
    /// best report seen.
    fn rescue_pass(
        &mut self,
        circuit: &Circuit,
        x: &mut Vec<f64>,
        equilibrate: bool,
        mut best: HealthReport,
        tele: &Tele<'_>,
    ) -> HealthReport {
        let mut res = vec![0.0; circuit.dim()];
        for step in 1..=RESCUE_STEPS {
            self.plan
                .eval_limit_free_into(circuit, x, self.matrix, &mut res);
            if !res.iter().all(|v| v.is_finite()) {
                break;
            }
            let lu = if equilibrate {
                SparseLu::factorize_equilibrated(self.matrix)
            } else {
                self.factorize()
            };
            let Ok(lu) = lu else { break };
            let neg_f: Vec<f64> = res.iter().map(|v| -v).collect();
            let Ok(refined) = lu.solve_refined_capped(self.matrix, &neg_f, RESCUE_REFINEMENT_CAP)
            else {
                break;
            };
            let candidate: Vec<f64> = x.iter().zip(&refined.x).map(|(a, b)| a + b).collect();
            let report = self.report(circuit, &candidate);
            tele.emit(Payload::RefinementStep {
                step,
                residual: report.residual_norm,
            });
            if report.residual_norm < best.residual_norm {
                *x = candidate;
                best = report;
                if best.grade != HealthGrade::Rejected {
                    break;
                }
            } else {
                // Corrections stopped paying — further steps from the same
                // iterate would recompute the same stall.
                break;
            }
        }
        best
    }

    /// Certifies `solution` in place: grades it, attempts the refinement
    /// rescue when the grade is [`HealthGrade::Rejected`] (plain corrections
    /// first, then equilibrated refactorization), attaches the final
    /// [`HealthReport`] and emits one [`Payload::Certified`] event. Returns
    /// the final grade; the caller decides what a surviving `Rejected`
    /// means (the ladder demotes it, the engine surfaces
    /// [`SolveError::CertificationFailed`]).
    pub(crate) fn certify_into(
        &mut self,
        circuit: &Circuit,
        solution: &mut Solution,
        tele: &Tele<'_>,
    ) -> HealthGrade {
        let mut report = self.report(circuit, &solution.x);
        if report.grade == HealthGrade::Rejected && solution.x.iter().all(|v| v.is_finite()) {
            let mut x = solution.x.clone();
            for equilibrate in [false, true] {
                report = self.rescue_pass(circuit, &mut x, equilibrate, report, tele);
                if report.grade != HealthGrade::Rejected {
                    break;
                }
            }
            if report.grade != HealthGrade::Rejected {
                solution.x = x;
            }
        }
        tele.emit(Payload::Certified {
            grade: report.grade.name().to_string(),
            residual: report.residual_norm,
            cond: report.cond_estimate,
            growth: report.pivot_growth,
        });
        let grade = report.grade;
        solution.health = Some(report);
        grade
    }
}

/// The [`SolveError`] a surviving rejection maps to.
pub(crate) fn rejection_error(report: &HealthReport) -> SolveError {
    SolveError::CertificationFailed {
        residual_norm: report.residual_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Collector, Span};
    use crate::NewtonRaphson;
    use std::sync::Arc;

    fn diode_clamp() -> Circuit {
        rlpta_netlist::parse("t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n")
            .unwrap()
    }

    #[test]
    fn converged_newton_point_certifies() {
        let c = diode_clamp();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        let report = certify(&c, &sol.x);
        assert_eq!(report.grade, HealthGrade::Certified, "{report:?}");
        assert!(report.residual_norm <= RESIDUAL_CERTIFIED);
        assert!(report.cond_estimate >= 1.0);
        assert!(report.pivot_growth >= 1.0);
    }

    #[test]
    fn perturbed_point_is_rejected() {
        let c = diode_clamp();
        let mut sol = NewtonRaphson::default().solve(&c).unwrap();
        sol.x[0] += 0.5;
        let report = certify(&c, &sol.x);
        assert_eq!(report.grade, HealthGrade::Rejected, "{report:?}");
        assert!(report.residual_norm > RESIDUAL_REJECTED);
    }

    #[test]
    fn non_finite_point_is_rejected_with_finite_free_report() {
        let c = diode_clamp();
        let x = vec![f64::NAN; c.dim()];
        let report = certify(&c, &x);
        assert_eq!(report.grade, HealthGrade::Rejected);
        assert!(!report.residual_norm.is_nan());
        assert!(!report.cond_estimate.is_nan());
        assert!(!report.pivot_growth.is_nan());
    }

    #[test]
    fn wrong_dimension_is_rejected() {
        let c = diode_clamp();
        assert_eq!(certify(&c, &[0.0]).grade, HealthGrade::Rejected);
    }

    #[test]
    fn certify_is_deterministic() {
        let c = diode_clamp();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        assert_eq!(certify(&c, &sol.x), certify(&c, &sol.x));
    }

    #[test]
    fn rescue_repairs_a_mildly_perturbed_linear_point() {
        // A linear divider: one exact Newton correction from any starting
        // point lands on the operating point, so the rescue must recover a
        // rejected perturbed iterate without escalating.
        let c = rlpta_netlist::parse("t\nV1 a 0 10\nR1 a b 2k\nR2 b 0 3k\n").unwrap();
        let exact = NewtonRaphson::default().solve(&c).unwrap();
        let collector = Arc::new(Collector::default());
        let tele = Tele::root(&*collector, Span::default());
        let mut sol = exact.clone();
        sol.x[0] += 2.0;
        assert_eq!(certify(&c, &sol.x).grade, HealthGrade::Rejected);
        let grade = certify_into(&c, &mut sol, &tele);
        assert_eq!(grade, HealthGrade::Certified, "{:?}", sol.health);
        for (got, want) in sol.x.iter().zip(&exact.x) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        let events = collector.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.payload, Payload::RefinementStep { .. })));
        assert!(events.iter().any(|e| matches!(
            &e.payload,
            Payload::Certified { grade, .. } if grade == "certified"
        )));
    }

    #[test]
    fn certify_into_attaches_report_and_emits_event() {
        let c = diode_clamp();
        let mut sol = NewtonRaphson::default().solve(&c).unwrap();
        let collector = Arc::new(Collector::default());
        let tele = Tele::root(&*collector, Span::default());
        let grade = certify_into(&c, &mut sol, &tele);
        assert_eq!(grade, HealthGrade::Certified);
        let health = sol.health.expect("attached");
        assert_eq!(health.grade, HealthGrade::Certified);
        assert_eq!(
            collector
                .events()
                .iter()
                .filter(|e| e.payload.kind() == "Certified")
                .count(),
            1
        );
    }

    #[test]
    fn grade_names_are_stable() {
        assert_eq!(HealthGrade::Certified.name(), "certified");
        assert_eq!(HealthGrade::Suspect.name(), "suspect");
        assert_eq!(HealthGrade::Rejected.name(), "rejected");
        assert_eq!(HealthGrade::Suspect.to_string(), "suspect");
    }

    #[test]
    fn grade_boundaries() {
        use HealthGrade::*;
        assert_eq!(grade_of(1e-9, 10.0, 2.0), Certified);
        assert_eq!(grade_of(1e-9, COND_SUSPECT, 2.0), Suspect);
        assert_eq!(grade_of(1e-9, 10.0, GROWTH_SUSPECT), Suspect);
        assert_eq!(grade_of(1e-4, 10.0, 2.0), Suspect, "loose but usable");
        assert_eq!(grade_of(1e-2, 10.0, 2.0), Rejected);
        assert_eq!(grade_of(f64::NAN, 10.0, 2.0), Rejected);
        assert_eq!(grade_of(f64::INFINITY, 10.0, 2.0), Rejected);
    }
}
