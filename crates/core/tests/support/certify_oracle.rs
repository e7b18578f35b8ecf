//! Certification oracle: the triplet re-assembly path.
//!
//! Before certification evaluated through a device-only stamp plan and a
//! fresh factorization that may replay a recorded LU pattern, it ran one
//! limit-free triplet assembly (`Circuit::assemble_limit_free`), converted
//! it with `Triplet::to_csr`, factorized the result from scratch with
//! `SparseLu::factorize` and graded the residual, the Hager condition
//! estimate and the pivot growth. This module keeps that path as the
//! reference every certification report must reproduce **bitwise**.

use rlpta_core::certify::{
    HealthGrade, HealthReport, COND_SUSPECT, GROWTH_SUSPECT, RESIDUAL_CERTIFIED, RESIDUAL_REJECTED,
};
use rlpta_linalg::{norms, SparseLu};
use rlpta_mna::Circuit;

/// Maps NaN to `INFINITY`, as reports do.
fn sanitize(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

/// The grading rule, restated from the documented thresholds.
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

/// The triplet-assembled certification report at `x`.
pub fn certify(circuit: &Circuit, x: &[f64]) -> HealthReport {
    if x.len() != circuit.dim() || !x.iter().all(|v| v.is_finite()) {
        return HealthReport {
            residual_norm: f64::INFINITY,
            cond_estimate: f64::INFINITY,
            pivot_growth: f64::INFINITY,
            grade: HealthGrade::Rejected,
        };
    }
    let (jac, res) = circuit.assemble_limit_free(x);
    let residual_norm = if res.iter().all(|v| v.is_finite()) {
        norms::inf_norm(&res)
    } else {
        f64::INFINITY
    };
    let a = jac.to_csr();
    let (cond_estimate, pivot_growth) = match SparseLu::factorize(&a) {
        Ok(lu) => (
            sanitize(lu.cond_estimate(&a).unwrap_or(f64::INFINITY)),
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

/// Asserts two reports are equal bit for bit (`PartialEq` on `f64` would
/// let `-0.0 == 0.0` through).
pub fn assert_same_report(got: &HealthReport, want: &HealthReport, label: &str) {
    let bits = |r: &HealthReport| {
        (
            r.residual_norm.to_bits(),
            r.cond_estimate.to_bits(),
            r.pivot_growth.to_bits(),
            r.grade,
        )
    };
    assert_eq!(bits(got), bits(want), "{label}: {got:?} vs {want:?}");
}
