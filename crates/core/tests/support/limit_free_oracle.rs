//! Limit-free evaluation oracle: the retired seeded-state walk.
//!
//! Before limit-free stamping, `Circuit::seeded_state(x)` reached the raw
//! junction voltages by walking the limiter: up to [`WALK_CAP`] limited
//! `Circuit::assemble_into` passes over one state vector, stopping once a
//! pass moved no slot by `1e-12` or more. `Circuit::residual`,
//! certification and AC then ran one more limited assembly on that state.
//! This module keeps that walk as the reference a single limit-free pass
//! must reproduce **bitwise** wherever the walk stops before its cap: the
//! same state, the same residual, the same Jacobian pattern and values.
//!
//! Where the walk hits its cap (large random points), it stops on a
//! limited state and there is nothing to reproduce; the documented
//! contract — the state holds the raw junction voltages at `x` — is
//! checked instead, against [`raw_junction_voltages`].

use rlpta_devices::{Device, EvalCtx, Node};
use rlpta_linalg::{CsrMatrix, Triplet};
use rlpta_mna::Circuit;

/// Pass cap of the retired walk.
pub const WALK_CAP: usize = 64;

/// What the retired walk produced at one point.
pub struct Walked {
    /// The limiter state the walk stopped on.
    pub state: Vec<f64>,
    /// Whether the walk stopped on a still pass before its cap.
    pub stopped: bool,
    /// `J(x)` of one limited assembly on `state`.
    pub jacobian: CsrMatrix,
    /// `F(x)` of the same assembly.
    pub residual: Vec<f64>,
}

/// The retired walk: limited assemblies over one state vector until a pass
/// moves no slot by `1e-12` or more, at most [`WALK_CAP`] of them. Returns
/// the state it stopped on and whether it stopped before its cap.
pub fn walk_state(circuit: &Circuit, x: &[f64]) -> (Vec<f64>, bool) {
    let ctx = EvalCtx::dc(x);
    let dim = circuit.dim();
    let mut jac = Triplet::new(dim, dim);
    let mut residual = vec![0.0; dim];
    let mut state = circuit.new_state();
    for _ in 0..WALK_CAP {
        let before = state.clone();
        circuit.assemble_into(&ctx, &mut jac, &mut residual, &mut state);
        let moved = state
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        if moved < 1e-12 {
            return (state, true);
        }
    }
    (state, false)
}

/// The retired path: the limiter walk, then one limited assembly on the
/// state it stopped on (what `residual`, `certify` and AC evaluated).
pub fn walk(circuit: &Circuit, x: &[f64]) -> Walked {
    let (state, stopped) = walk_state(circuit, x);
    let dim = circuit.dim();
    let mut jac = Triplet::new(dim, dim);
    let mut residual = vec![0.0; dim];
    let mut final_state = state.clone();
    circuit.assemble_into(&EvalCtx::dc(x), &mut jac, &mut residual, &mut final_state);
    Walked {
        state,
        stopped,
        jacobian: jac.to_csr(),
        residual,
    }
}

/// The raw junction voltages at `x`, laid out like the device state
/// vector: what every device stores when it is evaluated without limiting.
pub fn raw_junction_voltages(circuit: &Circuit, x: &[f64]) -> Vec<f64> {
    let v = |n: Node| n.voltage(x);
    let mut out = Vec::with_capacity(circuit.state_len());
    for d in circuit.devices() {
        match d {
            Device::Diode(dd) => out.push(v(dd.anode()) - v(dd.cathode())),
            Device::Bjt(q) => {
                let s = q.model().polarity.sign();
                out.push(s * (v(q.base()) - v(q.emitter())));
                out.push(s * (v(q.base()) - v(q.collector())));
            }
            Device::Mosfet(m) => {
                // Slot 0 is vgs in the source/drain-normalized frame.
                let s = m.model().polarity.sign();
                let vgs = s * (v(m.gate()) - v(m.source()));
                let vds = s * (v(m.drain()) - v(m.source()));
                out.push(if vds < 0.0 { vgs - vds } else { vgs });
                out.push(s * (v(m.bulk()) - v(m.drain())));
                out.push(s * (v(m.bulk()) - v(m.source())));
            }
            Device::Jfet(j) => {
                let s = j.model().polarity.sign();
                out.push(s * (v(j.gate()) - v(j.source())));
                out.push(s * (v(j.gate()) - v(j.drain())));
            }
            other => assert_eq!(other.state_len(), 0, "unmodelled state"),
        }
    }
    assert_eq!(out.len(), circuit.state_len());
    out
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: {what} length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{label}: {what}[{i}] {p} vs {q}");
    }
}

/// Checks the limit-free entry points at `x` against the walk. Returns
/// whether the walk stopped before its cap (bitwise identity asserted) —
/// `false` means only the raw-voltage contract was asserted.
pub fn check(circuit: &Circuit, x: &[f64], label: &str) -> bool {
    let state = circuit.seeded_state(x);
    let residual = circuit.residual(x);
    let (jac, lf_residual) = circuit.assemble_limit_free(x);
    let jacobian = jac.to_csr();

    assert_bits_eq(&state, &raw_junction_voltages(circuit, x), "state", label);
    assert_bits_eq(&residual, &lf_residual, "residual vs assembly", label);

    let walked = walk(circuit, x);
    if walked.stopped {
        assert_bits_eq(&state, &walked.state, "state vs walk", label);
        assert_bits_eq(&residual, &walked.residual, "residual vs walk", label);
        assert!(
            jacobian.same_pattern(&walked.jacobian),
            "{label}: Jacobian pattern vs walk"
        );
        assert_bits_eq(
            jacobian.values(),
            walked.jacobian.values(),
            "Jacobian vs walk",
            label,
        );
    }
    walked.stopped
}
