//! Single-layer probes run at the end of a traced run: each public layer
//! entry point timed alone on a workload's circuits at their certified
//! operating points, and the netlist write → parse round trip.

use crate::stats::median;
use rlpta_core::certify;
use rlpta_devices::EvalCtx;
use rlpta_linalg::LuWorkspace;
use rlpta_mna::{Circuit, StampPlan};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per probe; the median is kept.
const REPS: usize = 7;

/// Probe results for one circuit, times in microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CircuitProbe {
    /// Circuit label.
    pub name: String,
    /// MNA dimension.
    pub dim: usize,
    /// Structural non-zeros of the Jacobian.
    pub nnz: usize,
    /// Stored entries of L+U over nnz(A).
    pub fill_ratio: f64,
    /// Bytes of the numeric factor: L+U values and row indices, column
    /// pointers and both permutations.
    pub lu_bytes: f64,
    /// `StampPlan::resolve`.
    pub resolve_us: f64,
    /// `StampPlan::eval_into` at the certified point.
    pub stamp_us: f64,
    /// First `LuWorkspace::factorize` (full symbolic + numeric).
    pub factorize_us: f64,
    /// Second `LuWorkspace::factorize` (numeric replay).
    pub replay_us: f64,
    /// `SparseLu::solve`.
    pub solve_us: f64,
    /// `certify` at the certified point.
    pub certify_us: f64,
}

fn time_us(mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Probes the stamp, LU and certification layers of `circuit` at `x`.
pub fn probe_circuit(name: &str, circuit: &Circuit, x: &[f64]) -> Result<CircuitProbe, String> {
    let no_extra = &mut |_: &mut rlpta_devices::Stamper<'_>| {};
    let resolve_us = time_us(|| {
        black_box(StampPlan::resolve(circuit, no_extra));
    });
    let plan = StampPlan::resolve(circuit, no_extra);
    let ctx = EvalCtx::dc(x);
    let mut matrix = plan.new_matrix();
    let mut residual = vec![0.0; circuit.dim()];
    let mut state = circuit.seeded_state(x);
    let stamp_us = time_us(|| {
        black_box(plan.eval_into(
            circuit,
            &ctx,
            &mut matrix,
            &mut residual,
            &mut state,
            no_extra,
        ));
    });
    let fail = |e: rlpta_linalg::LinalgError| format!("{name}: LU probe failed: {e}");
    let factorize_us = time_us(|| {
        let mut ws = LuWorkspace::new();
        black_box(ws.factorize(&matrix).is_ok());
    });
    let mut ws = LuWorkspace::new();
    let lu = ws.factorize(&matrix).map_err(fail)?;
    let replay_us = time_us(|| {
        black_box(ws.factorize(&matrix).is_ok());
    });
    let solve_us = time_us(|| {
        black_box(lu.solve(&residual).is_ok());
    });
    let certify_us = time_us(|| {
        black_box(certify(circuit, x));
    });
    let n = lu.dim() as f64;
    let lu_nnz = lu.nnz() as f64;
    Ok(CircuitProbe {
        name: name.to_string(),
        dim: circuit.dim(),
        nnz: matrix.nnz(),
        fill_ratio: lu_nnz / matrix.nnz().max(1) as f64,
        lu_bytes: lu_nnz * 16.0 + (n + 1.0) * 16.0 + 2.0 * n * 8.0,
        resolve_us,
        stamp_us,
        factorize_us,
        replay_us,
        solve_us,
        certify_us,
    })
}

/// Netlist round-trip results over a circuit set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetlistProbe {
    /// Summed median `parse` time of the decks that parsed, microseconds.
    pub parse_us: f64,
    /// Circuits whose written deck did not parse back.
    pub failures: Vec<(String, String)>,
}

/// Writes every circuit as a netlist and parses it back.
pub fn probe_netlists<'c>(
    circuits: impl IntoIterator<Item = (&'c str, &'c Circuit)>,
) -> NetlistProbe {
    let mut out = NetlistProbe::default();
    for (name, circuit) in circuits {
        let deck = rlpta_netlist::write_netlist(circuit);
        match rlpta_netlist::parse(&deck) {
            Ok(_) => {
                out.parse_us += time_us(|| {
                    black_box(rlpta_netlist::parse(&deck).is_ok());
                });
            }
            Err(e) => out.failures.push((name.to_string(), e.to_string())),
        }
    }
    out
}
