//! Plan≡triplet assembly identity over every named circuit the paper's
//! experiments run: the precompiled `StampPlan` write pass must reproduce
//! the triplet reference bit for bit (Jacobian pattern and values at bump
//! levels 0–3, residual, limiter state, finiteness) at the zero vector and
//! at three seeded random operating points of growing scale, with the
//! limiter state carried from point to point as a Newton run carries it.

#[path = "../crates/core/tests/support/assembly_oracle.rs"]
mod assembly_oracle;

use assembly_oracle::{check, no_hook, PlanSide};
use rand::prelude::*;
use rlpta::circuits::{fig5, stress, table2, table3, training_corpus, Benchmark};
use rlpta::devices::EvalCtx;

#[test]
fn plan_matches_triplet_on_every_suite_circuit() {
    let suites: Vec<Benchmark> = [fig5(), table2(), table3(), training_corpus(), stress()]
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(suites.len(), 118, "suite sizes changed");
    let mut rng = StdRng::seed_from_u64(2022);
    for bench in &suites {
        let c = &bench.circuit;
        let mut side = PlanSide::resolve(c, &mut no_hook);
        let mut state = c.new_state();
        for (point, scale) in [0.0, 0.1, 1.0, 10.0].into_iter().enumerate() {
            let x: Vec<f64> = (0..c.dim())
                .map(|_| rng.gen_range(-scale..=scale))
                .collect();
            let label = format!("{} point {point}", bench.name);
            state = check(c, &mut side, &EvalCtx::dc(&x), &state, &mut no_hook, &label).state;
        }
    }
}
