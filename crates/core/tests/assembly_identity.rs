//! Bit-identity of the precompiled stamp-plan assembly pipeline against the
//! triplet reference path, checked at the assembly layer.
//!
//! Both paths drive the same device `stamp` bodies through different
//! sinks, so every value, every summation order and every fault draw must
//! line up exactly. The oracle (`support/assembly_oracle.rs`) compares one
//! evaluation bitwise — Jacobian pattern and values at bump levels 0–3,
//! residual, limiter state, finiteness flag. These properties drive it
//! over a generated circuit family (linear ladders, diode clamps, BJT bias
//! chains, MOSFET inverters), random operating points with the limiter
//! state carried across them, continuation-shaped contexts, PTA-shaped
//! extra stamps, and seeded NaN-stamp fault draws.

mod support {
    pub mod assembly_oracle;
}

use proptest::prelude::*;
use rand::prelude::*;
use rlpta_devices::{EvalCtx, Stamper};
use rlpta_mna::Circuit;
use support::assembly_oracle::{check, no_hook, Hook, PlanSide};

/// A small generated family exercising every stamp shape: resistor
/// ladders (linear), diode clamps (two-terminal nonlinear), BJT bias
/// chains (three-terminal), and a MOSFET inverter (four-terminal with
/// orientation-dependent operand permutation).
fn deck(kind: usize, v: f64, r: f64, n: usize) -> String {
    match kind % 4 {
        0 => {
            let mut d = format!("ladder\nV1 n0 0 {v}\n");
            for i in 0..n {
                d += &format!("R{i} n{i} n{} {r}\n", i + 1);
            }
            d += &format!("RL n{n} 0 {r}\n");
            d
        }
        1 => format!(
            "clamp\nV1 in 0 {v}\nR1 in out {r}\nD1 out 0 DX\nD2 0 out DX\n.model DX D(IS=1e-14)\n"
        ),
        2 => format!(
            "bias\nV1 vcc 0 {v}\nR1 vcc b {r}\nR2 b 0 22k\nRC vcc c 4.7k\nRE e 0 1k\nQ1 c b e QN\n.model QN NPN(IS=1e-15 BF=100)\n"
        ),
        _ => format!(
            "inv\nVDD vdd 0 {v}\nVIN g 0 {}\nRD vdd d {r}\nM1 d g 0 0 NM W=20u L=2u\n.model NM NMOS(VTO=0.7 KP=1e-4)\n",
            v * 0.5
        ),
    }
}

fn parse(kind: usize, v: f64, r: f64, n: usize) -> Circuit {
    rlpta_netlist::parse(&deck(kind, v, r, n)).expect("generated deck parses")
}

/// `len` draws uniform in `[-scale, scale]`.
fn random_point(rng: &mut StdRng, len: usize, scale: f64) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-scale..=scale)).collect()
}

/// The PTA pseudo-element hook's shape: a companion conductance on every
/// node diagonal and a pseudo-inductor plus CEPTA series resistance on
/// every branch unknown, with residual terms that depend on `x`.
fn pta_hook(
    num_nodes: usize,
    x_ref: Vec<f64>,
    g_node: f64,
    g_branch: f64,
    r_t: f64,
) -> impl FnMut(&[f64], &mut Stamper<'_>) {
    move |x: &[f64], st: &mut Stamper<'_>| {
        for i in 0..num_nodes {
            st.res_raw(i, g_node * (x[i] - x_ref[i]));
            st.jac_raw(i, i, g_node);
        }
        for br in num_nodes..x.len() {
            st.res_raw(br, -(g_branch * (x[br] - x_ref[br]) + r_t * x[br]));
            st.jac_raw(br, br, -(g_branch + r_t));
        }
    }
}

/// Walks a chain of points — zero, then random points at each `scale` —
/// evaluated with `ctx`'s continuation knobs, checking every evaluation
/// and carrying the limiter state forward.
fn check_chain(
    c: &Circuit,
    rng: &mut StdRng,
    scales: &[f64],
    ctx: EvalCtx<'_>,
    hook: &mut Hook<'_>,
) {
    let mut side = PlanSide::resolve(c, hook);
    let mut state = c.new_state();
    let points = std::iter::once(vec![0.0; c.dim()])
        .chain(scales.iter().map(|&s| random_point(rng, c.dim(), s)));
    for (k, x) in points.enumerate() {
        let ctx = EvalCtx { x: &x, ..ctx };
        state = check(c, &mut side, &ctx, &state, hook, &format!("point {k}")).state;
    }
}

proptest! {
    /// Random operating points of growing scale under the continuation
    /// knobs (Gmin stepping's `gmin`, source stepping's λ), limiter state
    /// carried across the chain.
    #[test]
    fn plan_matches_triplet_at_random_points(
        kind in 0usize..4,
        v in 0.5f64..30.0,
        r in 1.0f64..1e6,
        n in 1usize..8,
        seed in any::<u64>(),
        log_gmin in -12.0f64..-2.0,
        lambda in 0.0f64..1.0,
    ) {
        let c = parse(kind, v, r, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let gmin = 10f64.powf(log_gmin);
        check_chain(
            &c,
            &mut rng,
            &[0.05, 0.5, 5.0, 50.0],
            EvalCtx::dc(&[]).with_gmin(gmin).with_source_scale(lambda),
            &mut no_hook,
        );
    }

    /// PTA-shaped extra stamps (`jac_raw`/`res_raw` on top of the device
    /// pushes) are planned at resolve and replayed in the same order.
    #[test]
    fn plan_matches_triplet_with_pta_extra_stamps(
        kind in 0usize..4,
        v in 0.5f64..15.0,
        r in 50.0f64..50_000.0,
        n in 1usize..6,
        seed in any::<u64>(),
        log_g in -9.0f64..3.0,
        r_t in 0.0f64..1e3,
    ) {
        let c = parse(kind, v, r, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let x_ref = random_point(&mut rng, c.dim(), 1.0);
        let g = 10f64.powf(log_g);
        let mut hook = pta_hook(c.num_nodes(), x_ref, g, 0.5 * g, r_t);
        check_chain(&c, &mut rng, &[0.1, 1.0, 10.0], EvalCtx::dc(&[]), &mut hook);
    }
}

/// The suite circuits the paper's PTA runs march over, under the PTA hook:
/// large BJT/MOS structures with many branch unknowns.
#[test]
fn plan_matches_triplet_on_suite_circuits_under_pta_stamps() {
    let mut rng = StdRng::seed_from_u64(7);
    for bench in rlpta_circuits::table3() {
        let c = &bench.circuit;
        let x_ref = random_point(&mut rng, c.dim(), 1.0);
        let mut hook = pta_hook(c.num_nodes(), x_ref, 1e-3, 2e-4, 10.0);
        check_chain(c, &mut rng, &[0.1, 1.0, 10.0], EvalCtx::dc(&[]), &mut hook);
    }
}

#[cfg(feature = "faults")]
mod under_faults {
    use super::*;
    use rlpta_core::FaultPlan;
    use support::assembly_oracle::{assert_bit_identical, triplet_assemble, Assembled};

    /// Arms NaN stamps, then runs one side over the whole chain of points
    /// (the draw counter keeps running from point to point, as it does
    /// across Newton iterations), carrying that side's own limiter state.
    fn run_chain(
        plan: FaultPlan,
        c: &Circuit,
        points: &[Vec<f64>],
        mut assemble: impl FnMut(&EvalCtx<'_>, &[f64]) -> Assembled,
    ) -> Vec<Assembled> {
        plan.install();
        let mut state = c.new_state();
        let out = points
            .iter()
            .map(|x| {
                let a = assemble(&EvalCtx::dc(x), &state);
                state.clone_from(&a.state);
                a
            })
            .collect();
        FaultPlan::clear();
        out
    }

    /// Runs both sides of a chain under the same seeded NaN plan and
    /// asserts every point identical; returns how many points saw a
    /// non-finite stamp. The plan side resolves *after* arming: a resolve
    /// that consumed draws would shift every later NaN.
    fn check_faulted_chain(
        plan: FaultPlan,
        c: &Circuit,
        points: &[Vec<f64>],
        hook: &mut Hook<'_>,
    ) -> usize {
        let reference = run_chain(plan, c, points, |ctx, s| triplet_assemble(c, ctx, s, hook));
        let mut side = None;
        let planned = run_chain(plan, c, points, |ctx, s| {
            side.get_or_insert_with(|| PlanSide::resolve(c, hook))
                .assemble(c, ctx, s, hook)
        });
        for (k, (a, b)) in reference.iter().zip(&planned).enumerate() {
            assert_bit_identical(a, b, &format!("{plan:?} point {k}"));
        }
        reference.iter().filter(|a| !a.finite).count()
    }

    fn chain(rng: &mut StdRng, dim: usize) -> Vec<Vec<f64>> {
        [0.0, 0.1, 1.0, 10.0]
            .iter()
            .map(|&s| random_point(rng, dim, s))
            .collect()
    }

    /// Seeded NaN stamps land on the same push in both paths, so the
    /// poisoned values, the finiteness verdicts and everything downstream
    /// agree bit for bit — and the sweep really does poison some stamps.
    #[test]
    fn plan_matches_triplet_under_nan_stamps() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut poisoned = 0;
        for seed in 0..48u64 {
            let kind = (seed % 4) as usize;
            let c = parse(kind, 1.0 + seed as f64 * 0.25, 1_000.0, 3);
            let points = chain(&mut rng, c.dim());
            let plan = FaultPlan::seeded(seed).nan_stamps(1 + seed % 9);
            poisoned += check_faulted_chain(plan, &c, &points, &mut no_hook);
        }
        assert!(poisoned > 0, "no generated case drew a NaN stamp");
    }

    /// The same under PTA-shaped extra stamps: `jac_raw` pushes draw no
    /// faults on either path, so the device draw sequence stays aligned.
    #[test]
    fn plan_matches_triplet_under_nan_stamps_with_pta_extra_stamps() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut poisoned = 0;
        for seed in 0..48u64 {
            let kind = (seed % 4) as usize;
            let c = parse(kind, 2.0 + seed as f64 * 0.2, 470.0, 2);
            let points = chain(&mut rng, c.dim());
            let x_ref = random_point(&mut rng, c.dim(), 1.0);
            let mut hook = pta_hook(c.num_nodes(), x_ref, 1e-2, 1e-3, 5.0);
            let plan = FaultPlan::seeded(seed).nan_stamps(2 + seed % 7);
            poisoned += check_faulted_chain(plan, &c, &points, &mut hook);
        }
        assert!(poisoned > 0, "no generated case drew a NaN stamp");
    }
}
