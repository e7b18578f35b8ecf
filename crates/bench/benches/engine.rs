//! Engine-level benchmarks: the symbolic/numeric LU split that every warm
//! Newton iteration rides on, and the pooled batch engine over a corpus.
//!
//! The `symbolic_reuse` group is the acceptance check for the split: on the
//! largest suite circuit (`fadd32`, 132 unknowns) a numeric-only
//! `refactorize` replay must beat a from-scratch `factorize` of the same
//! Jacobian — that gap is what the engine banks at every Newton iteration
//! after the first.

#[allow(dead_code)]
#[path = "../../core/tests/support/limit_free_oracle.rs"]
mod limit_free_oracle;

#[allow(dead_code)]
#[path = "../../core/tests/support/certify_oracle.rs"]
mod certify_oracle;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlpta_bench::{experiment_config, robust_budget};
use rlpta_circuits::{by_name, families::mos_voter};
use rlpta_core::{certify, DcEngine, PtaKind, PtaSolver, SimpleStepping, StructureKey};
use rlpta_devices::{Device, EvalCtx};
use rlpta_linalg::{CsrMatrix, LuWorkspace, SparseLu, StampSlots, Triplet};
use rlpta_mna::{Circuit, StampPlan};

/// A suite circuit and its DC operating point from a robust solve.
fn operating_point(name: &str) -> (Circuit, Vec<f64>) {
    let circuit = by_name(name).expect("known benchmark").circuit;
    let sol = DcEngine::builder()
        .robust()
        .budget(robust_budget())
        .build()
        .solve(&circuit)
        .expect("suite circuit solves");
    (circuit, sol.x)
}

/// The Jacobian of the largest suite circuit at its DC operating point —
/// the exact matrix the warm iterations of a PTA march keep refactorizing.
fn largest_jacobian() -> CsrMatrix {
    let (c, x) = operating_point("fadd32");
    c.assemble_limit_free(&x).0.to_csr()
}

fn bench_symbolic_reuse(c: &mut Criterion) {
    let a = largest_jacobian();
    let mut group = c.benchmark_group("symbolic_reuse");
    group.bench_function("full_factorize_fadd32", |b| {
        b.iter(|| SparseLu::factorize(&a).unwrap())
    });
    let mut ws = LuWorkspace::new();
    ws.factorize(&a).unwrap(); // record the symbolic pattern once
    group.bench_function("refactorize_fadd32", |b| {
        b.iter(|| ws.factorize(&a).unwrap())
    });
    group.finish();
}

fn bench_batch_engine(c: &mut Criterion) {
    let circuits: Vec<_> = ["D10", "gm1", "bias", "mosamp", "latch", "SCHMITT", "Adding", "D11"]
        .iter()
        .map(|n| by_name(n).expect("known benchmark").circuit)
        .collect();
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let engine = DcEngine::builder()
            .robust()
            .budget(robust_budget())
            .threads(threads)
            .build();
        group.bench_with_input(
            BenchmarkId::new("robust_corpus", threads),
            &engine,
            |b, engine| {
                b.iter(|| {
                    let results = engine.solve_batch(&circuits);
                    assert!(results.iter().all(|r| r.is_ok()));
                })
            },
        );
    }
    group.finish();
}

/// The telemetry zero-cost guard: the engine's default `NullSink` path
/// (every event built and forwarded to a no-op sink) must sit within
/// measurement noise of the bare solver's no-sink path on the same
/// circuit. A visible gap between the two bars means event emission grew
/// a hot-path cost — treat that as a regression. The third bar turns full
/// timing instrumentation on (a `MetricsRegistry` sink, which wants
/// timing, so every phase samples the clock twice and folds a histogram
/// entry) — the measured price of `--profile`/`--bench-json`, expected to
/// be small but nonzero. The `flight_recorder_engine` bar attaches a
/// [`rlpta_core::FlightRecorder`] instead: ring-buffered event capture
/// without timing, expected within a few percent of the `null_sink` bar
/// (the recorder clones events into preallocated ring slots and never
/// samples the clock; for the plain-old-data payloads of the solver hot
/// loop the clone allocates nothing either).
fn bench_telemetry_overhead(c: &mut Criterion) {
    let circuit = by_name("gm1").expect("known benchmark").circuit;
    let kind = PtaKind::cepta();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("no_sink", |b| {
        b.iter(|| {
            PtaSolver::with_config(kind, SimpleStepping::default(), experiment_config())
                .solve(&circuit)
                .unwrap()
        })
    });
    let engine = DcEngine::builder()
        .kind(kind)
        .pta_config(experiment_config())
        .build();
    group.bench_function("null_sink_engine", |b| {
        b.iter(|| engine.solve(&circuit).unwrap())
    });
    let recorder = std::sync::Arc::new(rlpta_core::FlightRecorder::new(64));
    let recorded_engine = DcEngine::builder()
        .kind(kind)
        .pta_config(experiment_config())
        .telemetry(recorder)
        .build();
    group.bench_function("flight_recorder_engine", |b| {
        b.iter(|| recorded_engine.solve(&circuit).unwrap())
    });
    let metrics = std::sync::Arc::new(rlpta_core::MetricsRegistry::new());
    let timed_engine = DcEngine::builder()
        .kind(kind)
        .pta_config(experiment_config())
        .telemetry(metrics)
        .build();
    group.bench_function("timing_instrumented_engine", |b| {
        b.iter(|| timed_engine.solve(&circuit).unwrap())
    });
    group.finish();
}

/// The assembly-pipeline counterpart of `symbolic_reuse`, at the layer
/// where it is decided: one `StampPlan::eval_into` write pass into a
/// persistent CSR buffer (what every Newton iteration runs) versus the
/// triplet reference (`assemble_into` pushes, then the sort/dedup of
/// `to_csr`) at the circuit's operating point. The two are bit-identical
/// by contract (`tests/assembly_oracle.rs`), so the gap between the bars
/// is pure assembly overhead — what the plan banks on every Newton
/// iteration after the first.
fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembly");
    for name in ["gm1", "fadd32"] {
        let (circuit, x) = operating_point(name);
        let ctx = EvalCtx::dc(&x);
        let dim = circuit.dim();
        let mut res = vec![0.0; dim];
        let mut state = circuit.seeded_state(&x);
        let plan = StampPlan::resolve(&circuit, &mut |_| {});
        let mut matrix = plan.new_matrix();
        group.bench_function(BenchmarkId::new("plan", name), |b| {
            b.iter(|| {
                plan.eval_into(
                    &circuit,
                    &ctx,
                    &mut matrix,
                    &mut res,
                    &mut state,
                    &mut |_| {},
                )
            })
        });
        let mut jac = Triplet::with_capacity(dim, dim, plan.len());
        group.bench_function(BenchmarkId::new("triplet", name), |b| {
            b.iter(|| {
                circuit.assemble_into(&ctx, &mut jac, &mut res, &mut state);
                jac.to_csr()
            })
        });
    }
    group.finish();
}

/// The COO→CSR conversion `Triplet::to_csr` ran before the counting
/// sort: a comparison sort of the entries, then duplicate summation.
fn comparison_sort_csr(
    rows: usize,
    t: &[(usize, usize, f64)],
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut sorted = t.to_vec();
    sorted.sort_by_key(|e| (e.0, e.1));
    let mut row_ptr = vec![0usize; rows + 1];
    let mut cols = Vec::with_capacity(sorted.len());
    let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
    let mut last = None;
    for (r, c, v) in sorted {
        match values.last_mut() {
            Some(tail) if last == Some((r, c)) => *tail += v,
            _ => {
                row_ptr[r + 1] += 1;
                cols.push(c);
                values.push(v);
                last = Some((r, c));
            }
        }
    }
    for i in 0..rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    (row_ptr, cols, values)
}

/// The retired byte-at-a-time FNV-1a fold (eight xor-multiplies per
/// word, no final avalanche) that both retired key derivations used.
struct BytewiseFnv(u64);

impl BytewiseFnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_slice(&mut self, vs: &[usize]) {
        for &v in vs {
            self.write_u64(v as u64);
        }
    }
}

/// The retired key's topology half: dimensions, then every device's kind
/// tag, branch count and terminals (a stand-in tag per kind — the cost,
/// not the value, is what is priced).
fn bytewise_topology_hash(h: &mut BytewiseFnv, c: &Circuit) {
    h.write_slice(&[c.num_nodes(), c.num_branches(), c.state_len()]);
    for d in c.devices() {
        h.write_u64(match d {
            Device::Resistor(_) => 1,
            Device::Mosfet(_) => 12,
            _ => u64::MAX,
        });
        h.write_u64(d.branch_count() as u64);
        for n in d.nodes() {
            h.write_u64(n.index().map_or(u64::MAX, |i| i as u64));
        }
    }
}

/// The structure key as it was derived before the declare pass: a triplet
/// assembly at `x = 0`, the comparison-sort conversion, then the pattern
/// and topology hash.
fn walk_era_key(c: &Circuit) -> u64 {
    let x0 = vec![0.0; c.dim()];
    let (t, _) = c.assemble(&EvalCtx::dc(&x0));
    let (row_ptr, cols, _) = comparison_sort_csr(t.rows(), t.entries());
    let mut h = BytewiseFnv::new();
    h.write_slice(&row_ptr);
    h.write_slice(&cols);
    bytewise_topology_hash(&mut h, c);
    h.0
}

/// The structure key as it was derived before it hashed the target
/// sequence: a declare pass, the counting sort into a CSR pattern, then a
/// byte-wise hash of the pattern and the topology.
fn pattern_era_key(c: &Circuit) -> u64 {
    let mut targets = Vec::new();
    c.declare_targets(&mut targets);
    let (pattern, _) = StampSlots::build(c.dim(), c.dim(), &targets);
    let mut h = BytewiseFnv::new();
    h.write_slice(&[pattern.rows(), pattern.cols()]);
    h.write_slice(pattern.row_ptr());
    h.write_slice(pattern.col_indices());
    let pattern_hash = h.0;
    let mut h = BytewiseFnv::new();
    h.write_u64(pattern_hash);
    bytewise_topology_hash(&mut h, c);
    h.0
}

/// Limit-free evaluation: one limit-free pass against the retired limiter
/// walk (up to 64 limited triplet assemblies, then one more) for the three
/// entry points that used it — `Circuit::residual` (the PTA steady-state
/// test), `certify` (assembly + LU + condition estimate) and
/// `StructureKey::of` (the target-sequence key against the two retired
/// derivations: a triplet assembly plus comparison sort, and a declare
/// pass plus counting sort, each hashed byte-wise) — at each circuit's
/// operating point, plus the COO→CSR conversion itself (counting sort
/// against comparison sort) on the operating-point Jacobian's triplets.
fn bench_limit_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("limit_free");
    group.sample_size(200);
    let voter = mos_voter("voter", 256);
    let voter_x = DcEngine::builder()
        .build()
        .solve(&voter)
        .expect("mos_voter256 solves")
        .x;
    let circuits = [
        ("gm1", operating_point("gm1")),
        ("fadd32", operating_point("fadd32")),
        ("mos_voter256", (voter, voter_x)),
    ];
    for (name, (circuit, x)) in &circuits {
        let (circuit, x) = (circuit, x.as_slice());
        group.bench_function(BenchmarkId::new("residual_walk", name), |b| {
            b.iter(|| {
                let (mut state, _) = limit_free_oracle::walk_state(circuit, x);
                let dim = circuit.dim();
                let mut jac = Triplet::new(dim, dim);
                let mut res = vec![0.0; dim];
                circuit.assemble_into(&EvalCtx::dc(x), &mut jac, &mut res, &mut state);
                res
            })
        });
        group.bench_function(BenchmarkId::new("residual_single_pass", name), |b| {
            b.iter(|| circuit.residual(x))
        });
        group.bench_function(BenchmarkId::new("certify_walk", name), |b| {
            b.iter(|| {
                let a = limit_free_oracle::walk(circuit, x).jacobian;
                let lu = SparseLu::factorize(&a).unwrap();
                (lu.cond_estimate(&a).unwrap(), lu.pivot_growth())
            })
        });
        group.bench_function(BenchmarkId::new("certify_single_pass", name), |b| {
            b.iter(|| certify(circuit, x))
        });
        group.bench_function(BenchmarkId::new("key_triplet", name), |b| {
            b.iter(|| walk_era_key(circuit))
        });
        group.bench_function(BenchmarkId::new("key_pattern", name), |b| {
            b.iter(|| pattern_era_key(circuit))
        });
        group.bench_function(BenchmarkId::new("key_targets", name), |b| {
            b.iter(|| StructureKey::of(circuit))
        });
        let (t, _) = circuit.assemble_limit_free(x);
        group.bench_function(BenchmarkId::new("to_csr_comparison_sort", name), |b| {
            b.iter(|| comparison_sort_csr(t.rows(), t.entries()))
        });
        group.bench_function(BenchmarkId::new("to_csr_counting_sort", name), |b| {
            b.iter(|| t.to_csr())
        });
    }
    group.finish();
}

/// Certification at each circuit's operating point, three ways: the
/// triplet oracle (limit-free triplet assembly, `to_csr`, fresh
/// factorization — the path `certify` ran before), the public `certify`
/// (a cold, throwaway device-only plan and a fresh factorization) and the
/// warm path's work (a resolved plan's limit-free pass into a working
/// buffer, then `SymbolicLu::factorize_fresh` over the pattern the solver
/// recorded at the same point, the Hager estimate and the pivot growth).
fn bench_certify(c: &mut Criterion) {
    let mut group = c.benchmark_group("certify");
    group.sample_size(200);
    for name in ["gm1", "fadd32", "voter25"] {
        let (circuit, x) = operating_point(name);
        let (circuit, x) = (&circuit, x.as_slice());
        group.bench_function(BenchmarkId::new("triplet_oracle", name), |b| {
            b.iter(|| certify_oracle::certify(circuit, x))
        });
        group.bench_function(BenchmarkId::new("plan_cold", name), |b| {
            b.iter(|| certify(circuit, x))
        });
        // The solver's last Jacobian at `x` (limited pass over the seeded
        // state), factorized through a workspace to record its pattern.
        let plan = StampPlan::resolve(circuit, &mut |_| {});
        let mut m = plan.new_matrix();
        let mut res = vec![0.0; circuit.dim()];
        let mut state = circuit.seeded_state(x);
        plan.eval_into(circuit, &EvalCtx::dc(x), &mut m, &mut res, &mut state, &mut |_| {});
        let mut ws = LuWorkspace::new();
        ws.factorize(&m).unwrap();
        let sym = ws.symbolic().unwrap().clone();
        group.bench_function(BenchmarkId::new("plan_warm_symbolic", name), |b| {
            b.iter(|| {
                plan.eval_limit_free_into(circuit, x, &mut m, &mut res);
                let lu = sym.factorize_fresh(&m).unwrap();
                (
                    rlpta_linalg::norms::inf_norm(&res),
                    lu.cond_estimate(&m).unwrap(),
                    lu.pivot_growth(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_symbolic_reuse,
    bench_batch_engine,
    bench_telemetry_overhead,
    bench_assembly,
    bench_limit_free,
    bench_certify
);
criterion_main!(benches);
