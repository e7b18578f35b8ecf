//! The four workloads. Each is a closed loop with one client on one engine
//! worker thread: the next solve starts only after the previous returned.
//! The workload seed shapes the inputs; the program sees only circuits.
//!
//! `BENCHMARK.json` gates the first three. `ipp_table2`, the one path into
//! `gp`, runs only by hand: on a shared host its latency tail (the slowest
//! of seven held-out solves) spread past a 25% bound between runs of the
//! same code, and dropping it leaves the gated workloads longer runs.

use crate::answers::{node_voltages, Answers, Verdict};
use crate::stats::SolveSample;
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlpta_circuits::{families as fam, Benchmark};
use rlpta_core::{
    CacheStats, DcEngine, EngineConfig, FanoutSink, IppOracle, JobTicket, MetricsRegistry,
    PtaConfig, PtaKind, PtaParams, PtaSolver, RlStepping, RlSteppingConfig, ServiceError,
    SimService, Sink, Solution, SolveBudget, SolveError, SolveStats, Span, StepController,
    StepObservation,
};
use rlpta_devices::Device;
use rlpta_gp::{ActiveLearner, ActiveLearnerConfig, IterationOracle};
use rlpta_mna::Circuit;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the RL pretraining and of the GP active learning: fixed, like
/// the paper's experiments, so the workload seed changes inputs only.
const MODEL_SEED: u64 = 2022;

/// Workload names: those `BENCHMARK.json` lists, in its order, then
/// `ipp_table2`.
pub const NAMES: [&str; 4] = ["rls_fig5", "scale_mos", "service_mc", "ipp_table2"];

/// Builds the named workload.
pub fn make(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "rls_fig5" => Box::new(RlsFig5 {
            checker: Checker::new(include_str!("../answers/rls_fig5.txt")),
            ..RlsFig5::default()
        }),
        "scale_mos" => Box::new(ScaleMos {
            checker: Checker::new(include_str!("../answers/scale_mos.txt")),
            ..ScaleMos::default()
        }),
        "service_mc" => Box::new(ServiceMc {
            checker: Checker::new(include_str!("../answers/service_mc.txt")),
            ..ServiceMc::default()
        }),
        "ipp_table2" => Box::new(IppTable2 {
            checker: Checker::new(include_str!("../answers/ipp_table2.txt")),
            ..IppTable2::default()
        }),
        _ => return None,
    })
}

/// The traced run's telemetry: the span recorder and the program's own
/// metrics registry, fanned out from one sink.
pub struct Tracer {
    /// Span recorder (also a sink for phase timings).
    pub recorder: Arc<Recorder>,
    /// Per-phase histograms and per-kind event counts.
    pub registry: Arc<MetricsRegistry>,
    /// Both of the above as one sink, for `DcEngineBuilder::telemetry`.
    pub sink: Arc<dyn Sink>,
}

impl Tracer {
    /// A fresh recorder and registry.
    pub fn new() -> Self {
        let recorder = Arc::new(Recorder::default());
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(
            FanoutSink::new()
                .with(registry.clone() as Arc<dyn Sink>)
                .with(recorder.clone() as Arc<dyn Sink>),
        );
        Self {
            recorder,
            registry,
            sink,
        }
    }
}

/// Program work counted over one pass (from `SolveStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Newton–Raphson iterations.
    pub nr_iters: usize,
    /// Accepted pseudo-transient steps.
    pub pta_steps: usize,
    /// Rejected pseudo-transient steps.
    pub rejected_steps: usize,
    /// Full LU factorizations.
    pub factorizations: usize,
    /// Numeric LU replays.
    pub replays: usize,
}

impl Work {
    fn add(&mut self, s: &SolveStats) {
        self.nr_iters += s.nr_iterations;
        self.pta_steps += s.pta_steps;
        self.rejected_steps += s.rejected_steps;
        self.factorizations += s.lu_factorizations;
        self.replays += s.lu_refactorizations;
    }
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// One sample per solve, in input order.
    pub samples: Vec<SolveSample>,
    /// Wall time of each timed unit (a solve, or a service wave), seconds.
    pub unit_s: Vec<f64>,
    /// Timed wall time in seconds.
    pub wall_s: f64,
    /// Program work.
    pub work: Work,
    /// Service cache counters (service workload only).
    pub cache: CacheStats,
    /// One line per solve that did not count.
    pub failures: Vec<String>,
}

impl Pass {
    /// Books one finished solve: its work, its grade and its latency.
    fn book<E: std::fmt::Display>(
        &mut self,
        checker: &mut Checker,
        key: &str,
        circuit: &Circuit,
        result: &Result<Solution, E>,
        ms: f64,
    ) {
        if let Ok(sol) = result {
            self.work.add(&sol.stats);
        }
        let graded = checker.grade(key, circuit, result);
        self.samples.push(SolveSample {
            ms,
            ok: graded.is_ok(),
        });
        self.failures.extend(graded.err());
    }

    fn unit(&mut self, seconds: f64) {
        self.unit_s.push(seconds);
        self.wall_s += seconds;
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Builds the inputs (and trains any model) from `seed`. This is the
    /// set-up the benchmark times; it may run several times.
    fn setup(&mut self, seed: u64);
    /// How many set-ups a plain run times for `setup_s`: one before the
    /// first timed solve, the rest spread evenly over the run.
    fn setup_reps(&self) -> usize;
    /// One pass over every input, traced when `tracer` is given.
    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass;
    /// Per-layer values measured during set-up.
    fn setup_layers(&self) -> Vec<(&'static str, f64)>;
    /// Every circuit a pass solves, in pass order, keyed like the answer
    /// file.
    fn inputs(&self) -> Vec<(String, &Circuit)>;
    /// Every circuit the workload hands the program, set-up included, for
    /// the netlist probe.
    fn netlist_circuits(&self) -> Vec<(String, &Circuit)>;
    /// The grading state.
    fn checker(&mut self) -> &mut Checker;
}

/// Grades solves against the stored answers; in capture mode it records
/// certified answers instead.
#[derive(Debug, Default)]
pub struct Checker {
    /// Accepted answers.
    pub answers: Answers,
    /// Set while capturing reference answers.
    pub capture: bool,
    /// Whether to remember the last certified point per key (traced runs).
    pub keep_points: bool,
    /// Last certified full unknown vector per key.
    pub points: BTreeMap<String, Vec<f64>>,
}

impl Checker {
    fn new(text: &str) -> Self {
        Self {
            answers: Answers::parse(text).expect("stored answer files parse"),
            ..Self::default()
        }
    }

    /// Grades a finished solve; `Ok` when it counts.
    fn grade<E: std::fmt::Display>(
        &mut self,
        key: &str,
        circuit: &Circuit,
        result: &Result<Solution, E>,
    ) -> Result<(), String> {
        let sol = result.as_ref().ok();
        let verdict = match (self.answers.grade(key, circuit, result), sol) {
            (Verdict::Mismatch | Verdict::Unknown, Some(sol)) if self.capture => {
                self.answers
                    .insert(key, node_voltages(circuit, sol).to_vec());
                Verdict::Ok
            }
            (verdict, _) => verdict,
        };
        match verdict {
            Verdict::Ok => {
                if let (true, Some(sol)) = (self.keep_points, sol) {
                    self.points.insert(key.to_string(), sol.x.clone());
                }
                Ok(())
            }
            Verdict::Failed(e) => Err(format!("{key}: solve failed: {e}")),
            Verdict::NotCertified(g) => Err(format!("{key}: graded {g}, not certified")),
            Verdict::Mismatch => Err(format!("{key}: operating point matches no stored answer")),
            Verdict::Unknown => Err(format!("{key}: no stored answer")),
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Fisher–Yates shuffle driven by the workload seed.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

fn engine_with(builder: rlpta_core::DcEngineBuilder, tracer: Option<&Tracer>) -> DcEngine {
    match tracer {
        Some(t) => builder.telemetry(t.sink.clone()),
        None => builder,
    }
    .threads(1)
    .build()
}

// ---------------------------------------------------------------------------
// rls_fig5: RL-S with CEPTA and online adaptation over the Fig. 5 circuits.
// ---------------------------------------------------------------------------

/// A step controller that records a `rl.step` span around every call.
#[derive(Clone)]
pub struct TimedController<C> {
    inner: C,
    recorder: Arc<Recorder>,
}

impl<C: StepController> StepController for TimedController<C> {
    fn initial_step(&mut self) -> f64 {
        let _span = self.recorder.span("rl.step");
        self.inner.initial_step()
    }

    fn next_step(&mut self, obs: &StepObservation) -> f64 {
        let _span = self.recorder.span("rl.step");
        self.inner.next_step(obs)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        let _span = self.recorder.span("rl.step");
        self.inner.reset();
    }

    fn attach_telemetry(&mut self, sink: Arc<dyn Sink>, span: Span) {
        self.inner.attach_telemetry(sink, span);
    }
}

/// Pretrains RL-S on the training corpus, the paper's offline phase.
fn pretrain(corpus: &[Benchmark], config: &PtaConfig) -> RlStepping {
    let mut rl = RlStepping::new(RlSteppingConfig::new(MODEL_SEED));
    for _epoch in 0..2 {
        for b in corpus {
            let mut solver = PtaSolver::with_config(PtaKind::cepta(), rl.clone(), config.clone());
            // Learning is kept whether or not the training circuit converged.
            let _ = solver.solve(&b.circuit);
            rl = solver.controller_mut().clone();
        }
    }
    rl
}

/// RL-S evaluation over the 27 Fig. 5 circuits.
#[derive(Default)]
pub struct RlsFig5 {
    checker: Checker,
    circuits: Vec<Benchmark>,
    corpus: Vec<Benchmark>,
    policy: Option<RlStepping>,
    pretrain_s: Vec<f64>,
}

impl Workload for RlsFig5 {
    fn setup(&mut self, seed: u64) {
        let mut circuits = rlpta_circuits::fig5();
        shuffle(&mut circuits, &mut StdRng::seed_from_u64(seed));
        self.circuits = circuits;
        self.corpus = rlpta_circuits::training_corpus();
        let t = Instant::now();
        let mut policy = pretrain(&self.corpus, &EngineConfig::experiment().pta());
        self.pretrain_s.push(t.elapsed().as_secs_f64());
        policy.unfreeze();
        self.policy = Some(policy);
    }

    fn setup_reps(&self) -> usize {
        3
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let config = EngineConfig::experiment();
        let engine = engine_with(
            DcEngine::builder()
                .kind(PtaKind::cepta())
                .pta_config(config.pta()),
            tracer,
        );
        let policy = self.policy.as_ref().expect("set-up ran");
        // Each solve gets its own clone of the pretrained policy, which
        // adapts online for that circuit only (the engine clones per job).
        let timed = tracer.map(|tr| TimedController {
            inner: policy.clone(),
            recorder: tr.recorder.clone(),
        });
        let mut pass = Pass::default();
        for b in &self.circuits {
            let one = std::slice::from_ref(&b.circuit);
            let t = Instant::now();
            let result = match &timed {
                Some(timed) => {
                    let _root = timed.recorder.root();
                    engine.solve_batch_with(one, timed)
                }
                None => engine.solve_batch_with(one, policy),
            }
            .remove(0);
            let ms = ms_since(t);
            pass.unit(ms / 1e3);
            pass.book(&mut self.checker, &b.name, &b.circuit, &result, ms);
        }
        pass
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("rl.pretrain_s", crate::stats::median(&self.pretrain_s)),
            (
                "rl.transitions",
                self.policy.as_ref().map_or(0, RlStepping::transitions_seen) as f64,
            ),
        ]
    }

    fn inputs(&self) -> Vec<(String, &Circuit)> {
        self.circuits
            .iter()
            .map(|b| (b.name.clone(), &b.circuit))
            .collect()
    }

    fn netlist_circuits(&self) -> Vec<(String, &Circuit)> {
        self.circuits
            .iter()
            .chain(&self.corpus)
            .map(|b| (b.name.clone(), &b.circuit))
            .collect()
    }

    fn checker(&mut self) -> &mut Checker {
        &mut self.checker
    }
}

// ---------------------------------------------------------------------------
// scale_mos: cold robust-ladder solves of generated MOS logic, dim 100–1920.
// ---------------------------------------------------------------------------

/// The scaling set: every size certifies through the default ladder.
/// `mos_adder` 160 and up and `mos_voter` 1024 are graded `Suspect` by
/// the certifier at this commit, so they are left out.
pub fn scale_circuits() -> Vec<(String, Circuit)> {
    let mut v = Vec::new();
    for bits in [32, 64, 96] {
        v.push((format!("mos_adder{bits}"), fam::mos_adder("adder", bits)));
    }
    for leaves in [256, 640] {
        v.push((
            format!("mos_voter{leaves}"),
            fam::mos_voter("voter", leaves),
        ));
    }
    for stages in [100, 200] {
        v.push((
            format!("mos_inverter_chain{stages}"),
            fam::mos_inverter_chain("chain", stages),
        ));
    }
    v
}

/// Cold solves of the scaling set through the default robust ladder.
#[derive(Default)]
pub struct ScaleMos {
    checker: Checker,
    circuits: Vec<(String, Circuit)>,
}

impl Workload for ScaleMos {
    fn setup(&mut self, seed: u64) {
        let mut circuits = scale_circuits();
        shuffle(&mut circuits, &mut StdRng::seed_from_u64(seed));
        self.circuits = circuits;
    }

    fn setup_reps(&self) -> usize {
        15
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let engine = engine_with(
            DcEngine::builder()
                .robust()
                .budget(EngineConfig::experiment().budget()),
            tracer,
        );
        let mut pass = Pass::default();
        for (name, circuit) in &self.circuits {
            let t = Instant::now();
            let result = {
                let _root = tracer.map(|tr| tr.recorder.root());
                engine.solve(circuit)
            };
            let ms = ms_since(t);
            pass.unit(ms / 1e3);
            pass.book(&mut self.checker, name, circuit, &result, ms);
        }
        pass
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn inputs(&self) -> Vec<(String, &Circuit)> {
        self.circuits.iter().map(|(k, c)| (k.clone(), c)).collect()
    }

    fn netlist_circuits(&self) -> Vec<(String, &Circuit)> {
        self.inputs()
    }

    fn checker(&mut self) -> &mut Checker {
        &mut self.checker
    }
}

// ---------------------------------------------------------------------------
// service_mc: Monte-Carlo job waves through SimService.
// ---------------------------------------------------------------------------

/// Jittered copies kept per Table 3 topology.
pub const VARIANTS: usize = 6;
/// Relative source jitter of a copy.
pub const JITTER: f64 = 0.05;
/// Size of the cache-miss pool drawn from `training_corpus_seeded`.
pub const MISS_POOL: usize = 48;
/// Seeds of the two pools (fixed, so their answers can be stored).
const VARIANT_POOL_SEED: u64 = 0x5EED_0001;
const MISS_POOL_SEED: u64 = 0x5EED_0002;
/// Jobs per wave.
pub const WAVE: usize = 16;
/// Submissions per pass of each jittered copy and of each miss-pool
/// circuit: 3168 Table 3 jobs and 384 miss-pool jobs (10.8%). A fresh
/// service per pass misses its cache on the first job of each structure.
/// At half these counts the p90 latency moved by 13% (quartile spread)
/// between seeds, with the cold first jobs crowding into fewer waves.
pub const HIT_COPIES: usize = 16;
pub const MISS_COPIES: usize = 8;

/// Copy of `circuit` with every independent source scaled by its own
/// factor in `1 ± JITTER`.
fn jittered(circuit: &Circuit, rng: &mut StdRng) -> Circuit {
    let sources: Vec<(String, f64)> = circuit
        .devices()
        .iter()
        .filter_map(|d| match d {
            Device::Vsource(v) => Some((v.name().to_string(), v.dc())),
            Device::Isource(i) => Some((i.name().to_string(), i.dc())),
            _ => None,
        })
        .collect();
    let mut out = circuit.clone();
    for (name, dc) in sources {
        let factor = 1.0 + JITTER * (2.0 * rng.gen::<f64>() - 1.0);
        out.set_source_dc(&name, dc * factor);
    }
    out
}

/// The fixed job pool: `VARIANTS` jittered copies of each Table 3
/// topology, then `MISS_POOL` seeded training-family circuits.
pub fn service_pool() -> (Vec<(String, Circuit)>, usize) {
    let mut pool = Vec::new();
    for (t, b) in rlpta_circuits::table3().into_iter().enumerate() {
        for v in 0..VARIANTS {
            let mut rng = StdRng::seed_from_u64(VARIANT_POOL_SEED + (t * VARIANTS + v) as u64);
            pool.push((format!("{}/v{v}", b.name), jittered(&b.circuit, &mut rng)));
        }
    }
    let hits = pool.len();
    for b in rlpta_circuits::training_corpus_seeded(MISS_POOL, MISS_POOL_SEED) {
        pool.push((format!("seeded/{}", b.name), b.circuit));
    }
    (pool, hits)
}

/// Job waves through a fresh `SimService` per pass.
#[derive(Default)]
pub struct ServiceMc {
    checker: Checker,
    pool: Vec<(String, Circuit)>,
    /// Pool indices of one pass's jobs, in submission order.
    trace: Vec<usize>,
}

impl Workload for ServiceMc {
    fn setup(&mut self, seed: u64) {
        let (pool, hits) = service_pool();
        let mut rng = StdRng::seed_from_u64(seed);
        // Every pass submits the same multiset of jobs: each jittered copy
        // `HIT_COPIES` times and each miss-pool circuit `MISS_COPIES` times.
        // Jobs of one structure always come in the same order (copies in
        // turn, misses in pool order), so each warm-start chain, and with
        // it the solver work, is the same for every seed. The seed draws
        // how the structures interleave and which jobs share a wave; the
        // misses are dealt evenly over the waves.
        let topologies = hits / VARIANTS;
        let mut labels: Vec<usize> = (0..topologies)
            .flat_map(|t| [t; VARIANTS * HIT_COPIES])
            .collect();
        shuffle(&mut labels, &mut rng);
        let miss_label = topologies;
        let misses = MISS_POOL * MISS_COPIES;
        let jobs = labels.len() + misses;
        let waves = jobs.div_ceil(WAVE);
        let mut next_copy = vec![0usize; topologies];
        let mut next_miss = 0usize;
        let mut hit_labels = labels.into_iter();
        let mut misses_left = misses;
        self.trace = Vec::with_capacity(jobs);
        for w in 0..waves {
            let take = misses_left / (waves - w);
            misses_left -= take;
            let size = WAVE.min(jobs - self.trace.len());
            let mut wave: Vec<usize> = vec![miss_label; take];
            wave.extend(hit_labels.by_ref().take(size - take));
            shuffle(&mut wave, &mut rng);
            for label in wave {
                let job = if label == miss_label {
                    next_miss += 1;
                    hits + (next_miss - 1) % MISS_POOL
                } else {
                    next_copy[label] += 1;
                    label * VARIANTS + (next_copy[label] - 1) % VARIANTS
                };
                self.trace.push(job);
            }
        }
        self.pool = pool;
    }

    fn setup_reps(&self) -> usize {
        15
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let engine = engine_with(
            DcEngine::builder().budget(SolveBudget::UNLIMITED.nr_iterations(5_000)),
            tracer,
        );
        let mut service = SimService::builder(engine).queue_capacity(WAVE).build();
        let mut pass = Pass::default();
        for wave in self.trace.chunks(WAVE) {
            let circuits: Vec<Circuit> = wave.iter().map(|&j| self.pool[j].1.clone()).collect();
            let mut submitted: Vec<(usize, Instant)> = Vec::with_capacity(wave.len());
            let t_wave = Instant::now();
            let (results, t_end) = {
                let _root = tracer.map(|tr| tr.recorder.root());
                for circuit in circuits {
                    let t = Instant::now();
                    let _submit = tracer.map(|tr| tr.recorder.span("service.submit"));
                    let id = service
                        .submit(circuit, JobTicket::default())
                        .expect("a wave never exceeds the queue capacity");
                    submitted.push((id, t));
                }
                let results = {
                    let _drain = tracer.map(|tr| tr.recorder.span("service.drain"));
                    service.drain()
                };
                (results, Instant::now())
            };
            pass.unit((t_end - t_wave).as_secs_f64());
            let mut results: BTreeMap<usize, Result<Solution, ServiceError>> =
                results.into_iter().collect();
            for (&(id, t), &j) in submitted.iter().zip(wave) {
                let (key, circuit) = &self.pool[j];
                let result = results.remove(&id).map_or_else(
                    || Err(format!("job {id} never returned")),
                    |r| r.map_err(|e| e.to_string()),
                );
                let ms = (t_end - t).as_secs_f64() * 1e3;
                pass.book(&mut self.checker, key, circuit, &result, ms);
            }
        }
        pass.cache = service.cache_stats();
        pass
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn inputs(&self) -> Vec<(String, &Circuit)> {
        self.pool.iter().map(|(k, c)| (k.clone(), c)).collect()
    }

    fn netlist_circuits(&self) -> Vec<(String, &Circuit)> {
        self.inputs()
    }

    fn checker(&mut self) -> &mut Checker {
        &mut self.checker
    }
}

// ---------------------------------------------------------------------------
// ipp_table2: GP active learning, then predict + CEPTA on held-out circuits.
// ---------------------------------------------------------------------------

/// An `IppOracle` that times every evaluation.
struct TimedOracle<'a> {
    inner: IppOracle<'a>,
    seconds: f64,
}

impl IterationOracle for TimedOracle<'_> {
    fn evaluate(&mut self, circuit: usize, w: &[f64]) -> f64 {
        let t = Instant::now();
        let cost = self.inner.evaluate(circuit, w);
        self.seconds += t.elapsed().as_secs_f64();
        cost
    }

    fn evaluate_batch(&mut self, jobs: &[(usize, Vec<f64>)]) -> Vec<f64> {
        let t = Instant::now();
        let costs = self.inner.evaluate_batch(jobs);
        self.seconds += t.elapsed().as_secs_f64();
        costs
    }
}

/// IPP: offline GP training as set-up, online prediction per solve.
#[derive(Default)]
pub struct IppTable2 {
    checker: Checker,
    held_out: Vec<(usize, Benchmark)>,
    corpus: Vec<Benchmark>,
    learner: Option<ActiveLearner>,
    offline_s: Vec<f64>,
    oracle_s: Vec<f64>,
    fit_s: Vec<f64>,
    oracle_calls: usize,
}

impl Workload for IppTable2 {
    fn setup(&mut self, seed: u64) {
        let mut held_out: Vec<(usize, Benchmark)> =
            rlpta_circuits::table2().into_iter().enumerate().collect();
        shuffle(&mut held_out, &mut StdRng::seed_from_u64(seed));
        self.held_out = held_out;
        self.corpus = rlpta_circuits::training_corpus();
        let features: Vec<Vec<f64>> = self.corpus.iter().map(|b| b.features().to_vec()).collect();
        let flags: Vec<bool> = self.corpus.iter().map(|b| b.is_bjt).collect();
        let circuits: Vec<Circuit> = self.corpus.iter().map(|b| b.circuit.clone()).collect();
        let mut learner = ActiveLearner::new(
            features,
            flags,
            ActiveLearnerConfig {
                rounds: 6,
                mle_starts: 16,
                ei_candidates: 192,
                w_range: 2.0,
            },
        );
        let mut oracle = TimedOracle {
            inner: IppOracle::new(&circuits, PtaKind::cepta()).with_threads(1),
            seconds: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(MODEL_SEED);
        let t = Instant::now();
        learner
            .offline_train(&mut oracle, &mut rng)
            .expect("offline GP training fits");
        let offline = t.elapsed().as_secs_f64();
        self.offline_s.push(offline);
        self.oracle_s.push(oracle.seconds);
        self.fit_s.push(offline - oracle.seconds);
        self.oracle_calls = oracle.inner.evaluations();
        self.learner = Some(learner);
    }

    fn setup_reps(&self) -> usize {
        3
    }

    fn pass(&mut self, tracer: Option<&Tracer>) -> Pass {
        let learner = self.learner.as_ref().expect("set-up ran");
        let mut pass = Pass::default();
        for (index, b) in &self.held_out {
            let features = b.features().to_vec();
            // A per-circuit generator keeps predictions independent of the
            // seed-shuffled order.
            let mut rng = StdRng::seed_from_u64(MODEL_SEED + *index as u64);
            let t = Instant::now();
            let result = {
                let _root = tracer.map(|tr| tr.recorder.root());
                let w = {
                    let _predict = tracer.map(|tr| tr.recorder.span("gp.predict"));
                    learner.predict_best(&features, b.is_bjt, &mut rng)
                };
                match w {
                    Ok(w) => {
                        // The oracle's own settings: predicted parameters,
                        // 4000-step cap.
                        let config = PtaConfig {
                            params: PtaParams::from_w(&w),
                            max_steps: 4000,
                            ..PtaConfig::default()
                        };
                        engine_with(
                            DcEngine::builder()
                                .kind(PtaKind::cepta())
                                .pta_config(config),
                            tracer,
                        )
                        .solve(&b.circuit)
                    }
                    Err(e) => Err(SolveError::InvalidConfig {
                        detail: format!("GP prediction failed: {e}"),
                    }),
                }
            };
            let ms = ms_since(t);
            pass.unit(ms / 1e3);
            pass.book(&mut self.checker, &b.name, &b.circuit, &result, ms);
        }
        pass
    }

    fn setup_layers(&self) -> Vec<(&'static str, f64)> {
        let median = crate::stats::median;
        vec![
            ("gp.offline_s", median(&self.offline_s)),
            ("gp.oracle_s", median(&self.oracle_s)),
            ("gp.fit_s", median(&self.fit_s)),
            ("gp.oracle_calls", self.oracle_calls as f64),
        ]
    }

    fn inputs(&self) -> Vec<(String, &Circuit)> {
        self.held_out
            .iter()
            .map(|(_, b)| (b.name.clone(), &b.circuit))
            .collect()
    }

    fn netlist_circuits(&self) -> Vec<(String, &Circuit)> {
        self.held_out
            .iter()
            .map(|(_, b)| b)
            .chain(&self.corpus)
            .map(|b| (b.name.clone(), &b.circuit))
            .collect()
    }

    fn checker(&mut self) -> &mut Checker {
        &mut self.checker
    }
}
