//! The traced run's span recorder.
//!
//! The benchmark wraps its own calls into each layer in spans
//! ([`Recorder::span`]) and also receives the program's out-of-band
//! `PhaseTiming` events as a telemetry [`Sink`]. A phase event carries only
//! its duration and arrives when the phase ends, so its interval is
//! `[arrival − duration, arrival]`. Everything runs on one thread, so the
//! intervals nest, and a span's children are exactly the spans that closed
//! after it opened. The recorder folds that nesting online: each span's
//! self time is its duration minus its direct children's durations. Self
//! times of everything inside a root span therefore add up to the root's
//! duration exactly; the root's own self time is the unattributed rest.

use rlpta_core::{Event, Payload, Sink};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Name of the benchmark's per-solve root span.
pub const ROOT: &str = "solve";

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations in nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children) in nanoseconds.
    /// Signed: clock jitter at a span boundary can misplace a few
    /// nanoseconds, but the sum over a root stays exact.
    pub self_ns: i64,
}

#[derive(Debug, Default)]
struct Fold {
    /// Closed spans not yet claimed by a parent: `(end_ns, duration_ns)`.
    pending: Vec<(u64, u64)>,
    spans: BTreeMap<&'static str, SpanTotals>,
    /// Solves that ran more than one ladder stage: distinct job spans with
    /// a failed-stage event, counted per root.
    escalated: u64,
    escalated_jobs: Vec<Option<usize>>,
}

impl Fold {
    fn close(&mut self, name: &'static str, end_ns: u64, dur_ns: u64) {
        let start_ns = end_ns.saturating_sub(dur_ns);
        let mut children = 0u64;
        while let Some(&(end, dur)) = self.pending.last() {
            if end <= start_ns {
                break;
            }
            children += dur;
            self.pending.pop();
        }
        let t = self.spans.entry(name).or_default();
        t.calls += 1;
        t.total_ns += dur_ns;
        t.self_ns += dur_ns as i64 - children as i64;
        self.pending.push((end_ns, dur_ns));
    }

    fn close_root(&mut self, end_ns: u64, dur_ns: u64) {
        self.close(ROOT, end_ns, dur_ns);
        self.pending.clear();
        self.escalated += self.escalated_jobs.len() as u64;
        self.escalated_jobs.clear();
    }
}

/// Span recorder and telemetry sink for the traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    fold: Mutex<Fold>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            fold: Mutex::new(Fold::default()),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Fold> {
        self.fold.lock().expect("recorder lock poisoned by a panic")
    }

    /// Opens a span named `name`; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            recorder: self,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Opens the root span of one solve (or one service wave).
    pub fn root(&self) -> SpanGuard<'_> {
        self.span(ROOT)
    }

    /// Totals per span name so far.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        self.lock().spans.clone()
    }

    /// Totals of one span name so far.
    pub fn get(&self, name: &str) -> SpanTotals {
        self.lock().spans.get(name).copied().unwrap_or_default()
    }

    /// Solves that escalated past the first ladder stage so far.
    pub fn escalated(&self) -> u64 {
        self.lock().escalated
    }
}

/// An open span; records its interval on drop.
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    name: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.recorder.now_ns();
        let dur = end.saturating_sub(self.start_ns);
        // Never panic in drop: a poisoned lock only loses this span.
        if let Ok(mut fold) = self.recorder.fold.lock() {
            if self.name == ROOT {
                fold.close_root(end, dur);
            } else {
                fold.close(self.name, end, dur);
            }
        }
    }
}

impl Sink for Recorder {
    fn emit(&self, event: &Event) {
        match &event.payload {
            Payload::PhaseTiming { phase, nanos } => {
                let end = self.now_ns();
                self.lock().close(phase.name(), end, *nanos);
            }
            Payload::LadderAttempt { .. } => {
                let mut fold = self.lock();
                if !fold.escalated_jobs.contains(&event.span.job) {
                    fold.escalated_jobs.push(event.span.job);
                }
            }
            _ => {}
        }
    }
}

/// The layer a span name belongs to; `None` for the root.
pub fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "rl.step" | "rl_inference" | "rl_train" => "rl",
        "pta_step" => "core.pta",
        "nr_solve" => "core.newton",
        "ladder_stage" => "core.recovery",
        "stamp_resolve" | "stamp_write" => "mna",
        "lu_factorize" | "lu_replay" => "linalg",
        "gp.predict" | "gp_acquisition" | "gp_fit" => "gp",
        "service.submit" | "service.drain" => "core.service",
        ROOT => return None,
        _ => "other",
    })
}

/// Self time per layer plus the root's own (unattributed) self time, in
/// nanoseconds.
pub fn layer_self_ns(
    totals: &BTreeMap<&'static str, SpanTotals>,
) -> (BTreeMap<&'static str, i64>, i64) {
    let mut layers: BTreeMap<&'static str, i64> = BTreeMap::new();
    let mut unattributed = 0;
    for (name, t) in totals {
        match layer_of(name) {
            Some(layer) => *layers.entry(layer).or_default() += t.self_ns,
            None => unattributed += t.self_ns,
        }
    }
    (layers, unattributed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlpta_core::{Phase, Span};

    fn phase(rec: &Recorder, phase: Phase, nanos: u64) {
        rec.emit(&Event {
            span: Span::default(),
            payload: Payload::PhaseTiming { phase, nanos },
        });
    }

    fn busy(d: std::time::Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Folds hand-placed intervals: root [0,100] ⊃ pta [10,90] ⊃
    /// {nr [20,50] ⊃ stamp [25,30], lu [31,45]; rl [60,80]}.
    #[test]
    fn self_times_follow_nesting() {
        let mut f = Fold::default();
        f.close("stamp_write", 30, 5);
        f.close("lu_replay", 45, 14);
        f.close("nr_solve", 50, 30);
        f.close("rl.step", 80, 20);
        f.close("pta_step", 90, 80);
        f.close_root(100, 100);
        let get = |n: &str| f.spans[n].self_ns;
        assert_eq!(get("stamp_write"), 5);
        assert_eq!(get("lu_replay"), 14);
        assert_eq!(get("nr_solve"), 30 - 5 - 14);
        assert_eq!(get("rl.step"), 20);
        assert_eq!(get("pta_step"), 80 - 30 - 20);
        assert_eq!(get(ROOT), 100 - 80);
        assert!(f.pending.is_empty());
    }

    /// Layer self times plus `unattributed` reconcile to the enclosing
    /// root span, with real clocks and program-style phase events.
    #[test]
    fn layers_and_unattributed_reconcile_to_the_root() {
        let rec = Recorder::default();
        let ms = std::time::Duration::from_micros(300);
        for _ in 0..3 {
            let _root = rec.root();
            busy(ms);
            {
                let _step = rec.span("rl.step");
                busy(ms);
                let t = Instant::now();
                busy(ms);
                phase(&rec, Phase::RlTrain, t.elapsed().as_nanos() as u64);
            }
            let t_nr = Instant::now();
            let t = Instant::now();
            busy(ms);
            phase(&rec, Phase::StampWrite, t.elapsed().as_nanos() as u64);
            busy(ms);
            phase(&rec, Phase::NewtonSolve, t_nr.elapsed().as_nanos() as u64);
            busy(ms);
        }
        let totals = rec.totals();
        let root = totals[ROOT];
        assert_eq!(root.calls, 3);
        let (layers, unattributed) = layer_self_ns(&totals);
        let sum: i64 = layers.values().sum::<i64>() + unattributed;
        assert_eq!(
            sum, root.total_ns as i64,
            "self times must add up to the root"
        );
        // Each layer got roughly its share: 2 busy slices of rl, 1 of mna,
        // 1 of newton self, 2 outside any layer.
        let slice = ms.as_nanos() as i64;
        assert!(layers["rl"] >= 3 * 2 * slice, "{layers:?}");
        assert!(layers["mna"] >= 3 * slice);
        assert!(layers["core.newton"] >= 3 * slice);
        assert!(unattributed >= 3 * 2 * slice);
        assert!(
            unattributed < 3 * 3 * slice,
            "children leaked into the root: {unattributed}"
        );
    }

    #[test]
    fn escalations_count_distinct_jobs_per_root() {
        let rec = Recorder::default();
        let attempt = |job| Event {
            span: Span { job, worker: 0 },
            payload: Payload::LadderAttempt {
                strategy: "newton".into(),
                error: "x".into(),
                stats: Default::default(),
            },
        };
        {
            let _root = rec.root();
            rec.emit(&attempt(Some(1)));
            rec.emit(&attempt(Some(1)));
            rec.emit(&attempt(Some(2)));
        }
        {
            let _root = rec.root();
            rec.emit(&attempt(Some(1)));
        }
        assert_eq!(rec.escalated(), 3);
    }
}
