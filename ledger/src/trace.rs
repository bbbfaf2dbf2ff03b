//! Spans and counts recorded by the harness around the public entry
//! points of each layer, kept in memory and written out at exit.
//!
//! The program under test is not instrumented: every span here is
//! opened and closed in this crate, either directly around a call or
//! from a [`CompileObserver`] callback. A span belongs to one *unit* —
//! a set-up repetition or a pass — so per-unit sums can be reduced to a
//! median across units.

use crate::object;
use pimcomp_arch::PipelineMode;
use pimcomp_core::{CompileObserver, CompileStage, GaGeneration};
use serde::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.ga_ht`, `sim.ll`, …); the per-layer
    /// metric `<name>_s` is the sum of this name's self times.
    pub name: &'static str,
    /// What the call worked on (`vgg16/HT`, a sweep point key, …).
    pub label: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The set-up repetition or pass this span belongs to.
    pub unit: u32,
}

impl Span {
    /// Inclusive duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span and count recorder. While `enabled` is false every
/// method is a no-op, so one pass function serves both the untraced and
/// the traced run; toggle it only between units (no span open).
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans and counts are being recorded.
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u32,
    counts: Vec<(u32, &'static str, f64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new unit (set-up repetition or pass).
    pub fn next_unit(&mut self) {
        debug_assert!(self.open.is_empty(), "unit changed inside an open span");
        self.unit += 1;
    }

    /// Opens a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, label: &str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label: label.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span. A span `f` left open — a compile that
    /// failed between two stage callbacks — is closed with it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let depth = self.open.len();
        self.begin(name, label);
        let out = f(self);
        while self.open.len() > depth {
            self.end();
        }
        out
    }

    /// Adds `value` to the current unit's count `name`, recorded at the
    /// boundary where the work happened.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.push((self.unit, name, value));
        }
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's *self* time in seconds: its duration minus the part
    /// its direct children cover. Indexed like [`Tracer::spans`].
    pub fn self_seconds_per_span(&self) -> Vec<f64> {
        let mut own_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own_ns[p] -= s.end_ns - s.start_ns;
            }
        }
        own_ns.into_iter().map(|ns| ns as f64 / 1e9).collect()
    }

    /// Per span name, the per-unit sum of self time in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_seconds_per_span();
        self.per_unit(self.spans.iter().zip(own).map(|(s, o)| (s.unit, s.name, o)))
    }

    /// Per count name, the per-unit total.
    pub fn counts(&self) -> BTreeMap<&'static str, Vec<f64>> {
        self.per_unit(self.counts.iter().copied())
    }

    fn per_unit(
        &self,
        items: impl Iterator<Item = (u32, &'static str, f64)>,
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut sums: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
        for (unit, name, v) in items {
            *sums.entry((name, unit)).or_insert(0.0) += v;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), v) in sums {
            out.entry(name).or_default().push(v);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). `args` carries what the event format has no field
    /// for: the span's own index, its parent's, the unit, the workload.
    pub fn chrome_json(&self, workload: &str) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let args = object([
                    ("id", Value::Int(i as i128)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                    ),
                    ("unit", Value::Int(i128::from(s.unit))),
                    ("workload", Value::Str(workload.to_string())),
                    ("label", Value::Str(s.label.clone())),
                ]);
                let layer = s.name.split('.').next().unwrap_or("");
                object([
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str(layer.to_string())),
                    ("ph", Value::Str("X".to_string())),
                    ("ts", Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::Int(1)),
                    ("tid", Value::Int(1)),
                    ("args", args),
                ])
            })
            .collect();
        object([
            ("traceEvents", Value::Seq(events)),
            ("displayTimeUnit", Value::Str("ms".to_string())),
        ])
    }
}

/// Turns the compiler's stage callbacks into spans, so a traced pass
/// can call the same one-shot entry points (`CompileSession::run`,
/// `SweepPlan::evaluate_final`) as the untraced pass, in their
/// `_observed` form, and still see partition / GA / schedule apart.
pub struct StageSpans<'a> {
    tracer: &'a mut Tracer,
    ht: bool,
    label: &'a str,
    ga_started: Option<Instant>,
    ga_init: Option<Duration>,
    last: Option<GaGeneration>,
}

impl<'a> StageSpans<'a> {
    /// An observer recording into `tracer` for one compile of `label`.
    pub fn new(tracer: &'a mut Tracer, mode: PipelineMode, label: &'a str) -> Self {
        StageSpans {
            tracer,
            ht: mode == PipelineMode::HighThroughput,
            label,
            ga_started: None,
            ga_init: None,
            last: None,
        }
    }

    fn pick(&self, ht: &'static str, ll: &'static str) -> &'static str {
        if self.ht {
            ht
        } else {
            ll
        }
    }
}

impl CompileObserver for StageSpans<'_> {
    fn on_stage_start(&mut self, stage: CompileStage) {
        let name = match stage {
            CompileStage::NodePartitioning => "core.partition",
            CompileStage::ReplicatingMapping => {
                self.ga_started = Some(Instant::now());
                self.pick("core.ga_ht", "core.ga_ll")
            }
            CompileStage::DataflowScheduling => self.pick("core.schedule_ht", "core.schedule_ll"),
        };
        self.tracer.begin(name, self.label);
    }

    fn on_stage_finish(&mut self, stage: CompileStage, _elapsed: Duration) {
        self.tracer.end();
        if stage != CompileStage::ReplicatingMapping {
            return;
        }
        // Initial population plus generation 0: the part of the GA that
        // does not shrink with the generation budget.
        if let Some(init) = self.ga_init.take() {
            let name = self.pick("core.ga_ht.init_s", "core.ga_ll.init_s");
            self.tracer.count(name, init.as_secs_f64());
        }
        if let Some(g) = self.last.take() {
            let evals = self.pick("core.ga_ht.evals", "core.ga_ll.evals");
            let hits = self.pick("core.ga_ht.memo_hits", "core.ga_ll.memo_hits");
            self.tracer.count(evals, g.evaluations as f64);
            self.tracer.count(hits, g.cache_hits as f64);
        }
    }

    fn on_ga_generation(&mut self, progress: GaGeneration) {
        if self.last.is_none() {
            self.ga_init = self.ga_started.map(|t| t.elapsed());
        }
        self.last = Some(progress);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer {
            enabled: true,
            ..Tracer::default()
        };
        t.next_unit();
        t.begin("a", "");
        t.begin("b", "");
        t.begin("c", "");
        t.end();
        t.end();
        t.end();
        // Pin the clock readings so the arithmetic is exact.
        for (i, (s, e)) in [(0, 100), (10, 60), (20, 30)].into_iter().enumerate() {
            t.spans[i].start_ns = s;
            t.spans[i].end_ns = e;
        }
        let own = t.self_seconds();
        assert_eq!(own["a"], vec![50e-9]);
        assert_eq!(own["b"], vec![40e-9]);
        assert_eq!(own["c"], vec![10e-9]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::default();
        t.span("a", "", |t| t.count("n", 1.0));
        assert!(t.spans().is_empty());
        assert!(t.counts().is_empty());
    }

    #[test]
    fn units_are_reduced_separately() {
        let mut t = Tracer {
            enabled: true,
            ..Tracer::default()
        };
        for _ in 0..3 {
            t.next_unit();
            t.count("n", 2.0);
            t.count("n", 3.0);
        }
        assert_eq!(t.counts()["n"], vec![5.0, 5.0, 5.0]);
    }
}
