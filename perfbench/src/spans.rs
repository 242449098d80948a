//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public functions and trait objects (see [`crate::wrap`]).
//! Each span keeps its layer, start, end, and parent; self time is the
//! span's duration minus the part of it its child spans cover. The traced
//! run executes the data plane inline (one data-plane thread), so spans
//! nest strictly on one thread and the children of a span never overlap.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

use incmr_dfs::BlockId;

use crate::common::CpuInstant;

/// A layer of the stack, named after its workspace module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `incmr-mapreduce` event loop: `MrRuntime::submit`/`step`/`run_until*`.
    Runtime,
    /// `TaskScheduler::assign`.
    Scheduler,
    /// `incmr-core` growth drivers: `GrowthDriver::try_initial_input`/`try_evaluate`.
    Provider,
    /// `incmr-data` through `InputFormat::read`.
    Data,
    /// `Mapper::run`.
    Map,
    /// `Combiner::combine`/`combine_batches`.
    Combine,
    /// `Reducer::reduce`.
    Reduce,
    /// `incmr-hiveql`: `SessionState::prepare` and result collection.
    Hiveql,
    /// `incmr-service`: `QueryService::submit`.
    Service,
    /// `incmr-workload`-style driver work: job construction and bookkeeping
    /// between runtime calls.
    Workload,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Runtime,
        Layer::Scheduler,
        Layer::Provider,
        Layer::Data,
        Layer::Map,
        Layer::Combine,
        Layer::Reduce,
        Layer::Hiveql,
        Layer::Service,
        Layer::Workload,
    ];

    /// The metric-name prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Runtime => "runtime",
            Layer::Scheduler => "scheduler",
            Layer::Provider => "provider",
            Layer::Data => "data",
            Layer::Map => "map",
            Layer::Combine => "combine",
            Layer::Reduce => "reduce",
            Layer::Hiveql => "hiveql",
            Layer::Service => "service",
            Layer::Workload => "workload",
        }
    }
}

/// One recorded span. Times are nanoseconds of process CPU time since the
/// tracer's epoch (see [`CpuInstant`]).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer the span belongs to.
    pub layer: Layer,
    /// Start time.
    pub start: u64,
    /// End time (`u64::MAX` while open).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// `InputFormat::read` calls.
    pub data_reads: u64,
    /// Records the reads delivered (a planted read counts its whole split).
    pub data_records: u64,
    /// Reads whose `(block, version)` had been read earlier in the run.
    pub data_rereads: u64,
    /// `(block, version)` pairs read so far.
    pub seen: HashSet<(BlockId, u32)>,
    /// `Mapper::run` calls.
    pub map_calls: u64,
    /// Pairs the mapper emitted (materialised pairs plus batch rows).
    pub map_pairs_out: u64,
    /// `Reducer::reduce` calls (one per key group).
    pub reduce_groups: u64,
    /// Values handed to the reducer.
    pub reduce_values: u64,
    /// Growth-driver evaluations (`try_initial_input` + `try_evaluate`).
    pub provider_evals: u64,
    /// Evaluations that added splits.
    pub provider_grows: u64,
    /// `TaskScheduler::assign` calls.
    pub assign_calls: u64,
    /// Assignments returned.
    pub assignments: u64,
    /// Calls that assigned nothing.
    pub idle_calls: u64,
    /// Time inside `SessionState::prepare` (part of the `hiveql` layer).
    pub prepare_ns: u64,
}

struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    counters: Counters,
    run_ns: u64,
    window_start: Option<u64>,
}

/// Shared span recorder. Cheap to clone through `Arc`; every wrapper in a
/// traced run holds one.
pub struct Tracer {
    epoch: CpuInstant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        let mut st = self.tracer.lock();
        st.spans[self.id as usize].end = end;
        let closed = st.open.pop();
        debug_assert_eq!(closed, Some(self.id), "spans close in LIFO order");
    }
}

impl Tracer {
    /// A fresh recorder.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: CpuInstant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                counters: Counters::default(),
                run_ns: 0,
                window_start: None,
            }),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a traced call panicked while recording")
    }

    /// Open a span of `layer`, nested in the innermost open span.
    pub fn enter(&self, layer: Layer) -> SpanGuard<'_> {
        let start = self.now();
        let mut st = self.lock();
        let id = st.spans.len() as u32;
        let parent = st.open.last().copied();
        st.spans.push(Span {
            layer,
            start,
            end: u64::MAX,
            parent,
        });
        st.open.push(id);
        SpanGuard { tracer: self, id }
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let _g = self.enter(layer);
        f()
    }

    /// Update the counters.
    pub fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.lock().counters);
    }

    /// Start a measured window: run time accumulates between
    /// `begin_window` and `end_window` (set-up and checks stay outside).
    pub fn begin_window(&self) {
        let now = self.now();
        let mut st = self.lock();
        assert!(st.window_start.is_none(), "windows do not nest");
        st.window_start = Some(now);
    }

    /// Close the measured window opened by [`Tracer::begin_window`].
    pub fn end_window(&self) {
        let now = self.now();
        let mut st = self.lock();
        let start = st.window_start.take().expect("window was opened");
        st.run_ns += now - start;
    }

    /// Summarise the recorded spans and counters.
    pub fn summary(&self) -> TraceSummary {
        let st = self.lock();
        assert!(st.open.is_empty(), "every span is closed at summary time");
        let mut total = [0u64; Layer::ALL.len()];
        let mut child = [0u64; Layer::ALL.len()];
        let mut top_level = 0u64;
        for s in &st.spans {
            let d = s.end - s.start;
            total[s.layer as usize] += d;
            match s.parent {
                Some(p) => child[st.spans[p as usize].layer as usize] += d,
                None => top_level += d,
            }
        }
        let layers = Layer::ALL
            .iter()
            .map(|&l| LayerTimes {
                layer: l,
                total_ns: total[l as usize],
                self_ns: total[l as usize] as i64 - child[l as usize] as i64,
            })
            .collect();
        TraceSummary {
            layers,
            top_level_ns: top_level,
            run_ns: st.run_ns,
            spans: st.spans.len() as u64,
            counters: st.counters.clone(),
        }
    }

    /// The recorded spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
    pub fn spans_jsonl(&self) -> String {
        let st = self.lock();
        let mut out = String::with_capacity(st.spans.len() * 72);
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.layer.name(),
                s.start,
                s.end
            );
        }
        out
    }
}

/// Busy and self time of one layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerTimes {
    /// The layer.
    pub layer: Layer,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time direct child spans cover.
    pub self_ns: i64,
}

/// What a traced run measured.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Per-layer times, in [`Layer::ALL`] order.
    pub layers: Vec<LayerTimes>,
    /// Union of top-level spans (they never overlap on one thread).
    pub top_level_ns: u64,
    /// Time of the measured windows.
    pub run_ns: u64,
    /// Spans recorded.
    pub spans: u64,
    /// Boundary counts.
    pub counters: Counters,
}

impl TraceSummary {
    /// Times of one layer.
    pub fn layer(&self, layer: Layer) -> LayerTimes {
        self.layers[layer as usize]
    }

    /// Window time not covered by any top-level span.
    pub fn unattributed_ns(&self) -> i64 {
        self.run_ns as i64 - self.top_level_ns as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_wall() {
        let t = Tracer::new();
        t.begin_window();
        t.span(Layer::Runtime, || {
            t.span(Layer::Scheduler, || std::hint::black_box(1 + 1));
            t.span(Layer::Map, || t.span(Layer::Data, || ()));
        });
        t.span(Layer::Hiveql, || ());
        t.end_window();
        let s = t.summary();
        assert_eq!(s.spans, 5);
        let self_sum: i64 = s.layers.iter().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, s.top_level_ns as i64);
        assert_eq!(self_sum + s.unattributed_ns(), s.run_ns as i64);
        assert!(s.layers.iter().all(|l| l.self_ns >= 0));
        assert_eq!(t.spans_jsonl().lines().count(), 5);
    }
}
