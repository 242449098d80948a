//! End-to-end benchmark of the incmr stack.
//!
//! Three workloads, each run from a seed: `analyst_session`,
//! `closed_loop_multiuser`, and `open_loop_fair` (see their modules). The
//! untraced run measures the end-to-end metrics through the entry points
//! users call; the traced run drives the same spec with every reachable
//! trait object wrapped and reports per-layer metrics. Both check outputs;
//! a failed check counts toward `failed` and makes the run incorrect.
//! See `README.md` beside this crate.

pub mod analyst;
pub mod closed_loop;
pub mod common;
pub mod open_loop;
pub mod spans;
pub mod wrap;

use std::time::{Duration, Instant};

use common::{past, pct, RuntimeCounters, SimStats, Tally};
use spans::{Layer, TraceSummary, Tracer};
use wrap::Wrapper;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One HiveQL client with writes; see [`analyst`].
    AnalystSession,
    /// Fig. 7-shaped closed loop through `run_workload`; see [`closed_loop`].
    ClosedLoopMultiuser,
    /// Multi-tenant Poisson arrivals under Fair; see [`open_loop`].
    OpenLoopFair,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::AnalystSession,
        Workload::ClosedLoopMultiuser,
        Workload::OpenLoopFair,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalystSession => "analyst_session",
            Workload::ClosedLoopMultiuser => "closed_loop_multiuser",
            Workload::OpenLoopFair => "open_loop_fair",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `analyst_session`.
    pub analyst: analyst::Config,
    /// `closed_loop_multiuser`.
    pub closed: closed_loop::Config,
    /// `open_loop_fair`.
    pub open: open_loop::Config,
}

impl Sizes {
    /// The benchmarked sizes.
    pub fn standard() -> Self {
        Sizes {
            analyst: analyst::Config::standard(),
            closed: closed_loop::Config::standard(),
            open: open_loop::Config::standard(),
        }
    }

    /// Short horizons for smoke tests.
    pub fn smoke() -> Self {
        Sizes {
            analyst: analyst::Config::smoke(),
            closed: closed_loop::Config::smoke(),
            open: open_loop::Config::smoke(),
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (queries, writes, run-level checks).
    pub attempted: u64,
    /// Failed, refused, or wrongly answered operations.
    pub failed: u64,
    /// Why operations failed.
    pub failures: Vec<String>,
    /// Timed operations and set-ups behind the percentiles; in a traced
    /// run, the operation pairs behind `trace.overhead_frac`, and 0.
    pub samples: (usize, usize),
    /// The last traced pass's spans, as JSON lines.
    pub spans_jsonl: Option<String>,
    /// The deterministic outputs the run verified.
    pub sim: SimStats,
    /// The untraced run's [`Tally::host_factor`], by which its host times
    /// were scaled overall; `None` for the traced run, which reports raw
    /// CPU times.
    pub host_factor: Option<f64>,
}

impl Outcome {
    /// A metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn same_sim(what: &str, a: &SimStats, b: &SimStats) -> Option<String> {
    (a != b).then(|| format!("{what}: simulated-time outputs or result digests differ"))
}

fn sim_metrics(sim: &SimStats) -> Vec<Metric> {
    vec![
        Metric {
            name: "sim_jobs_per_hour",
            value: sim.jobs_per_hour(),
            unit: "1/h",
        },
        Metric {
            name: "sim_response_s_p50",
            value: pct(&sim.sampling_response_s, 50.0),
            unit: "s",
        },
        Metric {
            name: "sim_response_s_p90",
            value: pct(&sim.sampling_response_s, 90.0),
            unit: "s",
        },
        Metric {
            name: "sim_splits_per_job",
            value: incmr_simkit::stats::mean(&sim.sampling_splits),
            unit: "count",
        },
    ]
}

/// Run one workload as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        traced_run(opts)
    } else {
        untraced_run(opts)
    }
}

/// Data-plane threads of every measured and traced pass. Host times are
/// CPU time, so one thread measures the work's single-thread cost, and
/// spans nest on one thread.
pub const THREADS: u32 = 1;

/// Data-plane threads of the pass every run replays to check that the
/// simulated outputs do not depend on the thread count.
pub const REPLAY_THREADS: u32 = 2;

/// Session builds timed before the `analyst_session` measurement.
const ANALYST_EXTRA_SETUPS: usize = 40;

/// The untraced run: measure for `opts.seconds`, then replay the first
/// pass at the other thread count and require identical sim outputs.
fn untraced_run(opts: &Options) -> Outcome {
    let deadline = Some(Instant::now() + Duration::from_secs_f64(opts.seconds));
    let (seed, threads, other, sz) = (opts.seed, THREADS, REPLAY_THREADS, &opts.sizes);
    let thread_check = format!("{threads} vs {other} data-plane threads");
    let mut tally = Tally::default();
    let mut checks = Tally::default();
    let (sim, rss) = match opts.workload {
        Workload::AnalystSession => {
            let mut reference = analyst::Reference::default();
            // A pass builds one session; time extra builds so `setup_s`
            // is a median over many.
            for _ in 0..ANALYST_EXTRA_SETUPS {
                tally.setup(|| {
                    let sched = Box::new(incmr_mapreduce::FifoScheduler::new());
                    analyst::build_world(&sz.analyst, seed, threads, sched)
                });
            }
            let first = analyst::pass(
                &sz.analyst,
                seed,
                threads,
                None,
                None,
                &mut reference,
                &mut tally,
            );
            // Later passes draw fresh inputs, so the host metrics average
            // over many streams rather than repeat the first.
            for p in 1u64.. {
                if past(deadline) {
                    break;
                }
                analyst::pass(
                    &sz.analyst,
                    incmr_simkit::rng::splitmix64(seed ^ p),
                    threads,
                    None,
                    deadline,
                    &mut reference,
                    &mut tally,
                );
            }
            tally.calibrate();
            let rss = peak_rss_mb();
            let replay = analyst::pass(
                &sz.analyst,
                seed,
                other,
                None,
                None,
                &mut reference,
                &mut checks,
            );
            checks.check(same_sim(&thread_check, &first.sim, &replay.sim));
            (first.sim, rss)
        }
        Workload::ClosedLoopMultiuser => {
            let pass0 = closed_loop::measure(&sz.closed, seed, threads, deadline, &mut tally);
            tally.calibrate();
            let rss = peak_rss_mb();
            let replay = closed_loop::replica_pass(&sz.closed, seed, other, None, &mut checks);
            checks.check((replay.cells != pass0).then(|| {
                format!("{thread_check}: run_workload and its replica report differently")
            }));
            (replay.sim, rss)
        }
        Workload::OpenLoopFair => {
            let (first, _) = open_loop::measure(&sz.open, seed, threads, deadline, &mut tally);
            tally.calibrate();
            let rss = peak_rss_mb();
            let replay = open_loop::pass(&sz.open, seed, other, None, &mut checks);
            checks.check(same_sim(&thread_check, &first, &replay.sim));
            (first, rss)
        }
    };
    // Host times in reference-host CPU time.
    let factor = tally.host_factor();
    let op_ms = tally.scaled_ops();
    let mut metrics = vec![
        Metric {
            name: "setup_s",
            value: pct(&tally.scaled_setups(), 50.0),
            unit: "s",
        },
        Metric {
            name: "jobs_per_cpu_s",
            value: tally.jobs as f64 / tally.run.as_secs_f64() * factor,
            unit: "1/s",
        },
        Metric {
            name: "op_cpu_ms_p50",
            value: pct(&op_ms, 50.0),
            unit: "ms",
        },
        Metric {
            name: "op_cpu_ms_p90",
            value: pct(&op_ms, 90.0),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss,
            unit: "MB",
        },
    ];
    metrics.extend(sim_metrics(&sim));
    let samples = (tally.ops.len(), tally.setup.len());
    finish(metrics, tally, checks, samples, None, sim, Some(factor))
}

fn finish(
    metrics: Vec<Metric>,
    tally: Tally,
    checks: Tally,
    samples: (usize, usize),
    spans_jsonl: Option<String>,
    sim: SimStats,
    host_factor: Option<f64>,
) -> Outcome {
    let mut failures = tally.failures;
    failures.extend(checks.failures);
    Outcome {
        metrics,
        attempted: tally.attempted + checks.attempted,
        failed: tally.failed + checks.failed,
        failures,
        samples,
        spans_jsonl,
        sim,
        host_factor,
    }
}

/// One traced pass's per-layer inputs.
struct TracedPass {
    summary: TraceSummary,
    counters: RuntimeCounters,
    sim: SimStats,
    observed: Option<open_loop::Observed>,
    spans: String,
}

/// What every pass of a traced run must reproduce: the sim outputs of a
/// pass at the measured thread count (for the closed loop, the
/// `run_workload` cell reports the replica must match).
enum Expected {
    Sim(SimStats),
    Cells(Vec<closed_loop::CellSummary>),
}

/// One pass at [`THREADS`] data-plane threads, traced or not, checked
/// against `expected`. Returns the host time of each of the pass's
/// operations, its sim outputs, and (traced) its trace.
fn one_pass(
    opts: &Options,
    traced: bool,
    expected: &Expected,
    reference: &mut analyst::Reference,
    checks: &mut Tally,
) -> (Vec<Duration>, SimStats, Option<TracedPass>) {
    let (seed, sz) = (opts.seed, &opts.sizes);
    let wrapper = traced.then(|| Wrapper::new(Tracer::new(), Vec::new()));
    let w = wrapper.as_ref();
    let (ops, sim, counters, observed, cells) = match opts.workload {
        Workload::AnalystSession => {
            let p = analyst::pass(&sz.analyst, seed, THREADS, w, None, reference, checks);
            (p.ops, p.sim, p.counters, None, None)
        }
        Workload::ClosedLoopMultiuser => {
            let p = closed_loop::replica_pass(&sz.closed, seed, THREADS, w, checks);
            (p.ops, p.sim, p.counters, None, Some(p.cells))
        }
        Workload::OpenLoopFair => {
            let p = open_loop::pass(&sz.open, seed, THREADS, w, checks);
            (p.ops, p.sim, p.counters, traced.then_some(p.observed), None)
        }
    };
    let what = format!(
        "{} pass at {THREADS} vs {REPLAY_THREADS} data-plane threads",
        if traced { "traced" } else { "untraced" }
    );
    checks.check(match (expected, cells) {
        (Expected::Sim(want), _) => same_sim(&what, want, &sim),
        (Expected::Cells(want), Some(cells)) => {
            (want != &cells).then(|| format!("{what}: replica and run_workload report differently"))
        }
        (Expected::Cells(_), None) => unreachable!("cell reports come from the closed loop"),
    });
    let traced_pass = wrapper.map(|w| TracedPass {
        summary: w.tracer().summary(),
        counters,
        sim: sim.clone(),
        observed,
        spans: w.tracer().spans_jsonl(),
    });
    (ops, sim, traced_pass)
}

/// Fewest (untraced, traced) operation pairs behind `trace.overhead_frac`.
pub const MIN_OVERHEAD_PAIRS: usize = 20;

/// The traced run: alternate untraced and traced passes at [`THREADS`]
/// data-plane threads until `opts.seconds` pass and at least
/// [`MIN_OVERHEAD_PAIRS`] operations were timed both ways; require every
/// pass to match a reference pass at [`REPLAY_THREADS`], and report
/// per-layer metrics averaged over the traced passes.
fn traced_run(opts: &Options) -> Outcome {
    let deadline = Some(Instant::now() + Duration::from_secs_f64(opts.seconds));
    let mut checks = Tally::default();
    let mut reference = analyst::Reference::default();
    let (seed, threads, sz) = (opts.seed, REPLAY_THREADS, &opts.sizes);
    let expected = match opts.workload {
        Workload::AnalystSession => Expected::Sim(
            analyst::pass(
                &sz.analyst,
                seed,
                threads,
                None,
                None,
                &mut reference,
                &mut checks,
            )
            .sim,
        ),
        Workload::ClosedLoopMultiuser => Expected::Cells(closed_loop::measure(
            &sz.closed,
            seed,
            threads,
            None,
            &mut checks,
        )),
        Workload::OpenLoopFair => {
            Expected::Sim(open_loop::pass(&sz.open, seed, threads, None, &mut checks).sim)
        }
    };
    // Traced over untraced host time of the same operation (one cell, or
    // one analyst statement), pooled over the pass pairs.
    let (mut ratios, mut passes) = (Vec::new(), Vec::new());
    loop {
        let started = Instant::now();
        let (ops_u, sim_u, _) = one_pass(opts, false, &expected, &mut reference, &mut checks);
        let (ops_t, sim_t, tp) = one_pass(opts, true, &expected, &mut reference, &mut checks);
        checks.check(same_sim("traced vs untraced", &sim_u, &sim_t));
        checks.check((ops_u.len() != ops_t.len()).then(|| {
            format!(
                "traced pass timed {} operations, untraced {}",
                ops_t.len(),
                ops_u.len()
            )
        }));
        ratios.extend(
            ops_u
                .iter()
                .zip(&ops_t)
                .map(|(u, t)| t.as_secs_f64() / u.as_secs_f64()),
        );
        passes.push(tp.expect("traced pass"));
        // Stop rather than start a pair that would overrun the deadline.
        if ratios.len() >= MIN_OVERHEAD_PAIRS
            && deadline.is_some_and(|d| Instant::now() + started.elapsed() > d)
        {
            break;
        }
    }
    let overhead = pct(&ratios, 50.0) - 1.0;
    let per_pass: Vec<Vec<Metric>> = passes.iter().map(|p| layer_metrics(p, overhead)).collect();
    let mut metrics = per_pass[0].clone();
    for (i, m) in metrics.iter_mut().enumerate() {
        m.value = per_pass.iter().map(|p| p[i].value).sum::<f64>() / per_pass.len() as f64;
    }
    for p in &passes {
        let bad: Vec<&str> = p
            .summary
            .layers
            .iter()
            .filter(|l| l.self_ns < 0)
            .map(|l| l.layer.name())
            .collect();
        checks.check((!bad.is_empty()).then(|| format!("negative self time in {bad:?}")));
    }
    let samples = (ratios.len(), 0);
    let last = passes.pop().expect("at least one traced pass");
    finish(
        metrics,
        Tally::default(),
        checks,
        samples,
        Some(last.spans),
        last.sim,
        None,
    )
}

/// Per-layer metrics of one traced pass.
fn layer_metrics(p: &TracedPass, overhead: f64) -> Vec<Metric> {
    let s = &p.summary;
    let c = &s.counters;
    let ms_of = |ns: f64| ns / 1e6;
    let total = |l: Layer| ms_of(s.layer(l).total_ns as f64);
    let selfms = |l: Layer| ms_of(s.layer(l).self_ns as f64);
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let host = p.counters.host;
    let merge_ms = ms_of(host.shuffle_merge_ns as f64);
    let (reads, records, reread, evals, grows) = match p.observed {
        // Reached only through the runtime's audit log and trace: every
        // table is immutable, so all but the first read of each block are
        // re-reads; this is the lower bound that implies.
        Some(o) => (
            o.map_reads,
            o.records,
            frac(o.map_reads.saturating_sub(o.table_blocks), o.map_reads),
            o.provider_evals,
            o.provider_grows,
        ),
        None => (
            c.data_reads,
            c.data_records,
            frac(c.data_rereads, c.data_reads),
            c.provider_evals,
            c.provider_grows,
        ),
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("data.reads", reads as f64, "count"),
        m("data.read_ms", total(Layer::Data), "ms"),
        m("data.records", records as f64, "count"),
        m("data.reread_frac", reread, "frac"),
        m("data.self_ms", selfms(Layer::Data), "ms"),
        m("map.calls", c.map_calls as f64, "count"),
        m("map.ms", total(Layer::Map), "ms"),
        m("map.pairs_out", c.map_pairs_out as f64, "count"),
        m("map.self_ms", selfms(Layer::Map), "ms"),
        m("combine.ms", total(Layer::Combine), "ms"),
        m("combine.self_ms", selfms(Layer::Combine), "ms"),
        m("mapreduce.map_unit_ms", ms_of(host.map_ns as f64), "ms"),
        m("shuffle.merge_ms", merge_ms, "ms"),
        m("shuffle.self_ms", merge_ms, "ms"),
        m("reduce.groups", c.reduce_groups as f64, "count"),
        m("reduce.values", c.reduce_values as f64, "count"),
        m("reduce.ms", total(Layer::Reduce), "ms"),
        m("reduce.self_ms", selfms(Layer::Reduce), "ms"),
        m(
            "mapreduce.reduce_unit_ms",
            ms_of(host.reduce_ns as f64),
            "ms",
        ),
        m("provider.evals", evals as f64, "count"),
        m("provider.eval_ms", total(Layer::Provider), "ms"),
        m("provider.grow_frac", frac(grows, evals), "frac"),
        m("provider.self_ms", selfms(Layer::Provider), "ms"),
        m("scheduler.assign_calls", c.assign_calls as f64, "count"),
        m("scheduler.assign_ms", total(Layer::Scheduler), "ms"),
        m("scheduler.assignments", c.assignments as f64, "count"),
        m(
            "scheduler.idle_frac",
            frac(c.idle_calls, c.assign_calls),
            "frac",
        ),
        m("scheduler.self_ms", selfms(Layer::Scheduler), "ms"),
        m("runtime.loop_ms", total(Layer::Runtime), "ms"),
        // The shuffle merge runs inside the loop, outside every child span.
        m("runtime.self_ms", selfms(Layer::Runtime) - merge_ms, "ms"),
        m("hiveql.prepare_ms", ms_of(c.prepare_ns as f64), "ms"),
        m("hiveql.self_ms", selfms(Layer::Hiveql), "ms"),
        m("service.submit_ms", total(Layer::Service), "ms"),
        m("service.self_ms", selfms(Layer::Service), "ms"),
        m("workload.self_ms", selfms(Layer::Workload), "ms"),
        m("memo.hit_frac", p.counters.memo_hit_frac(), "frac"),
        m(
            "sim.cpu_util_pct",
            p.sim.report_mean(|r| r.cpu_util_pct),
            "%",
        ),
        m(
            "sim.disk_kb_per_s",
            p.sim.report_mean(|r| r.disk_kb_per_sec),
            "KB/s",
        ),
        m(
            "sim.locality_pct",
            p.sim.report_mean(|r| r.locality_pct),
            "%",
        ),
        m(
            "sim.slot_occupancy_pct",
            p.sim.report_mean(|r| r.slot_occupancy_pct),
            "%",
        ),
        m("host.run_ms", ms_of(s.run_ns as f64), "ms"),
        m(
            "host.unattributed_ms",
            ms_of(s.unattributed_ns() as f64),
            "ms",
        ),
        m("trace.spans", s.spans as f64, "count"),
        m("trace.overhead_frac", overhead, "frac"),
    ]
}
