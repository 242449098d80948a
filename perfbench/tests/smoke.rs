//! Short-horizon smoke tests of each workload: a seed reproduces the same
//! simulated-time outputs, every output check passes (`analyst_session`'s
//! are pinned in `known_defects.rs` instead), the traced run's
//! layer self times account for its wall time, and the wrapped FIFO and
//! Fair schedulers behave exactly like the unwrapped ones.

use incmr_mapreduce::{FairScheduler, FifoScheduler, TaskScheduler};
use incmr_perfbench::closed_loop::{self, CellSummary};
use incmr_perfbench::spans::Tracer;
use incmr_perfbench::wrap::Wrapper;
use incmr_perfbench::{run, Options, Outcome, Sizes, Workload, THREADS};
use incmr_workload::run_workload;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Options {
        workload,
        seed,
        // Shorter than one pass: exactly one pass runs.
        seconds: 0.01,
        trace,
        sizes: Sizes::smoke(),
    });
    // The analyst's varied scans trip a known memoization defect; see
    // `known_defects.rs`.
    if workload != Workload::AnalystSession {
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
    }
    assert!(out.attempted > 0);
    out
}

#[test]
fn a_seed_reproduces_its_sim_outputs() {
    for w in Workload::ALL {
        let a = smoke(w, 7, false);
        let b = smoke(w, 7, false);
        assert_eq!(a.sim, b.sim, "{}", w.name());
        assert!(a.sim.jobs > 0 && !a.sim.sampling_response_s.is_empty());
        for name in [
            "sim_jobs_per_hour",
            "sim_response_s_p50",
            "sim_splits_per_job",
        ] {
            assert_eq!(a.get(name), b.get(name), "{} {name}", w.name());
        }
        let c = smoke(w, 8, false);
        assert_ne!(a.sim.digest, c.sim.digest, "{}: seed must matter", w.name());
    }
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let names = [
        "setup_s",
        "jobs_per_cpu_s",
        "op_cpu_ms_p50",
        "op_cpu_ms_p90",
        "peak_rss_mb",
        "sim_jobs_per_hour",
        "sim_response_s_p50",
        "sim_response_s_p90",
        "sim_splits_per_job",
    ];
    for w in Workload::ALL {
        let out = smoke(w, 3, false);
        let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        assert_eq!(got, names, "{}", w.name());
        assert!(out
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn traced_self_times_sum_to_wall_and_match_untraced_sim() {
    for w in Workload::ALL {
        let traced = smoke(w, 5, true);
        let untraced = smoke(w, 5, false);
        assert_eq!(traced.sim, untraced.sim, "{}", w.name());
        let get = |n: &str| {
            traced
                .get(n)
                .unwrap_or_else(|| panic!("{} lacks {n}", w.name()))
        };
        let self_sum: f64 = traced
            .metrics
            .iter()
            .filter(|m| m.name.ends_with(".self_ms"))
            .map(|m| m.value)
            .sum();
        let wall = get("host.run_ms");
        assert!(wall > 0.0);
        assert!(
            (self_sum + get("host.unattributed_ms") - wall).abs() < 1e-6 * wall.max(1.0),
            "{}: self times {self_sum} + unattributed != wall {wall}",
            w.name()
        );
        assert!(get("runtime.loop_ms") > 0.0 && get("scheduler.assign_calls") > 0.0);
        assert!(traced.spans_jsonl.as_ref().is_some_and(|s| !s.is_empty()));
    }
}

/// Cell reports of `run_workload` over one smoke pass, with the scheduler
/// `make` builds, optionally wrapped.
fn cells(make: fn() -> Box<dyn TaskScheduler>, wrapped: bool) -> Vec<CellSummary> {
    let cfg = closed_loop::Config::smoke();
    let wrapper = Wrapper::new(Tracer::new(), Vec::new());
    (0..cfg.cells)
        .map(|c| {
            let sched = incmr_perfbench::wrap::scheduler(wrapped.then_some(&wrapper), make());
            let (mut rt, spec) = closed_loop::build_world(&cfg, 40 + c as u64, THREADS, sched);
            let report = run_workload(&mut rt, &spec);
            CellSummary {
                sampling_completed: report.sampling_completed,
                non_sampling_completed: report.non_sampling_completed,
                sampling_mean_bits: report.sampling_response_secs.mean().to_bits(),
                splits_mean_bits: report.sampling_splits_processed.mean().to_bits(),
                metrics: report.metrics,
            }
        })
        .collect()
}

#[test]
fn wrapped_fifo_and_fair_match_unwrapped() {
    let fifo: fn() -> Box<dyn TaskScheduler> = || Box::new(FifoScheduler::new());
    let fair: fn() -> Box<dyn TaskScheduler> = || Box::new(FairScheduler::paper_default());
    for (name, make) in [("fifo", fifo), ("fair", fair)] {
        let plain = cells(make, false);
        assert!(plain.iter().all(|c| c.sampling_completed > 0), "{name}");
        assert_eq!(
            plain,
            cells(make, true),
            "{name}: wrapping changed the schedule"
        );
    }
}

#[test]
fn wrapped_scheduler_forwards_defaulted_methods() {
    let wrapper = Wrapper::new(Tracer::new(), Vec::new());
    for make in [
        (|| Box::new(FifoScheduler::new())) as fn() -> Box<dyn TaskScheduler>,
        || Box::new(FairScheduler::paper_default()),
    ] {
        let (plain, wrapped) = (make(), wrapper.scheduler(make()));
        assert_eq!(plain.name(), wrapped.name());
        assert_eq!(plain.maps_per_heartbeat(), wrapped.maps_per_heartbeat());
        assert_eq!(plain.view_policy(), wrapped.view_policy());
    }
}
