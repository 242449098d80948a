//! `closed_loop_multiuser`: the paper's Fig. 7 shape through
//! `run_workload` under FIFO.
//!
//! A few users, each on a private copy of the data at paper partition size
//! (750k records per partition, `ScanMode::Planted`): sampling users under
//! LA plus non-sampling scan users, each resubmitting as soon as its query
//! completes. One operation is one *cell*: a freshly built cluster run to
//! a fixed simulated horizon. A pass is `cells` cells with distinct
//! derived seeds; its simulated-time outputs are deterministic.
//!
//! `run_workload` builds its jobs internally, so the traced run drives the
//! same spec through [`replica`], a step-for-step copy of its loop over
//! public entry points that can wrap each job's trait objects. Every run
//! checks that the copy reproduces `run_workload`'s report exactly.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use incmr_core::{build_adaptive_sampling_job, build_sampling_job, build_scan_job, Policy};
use incmr_data::{Dataset, DatasetSpec, SkewLevel};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_mapreduce::{
    ClusterConfig, CostModel, FifoScheduler, GrowthDriver, JobId, JobSpec, MetricsReport,
    MrRuntime, Parallelism, TaskScheduler,
};
use incmr_simkit::rng::{splitmix64, DetRng};
use incmr_simkit::stats::OnlineStats;
use incmr_simkit::SimDuration;
use incmr_workload::{run_workload, UserClass, UserSpec, WorkloadReport, WorkloadSpec};

use crate::common::{traced, Clock, CpuInstant, Digest, RuntimeCounters, SimStats, Tally};
use crate::spans::Layer;
use crate::wrap::Wrapper;

/// Shape of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Users, each with a private dataset copy.
    pub users: usize,
    /// How many of them sample (the rest scan).
    pub sampling_users: usize,
    /// Partitions per copy.
    pub partitions: u32,
    /// Records per partition.
    pub records_per_partition: u64,
    /// Sample size of the sampling users.
    pub k: u64,
    /// Discarded warm-up of each cell.
    pub warmup: SimDuration,
    /// Measurement window of each cell.
    pub measure: SimDuration,
    /// Cells per deterministic pass.
    pub cells: u32,
    /// Fewest cells a measured run times.
    pub min_ops: u32,
}

impl Config {
    /// The benchmarked size.
    pub fn standard() -> Self {
        Config {
            users: 4,
            sampling_users: 2,
            partitions: 96,
            records_per_partition: 750_000,
            k: 10_000,
            warmup: SimDuration::from_mins(2),
            measure: SimDuration::from_mins(10),
            cells: 28,
            min_ops: crate::common::MIN_OPS,
        }
    }

    /// A short horizon for smoke tests.
    pub fn smoke() -> Self {
        Config {
            partitions: 24,
            warmup: SimDuration::from_mins(1),
            measure: SimDuration::from_mins(4),
            cells: 2,
            min_ops: 0,
            ..Config::standard()
        }
    }
}

/// The parts of a [`WorkloadReport`] two equivalent runs must agree on
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Sampling completions in the window.
    pub sampling_completed: u64,
    /// Scan completions in the window.
    pub non_sampling_completed: u64,
    /// Mean sampling response, as bits.
    pub sampling_mean_bits: u64,
    /// Mean sampling splits, as bits.
    pub splits_mean_bits: u64,
    /// Cluster resource report.
    pub metrics: MetricsReport,
}

impl CellSummary {
    fn of(r: &WorkloadReport) -> Self {
        CellSummary {
            sampling_completed: r.sampling_completed,
            non_sampling_completed: r.non_sampling_completed,
            sampling_mean_bits: r.sampling_response_secs.mean().to_bits(),
            splits_mean_bits: r.sampling_splits_processed.mean().to_bits(),
            metrics: r.metrics,
        }
    }
}

fn cell_seed(seed: u64, cell: u32) -> u64 {
    splitmix64(seed ^ splitmix64(0xC10_5ED + cell as u64))
}

/// One cell's cluster and workload spec, as a user would build them.
pub fn build_world(
    cfg: &Config,
    seed: u64,
    threads: u32,
    scheduler: Box<dyn TaskScheduler>,
) -> (MrRuntime, WorkloadSpec) {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let root = DetRng::seed_from(seed);
    let datasets: Vec<Arc<Dataset>> = (0..cfg.users)
        .map(|u| {
            let mut rng = root.fork(u as u64);
            let spec = DatasetSpec {
                name: format!("copy{u}"),
                partitions: cfg.partitions,
                records_per_partition: cfg.records_per_partition,
                skew: SkewLevel::Zero,
                selectivity: incmr_data::queries::PAPER_SELECTIVITY,
                seed: root.fork(1000 + u as u64).seed(),
            };
            let mut placement = EvenRoundRobin::starting_at((u * 13) as u32);
            Arc::new(Dataset::build(&mut ns, spec, &mut placement, &mut rng))
        })
        .collect();
    let rt = MrRuntime::new(
        ClusterConfig::paper_multi_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        scheduler,
    );
    let spec = WorkloadSpec::heterogeneous(
        datasets,
        cfg.sampling_users,
        cfg.k,
        Policy::la(),
        cfg.warmup,
        cfg.measure,
        seed,
    );
    (rt, spec)
}

/// The measured run: cells through `run_workload` at `threads` data-plane
/// threads, each on a fresh derived seed (the first `cells` of them are
/// the pass), until
/// [`cells_done`](crate::common::cells_done). Returns the first pass's
/// cell summaries.
pub fn measure(
    cfg: &Config,
    seed: u64,
    threads: u32,
    deadline: Option<Instant>,
    tally: &mut Tally,
) -> Vec<CellSummary> {
    let mut pass = Vec::new();
    for c in 0u32.. {
        if crate::common::cells_done(c, cfg.cells, cfg.min_ops, deadline) {
            break;
        }
        let (mut rt, spec) = tally.setup(|| {
            build_world(
                cfg,
                cell_seed(seed, c),
                threads,
                Box::new(FifoScheduler::new()),
            )
        });
        let t = CpuInstant::now();
        let report = run_workload(&mut rt, &spec);
        let d = t.elapsed();
        tally.op(d);
        tally.run += d;
        tally.jobs += report.sampling_completed + report.non_sampling_completed;
        tally.check(
            (report.sampling_completed == 0 || report.non_sampling_completed == 0)
                .then(|| format!("cell {c}: a user class completed nothing")),
        );
        if c < cfg.cells {
            pass.push(CellSummary::of(&report));
        }
    }
    pass
}

/// Outputs of one replica pass.
pub struct ReplicaPass {
    /// Per-cell summaries, comparable with [`measure`]'s.
    pub cells: Vec<CellSummary>,
    /// Deterministic simulated-time outputs.
    pub sim: SimStats,
    /// Runtime-kept layer counters.
    pub counters: RuntimeCounters,
    /// Host time of each cell's run phase.
    pub ops: Vec<Duration>,
}

/// One deterministic pass through [`replica`], traced when `w` is given
/// (the wrapper's tracer then times each cell's run phase).
pub fn replica_pass(
    cfg: &Config,
    seed: u64,
    threads: u32,
    w: Option<&Wrapper>,
    tally: &mut Tally,
) -> ReplicaPass {
    let mut out = ReplicaPass {
        cells: Vec::new(),
        sim: SimStats::default(),
        counters: RuntimeCounters::default(),
        ops: Vec::new(),
    };
    let mut digest = Digest::default();
    for c in 0..cfg.cells {
        let sched = crate::wrap::scheduler(w, Box::new(FifoScheduler::new()));
        let (mut rt, spec) = build_world(cfg, cell_seed(seed, c), threads, sched);
        let wrapper = w.map(|w| w.with_datasets(spec.users.iter().map(|u| Arc::clone(&u.dataset))));
        let mut clock = Clock::start(wrapper.as_ref());
        let cell = replica(
            &mut rt,
            &spec,
            wrapper.as_ref(),
            &mut clock,
            &mut out.counters,
            tally,
            &mut digest,
        );
        out.ops.push(clock.stop());
        let m = rt.metrics();
        out.counters.add(m.host_phase_nanos(), m.memo());
        out.sim.jobs += cell.summary.sampling_completed + cell.summary.non_sampling_completed;
        out.sim.hours += cfg.measure.as_secs_f64() / 3600.0;
        out.sim.sampling_response_s.extend(cell.responses);
        out.sim.sampling_splits.extend(cell.splits);
        out.sim.reports.push(cell.summary.metrics);
        out.cells.push(cell.summary);
    }
    out.sim.digest = digest.finish();
    out
}

struct ReplicaCell {
    summary: CellSummary,
    responses: Vec<f64>,
    splits: Vec<f64>,
}

fn build_user_job(
    user: &UserSpec,
    spec: &WorkloadSpec,
    job_seed: u64,
) -> (JobSpec, Box<dyn GrowthDriver>) {
    match &user.class {
        UserClass::Sampling {
            k,
            policy,
            sample_mode,
        } => {
            let (s, d) = build_sampling_job(
                &user.dataset,
                *k,
                policy.clone(),
                spec.scan_mode,
                *sample_mode,
                job_seed,
            );
            (s, d)
        }
        UserClass::NonSampling => {
            let (s, d) = build_scan_job(&user.dataset, spec.scan_mode);
            (s, d)
        }
        UserClass::AdaptiveSampling { k, sample_mode } => {
            let (s, d) = build_adaptive_sampling_job(
                &user.dataset,
                *k,
                spec.scan_mode,
                *sample_mode,
                job_seed,
            );
            (s, d)
        }
    }
}

/// `run_workload`'s loop, step for step, over public entry points: jobs
/// are built the same way and submitted in the same order with the same
/// seeds, so the report must match bit for bit. With `w`, each job's trait
/// objects are wrapped and every call is spanned. Each completed job is
/// checked (not failed; sampling jobs return `min(k, matches)` rows).
fn replica(
    rt: &mut MrRuntime,
    spec: &WorkloadSpec,
    w: Option<&Wrapper>,
    clock: &mut Clock,
    counters: &mut RuntimeCounters,
    tally: &mut Tally,
    digest: &mut Digest,
) -> ReplicaCell {
    let warmup_end = rt.now() + spec.warmup;
    let horizon = warmup_end + spec.measure;
    let mut owner: HashMap<JobId, usize> = HashMap::new();
    let mut iteration: Vec<u64> = vec![0; spec.users.len()];
    let submit = |rt: &mut MrRuntime, u: usize, job_seed: u64| -> JobId {
        let (job, driver) = traced(w, Layer::Workload, || {
            let (job, driver) = build_user_job(&spec.users[u], spec, job_seed);
            match w {
                Some(w) => (w.spec(job), w.driver(driver)),
                None => (job, driver),
            }
        });
        traced(w, Layer::Runtime, || rt.submit(job, driver))
    };
    for u in 0..spec.users.len() {
        let id = submit(rt, u, splitmix64(spec.seed ^ splitmix64(u as u64)));
        owner.insert(id, u);
    }
    let mut metrics_reset = false;
    let mut sampling = OnlineStats::new();
    let mut splits_stats = OnlineStats::new();
    let (mut sampling_completed, mut non_sampling_completed) = (0u64, 0u64);
    let (mut responses, mut splits) = (Vec::new(), Vec::new());
    loop {
        let done = traced(w, Layer::Runtime, || rt.run_until_any_completion())
            .expect("closed-loop workload drained the event queue before the horizon");
        let now = rt.now();
        if !metrics_reset && now >= warmup_end {
            // The reset also zeroes the host-phase counters: keep the
            // warm-up's share for the per-layer report.
            let m = rt.metrics();
            counters.add(m.host_phase_nanos(), m.memo());
            traced(w, Layer::Runtime, || rt.reset_metrics());
            metrics_reset = true;
        }
        if now > horizon {
            break;
        }
        let u = owner.remove(&done).expect("completion belongs to a user");
        if now >= warmup_end {
            let result = rt.job_result(done);
            let response = result.response_time().as_secs_f64();
            clock.untimed(|| {
                digest.u64(response.to_bits());
                digest.u64(result.splits_processed as u64);
                digest.u64(result.records_processed);
                digest.rows(result.output.iter().map(|(_, r)| r));
                let err = if result.failed {
                    Some(format!("job {done} failed: {:?}", result.error))
                } else if let UserClass::Sampling { k, .. } = &spec.users[u].class {
                    let want = (*k).min(spec.users[u].dataset.total_matching());
                    (result.output.len() as u64 != want).then(|| {
                        format!(
                            "job {done}: {} sample rows, want {want}",
                            result.output.len()
                        )
                    })
                } else {
                    None
                };
                tally.check(err);
            });
            match spec.users[u].class {
                UserClass::Sampling { .. } | UserClass::AdaptiveSampling { .. } => {
                    sampling_completed += 1;
                    sampling.push(response);
                    splits_stats.push(result.splits_processed as f64);
                    responses.push(response);
                    splits.push(result.splits_processed as f64);
                }
                UserClass::NonSampling => non_sampling_completed += 1,
            }
        }
        traced(w, Layer::Runtime, || rt.release_job_result(done));
        iteration[u] += 1;
        let job_seed = splitmix64(spec.seed ^ splitmix64(u as u64 ^ (iteration[u] << 20)));
        let id = submit(rt, u, job_seed);
        owner.insert(id, u);
    }
    if !metrics_reset {
        let m = rt.metrics();
        counters.add(m.host_phase_nanos(), m.memo());
        rt.reset_metrics();
    }
    ReplicaCell {
        summary: CellSummary {
            sampling_completed,
            non_sampling_completed,
            sampling_mean_bits: sampling.mean().to_bits(),
            splits_mean_bits: splits_stats.mean().to_bits(),
            metrics: rt.metrics().report(rt.now()),
        },
        responses,
        splits,
    }
}
