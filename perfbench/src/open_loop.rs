//! `open_loop_fair`: several tenants with Poisson arrivals through
//! `QueryService` under `FairScheduler::paper_default()`, querying small
//! planted tables at a rate below Fair's saturation.
//!
//! Data work is negligible here, so host time goes to admission, parse and
//! compile, fair-scheduler assignment, provider evaluation, and the event
//! loop. One operation is one *cell*: a freshly built service run to a
//! fixed arrival horizon and drained. A pass is `cells` cells with
//! distinct derived seeds.
//!
//! `QueryService` compiles its own jobs, so the traced run reaches only the
//! scheduler (wrapped), the service (`submit`), and the event loop it
//! drives (`run_until`/`run_until_idle`). Provider evaluations and data
//! reads are counted from the runtime's own audit log and trace.

use std::sync::Arc;
use std::time::{Duration, Instant};

use incmr_data::{Dataset, DatasetSpec, PaperPredicate, SkewLevel};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_hiveql::{SessionState, TenantProfile};
use incmr_mapreduce::{
    AuditDirective, ClusterConfig, CostModel, FairScheduler, MrRuntime, Parallelism, TaskScheduler,
    TraceKind,
};
use incmr_service::{QueryService, ServiceConfig, ServiceError, ServiceReply, TenantId, Ticket};
use incmr_simkit::dist::exponential_millis;
use incmr_simkit::rng::{splitmix64, DetRng};
use incmr_simkit::{SimDuration, SimTime};

use crate::common::{traced, Clock, Digest, RuntimeCounters, SimStats, Tally};
use crate::spans::Layer;
use crate::wrap::Wrapper;

/// One tenant class.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Tenant and table name.
    pub name: &'static str,
    /// Skew of the tenant's table (picks its planted predicate).
    pub skew: SkewLevel,
    /// `Some((k, policy))` for a sampling tenant, `None` for a scanning one.
    pub sampling: Option<(u64, &'static str)>,
    /// Mean gap between the tenant's arrivals.
    pub mean_gap: SimDuration,
}

/// Shape of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// The tenants.
    pub tenants: Vec<Tenant>,
    /// Partitions per table.
    pub partitions: u32,
    /// Records per partition.
    pub records_per_partition: u64,
    /// Arrival horizon of each cell.
    pub horizon: SimDuration,
    /// Service-wide in-flight cap.
    pub service_cap: u32,
    /// Cells per deterministic pass.
    pub cells: u32,
    /// Fewest cells a measured run times.
    pub min_ops: u32,
}

impl Config {
    /// The benchmarked size.
    pub fn standard() -> Self {
        let t = |name, skew, sampling, secs| Tenant {
            name,
            skew,
            sampling,
            mean_gap: SimDuration::from_secs(secs),
        };
        // About half the rate at which queueing dominates response time,
        // and a fifth of the rate at which admission control starts
        // rejecting (measured by sweeping the gaps on this spec).
        Config {
            tenants: vec![
                t("t_la", SkewLevel::Zero, Some((20, "LA")), 40),
                t("t_ma", SkewLevel::Moderate, Some((20, "MA")), 40),
                t("t_c", SkewLevel::High, Some((20, "C")), 40),
                t("t_scan", SkewLevel::Zero, None, 120),
            ],
            partitions: 20,
            records_per_partition: 100_000,
            horizon: SimDuration::from_mins(60),
            service_cap: 16,
            cells: 12,
            min_ops: crate::common::MIN_OPS,
        }
    }

    /// A short horizon for smoke tests.
    pub fn smoke() -> Self {
        Config {
            horizon: SimDuration::from_mins(3),
            cells: 2,
            min_ops: 0,
            ..Config::standard()
        }
    }
}

fn cell_seed(seed: u64, cell: u32) -> u64 {
    splitmix64(seed ^ splitmix64(0x0BE2_100F + cell as u64))
}

/// One cell's service, as a user would build it.
pub struct World {
    svc: QueryService,
    tenants: Vec<TenantId>,
    tables: Vec<Arc<Dataset>>,
    sql: Vec<String>,
    rngs: Vec<DetRng>,
}

/// Build the tables, runtime, service, and tenants. `observe` arms the
/// runtime's audit log and trace, which the traced run counts from.
pub fn build_world(
    cfg: &Config,
    seed: u64,
    threads: u32,
    scheduler: Box<dyn TaskScheduler>,
    observe: bool,
) -> World {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let root = DetRng::seed_from(seed);
    let tables: Vec<Arc<Dataset>> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let spec = DatasetSpec::small(
                t.name,
                cfg.partitions,
                cfg.records_per_partition,
                t.skew,
                root.fork(100 + i as u64).seed(),
            );
            let mut placement = EvenRoundRobin::starting_at(i as u32 * 11);
            Arc::new(Dataset::build(
                &mut ns,
                spec,
                &mut placement,
                &mut root.fork(i as u64),
            ))
        })
        .collect();
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_multi_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        scheduler,
    );
    if observe {
        rt.enable_audit();
        rt.enable_tracing();
    }
    let mut svc = QueryService::new(
        rt,
        ServiceConfig {
            max_in_flight_jobs: cfg.service_cap,
        },
    );
    let mut tenants = Vec::new();
    let mut sql = Vec::new();
    for (t, table) in cfg.tenants.iter().zip(&tables) {
        svc.register_table(t.name, Arc::clone(table));
        let mut state = SessionState::new();
        let pred = PaperPredicate::for_skew(t.skew).sql;
        let cols = "L_ORDERKEY, L_PARTKEY, L_SUPPKEY";
        sql.push(match t.sampling {
            Some((k, policy)) => {
                state
                    .set_active_policy(policy)
                    .expect("tenant policies are Table I names");
                format!("SELECT {cols} FROM {} WHERE {pred} LIMIT {k}", t.name)
            }
            None => format!("SELECT {cols} FROM {} WHERE {pred}", t.name),
        });
        let profile = TenantProfile {
            name: t.name.to_string(),
            queue_cap: 64,
            ..TenantProfile::default()
        };
        tenants.push(svc.add_tenant_with_state(profile, state));
    }
    let rngs = cfg
        .tenants
        .iter()
        .map(|t| root.fork_named(t.name))
        .collect();
    World {
        svc,
        tenants,
        tables,
        sql,
        rngs,
    }
}

/// What the runtime's own observability recorded in one traced cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed {
    /// Driver consultations in the audit log.
    pub provider_evals: u64,
    /// Consultations that admitted splits.
    pub provider_grows: u64,
    /// Map attempts started (each reads its split).
    pub map_reads: u64,
    /// Records the completed queries scanned.
    pub records: u64,
    /// Blocks across every table (an upper bound on first reads).
    pub table_blocks: u64,
}

/// Outputs of one cell.
pub struct Cell {
    /// Deterministic simulated-time outputs.
    pub sim: SimStats,
    /// Runtime-kept layer counters.
    pub counters: RuntimeCounters,
    /// Host time of the run phase.
    pub run: Duration,
    /// Audit/trace counts (zero unless built with `observe`).
    pub observed: Observed,
}

/// Drive one cell: merge the tenants' Poisson streams up to the horizon,
/// submitting each arrival when it is due, then drain and check every
/// admitted query (not failed; sampling queries return `min(k, matches)`
/// rows). Rejections count as failures.
pub fn run_cell(cfg: &Config, world: &mut World, w: Option<&Wrapper>, tally: &mut Tally) -> Cell {
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut next: Vec<SimTime> = vec![SimTime::ZERO; cfg.tenants.len()];
    let mut tickets: Vec<(usize, Ticket)> = Vec::new();
    let svc = &mut world.svc;
    let mut clock = Clock::start(w);
    while let Some(i) = (0..next.len())
        .filter(|&i| next[i] <= horizon)
        .min_by_key(|&i| (next[i], i))
    {
        let at = next[i];
        traced(w, Layer::Runtime, || svc.run_until(at));
        let reply = traced(w, Layer::Service, || {
            svc.submit(world.tenants[i], &world.sql[i])
        });
        match reply {
            Ok(ServiceReply::Admitted(ticket)) => tickets.push((i, ticket)),
            Ok(ServiceReply::Immediate(_)) => unreachable!("arrivals are SELECTs"),
            Err(e @ ServiceError::Rejected { .. }) => {
                clock.untimed(|| tally.check(Some(format!("{}: {e}", cfg.tenants[i].name))))
            }
            Err(e) => panic!("open-loop submission failed: {e}"),
        }
        let gap = exponential_millis(
            cfg.tenants[i].mean_gap.as_millis() as f64,
            &mut world.rngs[i],
        );
        next[i] = at + SimDuration::from_millis(gap.max(1));
    }
    traced(w, Layer::Runtime, || svc.run_until_idle());
    let mut sim = SimStats::default();
    let mut digest = Digest::default();
    let mut observed = Observed::default();
    for (i, ticket) in &tickets {
        let result = svc
            .take_result(ticket)
            .expect("a drained service holds every admitted result");
        clock.untimed(|| {
            sim.jobs += 1;
            observed.records += result.records_processed;
            digest.u64(result.response_time.as_secs_f64().to_bits());
            digest.rows(&result.rows);
            let err = if result.failed {
                Some(format!("{}: query failed", cfg.tenants[*i].name))
            } else if let Some((k, _)) = cfg.tenants[*i].sampling {
                sim.sampling_response_s
                    .push(result.response_time.as_secs_f64());
                sim.sampling_splits.push(result.splits_processed as f64);
                let want = k.min(world.tables[*i].total_matching());
                (result.rows.len() as u64 != want).then(|| {
                    format!(
                        "{}: {} sample rows, want {want}",
                        cfg.tenants[*i].name,
                        result.rows.len()
                    )
                })
            } else {
                None
            };
            tally.check(err);
        });
    }
    let run = clock.stop();
    let rt = svc.runtime();
    sim.hours = cfg.horizon.as_secs_f64() / 3600.0;
    sim.reports.push(rt.metrics().report(rt.now()));
    sim.digest = digest.finish();
    let mut counters = RuntimeCounters::default();
    counters.add(rt.metrics().host_phase_nanos(), rt.metrics().memo());
    for a in rt.audit_log() {
        observed.provider_evals += 1;
        observed.provider_grows +=
            matches!(a.directive, AuditDirective::AddInput { .. }) as u64 * (a.granted > 0) as u64;
    }
    let trace = svc.runtime_mut().take_trace();
    observed.map_reads = trace
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::MapStarted { .. }))
        .count() as u64;
    observed.table_blocks = world.tables.iter().map(|t| t.splits().len() as u64).sum();
    Cell {
        sim,
        counters,
        run,
        observed,
    }
}

fn scheduler(w: Option<&Wrapper>) -> Box<dyn TaskScheduler> {
    crate::wrap::scheduler(w, Box::new(FairScheduler::paper_default()))
}

/// The measured run: cells at `threads` data-plane threads, each on a
/// fresh derived seed (the first `cells` of them are the pass), until
/// [`cells_done`](crate::common::cells_done). Returns the pass's sim
/// outputs.
pub fn measure(
    cfg: &Config,
    seed: u64,
    threads: u32,
    deadline: Option<Instant>,
    tally: &mut Tally,
) -> (SimStats, RuntimeCounters) {
    let mut first = (SimStats::default(), RuntimeCounters::default());
    let mut digest = Digest::default();
    for c in 0u32.. {
        if crate::common::cells_done(c, cfg.cells, cfg.min_ops, deadline) {
            break;
        }
        let mut world =
            tally.setup(|| build_world(cfg, cell_seed(seed, c), threads, scheduler(None), false));
        let cell = run_cell(cfg, &mut world, None, tally);
        tally.op(cell.run);
        tally.run += cell.run;
        tally.jobs += cell.sim.jobs;
        if c < cfg.cells {
            merge(&mut first, &mut digest, cell);
        }
    }
    first.0.digest = digest.finish();
    first
}

fn merge(into: &mut (SimStats, RuntimeCounters), digest: &mut Digest, cell: Cell) {
    let (sim, counters) = into;
    sim.jobs += cell.sim.jobs;
    sim.hours += cell.sim.hours;
    sim.sampling_response_s.extend(cell.sim.sampling_response_s);
    sim.sampling_splits.extend(cell.sim.sampling_splits);
    sim.reports.extend(cell.sim.reports);
    digest.u64(cell.sim.digest);
    counters.add(cell.counters.host, cell.counters.memo);
}

/// Outputs of one traced or replayed pass.
pub struct PassOut {
    /// Deterministic simulated-time outputs.
    pub sim: SimStats,
    /// Runtime-kept layer counters.
    pub counters: RuntimeCounters,
    /// Host time of each cell's run phase.
    pub ops: Vec<Duration>,
    /// Audit/trace counts summed over the cells.
    pub observed: Observed,
}

/// One deterministic pass, traced when `w` is given.
pub fn pass(
    cfg: &Config,
    seed: u64,
    threads: u32,
    w: Option<&Wrapper>,
    tally: &mut Tally,
) -> PassOut {
    let mut acc = (SimStats::default(), RuntimeCounters::default());
    let mut digest = Digest::default();
    let mut ops = Vec::new();
    let mut observed = Observed::default();
    for c in 0..cfg.cells {
        let mut world = build_world(cfg, cell_seed(seed, c), threads, scheduler(w), w.is_some());
        let cell = run_cell(cfg, &mut world, w, tally);
        ops.push(cell.run);
        let o = cell.observed;
        observed.provider_evals += o.provider_evals;
        observed.provider_grows += o.provider_grows;
        observed.map_reads += o.map_reads;
        observed.records += o.records;
        observed.table_blocks += o.table_blocks;
        merge(&mut acc, &mut digest, cell);
    }
    acc.0.digest = digest.finish();
    PassOut {
        sim: acc.0,
        counters: acc.1,
        ops,
        observed,
    }
}
