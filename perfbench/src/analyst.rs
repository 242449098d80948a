//! `analyst_session`: one client in a closed loop, running a seeded stream
//! of HiveQL statements through `Session::execute` against one
//! `ScanMode::Full` table, with memoization on and a write (`evolve`
//! append or mutate of a few blocks) every few statements.
//!
//! The mix: sampling `LIMIT k` under rotating Table I policies, filtered
//! scans over rotating predicates, exact `GROUP BY`s over rotating
//! columns, and `GROUP BY … WITH ERROR`. One operation is one `SELECT`. A
//! pass is a fresh session running the whole stream; its simulated-time
//! outputs are deterministic.
//!
//! Every result is checked against a reference computed from the generated
//! blocks, once per `(block, version)` and outside timing.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use incmr_data::lineitem::col;
use incmr_data::{
    CmpOp, Dataset, DatasetSpec, Predicate, Record, RecordFactory, SkewLevel, SplitGenerator, Value,
};
use incmr_dfs::{BlockId, ClusterTopology, EvenRoundRobin, Namespace};
use incmr_hiveql::{collect_result, Catalog, Prepared, QueryOutput, Session, SessionError};
use incmr_mapreduce::{
    AggOutcome, ClusterConfig, CostModel, FifoScheduler, MrRuntime, Parallelism, ScanMode,
    TaskScheduler,
};
use incmr_simkit::rng::{splitmix64, DetRng};

use crate::common::{past, traced, Clock, CpuInstant, Digest, RuntimeCounters, SimStats, Tally};
use crate::spans::Layer;
use crate::wrap::Wrapper;

/// Shape of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Initial partitions of the table.
    pub partitions: u32,
    /// Records per partition.
    pub records_per_partition: u64,
    /// Fraction of records matching the planted sampling predicate.
    pub selectivity: f64,
    /// `SELECT`s per pass.
    pub selects: u32,
    /// A write follows every this many `SELECT`s.
    pub write_every: u32,
    /// Blocks per append or mutate.
    pub write_blocks: u32,
    /// Appends stop once this many blocks were added (mutates continue),
    /// so per-statement cost stays stationary over a pass.
    pub max_appended: u32,
    /// Sample sizes the sampling statements cycle through.
    pub sample_ks: Vec<u64>,
}

impl Config {
    /// The benchmarked size.
    pub fn standard() -> Self {
        Config {
            partitions: 64,
            records_per_partition: 5_000,
            selectivity: 0.002,
            selects: 300,
            write_every: 5,
            write_blocks: 2,
            max_appended: 8,
            // Simulated responses step with the 4 s evaluation interval;
            // with larger k the p90 sits on a step edge and flips between
            // seeds.
            sample_ks: vec![5, 10, 20, 50],
        }
    }

    /// A short stream for smoke tests.
    pub fn smoke() -> Self {
        Config {
            partitions: 64,
            records_per_partition: 400,
            selects: 12,
            write_every: 4,
            ..Config::standard()
        }
    }
}

/// Skew of the planted sampling matches (the other two workloads use zero
/// and mixed skew).
const SKEW: SkewLevel = SkewLevel::Moderate;
const POLICIES: [&str; 5] = ["Hadoop", "HA", "MA", "LA", "C"];
/// The `SELECT` mix of every ten statements (parameters are filled in by
/// [`stream`]).
const MIX: [Stmt; 10] = [
    Stmt::Sample { k: 0 },
    Stmt::Sample { k: 0 },
    Stmt::Sample { k: 0 },
    Stmt::Sample { k: 0 },
    Stmt::Filter { f: 0 },
    Stmt::Filter { f: 0 },
    Stmt::Group { col: 0 },
    Stmt::Group { col: 0 },
    Stmt::Approx { col: 0 },
    Stmt::Approx { col: 0 },
];
/// Estimating statements run under LA: the `Hadoop` policy grabs every
/// split up front, which makes any bounded aggregate an exact scan.
const APPROX_POLICY: &str = "LA";
/// Grouping columns the exact and estimating `GROUP BY`s rotate over.
const GROUP_COLS: [(usize, &str); 3] = [
    (col::RETURNFLAG, "L_RETURNFLAG"),
    (col::LINESTATUS, "L_LINESTATUS"),
    (col::SHIPMODE, "L_SHIPMODE"),
];
const AGGS: &str = "SUM(L_QUANTITY), COUNT(*), AVG(L_EXTENDEDPRICE)";
/// `(L_SHIPMODE, L_DISCOUNT upper bound)` of the filtered scans, in turn.
const FILTERS: [(&str, f64); 4] = [
    ("AIR", 0.02),
    ("MAIL", 0.02),
    ("TRUCK", 0.05),
    ("AIR", 0.05),
];

/// The predicate of filtered scan `f`, for the reference counts.
fn filter_predicate(f: usize) -> Predicate {
    let (mode, discount) = FILTERS[f];
    Predicate::And(
        Box::new(Predicate::eq(col::SHIPMODE, Value::Str(mode.into()))),
        Box::new(Predicate::Compare {
            column: col::DISCOUNT,
            op: CmpOp::Le,
            literal: Value::Float(discount),
        }),
    )
}

/// One statement of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stmt {
    /// `SET` the sampling policy.
    Policy(&'static str),
    /// `SELECT … WHERE <planted> LIMIT k`.
    Sample { k: u64 },
    /// The filtered scan over [`FILTERS`]`[f]`.
    Filter { f: usize },
    /// The exact `GROUP BY` [`GROUP_COLS`]`[col]`.
    Group { col: usize },
    /// `GROUP BY` [`GROUP_COLS`]`[col]` `… WITH ERROR 0.05 CONFIDENCE 0.95`.
    Approx { col: usize },
    /// `evolve`: append `write_blocks` blocks.
    Append,
    /// `evolve`: rewrite `write_blocks` blocks chosen by the seed.
    Mutate { pick: u64 },
}

impl Stmt {
    fn sql(self, planted: &str) -> String {
        match self {
            Stmt::Policy(p) => format!("SET dynamic.job.policy = {p}"),
            Stmt::Sample { k } => format!(
                "SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM lineitem WHERE {planted} LIMIT {k}"
            ),
            Stmt::Filter { f } => format!(
                "SELECT L_ORDERKEY, L_QUANTITY FROM lineitem \
                 WHERE L_SHIPMODE = '{}' AND L_DISCOUNT <= {}",
                FILTERS[f].0, FILTERS[f].1
            ),
            Stmt::Group { col } => {
                format!("SELECT {AGGS} FROM lineitem GROUP BY {}", GROUP_COLS[col].1)
            }
            Stmt::Approx { col } => format!(
                "SELECT {AGGS} FROM lineitem GROUP BY {} WITH ERROR 0.05 CONFIDENCE 0.95",
                GROUP_COLS[col].1
            ),
            Stmt::Append | Stmt::Mutate { .. } => unreachable!("writes are not HiveQL"),
        }
    }
}

/// The seeded statement stream of one pass.
fn stream(cfg: &Config, seed: u64) -> Vec<Stmt> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(state)
    };
    let mut out = Vec::new();
    let (mut samples, mut writes, mut appended) = (0, 0, 0);
    let (mut filters, mut groups, mut approxes) = (0, 0, 0);
    let mut active = "";
    let mut set = |out: &mut Vec<Stmt>, policy: &'static str| {
        if active != policy {
            active = policy;
            out.push(Stmt::Policy(policy));
        }
    };
    // Every block of ten SELECTs has the same mix, in a seeded order, so
    // the seed changes the data and the order but not the proportions.
    let mut block = MIX;
    for i in 0..cfg.selects {
        let slot = i as usize % MIX.len();
        if slot == 0 {
            for j in (1..block.len()).rev() {
                block.swap(j, (next() % (j as u64 + 1)) as usize);
            }
        }
        match block[slot] {
            Stmt::Sample { .. } => {
                // Policy and k cycle so every (policy, k) pair recurs.
                set(&mut out, POLICIES[samples % POLICIES.len()]);
                out.push(Stmt::Sample {
                    k: cfg.sample_ks[(samples / POLICIES.len()) % cfg.sample_ks.len()],
                });
                samples += 1;
            }
            Stmt::Filter { .. } => {
                out.push(Stmt::Filter {
                    f: filters % FILTERS.len(),
                });
                filters += 1;
            }
            Stmt::Group { .. } => {
                out.push(Stmt::Group {
                    col: groups % GROUP_COLS.len(),
                });
                groups += 1;
            }
            Stmt::Approx { .. } => {
                set(&mut out, APPROX_POLICY);
                out.push(Stmt::Approx {
                    col: approxes % GROUP_COLS.len(),
                });
                approxes += 1;
            }
            other => out.push(other),
        }
        if (i + 1) % cfg.write_every == 0 {
            // Appends and mutates alternate until the append budget is
            // spent; mutates then continue alone.
            if appended < cfg.max_appended && writes % 2 == 0 {
                appended += cfg.write_blocks;
                out.push(Stmt::Append);
            } else {
                out.push(Stmt::Mutate { pick: next() });
            }
            writes += 1;
        }
    }
    out
}

/// Group value → (sum of quantity, count, sum of price).
type Groups = BTreeMap<String, (f64, i64, f64)>;

/// What one generated block contributes to every checked answer.
#[derive(Debug, Clone, Default)]
struct BlockRef {
    /// Records matching the planted sampling predicate.
    planted: u64,
    /// Records each of [`FILTERS`] selects.
    filter: [u64; FILTERS.len()],
    /// Totals grouped by each of [`GROUP_COLS`].
    groups: [Groups; GROUP_COLS.len()],
}

/// Reference answers, computed from the generated blocks once per
/// `(block, version)` and kept across passes.
#[derive(Default)]
pub struct Reference {
    /// Keyed by `(table seed, block, version)`: passes on different seeds
    /// reuse block ids for different contents.
    blocks: HashMap<(u64, BlockId, u32), BlockRef>,
}

impl Reference {
    /// The table's current answers.
    fn table(&mut self, ds: &Dataset) -> BlockRef {
        let factory = ds.factory();
        let planted = factory.predicate();
        let filters: Vec<Predicate> = (0..FILTERS.len()).map(filter_predicate).collect();
        let mut total = BlockRef::default();
        for plan in ds.splits() {
            let b = self
                .blocks
                .entry((ds.spec().seed, plan.block, plan.version))
                .or_insert_with(|| {
                    let mut b = BlockRef::default();
                    for r in SplitGenerator::new(&factory, plan.spec).full_iter() {
                        b.planted += planted.eval(&r) as u64;
                        for (n, f) in b.filter.iter_mut().zip(&filters) {
                            *n += f.eval(&r) as u64;
                        }
                        let (Value::Int(q), Value::Float(p)) =
                            (r.get(col::QUANTITY), r.get(col::EXTENDEDPRICE))
                        else {
                            panic!("LINEITEM column types changed: {r:?}")
                        };
                        for (groups, &(c, _)) in b.groups.iter_mut().zip(&GROUP_COLS) {
                            let Value::Str(key) = r.get(c) else {
                                panic!("LINEITEM column types changed: {r:?}")
                            };
                            let e = groups.entry(key.clone()).or_default();
                            e.0 += *q as f64;
                            e.1 += 1;
                            e.2 += p;
                        }
                    }
                    b
                });
            total.planted += b.planted;
            for (t, n) in total.filter.iter_mut().zip(&b.filter) {
                *t += n;
            }
            for (t, groups) in total.groups.iter_mut().zip(&b.groups) {
                for (key, v) in groups {
                    let e = t.entry(key.clone()).or_default();
                    e.0 += v.0;
                    e.1 += v.1;
                    e.2 += v.2;
                }
            }
        }
        total
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Compare exact `GROUP BY` rows (group, SUM, COUNT, AVG) with the
/// reference.
fn check_groups(rows: &[Record], want: &Groups) -> Option<String> {
    if rows.len() != want.len() {
        return Some(format!("{} groups, want {}", rows.len(), want.len()));
    }
    for row in rows {
        let (Value::Str(g), Value::Float(sum), Value::Int(n), Value::Float(avg)) =
            (row.get(0), row.get(1), row.get(2), row.get(3))
        else {
            return Some(format!("malformed group row {row:?}"));
        };
        let Some(&(ws, wn, wp)) = want.get(g) else {
            return Some(format!("unexpected group {g}"));
        };
        if *n != wn || !close(*sum, ws) || !close(*avg, wp / wn as f64) {
            return Some(format!(
                "group {g}: got ({sum}, {n}, {avg}), want ({ws}, {wn}, {})",
                wp / wn as f64
            ));
        }
    }
    None
}

/// One session over a fresh table, as a user would build it.
pub struct World {
    session: Session,
    dataset: Arc<Dataset>,
    /// The session's tables, for the traced path's own `prepare` calls.
    catalog: Catalog,
    placement: EvenRoundRobin,
    rng: DetRng,
    planted_sql: &'static str,
}

/// Build the table, runtime (memoization on), and session.
pub fn build_world(
    cfg: &Config,
    seed: u64,
    threads: u32,
    scheduler: Box<dyn TaskScheduler>,
) -> World {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let rng = DetRng::seed_from(seed);
    let mut spec = DatasetSpec::small(
        "lineitem",
        cfg.partitions,
        cfg.records_per_partition,
        SKEW,
        seed,
    );
    spec.selectivity = cfg.selectivity;
    let dataset = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng.fork_named("build"),
    ));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user().with_parallelism(Parallelism::threads(threads)),
        CostModel::paper_default(),
        ns,
        scheduler,
    );
    rt.enable_memoization();
    let session = Session::builder()
        .runtime(rt)
        .table("lineitem", Arc::clone(&dataset))
        .scan_mode(ScanMode::Full)
        .seed(seed)
        .try_build()
        .expect("analyst session configuration is valid");
    let mut catalog = Catalog::new();
    catalog.register("lineitem", Arc::clone(&dataset));
    World {
        session,
        planted_sql: incmr_data::PaperPredicate::for_skew(SKEW).sql,
        dataset,
        catalog,
        placement: EvenRoundRobin::starting_at(7),
        rng: rng.fork_named("writes"),
    }
}

/// A `SELECT`'s rows plus what the checks and sim outputs need.
struct Answer {
    rows: Vec<Record>,
    splits: u32,
    response_s: f64,
    agg: Option<AggOutcome>,
}

/// Execute one statement. Untraced, through `Session::execute`; traced,
/// through the same steps over public entry points (`SessionState::prepare`,
/// `MrRuntime::submit`/`step`, `collect_result`) with the job's trait
/// objects wrapped.
fn execute(
    world: &mut World,
    sql: &str,
    w: Option<&Wrapper>,
) -> Result<Option<Answer>, SessionError> {
    let Some(w) = w else {
        return Ok(match world.session.execute(sql)? {
            QueryOutput::Rows {
                job,
                rows,
                splits_processed,
                response_time,
                ..
            } => Some(Answer {
                rows,
                splits: splits_processed,
                response_s: response_time.as_secs_f64(),
                agg: world
                    .session
                    .runtime()
                    .job_result(job)
                    .agg
                    .map(|a| a.outcome),
            }),
            _ => None,
        });
    };
    let catalog = &world.catalog;
    let state = world.session.state_mut();
    let prepared = w.span(Layer::Hiveql, || {
        let t = CpuInstant::now();
        let prepared = state.prepare(sql, catalog);
        let ns = t.elapsed().as_nanos() as u64;
        w.tracer().count(|c| c.prepare_ns += ns);
        prepared
    });
    let compiled = match prepared? {
        Prepared::Immediate(_) => return Ok(None),
        Prepared::Submit(compiled) => compiled,
    };
    let requested_k = compiled.requested_k();
    let (spec, driver) = (w.spec(compiled.spec), w.driver(compiled.driver));
    let rt = world.session.runtime_mut();
    let job = w.span(Layer::Runtime, || {
        let job = rt.submit(spec, driver);
        while !rt.is_complete(job) {
            assert!(rt.step(), "runtime drained before job completion");
        }
        job
    });
    let result = w.span(Layer::Hiveql, || collect_result(rt, job, requested_k));
    Ok(Some(Answer {
        rows: result.rows,
        splits: result.splits_processed,
        response_s: result.response_time.as_secs_f64(),
        agg: result.agg.map(|a| a.outcome),
    }))
}

/// Apply one write through `MrRuntime::evolve`.
fn write(world: &mut World, stmt: Stmt, cfg: &Config, w: Option<&Wrapper>) {
    let World {
        session,
        dataset,
        placement,
        rng,
        ..
    } = world;
    let rt = session.runtime_mut();
    match stmt {
        Stmt::Append => traced(w, Layer::Runtime, || {
            rt.evolve(|ns| dataset.append(ns, cfg.write_blocks, placement, rng));
        }),
        Stmt::Mutate { pick } => {
            let splits = dataset.splits();
            let blocks: Vec<BlockId> = (0..cfg.write_blocks as u64)
                .map(|i| splits[(splitmix64(pick ^ i) % splits.len() as u64) as usize].block)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            traced(w, Layer::Runtime, || {
                rt.evolve(|ns| dataset.mutate(ns, &blocks, placement, rng));
            })
        }
        _ => unreachable!("not a write"),
    }
}

/// Outputs of one pass.
pub struct Pass {
    /// Deterministic simulated-time outputs (meaningful only for a pass
    /// that ran without a deadline).
    pub sim: SimStats,
    /// Runtime-kept layer counters.
    pub counters: RuntimeCounters,
    /// Host time of each `SELECT`, in stream order.
    pub ops: Vec<Duration>,
}

/// Run one pass: a fresh session through the whole stream, stopping early
/// only if `deadline` passes. Each `SELECT`'s `Session::execute` is one
/// timed operation; writes and `SET`s count toward the run phase.
pub fn pass(
    cfg: &Config,
    seed: u64,
    threads: u32,
    w: Option<&Wrapper>,
    deadline: Option<Instant>,
    reference: &mut Reference,
    tally: &mut Tally,
) -> Pass {
    let mut world = tally.setup(|| {
        let sched = crate::wrap::scheduler(w, Box::new(FifoScheduler::new()));
        build_world(cfg, seed, threads, sched)
    });
    let w = w.map(|w| w.with_datasets([Arc::clone(&world.dataset)]));
    let w = w.as_ref();
    let mut sim = SimStats::default();
    let mut digest = Digest::default();
    let start_sim = world.session.runtime().now();
    let mut clock = Clock::start(w);
    let mut ops = Vec::new();
    for stmt in stream(cfg, seed) {
        if past(deadline) {
            break;
        }
        if matches!(stmt, Stmt::Append | Stmt::Mutate { .. }) {
            write(&mut world, stmt, cfg, w);
            clock.untimed(|| tally.check(None));
            continue;
        }
        let sql = stmt.sql(world.planted_sql);
        let t = CpuInstant::now();
        let out = execute(&mut world, &sql, w);
        let d = t.elapsed();
        if matches!(stmt, Stmt::Policy(_)) {
            clock.untimed(|| tally.check(out.err().map(|e| format!("{sql}: {e}"))));
            continue;
        }
        clock.untimed(|| {
            ops.push(d);
            let err = match out {
                Err(e) => Some(format!("{e}")),
                Ok(None) => Some("SELECT returned no rows object".into()),
                Ok(Some(a)) => {
                    tally.jobs += 1;
                    sim.jobs += 1;
                    digest.u64(a.response_s.to_bits());
                    digest.u64(a.splits as u64);
                    digest.rows(&a.rows);
                    check(stmt, &a, &reference.table(&world.dataset), &mut sim)
                }
            };
            tally.check(err.map(|e| format!("{sql}: {e}")));
        });
    }
    let run = clock.stop();
    tally.run += run;
    for &d in &ops {
        tally.op(d);
    }
    let rt = world.session.runtime();
    sim.hours = (rt.now() - start_sim).as_secs_f64() / 3600.0;
    sim.reports.push(rt.metrics().report(rt.now()));
    sim.digest = digest.finish();
    let mut counters = RuntimeCounters::default();
    counters.add(rt.metrics().host_phase_nanos(), rt.metrics().memo());
    Pass { sim, counters, ops }
}

/// Check one answer; sampling answers also feed the sim outputs.
fn check(stmt: Stmt, a: &Answer, want: &BlockRef, sim: &mut SimStats) -> Option<String> {
    match stmt {
        Stmt::Sample { k } => {
            sim.sampling_response_s.push(a.response_s);
            sim.sampling_splits.push(a.splits as f64);
            let want = k.min(want.planted);
            (a.rows.len() as u64 != want).then(|| {
                format!(
                    "{} sample rows, want min(k, matches) = {want}",
                    a.rows.len()
                )
            })
        }
        Stmt::Filter { f } => (a.rows.len() as u64 != want.filter[f])
            .then(|| format!("{} rows, want {}", a.rows.len(), want.filter[f])),
        Stmt::Group { col } => check_groups(&a.rows, &want.groups[col]),
        Stmt::Approx { .. } => match a.agg {
            Some(AggOutcome::BoundMet | AggOutcome::BudgetExhausted) if !a.rows.is_empty() => None,
            other => Some(format!(
                "WITH ERROR finished {other:?} with {} rows",
                a.rows.len()
            )),
        },
        _ => None,
    }
}
