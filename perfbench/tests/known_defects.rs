//! Reproductions of program defects the benchmark's output checks found.
//! Each asserts the correct behaviour and is ignored until the defect is
//! fixed; run them with `cargo test -- --ignored`.

use std::sync::Arc;

use incmr_data::{Dataset, DatasetSpec, SkewLevel};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_hiveql::{QueryOutput, Session};
use incmr_mapreduce::{ClusterConfig, CostModel, FifoScheduler, MrRuntime, ScanMode};
use incmr_simkit::rng::DetRng;

/// Row counts of `sqls`, run in order on one fresh session.
fn row_counts(memo: bool, sqls: &[&str]) -> Vec<usize> {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(3);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        DatasetSpec::small("lineitem", 8, 2_000, SkewLevel::Zero, 3),
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let mut rt = MrRuntime::new(
        ClusterConfig::paper_single_user(),
        CostModel::paper_default(),
        ns,
        Box::new(FifoScheduler::new()),
    );
    if memo {
        rt.enable_memoization();
    }
    let mut s = Session::builder()
        .runtime(rt)
        .table("lineitem", ds)
        .scan_mode(ScanMode::Full)
        .try_build()
        .expect("session");
    sqls.iter()
        .map(|sql| match s.execute(sql).expect("statement runs") {
            QueryOutput::Rows { rows, .. } => rows.len(),
            other => panic!("{sql}: no rows: {other:?}"),
        })
        .collect()
}

/// Static scans and exact `GROUP BY`s compile without a semantic
/// `JOB_SIGNATURE`, so the runtime keys their memo entries on a hash of a
/// job conf that does not carry the predicate or the grouping: two
/// different queries over the same table then share cached map output.
#[test]
#[ignore = "defect: memoized map output is shared between different static scans"]
fn distinct_static_scans_do_not_share_memoized_map_output() {
    let sqls = [
        "SELECT L_ORDERKEY FROM lineitem WHERE L_SHIPMODE = 'AIR'",
        "SELECT L_ORDERKEY FROM lineitem WHERE L_SHIPMODE = 'MAIL'",
        "SELECT COUNT(*) FROM lineitem GROUP BY L_RETURNFLAG",
        "SELECT COUNT(*) FROM lineitem GROUP BY L_LINESTATUS",
    ];
    assert_eq!(row_counts(true, &sqls), row_counts(false, &sqls));
}

/// The analyst stream rotates its filtered scans and exact `GROUP BY`
/// columns, so the defect above makes its reference checks fail.
#[test]
#[ignore = "defect: memoized map output is shared between different static scans"]
fn analyst_session_passes_its_output_checks() {
    let out = incmr_perfbench::run(&incmr_perfbench::Options {
        workload: incmr_perfbench::Workload::AnalystSession,
        seed: 3,
        seconds: 0.01,
        trace: false,
        sizes: incmr_perfbench::Sizes::smoke(),
    });
    assert_eq!(out.failed, 0, "{:?}", out.failures);
}
