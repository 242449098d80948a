//! Data-plane scan micro-benchmark: how fast the host computes a batch of
//! scan map tasks at different worker-pool sizes, on both record paths.
//!
//! Two variants of the same 40 × 20k workload:
//!
//! * `scan/full_batch_40x20k` — `ScanMode::Full`, the columnar path: each
//!   split is a shared `Arc<RecordBatch>` (generated once, cached by the
//!   `Dataset` for every job that reads it) and the mapper runs the
//!   vectorised `eval_batch` kernel over the column vectors.
//! * `scan/full_rows_40x20k` — the row-at-a-time reference oracle
//!   (`DatasetInputFormat::row_reference`): every read materialises `Vec<Record>` and the predicate is
//!   evaluated record by record.
//!
//! This measures the *host* wall clock of the two-plane split (see
//! `incmr-mapreduce::parallel`): simulated results are identical at every
//! thread count, so the only thing parallelism can buy is wall time.
//! Results are written to `BENCH_scan.json` (name, mean_ns, iterations)
//! so speedups can be compared across machines; records/sec per variant
//! is printed for quick reading. No speedup is asserted here because the
//! ratio is a property of the host's core count, not of the code.

use std::sync::Arc;

use criterion::{black_box, Criterion, Throughput};

use incmr_data::{Dataset, DatasetSpec, RecordFactory, SkewLevel};
use incmr_dfs::{ClusterTopology, EvenRoundRobin, Namespace};
use incmr_mapreduce::{
    DatasetInputFormat, InputFormat, MapResult, MapUnit, Mapper, ParallelExecutor, Parallelism,
    ScanMode, SplitData,
};
use incmr_simkit::rng::DetRng;

/// The paper's scan-side map logic in miniature: evaluate the planted
/// predicate over every record — vectorised when the split arrives
/// columnar, record-at-a-time on the row reference path.
struct PredicateCountMapper {
    predicate: incmr_data::Predicate,
}

impl Mapper for PredicateCountMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let (records_read, matches) = match data {
            SplitData::Batch(batch) => (
                batch.len() as u64,
                self.predicate.eval_batch(&batch).len() as u64,
            ),
            SplitData::Records(records) => (
                records.len() as u64,
                records.iter().filter(|r| self.predicate.eval(r)).count() as u64,
            ),
            other => panic!("scan bench uses full modes, got {other:?}"),
        };
        MapResult {
            records_read,
            unmaterialized_outputs: matches,
            unmaterialized_bytes: matches * 24,
            ..MapResult::default()
        }
    }
}

fn scan_units(partitions: u32, records: u64, rows: bool) -> Vec<MapUnit> {
    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(42);
    let spec = DatasetSpec::small("scanbench", partitions, records, SkewLevel::Moderate, 42);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let predicate = ds.factory().predicate();
    let input: Arc<dyn InputFormat> = Arc::new(if rows {
        DatasetInputFormat::row_reference(Arc::clone(&ds), ScanMode::Full)
    } else {
        DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Full)
    });
    let mapper: Arc<dyn Mapper> = Arc::new(PredicateCountMapper { predicate });
    ds.splits()
        .iter()
        .map(|plan| MapUnit {
            input_format: Arc::clone(&input),
            mapper: Arc::clone(&mapper),
            combiner: None,
            block: plan.block,
            reduce_tasks: 1,
        })
        .collect()
}

fn bench_scan_wave(c: &mut Criterion, group: &str, rows: bool) {
    // 40 splits × 20k records: one full scheduling wave on the paper's
    // 40-slot cluster, heavy enough for per-batch thread dispatch to be
    // noise.
    let units = scan_units(40, 20_000, rows);
    let records_total: u64 = 40 * 20_000;
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Elements(records_total));
    for threads in [1u32, 2, 4, 8] {
        let mut executor = ParallelExecutor::new(Parallelism::threads(threads));
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| black_box(executor.run(units.clone()).len()))
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_scan_wave(&mut c, "scan/full_batch_40x20k", false);
    bench_scan_wave(&mut c, "scan/full_rows_40x20k", true);
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {host_threads} (speedup is bounded by this)");
    let records_total = 40u64 * 20_000;
    for r in c.results() {
        let recs_per_sec = records_total as f64 / (r.mean_ns / 1e9);
        println!("{:<56} {:>12.0} records/sec", r.name, recs_per_sec);
    }
    // Cargo runs benches from the package dir; anchor the report at the
    // workspace root where tooling expects it.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    c.write_json(out).expect("write BENCH_scan.json");
    println!("wrote {out}");
}
