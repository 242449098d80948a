//! Allocation guard for the columnar scan hot path.
//!
//! The point of record batches is that a repeated scan read is an `Arc`
//! bump plus a couple of working vectors — not a per-record allocation
//! storm. This test pins that property with a counting global allocator:
//! if someone reintroduces per-record `Record` construction (or per-value
//! string interning) into the batch path, the count jumps by four orders
//! of magnitude and the guard trips. The same holds across jobs: every job
//! builds its own input format, and the dataset's batch cache must serve
//! it without regenerating the block. And the reduce side: a sampling
//! group's rows reach the reducer as views of their batch, so handing
//! 10 000 rows to `SamplingReducer` and dropping its output costs one
//! small allocation per row — not a `Vec` plus a `String` per string
//! column, twice over.
//!
//! The file holds exactly one `#[test]` so no concurrent test can perturb
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use incmr::core::{SampleMode, SamplingReducer, DUMMY_KEY};
use incmr::data::{BatchSelection, Dataset, DatasetSpec, RecordFactory, SkewLevel};
use incmr::mapreduce::{DatasetInputFormat, InputFormat, Key, Mapper, Reducer, ScanMode, ValueSeq};
use incmr::prelude::*;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations performed by `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn batched_scan_reads_allocate_orders_of_magnitude_less_than_row_reads() {
    const RECORDS: u64 = 20_000;
    const ITERS: u64 = 10;

    let mut ns = Namespace::new(ClusterTopology::paper_cluster());
    let mut rng = DetRng::seed_from(11);
    let spec = DatasetSpec::small("alloc", 1, RECORDS, SkewLevel::Zero, 11);
    let ds = Arc::new(Dataset::build(
        &mut ns,
        spec,
        &mut EvenRoundRobin::new(),
        &mut rng,
    ));
    let block = ds.splits()[0].block;
    let mapper = incmr::core::SamplingMapper::new(ds.factory().predicate(), 100);

    let batch_input = DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Full);
    let row_input = DatasetInputFormat::row_reference(Arc::clone(&ds), ScanMode::Full);

    // Warm the batch cache (first read generates the batch) and page in
    // any lazily-initialised state on both paths.
    let warm = mapper.run(batch_input.read(block));
    assert_eq!(warm.records_read, RECORDS);
    let warm = mapper.run(row_input.read(block));
    assert_eq!(warm.records_read, RECORDS);

    let batch_allocs = allocations_during(|| {
        for _ in 0..ITERS {
            std::hint::black_box(mapper.run(batch_input.read(block)));
        }
    });
    // One fresh input format per read, as every job builds its own.
    let per_job_allocs = allocations_during(|| {
        for _ in 0..ITERS {
            let job_input = DatasetInputFormat::new(Arc::clone(&ds), ScanMode::Full);
            std::hint::black_box(mapper.run(job_input.read(block)));
        }
    });
    let row_allocs = allocations_during(|| {
        for _ in 0..ITERS {
            std::hint::black_box(mapper.run(row_input.read(block)));
        }
    });

    // Row reads materialise 20k records per iteration, so they sit in the
    // hundreds of thousands of allocations. A cached batch read plus a
    // vectorised map is a handful of working vectors.
    assert!(
        batch_allocs <= 100 * ITERS,
        "batched scan allocated {batch_allocs} times in {ITERS} reads \
         (expected ≤ {} — per-record work crept back into the hot path?)",
        100 * ITERS
    );
    assert!(
        per_job_allocs <= 100 * ITERS,
        "per-job scan allocated {per_job_allocs} times in {ITERS} jobs \
         (expected ≤ {} — per-record work crept back into the hot path?)",
        100 * ITERS
    );
    // Columnar generation itself allocates only a few dozen times (one
    // vector per column plus the string dictionaries), so the absolute
    // bound above cannot tell a regenerated block from a cached one. A new
    // job's read must cost what a repeated read in one job costs.
    assert!(
        per_job_allocs <= batch_allocs + ITERS,
        "a fresh job's read allocated {per_job_allocs} times in {ITERS} jobs \
         vs {batch_allocs} for repeated reads in one job — is each job \
         regenerating the block?"
    );
    assert!(
        row_allocs >= RECORDS * ITERS,
        "row reference path allocated only {row_allocs} times — did the \
         comparison baseline change?"
    );
    assert!(
        batch_allocs * 50 <= row_allocs,
        "batched scan ({batch_allocs}) is not meaningfully cheaper than \
         row scan ({row_allocs})"
    );

    // The reduce side of one sampling group: ROWS batch rows arrive as one
    // shuffle segment, become records at `to_rows`, pass through
    // `SamplingReducer` (k = ROWS, so every row is kept) and are dropped
    // unread, as the closed-loop workload does with its results.
    const ROWS: usize = 10_000;
    let mut rows = BatchSelection::all(ds.full_batch(block));
    rows.truncate(ROWS);
    let mut group = ValueSeq::default();
    group.push_batch(rows);
    let key = Key::from(DUMMY_KEY);
    let reducer = SamplingReducer::new(ROWS as u64, SampleMode::FirstK);
    let reduce_group = || {
        let values = group.to_rows();
        let mut output = Vec::new();
        reducer.reduce(&key, &values, &mut output);
        assert_eq!(output.len(), ROWS);
        drop(std::hint::black_box(output));
    };
    reduce_group();
    let per_group = allocations_during(|| {
        for _ in 0..ITERS {
            reduce_group();
        }
    }) / ITERS;
    // One shared row handle per row plus the two output vectors. Eagerly
    // materialised rows cost a `Vec` and a `String` per string column
    // each, in `to_rows` and again in the reducer's clone.
    assert!(
        per_group <= ROWS as u64 + 16,
        "reducing one {ROWS}-row sampling group allocated {per_group} times \
         (expected ≤ {} — are reduce-side rows materialised or deep-cloned?)",
        ROWS as u64 + 16
    );
}
