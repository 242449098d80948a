//! Pieces shared by the workloads: optional tracing, row digests, the
//! deterministic simulated-time summary, and the host-side tally.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use incmr_data::{Record, Value};
use incmr_mapreduce::{HostPhaseNanos, MemoMetrics, MetricsReport};
use incmr_simkit::stats::percentile;

use crate::spans::Layer;
use crate::wrap::Wrapper;

/// Run `f` inside a span of `layer` when tracing, bare otherwise.
pub fn traced<R>(w: Option<&Wrapper>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match w {
        Some(w) => w.span(layer, f),
        None => f(),
    }
}

/// A point in this process's CPU time (all threads), the clock every host
/// metric uses. On a shared host, wall time also counts the time other
/// tenants hold the cores; CPU time counts only this program's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CpuInstant(Duration);

impl CpuInstant {
    /// The process's CPU time so far.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> Self {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) for the whole call, and the kernel writes
        // nothing else.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuInstant(Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }

    /// Elsewhere, wall time since first use stands in for CPU time.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> Self {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        CpuInstant(START.get_or_init(Instant::now).elapsed())
    }

    /// CPU time since `self`.
    pub fn elapsed(self) -> Duration {
        CpuInstant::now().0.saturating_sub(self.0)
    }
}

/// Run-phase stopwatch, in CPU time. Checks and digests the benchmark adds
/// run inside [`Clock::untimed`], which pauses both this clock and the
/// tracer's window, so traced and untraced passes time the same work.
pub struct Clock<'a> {
    w: Option<&'a Wrapper>,
    since: CpuInstant,
    total: Duration,
}

impl<'a> Clock<'a> {
    /// Start timing (and open the tracer's window when tracing).
    pub fn start(w: Option<&'a Wrapper>) -> Self {
        if let Some(w) = w {
            w.tracer().begin_window();
        }
        Clock {
            w,
            since: CpuInstant::now(),
            total: Duration::ZERO,
        }
    }

    /// Run `f` with the clock paused.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.total += self.since.elapsed();
        if let Some(w) = self.w {
            w.tracer().end_window();
        }
        let r = f();
        if let Some(w) = self.w {
            w.tracer().begin_window();
        }
        self.since = CpuInstant::now();
        r
    }

    /// Stop timing; the run-phase time measured.
    pub fn stop(self) -> Duration {
        let total = self.total + self.since.elapsed();
        if let Some(w) = self.w {
            w.tracer().end_window();
        }
        total
    }
}

/// Order-sensitive digest of result rows and other deterministic outputs.
#[derive(Default)]
pub struct Digest(DefaultHasher);

impl Digest {
    /// Fold one integer.
    pub fn u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// Fold every value of every row.
    pub fn rows<'a>(&mut self, rows: impl IntoIterator<Item = &'a Record>) {
        for row in rows {
            self.0.write_usize(row.arity());
            for v in row.values() {
                match v {
                    Value::Int(i) => self.0.write_i64(*i),
                    Value::Float(f) => self.0.write_u64(f.to_bits()),
                    Value::Str(s) => self.0.write(s.as_bytes()),
                    Value::Date(d) => self.0.write_u32(*d),
                }
            }
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Deterministic simulated-time outputs of one pass. Two runs of the same
/// seed must produce bit-identical values at any thread count, traced or
/// not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Queries completed.
    pub jobs: u64,
    /// Simulated hours the completions were counted over.
    pub hours: f64,
    /// Submit-to-complete latency of each sampling query, seconds.
    pub sampling_response_s: Vec<f64>,
    /// Partitions processed by each sampling query.
    pub sampling_splits: Vec<f64>,
    /// Cluster resource reports, one per simulated cluster in the pass.
    pub reports: Vec<MetricsReport>,
    /// Digest of result rows and per-job accounting.
    pub digest: u64,
}

impl SimStats {
    /// Paper throughput: completed queries per simulated hour.
    pub fn jobs_per_hour(&self) -> f64 {
        self.jobs as f64 / self.hours
    }

    /// Mean of one resource-report field across the pass's clusters.
    pub fn report_mean(&self, field: impl Fn(&MetricsReport) -> f64) -> f64 {
        self.reports.iter().map(field).sum::<f64>() / self.reports.len().max(1) as f64
    }
}

/// Host-side layer counters the runtime itself keeps, summed over a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeCounters {
    /// Data-plane wall time by phase.
    pub host: HostPhaseNanos,
    /// Memoization-plane counters.
    pub memo: MemoMetrics,
}

impl RuntimeCounters {
    /// Add another cluster's counters.
    pub fn add(&mut self, host: HostPhaseNanos, memo: MemoMetrics) {
        self.host.map_ns += host.map_ns;
        self.host.shuffle_merge_ns += host.shuffle_merge_ns;
        self.host.reduce_ns += host.reduce_ns;
        self.memo.splits_reused += memo.splits_reused;
        self.memo.splits_computed += memo.splits_computed;
        self.memo.splits_dirty += memo.splits_dirty;
    }

    /// Memo hits over the splits the memo plane probed (0 with memo off).
    pub fn memo_hit_frac(&self) -> f64 {
        let probed = self.memo.splits_reused + self.memo.splits_computed;
        if probed == 0 {
            0.0
        } else {
            self.memo.splits_reused as f64 / probed as f64
        }
    }
}

/// CPU time of one [`calibration_kernel`] on the host the bounds in
/// `BENCHMARK.json` were set on (a shared 2-vCPU x86-64 VM).
pub const REFERENCE_CALIBRATION_MS: f64 = 1.4;

/// A fixed piece of work that runs none of the program's code: 400 000
/// rounds of a 64-bit mix, each updating a random slot of a 256 KiB table
/// (L2-resident). Returns its CPU time.
///
/// On a shared host the CPU time of the same work drifts by 20–40 %
/// between phases lasting minutes, most likely with other tenants' load.
/// Timing this kernel beside the workload measures much of the drift, and
/// the host metrics are scaled by it (see [`Tally::scaled_ops`]).
pub fn calibration_kernel() -> Duration {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> = std::cell::RefCell::new(vec![1; 1 << 15]);
    }
    TABLE.with_borrow_mut(|table| {
        let mask = table.len() - 1;
        let t = CpuInstant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..400_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            table[z as usize & mask] ^= z;
        }
        std::hint::black_box(&table);
        t.elapsed()
    })
}

/// Host-side tally of a measured run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Set-up durations (one per world built).
    pub setup: Vec<Duration>,
    /// [`calibration_kernel`] times: one before each world built, and one
    /// when the measurement ends.
    pub calibration: Vec<Duration>,
    /// Host latency of each user-visible operation.
    pub ops: Vec<Duration>,
    /// For each operation, how many calibrations ran before it.
    calibrations_before: Vec<usize>,
    /// Queries completed in the run phase.
    pub jobs: u64,
    /// Host time of the run phase.
    pub run: Duration,
    /// Operations attempted (queries, writes, and run-level checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed an output check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl Tally {
    /// Record one operation's outcome; `err` is why it failed.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }

    /// Record one operation's host time.
    pub fn op(&mut self, d: Duration) {
        self.ops.push(d);
        self.calibrations_before.push(self.calibration.len());
    }

    /// Time one [`calibration_kernel`].
    pub fn calibrate(&mut self) {
        self.calibration.push(calibration_kernel());
    }

    /// Time `f` (CPU time) as the set-up of one world, after timing one
    /// [`calibration_kernel`].
    pub fn setup<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calibrate();
        let t = CpuInstant::now();
        let r = f();
        self.setup.push(t.elapsed());
        r
    }
}

impl Tally {
    /// How much slower than the reference host the host ran between
    /// calibrations `k - 1` and `k`: their mean time over
    /// [`REFERENCE_CALIBRATION_MS`] (1 without calibrations).
    fn factors(&self) -> impl Fn(usize) -> f64 {
        let cal = ms(&self.calibration);
        move |k| {
            let near = &cal[k.saturating_sub(1).min(cal.len())..(k + 1).min(cal.len())];
            if near.is_empty() {
                1.0
            } else {
                near.iter().sum::<f64>() / near.len() as f64 / REFERENCE_CALIBRATION_MS
            }
        }
    }

    /// Each operation's host time in ms, divided by the host factor of the
    /// calibrations just before and just after it: its CPU time on the
    /// reference host.
    pub fn scaled_ops(&self) -> Vec<f64> {
        let factor = self.factors();
        ms(&self.ops)
            .iter()
            .zip(&self.calibrations_before)
            .map(|(d, &k)| d / factor(k))
            .collect()
    }

    /// Each set-up's host time in s, scaled as [`Tally::scaled_ops`].
    pub fn scaled_setups(&self) -> Vec<f64> {
        let factor = self.factors();
        // Set-up `i` runs right after calibration `i`.
        self.setup
            .iter()
            .enumerate()
            .map(|(i, d)| d.as_secs_f64() / factor(i + 1))
            .collect()
    }

    /// The run's overall host factor: raw over scaled operation time.
    pub fn host_factor(&self) -> f64 {
        ms(&self.ops).iter().sum::<f64>() / self.scaled_ops().iter().sum::<f64>()
    }
}

/// `p`-th percentile (0–100) of `xs`, linear interpolation.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p).unwrap_or(f64::NAN)
}

/// Milliseconds of each duration.
pub fn ms(ds: &[Duration]) -> Vec<f64> {
    ds.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Fewest timed operations a measured run makes, so the p90 of their
/// latencies has at least ten samples beyond it.
pub const MIN_OPS: u32 = 100;

/// Whether a cell-based run is done after `c` cells of a `cells`-cell
/// pass: one pass without a deadline; with one, at least one pass and
/// `min_ops` cells, and the deadline passed.
pub fn cells_done(c: u32, cells: u32, min_ops: u32, deadline: Option<Instant>) -> bool {
    match deadline {
        None => c >= cells,
        Some(d) => c >= cells.max(min_ops) && Instant::now() >= d,
    }
}

/// Whether `deadline` has passed.
pub fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_scale_by_the_calibrations_around_them() {
        let reference = Duration::from_secs_f64(REFERENCE_CALIBRATION_MS / 1e3);
        let mut t = Tally::default();
        t.calibration.push(reference * 2);
        t.setup.push(Duration::from_millis(3));
        t.op(Duration::from_millis(30));
        t.calibration.push(reference);
        t.setup.push(Duration::from_millis(4));
        t.op(Duration::from_millis(40));
        t.calibration.push(reference);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        let ops = t.scaled_ops();
        assert!(close(ops[0], 30.0 / 1.5) && close(ops[1], 40.0), "{ops:?}");
        let setups = t.scaled_setups();
        assert!(close(setups[0], 0.003 / 1.5) && close(setups[1], 0.004));
        assert!(close(t.host_factor(), 70.0 / 60.0));
    }
}
