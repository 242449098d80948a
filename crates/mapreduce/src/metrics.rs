//! Cluster-wide resource metrics, mirroring the instrumentation of the
//! paper's multi-user experiments: "we monitored the CPU utilization (%)
//! and disk reads (Kbs/sec) at 30 second intervals on each node of the
//! cluster … averaged over the 40 cores and 40 disks" (Section V-D), plus
//! the locality % and slot-occupancy % measurements of Section V-F.
//!
//! Two extra counter families instrument the streaming shuffle:
//! [`ShuffleMetrics`] (deterministic record/byte counters — combiner
//! effect and partition skew) and [`HostPhaseNanos`] (host wall-clock
//! spent on the data plane per phase). Host timings never feed the trace
//! or any simulated quantity — they vary run to run and across thread
//! counts, while traces must not.

use incmr_simkit::stats::{Sampled, TimeWeighted};
use incmr_simkit::{SimDuration, SimTime};

use crate::trace::{TraceEvent, TraceKind};

/// Deterministic shuffle counters, aggregated across jobs whose shuffle
/// closed inside the metrics window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShuffleMetrics {
    /// Jobs whose shuffle completed (reduce phase began).
    pub jobs: u64,
    /// Records fed to map-side combiners (0 for jobs without one).
    pub combiner_input_records: u64,
    /// Records surviving map-side combiners.
    pub combiner_output_records: u64,
    /// Largest single-partition modeled byte share seen in any job.
    pub max_partition_bytes: u64,
    /// Smallest single-partition modeled byte share seen in any job.
    pub min_partition_bytes: u64,
}

impl ShuffleMetrics {
    /// Records the combiner removed (`input − output`).
    pub fn combined_away(&self) -> u64 {
        self.combiner_input_records
            .saturating_sub(self.combiner_output_records)
    }

    /// Max/min partition byte ratio — 1.0 means perfectly even partitions.
    /// Returns `None` until a job with nonempty partitions is recorded.
    pub fn skew_ratio(&self) -> Option<f64> {
        (self.min_partition_bytes > 0)
            .then(|| self.max_partition_bytes as f64 / self.min_partition_bytes as f64)
    }
}

/// Deterministic fault-plane counters: node churn and the Hadoop-semantics
/// responses (re-execution, speculation, kills, blacklisting). All driven
/// by simulated time and seeded draws, so they are identical across thread
/// counts for a fixed fault schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultMetrics {
    /// Nodes that died (TaskTracker loss).
    pub nodes_lost: u64,
    /// Nodes that rejoined after dying.
    pub nodes_rejoined: u64,
    /// Completed map tasks re-executed because their node (and its stored
    /// map output) was lost.
    pub maps_reexecuted: u64,
    /// Speculative attempts launched for laggard maps.
    pub speculative_launched: u64,
    /// Speculative races where the loser was killed after the winner
    /// committed (launched − wasted = races the backup won or inherited).
    pub speculative_wasted: u64,
    /// Attempts killed (node death or losing a speculative race) — these
    /// never count against a task's attempt budget.
    pub attempts_killed: u64,
    /// Reduce attempts failed by fault injection.
    pub reduce_failures: u64,
    /// (job, node) blacklist entries created.
    pub nodes_blacklisted: u64,
}

impl FaultMetrics {
    /// Recompute the trace-backed counters from an exported trace by
    /// folding it through [`ClusterMetrics::count`]. The counters with no
    /// dedicated trace event (`maps_reexecuted`, `speculative_wasted`,
    /// `attempts_killed` — reduce attempts killed by node death release no
    /// `AttemptKilled` event) stay zero; compare against
    /// [`FaultMetrics::derivable`] of the live counters.
    pub fn from_trace(events: &[TraceEvent]) -> FaultMetrics {
        ClusterMetrics::from_trace(events).faults
    }

    /// This counter set restricted to the fields [`FaultMetrics::from_trace`]
    /// can recompute (the rest zeroed), for direct equality checks.
    pub fn derivable(&self) -> FaultMetrics {
        FaultMetrics {
            nodes_lost: self.nodes_lost,
            nodes_rejoined: self.nodes_rejoined,
            maps_reexecuted: 0,
            speculative_launched: self.speculative_launched,
            speculative_wasted: 0,
            attempts_killed: 0,
            reduce_failures: self.reduce_failures,
            nodes_blacklisted: self.nodes_blacklisted,
        }
    }
}

/// Deterministic guard-rail counters: how often the runtime had to defend
/// itself against misbehaving job-supplied logic (Input Providers, growth
/// drivers) or enforce job deadlines. Like [`FaultMetrics`], these are
/// driven purely by simulated time, so they are identical across thread
/// counts for a fixed schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardrailMetrics {
    /// Provider/driver invocations that panicked (caught by the sandbox).
    pub provider_panics: u64,
    /// Provider failures of any kind (panics plus invalid directives).
    pub provider_errors: u64,
    /// `AddInput` directives naming a block outside the namespace.
    pub unknown_blocks: u64,
    /// Provider failures absorbed by the job's retry budget.
    pub provider_retries: u64,
    /// Splits dropped because the job already claimed them (duplicate
    /// `AddInput` entries, within or across directives).
    pub duplicate_splits_dropped: u64,
    /// `AddInput` directives truncated to the driver's grab limit.
    pub grab_limit_clamps: u64,
    /// Jobs terminated by the idle-evaluation (livelock) watchdog.
    pub jobs_wedged: u64,
    /// Jobs whose simulated-time deadline expired (failed or degraded to
    /// a partial result, depending on `mapred.job.allow.partial`).
    pub deadlines_exceeded: u64,
    /// Sampling jobs that completed with fewer than `k` matches.
    pub partial_samples: u64,
}

impl GuardrailMetrics {
    /// Recompute the trace-backed counters from an exported trace by
    /// folding it through [`ClusterMetrics::count`]. `provider_panics` and
    /// `unknown_blocks` have no dedicated trace event (both surface as
    /// `ProviderFault`) and stay zero; compare against
    /// [`GuardrailMetrics::derivable`] of the live counters.
    pub fn from_trace(events: &[TraceEvent]) -> GuardrailMetrics {
        ClusterMetrics::from_trace(events).guardrails
    }

    /// This counter set restricted to the fields
    /// [`GuardrailMetrics::from_trace`] can recompute (the rest zeroed),
    /// for direct equality checks.
    pub fn derivable(&self) -> GuardrailMetrics {
        GuardrailMetrics {
            provider_panics: 0,
            provider_errors: self.provider_errors,
            unknown_blocks: 0,
            provider_retries: self.provider_retries,
            duplicate_splits_dropped: self.duplicate_splits_dropped,
            grab_limit_clamps: self.grab_limit_clamps,
            jobs_wedged: self.jobs_wedged,
            deadlines_exceeded: self.deadlines_exceeded,
            partial_samples: self.partial_samples,
        }
    }
}

/// Deterministic memoization-plane counters: how the incremental
/// recomputation machinery classified splits and what reuse saved. Driven
/// purely by simulated scheduling, so they are identical across thread
/// counts for a fixed evolve schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoMetrics {
    /// Map attempts satisfied from the memo store (host recomputation
    /// skipped; the simulated schedule was preserved).
    pub splits_reused: u64,
    /// Splits whose memo entry existed at a stale block version and were
    /// recomputed.
    pub splits_dirty: u64,
    /// Map attempts that ran the mapper for real while memoization was
    /// enabled (new splits, dirty splits, and invalidated entries).
    pub splits_computed: u64,
    /// Evolve steps that delivered new blocks while jobs were live.
    pub input_arrivals: u64,
    /// Input records whose re-scan a memo hit avoided.
    pub records_saved: u64,
    /// Memo entries discarded because the node holding the cached map
    /// output died.
    pub entries_invalidated: u64,
}

impl MemoMetrics {
    /// Recompute the trace-backed counters from an exported trace by
    /// folding it through [`ClusterMetrics::count`]. `splits_computed` and
    /// `entries_invalidated` have no dedicated trace event (computation is
    /// visible only as the *absence* of `SplitReused` on a finished map)
    /// and stay zero; compare against [`MemoMetrics::derivable`] of the
    /// live counters.
    pub fn from_trace(events: &[TraceEvent]) -> MemoMetrics {
        ClusterMetrics::from_trace(events).memo
    }

    /// This counter set restricted to the fields [`MemoMetrics::from_trace`]
    /// can recompute (the rest zeroed), for direct equality checks.
    pub fn derivable(&self) -> MemoMetrics {
        MemoMetrics {
            splits_reused: self.splits_reused,
            splits_dirty: self.splits_dirty,
            splits_computed: 0,
            input_arrivals: self.input_arrivals,
            records_saved: 0,
            entries_invalidated: 0,
        }
    }
}

/// Deterministic replication-plane counters: replica loss under
/// DataNode-death semantics, read failover, re-replication repair, and the
/// survival accounting the chaos suite asserts on. Driven purely by
/// simulated time and the fault schedule, so they are identical across
/// thread counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaMetrics {
    /// Individual replicas stripped because their DataNode died.
    pub replicas_lost: u64,
    /// Replicas recreated by the re-replication daemon.
    pub replicas_restored: u64,
    /// Map reads that failed over from their intended replica to a
    /// surviving one.
    pub read_failovers: u64,
    /// Blocks that lost their *last* replica (unreadable until rewritten).
    pub blocks_lost: u64,
    /// Jobs that hit the input-lost path (failed, or degraded to a partial
    /// result under `mapred.job.allow.partial`).
    pub input_lost_jobs: u64,
    /// Completed maps on a dead node whose re-execution was skipped
    /// because a live replica of their input block survives (the merged
    /// shuffle output is retained).
    pub reexecutions_avoided: u64,
    /// Memo entries moved from a dead holder to a surviving replica holder
    /// instead of being invalidated.
    pub memo_rehomed: u64,
}

impl ReplicaMetrics {
    /// Recompute the trace-backed counters from an exported trace by
    /// folding it through [`ClusterMetrics::count`]. `blocks_lost`,
    /// `reexecutions_avoided`, and `memo_rehomed` have no dedicated trace
    /// event and stay zero; compare against [`ReplicaMetrics::derivable`]
    /// of the live counters.
    pub fn from_trace(events: &[TraceEvent]) -> ReplicaMetrics {
        ClusterMetrics::from_trace(events).replica
    }

    /// This counter set restricted to the fields
    /// [`ReplicaMetrics::from_trace`] can recompute (the rest zeroed), for
    /// direct equality checks.
    pub fn derivable(&self) -> ReplicaMetrics {
        ReplicaMetrics {
            replicas_lost: self.replicas_lost,
            replicas_restored: self.replicas_restored,
            read_failovers: self.read_failovers,
            blocks_lost: 0,
            input_lost_jobs: self.input_lost_jobs,
            reexecutions_avoided: 0,
            memo_rehomed: 0,
        }
    }
}

/// Host-side wall-clock nanoseconds spent on data-plane work, by phase.
/// Pure observability: these depend on the host and thread count, so they
/// are kept out of traces and all simulated accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostPhaseNanos {
    /// Inside map units (read + map + combine + partition), summed across
    /// workers.
    pub map_ns: u64,
    /// Control-plane time merging completed maps into shuffle buffers.
    pub shuffle_merge_ns: u64,
    /// Inside reduce units (user reducer over groups), summed across
    /// workers.
    pub reduce_ns: u64,
}

/// Collects resource-usage series during a run.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    start: SimTime,
    cpu: Sampled,
    disk: Sampled,
    occupied_slots: TimeWeighted,
    total_cores: u32,
    total_disks: u32,
    total_slots: u32,
    local_assignments: u64,
    total_assignments: u64,
    shuffle: ShuffleMetrics,
    host: HostPhaseNanos,
    faults: FaultMetrics,
    guardrails: GuardrailMetrics,
    memo: MemoMetrics,
    replica: ReplicaMetrics,
}

/// Aggregated report at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsReport {
    /// Mean CPU utilisation across all cores, percent.
    pub cpu_util_pct: f64,
    /// Mean disk-read rate per disk, KB/s.
    pub disk_kb_per_sec: f64,
    /// Percent of map tasks that read their split locally.
    pub locality_pct: f64,
    /// Mean percent of map slots occupied.
    pub slot_occupancy_pct: f64,
}

impl ClusterMetrics {
    /// Start collecting at `start` on a cluster with the given capacities,
    /// sampling resource counters every `interval` (the paper uses 30 s).
    pub fn new(
        start: SimTime,
        total_cores: u32,
        total_disks: u32,
        total_slots: u32,
        interval: SimDuration,
    ) -> Self {
        ClusterMetrics {
            start,
            cpu: Sampled::new(start, interval),
            disk: Sampled::new(start, interval),
            occupied_slots: TimeWeighted::new(start, 0.0),
            total_cores,
            total_disks,
            total_slots,
            local_assignments: 0,
            total_assignments: 0,
            shuffle: ShuffleMetrics::default(),
            host: HostPhaseNanos::default(),
            faults: FaultMetrics::default(),
            guardrails: GuardrailMetrics::default(),
            memo: MemoMetrics::default(),
            replica: ReplicaMetrics::default(),
        }
    }

    /// Report cumulative resource totals (core-µs of CPU work drained,
    /// bytes read from disk) as of `now`.
    pub fn observe(&mut self, now: SimTime, cpu_core_us_total: f64, disk_bytes_total: f64) {
        self.cpu.observe(now, cpu_core_us_total);
        self.disk.observe(now, disk_bytes_total);
    }

    /// Record a change in the number of occupied map slots.
    pub fn slots_delta(&mut self, now: SimTime, delta: f64) {
        self.occupied_slots.add(now, delta);
    }

    /// Record one task assignment and whether it was data-local.
    pub fn record_assignment(&mut self, local: bool) {
        self.total_assignments += 1;
        if local {
            self.local_assignments += 1;
        }
    }

    /// Number of assignments recorded so far.
    pub fn assignments(&self) -> u64 {
        self.total_assignments
    }

    /// Record one job's closed shuffle: combiner totals and the modeled
    /// byte share of its largest and smallest partitions.
    pub fn record_shuffle(
        &mut self,
        combiner_input_records: u64,
        combiner_output_records: u64,
        max_partition_bytes: u64,
        min_partition_bytes: u64,
    ) {
        let s = &mut self.shuffle;
        s.combiner_input_records += combiner_input_records;
        s.combiner_output_records += combiner_output_records;
        s.max_partition_bytes = s.max_partition_bytes.max(max_partition_bytes);
        s.min_partition_bytes = if s.jobs == 0 {
            min_partition_bytes
        } else {
            s.min_partition_bytes.min(min_partition_bytes)
        };
        s.jobs += 1;
    }

    /// Shuffle counters accumulated so far.
    pub fn shuffle(&self) -> ShuffleMetrics {
        self.shuffle
    }

    /// Add host nanoseconds spent inside a map unit.
    pub fn add_host_map_ns(&mut self, ns: u64) {
        self.host.map_ns += ns;
    }

    /// Add host nanoseconds spent merging a map's output into the shuffle
    /// buffers.
    pub fn add_host_shuffle_merge_ns(&mut self, ns: u64) {
        self.host.shuffle_merge_ns += ns;
    }

    /// Add host nanoseconds spent inside a reduce unit.
    pub fn add_host_reduce_ns(&mut self, ns: u64) {
        self.host.reduce_ns += ns;
    }

    /// Host data-plane time by phase (observability only — nondeterministic
    /// across hosts and thread counts by nature).
    pub fn host_phase_nanos(&self) -> HostPhaseNanos {
        self.host
    }

    /// Tally one trace event into the counter it backs. This is the only
    /// writer of the event-backed counter fields: the runtime passes every
    /// event it records through here, and each `from_trace` folds an
    /// exported trace through it, so live and recomputed counters agree by
    /// construction.
    pub fn count(&mut self, kind: &TraceKind) {
        let (f, g) = (&mut self.faults, &mut self.guardrails);
        let (m, r) = (&mut self.memo, &mut self.replica);
        match *kind {
            TraceKind::NodeLost { .. } => f.nodes_lost += 1,
            TraceKind::NodeRejoined { .. } => f.nodes_rejoined += 1,
            TraceKind::SpeculativeLaunch { .. } => f.speculative_launched += 1,
            TraceKind::ReduceFailed { .. } => f.reduce_failures += 1,
            TraceKind::NodeBlacklisted { .. } => f.nodes_blacklisted += 1,
            TraceKind::ProviderFault { fatal, .. } => {
                g.provider_errors += 1;
                if !fatal {
                    g.provider_retries += 1;
                }
            }
            TraceKind::DuplicateInputDropped { splits, .. } => {
                g.duplicate_splits_dropped += splits as u64
            }
            TraceKind::GrabLimitClamped { .. } => g.grab_limit_clamps += 1,
            TraceKind::JobWedged { .. } => g.jobs_wedged += 1,
            TraceKind::DeadlineExceeded { .. } => g.deadlines_exceeded += 1,
            TraceKind::PartialSample { .. } => g.partial_samples += 1,
            TraceKind::SplitReused { .. } => m.splits_reused += 1,
            TraceKind::SplitDirty { .. } => m.splits_dirty += 1,
            TraceKind::InputArrived { .. } => m.input_arrivals += 1,
            TraceKind::ReplicaLost { .. } => r.replicas_lost += 1,
            TraceKind::ReplicaRestored { .. } => r.replicas_restored += 1,
            TraceKind::ReadFailover { .. } => r.read_failovers += 1,
            TraceKind::InputLost { .. } => r.input_lost_jobs += 1,
            _ => {}
        }
    }

    /// A fresh collector with `events` folded through
    /// [`ClusterMetrics::count`].
    fn from_trace(events: &[TraceEvent]) -> ClusterMetrics {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 0, 0, 0, SimDuration::from_secs(30));
        for e in events {
            m.count(&e.kind);
        }
        m
    }

    /// Mutable fault-plane counters, for the fields with no trace event
    /// (the rest are written only by [`ClusterMetrics::count`]).
    pub(crate) fn faults_mut(&mut self) -> &mut FaultMetrics {
        &mut self.faults
    }

    /// Fault-plane counters accumulated so far.
    pub fn faults(&self) -> FaultMetrics {
        self.faults
    }

    /// Mutable guard-rail counters, for the fields with no trace event.
    pub(crate) fn guardrails_mut(&mut self) -> &mut GuardrailMetrics {
        &mut self.guardrails
    }

    /// Guard-rail counters accumulated so far.
    pub fn guardrails(&self) -> GuardrailMetrics {
        self.guardrails
    }

    /// Mutable memoization counters, for the fields with no trace event.
    pub(crate) fn memo_mut(&mut self) -> &mut MemoMetrics {
        &mut self.memo
    }

    /// Memoization counters accumulated so far.
    pub fn memo(&self) -> MemoMetrics {
        self.memo
    }

    /// Mutable replication-plane counters, for the fields with no trace
    /// event.
    pub(crate) fn replica_mut(&mut self) -> &mut ReplicaMetrics {
        &mut self.replica
    }

    /// Replication-plane counters accumulated so far.
    pub fn replica(&self) -> ReplicaMetrics {
        self.replica
    }

    /// Produce the aggregate report as of `now`.
    pub fn report(&self, now: SimTime) -> MetricsReport {
        let cpu_capacity_us_per_sec = self.total_cores as f64 * 1e6;
        MetricsReport {
            cpu_util_pct: 100.0 * self.cpu.mean_rate() / cpu_capacity_us_per_sec,
            disk_kb_per_sec: self.disk.mean_rate() / 1024.0 / self.total_disks as f64,
            locality_pct: if self.total_assignments == 0 {
                0.0
            } else {
                100.0 * self.local_assignments as f64 / self.total_assignments as f64
            },
            slot_occupancy_pct: 100.0 * self.occupied_slots.mean(now) / self.total_slots as f64,
        }
    }

    /// When collection started.
    pub fn start(&self) -> SimTime {
        self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_disk_rates_normalise_to_capacity() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 40, 40, 40, SimDuration::from_secs(30));
        // 60 s at 20 cores fully busy = 20 × 60 × 1e6 core-us.
        // 60 s of disk reads at 10 MB/s aggregate.
        m.observe(
            SimTime::from_secs(60),
            20.0 * 60.0 * 1e6,
            10.0 * 1024.0 * 1024.0 * 60.0,
        );
        let r = m.report(SimTime::from_secs(60));
        assert!(
            (r.cpu_util_pct - 50.0).abs() < 1e-6,
            "20 of 40 cores = 50%, got {}",
            r.cpu_util_pct
        );
        assert!(
            (r.disk_kb_per_sec - 256.0).abs() < 1e-6,
            "10MB/s over 40 disks = 256KB/s/disk"
        );
    }

    #[test]
    fn locality_percent() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        for i in 0..10 {
            m.record_assignment(i < 7);
        }
        assert!((m.report(SimTime::from_secs(1)).locality_pct - 70.0).abs() < 1e-9);
        assert_eq!(m.assignments(), 10);
    }

    #[test]
    fn locality_of_no_assignments_is_zero() {
        let m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        assert_eq!(m.report(SimTime::from_secs(1)).locality_pct, 0.0);
    }

    #[test]
    fn shuffle_counters_aggregate_across_jobs() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        assert_eq!(m.shuffle().skew_ratio(), None);
        m.record_shuffle(100, 10, 800, 200);
        m.record_shuffle(50, 50, 1000, 500);
        let s = m.shuffle();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.combiner_input_records, 150);
        assert_eq!(s.combiner_output_records, 60);
        assert_eq!(s.combined_away(), 90);
        assert_eq!(s.max_partition_bytes, 1000);
        assert_eq!(s.min_partition_bytes, 200);
        assert!((s.skew_ratio().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn host_phase_nanos_accumulate() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        m.add_host_map_ns(10);
        m.add_host_map_ns(5);
        m.add_host_shuffle_merge_ns(3);
        m.add_host_reduce_ns(2);
        assert_eq!(
            m.host_phase_nanos(),
            HostPhaseNanos {
                map_ns: 15,
                shuffle_merge_ns: 3,
                reduce_ns: 2
            }
        );
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        assert_eq!(m.faults(), FaultMetrics::default());
        m.count(&TraceKind::NodeLost {
            node: incmr_dfs::NodeId(0),
        });
        m.faults_mut().maps_reexecuted += 3;
        m.faults_mut().attempts_killed += 2;
        let f = m.faults();
        assert_eq!(f.nodes_lost, 1);
        assert_eq!(f.maps_reexecuted, 3);
        assert_eq!(f.attempts_killed, 2);
        assert_eq!(f.speculative_launched, 0);
    }

    #[test]
    fn guardrail_counters_accumulate() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        assert_eq!(m.guardrails(), GuardrailMetrics::default());
        m.guardrails_mut().provider_panics += 1;
        let job = crate::job::JobId(0);
        for fatal in [false, true] {
            m.count(&TraceKind::ProviderFault { job, fatal });
        }
        m.count(&TraceKind::DuplicateInputDropped { job, splits: 5 });
        m.count(&TraceKind::PartialSample {
            job,
            found: 1,
            requested: 2,
        });
        let g = m.guardrails();
        assert_eq!(g.provider_panics, 1);
        assert_eq!(g.provider_errors, 2);
        assert_eq!(g.duplicate_splits_dropped, 5);
        assert_eq!(g.partial_samples, 1);
        assert_eq!(g.provider_retries, 1);
        assert_eq!(g.jobs_wedged, 0);
    }

    #[test]
    fn counters_recompute_from_trace_events() {
        use crate::job::{JobId, TaskId};
        use incmr_dfs::NodeId;
        let at = |s: u64, kind: TraceKind| TraceEvent {
            time: SimTime::from_secs(s),
            kind,
        };
        let events = vec![
            at(1, TraceKind::NodeLost { node: NodeId(3) }),
            at(
                2,
                TraceKind::SpeculativeLaunch {
                    job: JobId(0),
                    task: TaskId(1),
                    node: NodeId(2),
                },
            ),
            at(3, TraceKind::NodeRejoined { node: NodeId(3) }),
            at(
                4,
                TraceKind::ProviderFault {
                    job: JobId(0),
                    fatal: false,
                },
            ),
            at(
                5,
                TraceKind::DuplicateInputDropped {
                    job: JobId(0),
                    splits: 4,
                },
            ),
            at(
                6,
                TraceKind::ProviderFault {
                    job: JobId(1),
                    fatal: true,
                },
            ),
            at(
                7,
                TraceKind::GrabLimitClamped {
                    job: JobId(0),
                    requested: 9,
                    granted: 4,
                },
            ),
        ];
        let f = FaultMetrics::from_trace(&events);
        assert_eq!(f.nodes_lost, 1);
        assert_eq!(f.nodes_rejoined, 1);
        assert_eq!(f.speculative_launched, 1);
        assert_eq!(f.reduce_failures, 0);
        let g = GuardrailMetrics::from_trace(&events);
        assert_eq!(g.provider_errors, 2);
        assert_eq!(g.provider_retries, 1);
        assert_eq!(g.duplicate_splits_dropped, 4);
        assert_eq!(g.grab_limit_clamps, 1);
        // `derivable` zeroes exactly the fields `from_trace` cannot see.
        let mut live = FaultMetrics::from_trace(&events);
        live.maps_reexecuted = 7;
        live.attempts_killed = 9;
        live.speculative_wasted = 2;
        assert_eq!(live.derivable(), f);
        let mut live = GuardrailMetrics::from_trace(&events);
        live.provider_panics = 3;
        live.unknown_blocks = 1;
        assert_eq!(live.derivable(), g);
    }

    #[test]
    fn memo_counters_accumulate_and_recompute_from_trace() {
        use crate::job::{JobId, TaskId};
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        assert_eq!(m.memo(), MemoMetrics::default());
        for task in [TaskId(0), TaskId(1)] {
            m.count(&TraceKind::SplitReused {
                job: JobId(0),
                task,
            });
        }
        m.memo_mut().records_saved += 500;
        assert_eq!(m.memo().splits_reused, 2);
        assert_eq!(m.memo().records_saved, 500);

        let at = |s: u64, kind: TraceKind| TraceEvent {
            time: SimTime::from_secs(s),
            kind,
        };
        let events = vec![
            at(1, TraceKind::InputArrived { splits: 3 }),
            at(
                2,
                TraceKind::SplitReused {
                    job: JobId(0),
                    task: TaskId(0),
                },
            ),
            at(
                2,
                TraceKind::SplitReused {
                    job: JobId(0),
                    task: TaskId(1),
                },
            ),
            at(
                3,
                TraceKind::SplitDirty {
                    job: JobId(0),
                    task: TaskId(2),
                },
            ),
        ];
        let t = MemoMetrics::from_trace(&events);
        assert_eq!(t.splits_reused, 2);
        assert_eq!(t.splits_dirty, 1);
        assert_eq!(t.input_arrivals, 1);
        let mut live = t;
        live.splits_computed = 4;
        live.records_saved = 99;
        live.entries_invalidated = 1;
        assert_eq!(live.derivable(), t);
    }

    #[test]
    fn replica_counters_accumulate_and_recompute_from_trace() {
        use crate::job::{JobId, TaskId};
        use incmr_dfs::{BlockId, DiskId, NodeId};
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 4, SimDuration::from_secs(30));
        assert_eq!(m.replica(), ReplicaMetrics::default());
        for block in [BlockId(0), BlockId(1)] {
            m.count(&TraceKind::ReplicaLost {
                block,
                node: NodeId(1),
            });
        }
        m.replica_mut().reexecutions_avoided += 1;
        assert_eq!(m.replica().replicas_lost, 2);
        assert_eq!(m.replica().reexecutions_avoided, 1);

        let at = |s: u64, kind: TraceKind| TraceEvent {
            time: SimTime::from_secs(s),
            kind,
        };
        let events = vec![
            at(
                1,
                TraceKind::ReplicaLost {
                    block: BlockId(0),
                    node: NodeId(1),
                },
            ),
            at(
                1,
                TraceKind::ReplicaLost {
                    block: BlockId(1),
                    node: NodeId(1),
                },
            ),
            at(
                2,
                TraceKind::ReadFailover {
                    job: JobId(0),
                    task: TaskId(3),
                    from: DiskId(4),
                    to: DiskId(0),
                },
            ),
            at(
                3,
                TraceKind::ReplicaRestored {
                    block: BlockId(0),
                    node: NodeId(2),
                },
            ),
            at(
                4,
                TraceKind::InputLost {
                    job: JobId(1),
                    blocks: 2,
                    graceful: false,
                },
            ),
        ];
        let t = ReplicaMetrics::from_trace(&events);
        assert_eq!(t.replicas_lost, 2);
        assert_eq!(t.replicas_restored, 1);
        assert_eq!(t.read_failovers, 1);
        assert_eq!(t.input_lost_jobs, 1);
        let mut live = t;
        live.blocks_lost = 1;
        live.reexecutions_avoided = 3;
        live.memo_rehomed = 2;
        assert_eq!(live.derivable(), t);
    }

    #[test]
    fn slot_occupancy_is_time_weighted() {
        let mut m = ClusterMetrics::new(SimTime::ZERO, 4, 4, 10, SimDuration::from_secs(30));
        m.slots_delta(SimTime::ZERO, 10.0); // full from t=0
        m.slots_delta(SimTime::from_secs(50), -10.0); // idle from t=50
        let r = m.report(SimTime::from_secs(100));
        assert!((r.slot_occupancy_pct - 50.0).abs() < 1e-9);
    }
}
