//! Tracing wrappers around the trait objects a job carries.
//!
//! Each wrapper forwards **every** method of its trait, including the
//! defaulted ones, so a wrapped job behaves exactly like the unwrapped one:
//! schedulers keep their `maps_per_heartbeat` cap and `view_policy`, and
//! growth drivers are entered through `try_initial_input`/`try_evaluate`
//! (never the infallible pair), so `DynamicDriver`'s provider sandbox and
//! its grab-limit formula stay in force.

use std::sync::Arc;

use incmr_data::{Dataset, Record};
use incmr_dfs::BlockId;
use incmr_mapreduce::{
    Assignment, ClusterStatus, Combiner, EvalContext, GrowthDirective, GrowthDriver, GrowthOutcome,
    InputFormat, Key, KeyedBatch, MapResult, Mapper, ProviderError, Reducer, SchedView, SplitData,
    TaskScheduler, ViewPolicy,
};
use incmr_simkit::SimDuration;

use crate::spans::{Layer, Tracer};

/// Traced `InputFormat`. `datasets` resolves a block's content version so
/// re-reads are keyed on `(block, version)`.
pub struct TracedInput {
    inner: Arc<dyn InputFormat>,
    tracer: Arc<Tracer>,
    datasets: Arc<Vec<Arc<Dataset>>>,
}

impl InputFormat for TracedInput {
    fn read(&self, block: BlockId) -> SplitData {
        let data = self.tracer.span(Layer::Data, || self.inner.read(block));
        let version = self
            .datasets
            .iter()
            .find(|d| d.contains(block))
            .map_or(0, |d| d.plan(block).version);
        let records = data.total_records();
        self.tracer.count(|c| {
            c.data_reads += 1;
            c.data_records += records;
            if !c.seen.insert((block, version)) {
                c.data_rereads += 1;
            }
        });
        data
    }
}

/// Traced `Mapper`.
pub struct TracedMapper {
    inner: Arc<dyn Mapper>,
    tracer: Arc<Tracer>,
}

impl Mapper for TracedMapper {
    fn run(&self, data: SplitData) -> MapResult {
        let out = self.tracer.span(Layer::Map, || self.inner.run(data));
        let pairs =
            out.pairs.len() as u64 + out.batches.iter().map(|b| b.rows.len() as u64).sum::<u64>();
        self.tracer.count(|c| {
            c.map_calls += 1;
            c.map_pairs_out += pairs;
        });
        out
    }
}

/// Traced `Combiner`.
pub struct TracedCombiner {
    inner: Arc<dyn Combiner>,
    tracer: Arc<Tracer>,
}

impl Combiner for TracedCombiner {
    fn combine(&self, pairs: Vec<(Key, Record)>) -> Vec<(Key, Record)> {
        self.tracer
            .span(Layer::Combine, || self.inner.combine(pairs))
    }

    fn combine_batches(
        &self,
        batches: Vec<KeyedBatch>,
    ) -> Result<Vec<KeyedBatch>, Vec<KeyedBatch>> {
        self.tracer
            .span(Layer::Combine, || self.inner.combine_batches(batches))
    }
}

/// Traced `Reducer`.
pub struct TracedReducer {
    inner: Arc<dyn Reducer>,
    tracer: Arc<Tracer>,
}

impl Reducer for TracedReducer {
    fn reduce(&self, key: &Key, values: &[Record], output: &mut Vec<(Key, Record)>) {
        self.tracer
            .span(Layer::Reduce, || self.inner.reduce(key, values, output));
        let n = values.len() as u64;
        self.tracer.count(|c| {
            c.reduce_groups += 1;
            c.reduce_values += n;
        });
    }
}

/// Traced `GrowthDriver`.
pub struct TracedDriver {
    inner: Box<dyn GrowthDriver>,
    tracer: Arc<Tracer>,
}

impl TracedDriver {
    fn record(&self, grew: bool) {
        self.tracer.count(|c| {
            c.provider_evals += 1;
            c.provider_grows += grew as u64;
        });
    }
}

impl GrowthDriver for TracedDriver {
    fn initial_input(&mut self, cluster: &ClusterStatus) -> Vec<BlockId> {
        self.inner.initial_input(cluster)
    }

    fn evaluate(&mut self, ctx: EvalContext<'_>) -> GrowthDirective {
        self.inner.evaluate(ctx)
    }

    fn evaluation_interval(&self) -> SimDuration {
        self.inner.evaluation_interval()
    }

    fn try_initial_input(
        &mut self,
        cluster: &ClusterStatus,
    ) -> Result<Vec<BlockId>, ProviderError> {
        let tracer = Arc::clone(&self.tracer);
        let out = tracer.span(Layer::Provider, || self.inner.try_initial_input(cluster));
        self.record(matches!(&out, Ok(splits) if !splits.is_empty()));
        out
    }

    fn try_evaluate(&mut self, ctx: EvalContext<'_>) -> GrowthOutcome {
        let tracer = Arc::clone(&self.tracer);
        let out = tracer.span(Layer::Provider, || self.inner.try_evaluate(ctx));
        self.record(matches!(&out, Ok(GrowthDirective::AddInput(s)) if !s.is_empty()));
        out
    }

    fn grab_limit(&self, cluster: &ClusterStatus) -> u64 {
        self.inner.grab_limit(cluster)
    }
}

/// Traced `TaskScheduler`.
pub struct TracedScheduler {
    inner: Box<dyn TaskScheduler>,
    tracer: Arc<Tracer>,
}

impl TracedScheduler {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn TaskScheduler>, tracer: Arc<Tracer>) -> Self {
        TracedScheduler { inner, tracer }
    }
}

impl TaskScheduler for TracedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, view: &SchedView) -> Vec<Assignment> {
        let tracer = Arc::clone(&self.tracer);
        let out = tracer.span(Layer::Scheduler, || self.inner.assign(view));
        let n = out.len() as u64;
        self.tracer.count(|c| {
            c.assign_calls += 1;
            c.assignments += n;
            c.idle_calls += (n == 0) as u64;
        });
        out
    }

    fn maps_per_heartbeat(&self) -> Option<u32> {
        self.inner.maps_per_heartbeat()
    }

    fn view_policy(&self) -> ViewPolicy {
        self.inner.view_policy()
    }
}

/// `scheduler`, wrapped when tracing.
pub fn scheduler(w: Option<&Wrapper>, scheduler: Box<dyn TaskScheduler>) -> Box<dyn TaskScheduler> {
    match w {
        Some(w) => w.scheduler(scheduler),
        None => scheduler,
    }
}

/// Wraps a job's trait objects for one traced run.
#[derive(Clone)]
pub struct Wrapper {
    tracer: Arc<Tracer>,
    datasets: Arc<Vec<Arc<Dataset>>>,
}

impl Wrapper {
    /// Record into `tracer`; `datasets` are the tables jobs may read.
    pub fn new(tracer: Arc<Tracer>, datasets: Vec<Arc<Dataset>>) -> Self {
        Wrapper {
            tracer,
            datasets: Arc::new(datasets),
        }
    }

    /// The same recorder over a different set of tables.
    pub fn with_datasets(&self, datasets: impl IntoIterator<Item = Arc<Dataset>>) -> Self {
        Wrapper::new(Arc::clone(&self.tracer), datasets.into_iter().collect())
    }

    /// The shared recorder.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Replace every trait object of `spec` with its traced wrapper.
    pub fn spec(&self, mut spec: incmr_mapreduce::JobSpec) -> incmr_mapreduce::JobSpec {
        spec.input_format = Arc::new(TracedInput {
            inner: spec.input_format,
            tracer: Arc::clone(&self.tracer),
            datasets: Arc::clone(&self.datasets),
        });
        spec.mapper = Arc::new(TracedMapper {
            inner: spec.mapper,
            tracer: Arc::clone(&self.tracer),
        });
        spec.combiner = spec.combiner.map(|inner| {
            Arc::new(TracedCombiner {
                inner,
                tracer: Arc::clone(&self.tracer),
            }) as Arc<dyn Combiner>
        });
        spec.reducer = Arc::new(TracedReducer {
            inner: spec.reducer,
            tracer: Arc::clone(&self.tracer),
        });
        spec
    }

    /// Wrap a growth driver.
    pub fn driver(&self, inner: Box<dyn GrowthDriver>) -> Box<dyn GrowthDriver> {
        Box::new(TracedDriver {
            inner,
            tracer: Arc::clone(&self.tracer),
        })
    }

    /// Wrap a scheduler.
    pub fn scheduler(&self, inner: Box<dyn TaskScheduler>) -> Box<dyn TaskScheduler> {
        Box::new(TracedScheduler::new(inner, Arc::clone(&self.tracer)))
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.tracer.span(layer, f)
    }
}
