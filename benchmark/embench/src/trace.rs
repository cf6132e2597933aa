//! Spans recorded from the benchmark's side of each call into a layer.
//! They stay in memory and are written once, when the traced run ends.

use crate::json::Json;
use em_bsp::{BspProgram, ExecError, Executor, RunResult};
use em_core::CostReport;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub job_id: Option<u64>,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts measured at the same boundary (a stage's `CostReport`).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer { workload, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        job_id: Option<u64>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            layer,
            job_id,
            parent,
            start_ns,
            end_ns: start_ns,
            counts: vec![],
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    /// Time `f` as a span and hand back its result with the span's duration.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, layer, parent, None);
        let out = f();
        self.close(id);
        let ms = self.lock()[id].ms();
        (out, ms)
    }

    pub fn attach(&self, id: SpanId, counts: Vec<(&'static str, f64)>) {
        self.lock()[id].counts = counts;
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// One object per span: `id, name, layer, workload, job_id, parent, start_ns, end_ns`.
    pub fn to_json(&self) -> Vec<Json> {
        let spans = self.lock();
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut pairs = vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("workload", Json::str(self.workload)),
                    ("job_id", s.job_id.map_or(Json::Null, |j| Json::Num(j as f64))),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ];
                if !s.counts.is_empty() {
                    let counts = s.counts.iter().map(|&(k, v)| (k, Json::Num(v)));
                    pairs.push(("counts", Json::obj(counts)));
                }
                Json::obj(pairs)
            })
            .collect()
    }
}

/// Every span's duration minus the part its direct children cover, in one pass.
pub fn self_ms(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::ms).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.ms();
        }
    }
    own.iter_mut().for_each(|ms| *ms = ms.max(0.0));
    own
}

/// Opens a `stage` span around every `execute` of the wrapped executor.
pub struct Traced<'a, E> {
    inner: &'a E,
    tracer: &'a Tracer,
    parent: SpanId,
    job_id: u64,
    stages: Mutex<Vec<SpanId>>,
}

impl<'a, E> Traced<'a, E> {
    pub fn new(inner: &'a E, tracer: &'a Tracer, parent: SpanId, job_id: u64) -> Self {
        Traced { inner, tracer, parent, job_id, stages: Mutex::new(Vec::new()) }
    }

    /// The stage spans opened, in execution order.
    pub fn into_stage_ids(self) -> Vec<SpanId> {
        self.stages.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Attach each stage's counts to its span, in execution order.
pub fn attach_reports(tracer: &Tracer, stages: &[SpanId], reports: &[CostReport]) {
    for (&id, report) in stages.iter().zip(reports) {
        tracer.attach(id, stage_counts(report));
    }
}

impl<E: Executor> Executor for Traced<'_, E> {
    fn execute<P: BspProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunResult<P::State>, ExecError> {
        let id = self.tracer.open("stage", "core", Some(self.parent), Some(self.job_id));
        let out = self.inner.execute(prog, states);
        self.tracer.close(id);
        self.stages.lock().unwrap_or_else(PoisonError::into_inner).push(id);
        out
    }
}

fn stage_counts(r: &CostReport) -> Vec<(&'static str, f64)> {
    let ns = |d: std::time::Duration| d.as_nanos() as f64;
    vec![
        ("lambda", r.lambda as f64),
        ("io.parallel_ops", r.io.parallel_ops as f64),
        ("io.blocks_read", r.io.blocks_read as f64),
        ("io.blocks_written", r.io.blocks_written as f64),
        ("io.retried_blocks", r.io.retried_blocks as f64),
        ("phase_io.fetch_ctx", r.phases.fetch_ctx as f64),
        ("phase_io.fetch_msg", r.phases.fetch_msg as f64),
        ("phase_io.scatter", r.phases.scatter as f64),
        ("phase_io.write_ctx", r.phases.write_ctx as f64),
        ("phase_io.routing", r.phases.routing as f64),
        ("phase_wall_ns.fetch", ns(r.phase_wall.fetch)),
        ("phase_wall_ns.compute", ns(r.phase_wall.compute)),
        ("phase_wall_ns.write", ns(r.phase_wall.write)),
        ("phase_wall_ns.reorganize", ns(r.phase_wall.reorganize)),
        ("phase_wall_ns.sync", ns(r.phase_wall.sync)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |parent, start_ns, end_ns| Span {
            name: "s",
            layer: "harness",
            job_id: None,
            parent,
            start_ns,
            end_ns,
            counts: vec![],
        };
        let spans = vec![
            span(None, 0, 10_000_000),
            span(Some(0), 1_000_000, 4_000_000),
            span(Some(0), 5_000_000, 7_000_000),
            span(Some(1), 1_000_000, 2_000_000),
        ];
        assert_eq!(self_ms(&spans), [5.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn traced_executor_records_one_span_per_stage() {
        let tracer = Tracer::new("test");
        let job = crate::gen::Job::sort(256, 4, 1);
        let root = tracer.open("job", "algos", None, Some(0));
        let traced = Traced::new(&em_bsp::SeqExecutor, &tracer, root, 0);
        job.run(&traced).unwrap();
        tracer.close(root);
        let spans = tracer.snapshot();
        assert_eq!(spans.iter().filter(|s| s.name == "stage").count(), 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(Json::parse(&Json::Arr(tracer.to_json()).compact()).is_ok());
    }
}
