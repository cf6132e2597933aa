//! One workload, start to finish: set-up, self-check, the timed loop, the
//! traced run, and the numbers each yields.

use crate::gen::checksum;
use crate::json::Json;
use crate::ladder::Ladder;
use crate::metrics::{self, MetricDef};
use crate::stats::{median, summarize};
use crate::trace::{self_ms, Span, Tracer};
use crate::workloads::{run_loop, Counts, Engine, JobSample, LoopResult, Walls, Workload};
use std::path::Path;
use std::time::Instant;

/// Set-up is repeated at least `SETUPS.start()` times, then until it has
/// taken `SETUP_SHARE` of `--seconds`, up to `SETUPS.end()` times; `setup_s`
/// is the median. A set-up of milliseconds gets many repetitions, one of a
/// second gets few.
const SETUPS: std::ops::RangeInclusive<usize> = 9..=65;
const SETUP_SHARE: f64 = 0.1;
const MIB: f64 = (1u64 << 20) as f64;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long the timed loop hands out jobs.
    pub seconds: f64,
    /// Inputs a tenth the size; for checking the harness, not for numbers.
    pub smoke: bool,
}

/// A workload ready for timing, with what set-up learned.
struct Prepared {
    w: Workload,
    /// Counts of each pool job from the warm-up pass; every later run of the job must match.
    canon: Vec<Counts>,
    setup_s: f64,
    problems: Vec<String>,
}

/// Everything a user pays before the first timed job: inputs, reference
/// outputs, scratch directory, simulator or service, one warm-up pool pass.
fn prepare(name: &str, opts: &Options, dir: &Path) -> Result<Prepared, String> {
    let started = Instant::now();
    let w = Workload::build(name, opts.seed, opts.smoke, dir)?;
    if let Some(file_dir) = &w.file_dir {
        std::fs::create_dir_all(file_dir)
            .map_err(|e| format!("creating {}: {e}", file_dir.display()))?;
    }
    let warm: Vec<JobSample> =
        (0..w.jobs.len()).map(|idx| w.run_job(idx, idx as u64, None)).collect();
    let setup_s = started.elapsed().as_secs_f64();
    let problems =
        warm.iter().filter_map(|s| s.failure.clone()).map(|f| format!("warm-up: {f}")).collect();
    let canon = warm.into_iter().map(|s| s.cost.counts).collect();
    Ok(Prepared { w, canon, setup_s, problems })
}

/// Before timing: every pool job once more must repeat its counts and its
/// output, and another seed must give other inputs.
fn self_check(p: &Prepared, opts: &Options, dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    for idx in 0..p.w.jobs.len() {
        let again = p.w.run_job(idx, idx as u64, None);
        if let Some(f) = again.failure {
            problems.push(format!("self-check: {f}"));
        }
        if again.cost.counts != p.canon[idx] {
            problems.push(format!("self-check: pool job {idx} did not repeat its counts"));
        }
    }
    let other = Options { seed: opts.seed.wrapping_add(1), ..opts.clone() };
    match Workload::build(p.w.name, other.seed, other.smoke, dir) {
        Ok(o) if o.jobs == p.w.jobs || output_digest(&o) == output_digest(&p.w) => {
            problems.push("self-check: another --seed gave the same inputs".into());
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("self-check: {e}")),
    }
    problems
}

fn output_digest(w: &Workload) -> u64 {
    checksum(&w.refs.iter().map(|r| checksum(r)).collect::<Vec<_>>())
}

/// What one workload's run or trace reports.
pub struct Outcome {
    pub name: &'static str,
    pub seed: u64,
    /// Jobs attempted in the timed loop — the sample count of every timing.
    pub attempted: usize,
    pub failed: usize,
    /// Bytes of one pass over the job pool.
    pub input_bytes: u64,
    pub output_digest: u64,
    pub values: Vec<(MetricDef, f64)>,
    /// Failed jobs and failed checks, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("why", Json::str(crate::workloads::why(self.name))),
            ("seed", Json::str(format!("{:#x}", self.seed))),
            ("reps", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("input_bytes", Json::Num(self.input_bytes as f64)),
            ("output_digest", Json::str(format!("{:016x}", self.output_digest))),
            ("correct", Json::Bool(self.correct())),
            ("problems", Json::Arr(self.problems.iter().map(Json::str).collect())),
            ("metrics", metrics::to_json(&self.values)),
        ])
    }

    /// The driver's last line.
    pub fn driver_line(&self) -> String {
        // `failed_frac` travels as `failed` over `attempted`.
        let values: Vec<_> =
            self.values.iter().filter(|(d, _)| d.name != metrics::FAILED_FRAC).cloned().collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics::to_json(&values)),
        ])
        .compact()
    }
}

/// Samples whose counts differ from the warm-up's count as failed too.
fn judge(p: &Prepared, result: &mut LoopResult) -> (usize, Vec<String>) {
    let mut problems = Vec::new();
    let mut failed = 0;
    for s in &mut result.samples {
        if s.failure.is_none() && s.cost.counts != p.canon[s.idx] {
            s.failure = Some(format!("pool job {} did not repeat its counts", s.idx));
        }
        if let Some(f) = &s.failure {
            failed += 1;
            if problems.len() < 8 {
                problems.push(f.clone());
            }
        }
    }
    (failed, problems)
}

fn end_to_end(
    p: &Prepared,
    result: &LoopResult,
    setup_s: f64,
    failed: usize,
) -> Vec<(&'static str, f64)> {
    let walls: Vec<f64> = result.samples.iter().map(|s| s.wall_ms).collect();
    let good_bytes: u64 = result
        .samples
        .iter()
        .filter(|s| s.failure.is_none())
        .map(|s| p.w.jobs[s.idx].input_bytes())
        .sum();
    let m = &p.w.machine;
    let claimed: u64 =
        p.canon.iter().map(|c| (m.p * m.d * m.b_bytes) as u64 * c.tracks_per_disk).sum();
    vec![
        ("setup_s", setup_s),
        ("job_ms_p50", median(&walls)),
        ("throughput_mib_s", good_bytes as f64 / MIB / result.wall_s),
        ("io_ops", p.canon.iter().map(|c| c.io_ops).sum::<u64>() as f64),
        ("space_amp", claimed as f64 / p.w.pool_input_bytes() as f64),
        ("failed_frac", failed as f64 / result.samples.len().max(1) as f64),
    ]
}

/// Tracing off: the end-to-end metrics.
pub fn run(name: &str, opts: &Options, dir: &Path) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut prepared = prepare(name, opts, dir)?;
    let mut setups = vec![prepared.setup_s];
    while setups.len() < *SETUPS.start()
        || (setups.len() < *SETUPS.end()
            && started.elapsed().as_secs_f64() < opts.seconds * SETUP_SHARE)
    {
        drop(prepared);
        prepared = prepare(name, opts, dir)?;
        setups.push(prepared.setup_s);
    }
    let mut problems = std::mem::take(&mut prepared.problems);
    problems.extend(self_check(&prepared, opts, dir));

    let mut result = run_loop(&prepared.w, opts.seconds, None);
    let (failed, job_problems) = judge(&prepared, &mut result);
    problems.extend(job_problems);
    let values = end_to_end(&prepared, &result, median(&setups), failed);
    Ok(Outcome {
        name: prepared.w.name,
        seed: opts.seed,
        attempted: result.samples.len(),
        failed,
        input_bytes: prepared.w.pool_input_bytes(),
        output_digest: output_digest(&prepared.w),
        values: metrics::in_order(metrics::END_TO_END, &values),
        problems,
    })
}

/// Tracing on: the per-layer metrics, and the spans as JSON. A third of
/// `seconds` runs untraced first, so tracing overhead has its base.
pub fn trace(name: &str, opts: &Options, dir: &Path) -> Result<(Outcome, Vec<Json>), String> {
    let mut p = prepare(name, opts, dir)?;
    let mut problems = std::mem::take(&mut p.problems);
    problems.extend(self_check(&p, opts, dir));

    let mut untraced = run_loop(&p.w, opts.seconds / 3.0, None);
    let (failed_untraced, _) = judge(&p, &mut untraced);
    let base = summarize(&untraced.samples.iter().map(|s| s.wall_ms).collect::<Vec<_>>());

    let tracer = Tracer::new(p.w.name);
    let slots_before = slots_granted(&p.w);
    let mut traced = run_loop(&p.w, opts.seconds / 3.0, Some(&tracer));
    let slots = slots_granted(&p.w) - slots_before;
    let (failed, job_problems) = judge(&p, &mut traced);
    problems.extend(job_problems);
    if failed_untraced > 0 {
        problems.push(format!("{failed_untraced} jobs failed in the untraced part"));
    }
    let seen = summarize(&traced.samples.iter().map(|s| s.wall_ms).collect::<Vec<_>>());

    // The counts a traced job reports are the untraced run's, or tracing changed the program.
    let pool = p.w.jobs.len() as u64;
    let total = sum_counts(&p.canon);
    if total.split_breaks > 0 {
        problems.push(format!(
            "trace: on {} stages the five PhaseIo phases plus one final context sweep do not add up to io_ops",
            total.split_breaks
        ));
    }

    let ladder_root = tracer.open("ladder", "harness", None, None);
    let ladder = Ladder {
        tracer: &tracer,
        root: ladder_root,
        w: &p.w,
        counts: &p.canon[0],
        ops_per_job: total.io_ops / pool,
        dir,
    }
    .measure();
    tracer.close(ladder_root);
    let mut values = match ladder {
        Ok(values) => values,
        Err(e) => {
            problems.push(format!("ladder: {e}"));
            Vec::new()
        }
    };

    let spans = tracer.snapshot();
    let get = |values: &[(&'static str, f64)], name: &str| {
        values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
    };
    let passes = (traced.samples.len() as u64 / pool).max(1);
    let walls = mean_walls(&traced.samples);
    let m = &p.w.machine;
    let model: f64 =
        p.w.jobs
            .iter()
            .zip(&p.canon)
            .map(|(job, c)| {
                em_core::theory::corollary1_io_time(
                    c.lambda,
                    m.g_io,
                    job.input_bytes(),
                    m.p as u64,
                    m.d as u64,
                    m.b_bytes as u64,
                )
            })
            .sum();
    let av_ops = get(&values, "baselines.av_sort_io_ops");
    let ref_ms = get(&values, "bsp.ref_job_ms");
    let solo_ms = get(&values, "service.solo_job_ms_p50");
    let twin_ms = get(&values, "disk.mem_twin_job_ms");
    let stage_ms = stage_span_ms(&spans);
    values.extend([
        ("disk.est_share", if twin_ms > 0.0 { (1.0 - twin_ms / base.p50).max(0.0) } else { 0.0 }),
        ("disk.utilization", total.utilization()),
        ("disk.imbalance", total.imbalance()),
        ("disk.bytes_moved", total.bytes_moved as f64),
        ("disk.retried_blocks", total.retried_blocks as f64),
        ("bsp.lambda", total.lambda as f64),
        ("bsp.msgs", total.msgs as f64),
        ("bsp.msg_bytes", total.msg_bytes as f64),
        ("bsp.real_comm_bytes", total.real_comm_bytes as f64),
        ("core.sim_overhead_x", if ref_ms > 0.0 { base.p50 / ref_ms } else { 0.0 }),
        ("core.io.fetch_ctx", total.fetch_ctx as f64),
        ("core.io.fetch_msg", total.fetch_msg as f64),
        ("core.io.scatter", total.scatter as f64),
        ("core.io.write_ctx", total.write_ctx as f64),
        ("core.io.routing", total.routing as f64),
        ("core.io.final_read", total.final_read as f64),
        ("core.wall.fetch_ms", walls.fetch),
        ("core.wall.compute_ms", walls.compute),
        ("core.wall.write_ms", walls.write),
        ("core.wall.reorganize_ms", walls.reorganize),
        ("core.wall.sync_ms", walls.sync),
        ("core.wall.unattributed_ms", {
            let phases = walls.fetch + walls.compute + walls.write + walls.reorganize + walls.sync;
            (stage_ms / traced.samples.len().max(1) as f64 - phases).max(0.0)
        }),
        ("core.k", total.k as f64),
        ("core.num_groups", total.num_groups as f64),
        ("core.worst_balance", total.worst_balance()),
        ("core.tracks_per_disk", total.tracks_per_disk as f64),
        (
            "core.io_ops_over_model",
            if model > 0.0 { total.io_ops as f64 / m.p as f64 / model } else { 0.0 },
        ),
        ("core.io_ops_over_av", if av_ops > 0.0 { total.io_ops as f64 / av_ops } else { 0.0 }),
        ("algos.driver_ms", driver_ms(&spans)),
        ("algos.stages", total.stages as f64),
        (
            "harness.trace_overhead_frac",
            if base.p50 > 0.0 { seen.p50 / base.p50 - 1.0 } else { 0.0 },
        ),
        ("harness.job_ms_p90", base.p90),
        ("harness.job_ms_iqr_frac", base.iqr_frac),
        ("harness.reps", traced.samples.len() as f64),
    ]);
    if matches!(p.w.engine, Engine::Service(_)) {
        let col =
            |f: fn(&JobSample) -> f64| median(&traced.samples.iter().map(f).collect::<Vec<_>>());
        values.extend([
            ("service.admit_us_p50", col(|s| s.admit_us)),
            ("service.execute_ms_p50", col(|s| s.exec_ms)),
            ("service.complete_us_p50", col(|s| s.complete_us)),
            ("service.job_ms_p90", base.p90),
            ("service.tenant_overhead_x", if solo_ms > 0.0 { base.p50 / solo_ms } else { 0.0 }),
            ("service.slots_per_pass", (slots / passes) as f64),
            (
                "service.peak_tenants",
                traced.samples.iter().map(|s| s.tenants_seen).max().unwrap_or(0) as f64,
            ),
            ("service.refused", traced.samples.iter().filter(|s| s.refused).count() as f64),
        ]);
    }

    let outcome = Outcome {
        name: p.w.name,
        seed: opts.seed,
        attempted: traced.samples.len(),
        failed,
        input_bytes: p.w.pool_input_bytes(),
        output_digest: output_digest(&p.w),
        values: metrics::in_order(metrics::PER_LAYER, &values),
        problems,
    };
    Ok((outcome, tracer.to_json()))
}

fn slots_granted(w: &Workload) -> u64 {
    match &w.engine {
        Engine::Service(service) => service.slots_granted(),
        _ => 0,
    }
}

/// One pool pass: sums of the per-job counts, maxima of the shape fields.
fn sum_counts(pool: &[Counts]) -> Counts {
    let mut total = Counts::zero();
    pool.iter().for_each(|c| total.absorb(c));
    total
}

/// Mean per-job phase walls over the traced samples.
fn mean_walls(samples: &[JobSample]) -> Walls {
    let n = samples.len().max(1) as f64;
    let mean = |f: fn(&Walls) -> f64| samples.iter().map(|s| f(&s.cost.walls)).sum::<f64>() / n;
    Walls {
        fetch: mean(|w| w.fetch),
        compute: mean(|w| w.compute),
        write: mean(|w| w.write),
        reorganize: mean(|w| w.reorganize),
        sync: mean(|w| w.sync),
        stages: mean(|w| w.stages),
    }
}

fn stage_span_ms(spans: &[Span]) -> f64 {
    spans.iter().filter(|s| s.name == "stage").map(Span::ms).sum()
}

/// Median self time of the span that holds a job's stages: distribute and gather.
fn driver_ms(spans: &[Span]) -> f64 {
    let own = self_ms(spans);
    let holders: Vec<f64> =
        spans.iter().zip(own).filter(|(s, _)| s.layer == "algos").map(|(_, ms)| ms).collect();
    median(&holders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::ScratchDir;
    use crate::workloads::NAMES;

    fn smoke() -> Options {
        Options { seed: 7, seconds: 0.05, smoke: true }
    }

    /// Tests run side by side in one process, so each gets a parent directory of its own.
    fn with_scratch(tag: &str, test: impl FnOnce(&Path)) {
        let parent =
            std::env::temp_dir().join(format!("embench-{tag}-test-{}", std::process::id()));
        let scratch = ScratchDir::create(&parent).unwrap();
        test(scratch.path());
        drop(scratch);
        std::fs::remove_dir_all(parent).unwrap();
    }

    fn value(o: &Outcome, name: &str) -> f64 {
        o.values.iter().find(|(d, _)| d.name == name).unwrap_or_else(|| panic!("{name} missing")).1
    }

    #[test]
    fn every_workload_runs_clean_and_reports_every_end_to_end_metric() {
        with_scratch("run", |dir| {
            for name in NAMES {
                let o = run(name, &smoke(), dir).unwrap();
                assert!(o.correct(), "{name}: {:?}", o.problems);
                assert!(o.attempted >= 1);
                assert_eq!(o.values.len(), metrics::END_TO_END.len());
                for (def, v) in &o.values {
                    assert_eq!(*v > 0.0, def.name != "failed_frac", "{name} {}", def.name);
                }
                let line = Json::parse(&o.driver_line()).unwrap();
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                assert!(line.get("metrics").and_then(|m| m.get("failed_frac")).is_none());
            }
        });
    }

    #[test]
    fn the_two_sorts_differ_in_the_disk_path_only() {
        with_scratch("sorts", |dir| {
            let mem = run("sort-mem", &smoke(), dir).unwrap();
            let file = run("sort-file", &smoke(), dir).unwrap();
            assert_eq!(mem.output_digest, file.output_digest);
            assert_eq!(value(&mem, "io_ops"), value(&file, "io_ops"));
            assert_eq!(value(&mem, "space_amp"), value(&file, "space_amp"));
            let other_seed = run("sort-mem", &Options { seed: 8, ..smoke() }, dir).unwrap();
            assert_ne!(mem.output_digest, other_seed.output_digest);
        });
    }

    #[test]
    fn trace_reports_every_layer_metric_and_the_phase_split_adds_up() {
        with_scratch("trace", |dir| {
            let (e2e, (layers, spans)) = (
                run("service-mix", &smoke(), dir).unwrap(),
                trace("service-mix", &smoke(), dir).unwrap(),
            );
            assert!(layers.correct(), "{:?}", layers.problems);
            assert_eq!(layers.values.len(), metrics::PER_LAYER.len());
            let split: f64 =
                ["fetch_ctx", "fetch_msg", "scatter", "write_ctx", "routing", "final_read"]
                    .iter()
                    .map(|phase| value(&layers, &format!("core.io.{phase}")))
                    .sum();
            assert_eq!(split, value(&e2e, "io_ops"), "traced counts are the untraced run's");
            assert_eq!(value(&layers, "service.refused"), 0.0);
            assert!(value(&layers, "service.slots_per_pass") > 0.0);
            for name in ["job", "admit", "pipeline", "stage", "complete", "ladder"] {
                assert!(
                    spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
                    "{name}"
                );
            }
        });
    }
}
