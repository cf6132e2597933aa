//! The metric dictionary — name, unit, direction and bound of everything
//! the benchmark reports — and the rule for comparing two result sets.

use crate::json::Json;
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How two runs of one commit, on one seed, must agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agreement {
    /// A count: identical, or the benchmark is broken.
    Exact,
    /// A measurement: the later median may be worse by at most this share.
    Within(f64),
    /// Reported, never gated by `compare`: the per-layer measurements, and
    /// `setup_s`, whose single-run value does not hold a bound (see the README).
    Free,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub agreement: Agreement,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    agreement: Agreement,
) -> MetricDef {
    MetricDef { name, unit, better, agreement }
}

use Agreement::{Exact, Free, Within};
use Better::{Higher, Lower};

/// Always 0 on a healthy run, so the driver's line carries it as `failed`
/// over `attempted` and `BENCHMARK.json` does not list it.
pub const FAILED_FRAC: &str = "failed_frac";

/// What a user of the system sees. Same names on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, Free),
    m("job_ms_p50", "ms", Lower, Within(0.25)),
    m("throughput_mib_s", "MiB/s", Higher, Within(0.25)),
    m("io_ops", "count", Lower, Exact),
    m("space_amp", "ratio", Lower, Exact),
    m(FAILED_FRAC, "ratio", Lower, Exact),
];

/// One layer each; a value of 0 on a workload the metric does not apply to.
pub const PER_LAYER: &[MetricDef] = &[
    m("serial.encode_mib_s", "MiB/s", Higher, Free),
    m("serial.decode_mib_s", "MiB/s", Higher, Free),
    m("serial.ctx_bytes", "bytes", Lower, Exact),
    m("disk.raw_stripe_us", "us", Lower, Free),
    m("disk.checksum_stripe_us", "us", Lower, Free),
    m("disk.retry_stripe_us", "us", Lower, Free),
    m("disk.cache_fit_stripe_us", "us", Lower, Free),
    m("disk.cache_fit_hit_rate", "ratio", Higher, Exact),
    m("disk.cache_spill_stripe_us", "us", Lower, Free),
    m("disk.cache_spill_hit_rate", "ratio", Higher, Exact),
    m("disk.array_stripe_us", "us", Lower, Free),
    m("disk.submit_join_us", "us", Lower, Free),
    m("disk.sync_ms", "ms", Lower, Free),
    m("disk.build_ms", "ms", Lower, Free),
    m("disk.mem_twin_job_ms", "ms", Lower, Free),
    m("disk.est_share", "ratio", Lower, Free),
    m("disk.utilization", "ratio", Higher, Exact),
    m("disk.imbalance", "ratio", Lower, Exact),
    m("disk.bytes_moved", "bytes", Lower, Exact),
    m("disk.retried_blocks", "count", Lower, Exact),
    m("bsp.ref_job_ms", "ms", Lower, Free),
    m("bsp.lambda", "count", Lower, Exact),
    m("bsp.msgs", "count", Lower, Exact),
    m("bsp.msg_bytes", "bytes", Lower, Exact),
    m("bsp.real_comm_bytes", "bytes", Lower, Exact),
    m("core.sim_overhead_x", "ratio", Lower, Free),
    m("core.io.fetch_ctx", "count", Lower, Exact),
    m("core.io.fetch_msg", "count", Lower, Exact),
    m("core.io.scatter", "count", Lower, Exact),
    m("core.io.write_ctx", "count", Lower, Exact),
    m("core.io.routing", "count", Lower, Exact),
    m("core.io.final_read", "count", Lower, Exact),
    m("core.wall.fetch_ms", "ms", Lower, Free),
    m("core.wall.compute_ms", "ms", Lower, Free),
    m("core.wall.write_ms", "ms", Lower, Free),
    m("core.wall.reorganize_ms", "ms", Lower, Free),
    m("core.wall.sync_ms", "ms", Lower, Free),
    m("core.wall.unattributed_ms", "ms", Lower, Free),
    m("core.k", "count", Higher, Exact),
    m("core.num_groups", "count", Lower, Exact),
    m("core.worst_balance", "ratio", Lower, Exact),
    m("core.tracks_per_disk", "count", Lower, Exact),
    m("core.io_ops_over_model", "ratio", Lower, Exact),
    m("core.ctx_group_rw_us", "us", Lower, Free),
    m("core.scatter_ms", "ms", Lower, Free),
    m("core.routing_ms", "ms", Lower, Free),
    m("core.routing_rounds", "count", Lower, Exact),
    m("core.routing_slot_eff", "ratio", Higher, Exact),
    m("algos.driver_ms", "ms", Lower, Free),
    m("algos.stages", "count", Lower, Exact),
    m("baselines.av_sort_io_ops", "count", Lower, Exact),
    m("baselines.av_sort_ms", "ms", Lower, Free),
    m("core.io_ops_over_av", "ratio", Lower, Exact),
    m("service.admit_us_p50", "us", Lower, Free),
    m("service.execute_ms_p50", "ms", Lower, Free),
    m("service.complete_us_p50", "us", Lower, Free),
    m("service.job_ms_p90", "ms", Lower, Free),
    m("service.solo_job_ms_p50", "ms", Lower, Free),
    m("service.tenant_overhead_x", "ratio", Lower, Free),
    m("service.slots_per_pass", "count", Lower, Exact),
    m("service.peak_tenants", "count", Higher, Free),
    m("service.refused", "count", Lower, Exact),
    m("harness.trace_overhead_frac", "ratio", Lower, Free),
    m("harness.job_ms_p90", "ms", Lower, Free),
    m("harness.job_ms_iqr_frac", "ratio", Lower, Free),
    m("harness.reps", "count", Higher, Free),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Measured values in dictionary order; a metric left out reads 0.
pub fn in_order(defs: &[MetricDef], values: &[(&'static str, f64)]) -> Vec<(MetricDef, f64)> {
    defs.iter()
        .map(|d| (*d, values.iter().find(|(n, _)| *n == d.name).map_or(0.0, |&(_, v)| v)))
        .collect()
}

pub fn to_json(values: &[(MetricDef, f64)]) -> Json {
    Json::obj(
        values.iter().map(|(d, v)| {
            (d.name, Json::obj([("value", Json::Num(*v)), ("unit", Json::str(d.unit))]))
        }),
    )
}

/// Share by which `later` is worse than `earlier`, in the metric's own
/// direction; negative when it is better.
pub fn worse_by(better: Better, earlier: f64, later: f64) -> f64 {
    if earlier == 0.0 {
        return if later == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (later - earlier) / earlier.abs(),
        Better::Higher => (earlier - later) / earlier.abs(),
    }
}

/// `None` when the two sets of samples agree under `def`; otherwise why not.
pub fn disagreement(def: &MetricDef, a: &[f64], b: &[f64]) -> Option<String> {
    match def.agreement {
        Free => None,
        Exact => {
            let first = a.first().or(b.first())?;
            a.iter()
                .chain(b)
                .find(|v| *v != first)
                .map(|other| format!("exact metric read both {first} and {other}"))
        }
        Within(bound) => {
            let (ma, mb) = (median(a), median(b));
            let worse = worse_by(def.better, ma, mb);
            (worse > bound).then(|| {
                format!(
                    "median {mb} is {:.1}% worse than {ma} (bound {:.0}%)",
                    worse * 100.0,
                    bound * 100.0
                )
            })
        }
    }
}

/// Every `(workload, metric)` of result set `a` against the same pair in
/// `b`, where both have it. A result set is one result file or a file holding
/// several under `"runs"` and `"trace"`. Returns one line per gated pair and
/// the failure count.
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<String>, usize), String> {
    let (sa, sb) = (samples(a)?, samples(b)?);
    let mut lines = Vec::new();
    let (mut failures, mut compared) = (0, 0);
    for (key, va) in &sa {
        let (workload, metric) = key;
        let Some(def) = find(metric) else { continue };
        // A set of runs without a trace still compares with one that has both.
        let Some((_, vb)) = sb.iter().find(|(k, _)| k == key) else {
            if def.agreement != Free {
                lines.push(format!("skip {workload} {metric}: not in the second set"));
            }
            continue;
        };
        compared += 1;
        match disagreement(def, va, vb) {
            Some(why) => {
                failures += 1;
                lines.push(format!("FAIL {workload} {metric}: {why}"));
            }
            None if def.agreement != Free => {
                lines.push(format!(
                    "ok   {workload} {metric}: {} vs {} {}",
                    median(va),
                    median(vb),
                    def.unit
                ));
            }
            None => {}
        }
    }
    if compared == 0 {
        return Err("the two result sets share no metric".into());
    }
    Ok((lines, failures))
}

type Samples = Vec<((String, String), Vec<f64>)>;

/// All values per `(workload, metric)` found in a result set.
fn samples(set: &Json) -> Result<Samples, String> {
    let mut files: Vec<&Json> = Vec::new();
    match set.get("runs").and_then(Json::as_arr) {
        Some(runs) => {
            files.extend(runs);
            files.extend(set.get("trace"));
        }
        None => files.push(set),
    }
    let mut out: Samples = Vec::new();
    for file in files {
        let workloads = file
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("result file has no \"workloads\" array")?;
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
            let metrics =
                w.get("metrics").and_then(Json::as_obj).ok_or("workload without metrics")?;
            for (metric, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name} {metric}: no numeric value"))?;
                let key = (name.to_string(), metric.clone());
                match out.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, values)) => values.push(value),
                    None => out.push((key, vec![value])),
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        find(name).unwrap()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|e| e.name != d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn relative_metrics_gate_on_the_median_and_only_when_worse() {
        let job = def("job_ms_p50");
        assert!(disagreement(job, &[10.0, 10.2, 9.9], &[12.4, 12.3, 12.6]).is_none());
        assert!(disagreement(job, &[10.0, 10.2, 9.9], &[12.6, 12.7, 9.0]).is_some());
        assert!(disagreement(job, &[10.0], &[5.0]).is_none(), "faster is not a regression");
        let thr = def("throughput_mib_s");
        assert!(disagreement(thr, &[100.0], &[76.0]).is_none());
        assert!(disagreement(thr, &[100.0], &[74.0]).is_some());
        assert!(disagreement(thr, &[100.0], &[150.0]).is_none());
    }

    #[test]
    fn exact_metrics_must_be_identical_in_either_direction() {
        let ops = def("io_ops");
        assert!(disagreement(ops, &[5540.0, 5540.0], &[5540.0]).is_none());
        assert!(disagreement(ops, &[5540.0], &[5539.0]).is_some(), "fewer ops still differs");
        assert!(disagreement(ops, &[5540.0, 5541.0], &[5540.0]).is_some());
        assert!(disagreement(def("disk.raw_stripe_us"), &[1.0], &[100.0]).is_none());
    }

    fn set(job_ms: f64, io_ops: f64) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("sort-mem")),
                (
                    "metrics",
                    Json::obj([
                        ("job_ms_p50", metric(job_ms, "ms")),
                        ("io_ops", metric(io_ops, "count")),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_counts_failures_over_files_and_sets() {
        let (lines, failures) = compare(&set(10.0, 5540.0), &set(10.5, 5540.0)).unwrap();
        assert_eq!((lines.len(), failures), (2, 0));
        let (_, failures) = compare(&set(10.0, 5540.0), &set(13.0, 5541.0)).unwrap();
        assert_eq!(failures, 2);
        let many = Json::obj([(
            "runs",
            Json::Arr(vec![set(10.0, 5540.0), set(30.0, 5540.0), set(10.1, 5540.0)]),
        )]);
        let (_, failures) = compare(&many, &set(10.9, 5540.0)).unwrap();
        assert_eq!(failures, 0, "the median of the set is what is gated");
        let Json::Obj(mut with_trace) = many else { unreachable!() };
        with_trace.push(("trace".into(), Json::obj([("workloads", Json::Arr(vec![]))])));
        let (lines, failures) = compare(&Json::Obj(with_trace), &set(12.0, 5540.0)).unwrap();
        assert_eq!((lines.len(), failures), (2, 0));
        assert!(compare(&Json::obj([("x", Json::Null)]), &set(1.0, 1.0)).is_err());
    }
}
