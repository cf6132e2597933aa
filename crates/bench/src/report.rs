//! Table rendering and machine-readable result output.

use em_service::json_string;
use std::path::{Path, PathBuf};

/// One experiment row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment / problem id (e.g. "T1-A-sort").
    pub id: String,
    /// Variant label (e.g. "seq-EM baseline", "sim p=4 D=4").
    pub variant: String,
    /// Problem size.
    pub n: usize,
    /// Measured parallel I/O operations.
    pub io_ops: u64,
    /// Paper-predicted operations (complexity expression evaluated).
    pub predicted: f64,
    /// λ (0 for non-simulated baselines).
    pub lambda: usize,
    /// Disk utilization.
    pub utilization: f64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Free-form notes (speedup factors etc.).
    pub note: String,
}

impl Row {
    /// The row as one JSON object on one line, fields in declaration
    /// order. `wall_ms` is the only field that differs between two runs on
    /// one seed (the CI determinism diffs strip it by name).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"variant\":{},\"n\":{},\"io_ops\":{},\"predicted\":{},\"lambda\":{},\
             \"utilization\":{},\"wall_ms\":{},\"note\":{}}}",
            json_string(&self.id),
            json_string(&self.variant),
            self.n,
            self.io_ops,
            json_number(self.predicted),
            self.lambda,
            json_number(self.utilization),
            json_number(self.wall_ms),
            json_string(&self.note),
        )
    }
}

/// Where the numbers were taken — core count, kernel, build profile —
/// printed above every table and carried in every `BENCH_<name>.json`,
/// because a `wall_ms` means nothing without it.
struct Host {
    nproc: usize,
    kernel: String,
    debug_build: bool,
}

impl Host {
    fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            kernel: std::fs::read_to_string("/proc/version").unwrap_or_default().trim().to_string(),
            debug_build: cfg!(debug_assertions),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"kernel\":{},\"debug_build\":{}}}",
            self.nproc,
            json_string(&self.kernel),
            self.debug_build
        )
    }
}

/// Print rows as an aligned text table under a host line.
pub fn print_table(title: &str, rows: &[Row]) {
    let host = Host::probe();
    println!(
        "# host: nproc={} debug_build={} kernel={}",
        host.nproc, host.debug_build, host.kernel
    );
    println!("\n== {title} ==");
    println!(
        "{:<14} {:<26} {:>9} {:>10} {:>12} {:>5} {:>6} {:>9}  note",
        "id", "variant", "n", "io_ops", "predicted", "λ", "util", "wall_ms"
    );
    for r in rows {
        println!(
            "{:<14} {:<26} {:>9} {:>10} {:>12.0} {:>5} {:>6.2} {:>9.1}  {}",
            r.id, r.variant, r.n, r.io_ops, r.predicted, r.lambda, r.utilization, r.wall_ms, r.note
        );
    }
}

/// Emit rows as JSON lines (consumed when updating EXPERIMENTS.md).
pub fn print_json(rows: &[Row]) {
    for r in rows {
        println!("{}", r.to_json());
    }
}

/// A JSON number: shortest digits that read back as `x`, always with a
/// fraction or an exponent (`0.0`, never `0`); `null` when not finite.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Where a run's document belongs: the committed artefacts live under
/// `results/`, and only a full-size run of every sweep of a binary may
/// replace one; every other run — `--smoke`, a single sweep, a scaled or
/// re-seeded run — leaves the same document under `target/bench-results/`.
fn bench_dir(smoke: bool, complete: bool) -> &'static Path {
    Path::new(if complete && !smoke { "results" } else { "target/bench-results" })
}

/// Write `BENCH_<name>.json` and return its path: under `results/` when
/// `complete` — the run was full size, on the default seed, and ran every
/// sweep the binary has — and under `target/bench-results/` otherwise, so
/// that a partial run can never replace a committed artefact. Both are
/// relative to the current directory and created as needed.
///
/// The document is `{bench, seed, smoke, config, host, rows}` with one row
/// per line; `wall_ms` and `host` aside, everything in it is deterministic
/// for a fixed seed.
pub fn write_bench_json(
    name: &str,
    seed: u64,
    smoke: bool,
    complete: bool,
    config: &str,
    rows: &[Row],
) -> std::io::Result<PathBuf> {
    write_bench_json_under(bench_dir(smoke, complete), name, seed, smoke, config, rows)
}

fn write_bench_json_under(
    dir: &Path,
    name: &str,
    seed: u64,
    smoke: bool,
    config: &str,
    rows: &[Row],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let rows = if rows.is_empty() {
        "[]".to_string()
    } else {
        let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.to_json())).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let payload = format!(
        "{{\n  \"bench\": {},\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \
         \"config\": {},\n  \"host\": {},\n  \"rows\": {rows}\n}}\n",
        json_string(name),
        json_string(config),
        Host::probe().to_json(),
    );
    std::fs::write(&path, payload)?;
    Ok(path)
}

/// Exit with `usage` when `args` holds a `--flag` the binary does not
/// know, instead of running (and writing) as if it had not been given.
pub fn reject_unknown_flags(args: &[String], known: &[&str], usage: &str) {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
        eprintln!("unknown option {flag}\nusage: {usage}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row {
            id: "T1-A-sort".into(),
            variant: "sim \"p=4\"".into(),
            n: 1000,
            io_ops: 42,
            predicted: 40.0,
            lambda: 4,
            utilization: 0.9483648881239243,
            wall_ms: 46.960077000000005,
            note: String::new(),
        }
    }

    #[test]
    fn a_row_is_one_json_object_with_the_committed_field_names_and_order() {
        assert_eq!(
            row().to_json(),
            "{\"id\":\"T1-A-sort\",\"variant\":\"sim \\\"p=4\\\"\",\"n\":1000,\"io_ops\":42,\
             \"predicted\":40.0,\"lambda\":4,\"utilization\":0.9483648881239243,\
             \"wall_ms\":46.960077000000005,\"note\":\"\"}"
        );
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.0), "0.0");
    }

    #[test]
    fn only_a_complete_full_size_run_is_written_under_results() {
        assert_eq!(bench_dir(false, true), Path::new("results"));
        for (smoke, complete) in [(true, true), (false, false), (true, false)] {
            assert_eq!(bench_dir(smoke, complete), Path::new("target/bench-results"));
        }
    }

    #[test]
    fn the_document_holds_one_row_a_line_under_a_host_header() {
        let dir = std::env::temp_dir().join(format!("em-bench-report-{}", std::process::id()));
        let path = write_bench_json_under(&dir, "test", 7, true, "M=64KiB", &[row()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(path.file_name().unwrap(), "BENCH_test.json");
        assert!(text.contains("\"bench\": \"test\"") && text.contains("\"seed\": 7"));
        assert!(text.contains("\"smoke\": true") && text.contains("\"host\": {\"nproc\":"));
        // One row per line, so the CI determinism sed can strip `wall_ms`
        // without a JSON parser.
        let row_lines: Vec<&str> =
            text.lines().filter(|l| l.trim_start().starts_with("{\"id\"")).collect();
        assert_eq!(row_lines, [format!("    {}", row().to_json())]);
    }
}
