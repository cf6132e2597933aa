//! embench — the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! embench run     [--workload NAME]... [--seed N] [--seconds S] [--smoke] [--dir DIR] [--out FILE]
//! embench trace   [--workload NAME]... [--seed N] [--seconds S] [--smoke] [--dir DIR] [--out DIR]
//! embench compare <A.json> <B.json>
//! embench driver  --workload NAME --seed N --seconds S --trace 0|1
//! ```

mod gen;
mod host;
mod json;
mod ladder;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use metrics::Agreement;
use run::{Options, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 0xD3D97;
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke` measures a twentieth as long, on inputs a tenth the size.
const SMOKE_SECONDS: f64 = DEFAULT_SECONDS / 20.0;

struct Args {
    command: String,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    smoke: bool,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    trace: bool,
    files: Vec<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().ok_or("missing sub-command: run, trace, compare or driver")?;
    let mut args = Args {
        command,
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        smoke: false,
        dir: None,
        out: None,
        trace: false,
        files: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.seed = parse_u64(&value()?).ok_or("--seed needs a whole number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be above 0 and at most 3600".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            "--dir" => args.dir = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            file => args.files.push(file.into()),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::NAMES.iter().map(|s| s.to_string()).collect();
    }
    if let Some(bad) = args.workloads.iter().find(|w| !workloads::NAMES.contains(&w.as_str())) {
        return Err(format!("unknown workload {bad:?}; expected one of {:?}", workloads::NAMES));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("embench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "run" | "trace" => measure(&args),
        "driver" => driver(&args),
        "compare" => compare(&args),
        other => {
            Err(format!("unknown sub-command {other:?}: expected run, trace, compare or driver"))
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("embench: {e}");
            ExitCode::from(2)
        }
    }
}

fn options(args: &Args) -> Result<Options, String> {
    if cfg!(debug_assertions) && !args.smoke {
        return Err("this is a debug build; its timings mean nothing. Build with --release, or pass --smoke to check the harness".into());
    }
    let seconds = args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    Ok(Options { seed: args.seed, seconds, smoke: args.smoke })
}

/// `run` and `trace`: every chosen workload, a table on stdout, a result file on request.
fn measure(args: &Args) -> Result<bool, String> {
    let opts = options(args)?;
    let tracing = args.command == "trace";
    let parent = args.dir.clone().unwrap_or_else(std::env::temp_dir);
    let scratch = host::ScratchDir::create(&parent)?;
    let provenance = host::provenance(scratch.path(), opts.seed, opts.seconds, opts.smoke);
    println!("embench {} — {}", args.command, provenance.compact());

    let mut outcomes = Vec::new();
    let mut spans = Vec::new();
    for name in &args.workloads {
        let outcome = if tracing {
            let (outcome, workload_spans) = run::trace(name, &opts, scratch.path())?;
            spans.extend(workload_spans);
            outcome
        } else {
            run::run(name, &opts, scratch.path())?
        };
        print_outcome(&outcome);
        outcomes.push(outcome);
    }

    let result = Json::obj([
        ("kind", Json::str(args.command.as_str())),
        ("claim", Json::Null),
        ("provenance", provenance),
        ("workloads", Json::Arr(outcomes.iter().map(Outcome::to_json).collect())),
    ]);
    if tracing {
        let out = args.out.clone().unwrap_or_else(|| std::env::temp_dir().join("embench-trace"));
        std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        write_file(&out.join("trace.json"), &Json::obj([("spans", Json::Arr(spans))]).compact())?;
        write_file(&out.join("layers.json"), &result.pretty())?;
        println!("spans: {}", out.join("trace.json").display());
    } else if let Some(out) = &args.out {
        write_file(out, &result.pretty())?;
    }
    let correct = outcomes.iter().all(Outcome::correct);
    if !correct {
        eprintln!("embench: some jobs failed or some checks did not hold; see the problems above");
    }
    Ok(correct)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn print_outcome(o: &Outcome) {
    println!(
        "\n{} — {}\n  seed {:#x}, reps {}, failed {}, input {} bytes, output digest {:016x}",
        o.name,
        workloads::why(o.name),
        o.seed,
        o.attempted,
        o.failed,
        o.input_bytes,
        o.output_digest
    );
    for (def, value) in &o.values {
        let bound = match def.agreement {
            Agreement::Exact => "exact".to_string(),
            Agreement::Within(b) => format!("{:.0}%", b * 100.0),
            Agreement::Free => "-".to_string(),
        };
        println!(
            "  {:<30} {:>16.6} {:<6} {:<6} {}",
            def.name,
            value,
            def.unit,
            def.better.as_str(),
            bound
        );
    }
    for problem in &o.problems {
        println!("  PROBLEM {problem}");
    }
}

/// The harness contract: one workload, one JSON object as the last line.
/// Scratch files stay inside the current directory.
fn driver(args: &Args) -> Result<bool, String> {
    let [name] = args.workloads.as_slice() else {
        return Err("driver runs exactly one --workload".into());
    };
    let opts = options(args)?;
    let parent = args.dir.clone().unwrap_or_else(|| PathBuf::from(".bench_scratch"));
    let scratch = host::ScratchDir::create(&parent)?;
    let outcome = if args.trace {
        run::trace(name, &opts, scratch.path())?.0
    } else {
        run::run(name, &opts, scratch.path())?
    };
    for problem in &outcome.problems {
        eprintln!("embench: {name}: {problem}");
    }
    println!("{}", outcome.driver_line());
    Ok(outcome.correct())
}

fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let load = |path: &PathBuf| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (lines, failures) = metrics::compare(&load(a)?, &load(b)?)?;
    for line in &lines {
        println!("{line}");
    }
    let skipped = lines.iter().filter(|l| l.starts_with("skip")).count();
    println!(
        "{} pairs compared, {failures} outside their bounds, {skipped} in one set only",
        lines.len() - skipped
    );
    Ok(failures == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_flags_parse() {
        let a = parse("driver --workload sort-mem --seed 17 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.command.as_str(), a.seed, a.seconds, a.trace),
            ("driver", 17, Some(3.0), true)
        );
        assert_eq!(a.workloads, ["sort-mem"]);
        assert_eq!(parse("run --seed 0xD3D97").unwrap().seed, DEFAULT_SEED);
        assert_eq!(parse("run").unwrap().workloads.len(), 4);
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            "",
            "run --workload nope",
            "run --seed x",
            "run --seconds 0",
            "run --bogus",
            "run --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// The contract file at the repo root and the metric dictionary must name the same things.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            let list = spec.get(key).and_then(Json::as_arr).unwrap();
            list.iter().map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
        };
        assert_eq!(names("workloads"), workloads::NAMES);
        for entry in spec.get("workloads").and_then(Json::as_arr).unwrap() {
            let name = entry.get("name").and_then(Json::as_str).unwrap();
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(workloads::why(name)));
        }
        let end_to_end: Vec<_> = metrics::END_TO_END
            .iter()
            .map(|d| d.name)
            .filter(|n| *n != metrics::FAILED_FRAC)
            .collect();
        assert_eq!(names("end_to_end"), end_to_end);
        assert_eq!(
            names("per_layer"),
            metrics::PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        let bound_of = |name: &str| {
            let list = spec.get("end_to_end").and_then(Json::as_arr).unwrap();
            let entry = list.iter().find(|e| e.get("name").and_then(Json::as_str) == Some(name));
            entry.and_then(|e| e.get("bound")).and_then(Json::as_f64).unwrap()
        };
        for entry in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let def = metrics::find(entry.get("name").and_then(Json::as_str).unwrap()).unwrap();
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(def.better.as_str()));
            // Timings carry one bound everywhere; counts are exact here and
            // get a little room there, where seeds differ between runs.
            let listed = entry.get("bound").and_then(Json::as_f64).unwrap();
            if let Agreement::Within(bound) = def.agreement {
                assert_eq!(listed, bound);
            }
            // `setup_s` is gated there only, on medians of many runs, with the largest bound.
            assert!(listed <= bound_of("setup_s"), "{}", def.name);
        }
    }
}
