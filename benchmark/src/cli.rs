//! The command line: `benchmark/run.sh` builds the two binaries and hands
//! its arguments to [`main`].
//!
//! Without `--child` the process is the **driver**: it runs every selected
//! workload in a process of its own (so `setup_s` and `peak_rss_mb` belong
//! to one workload), echoes what the child prints, and files the results
//! as a stamped set under `benchmark/results/`. With `--child` it runs one
//! workload and prints its metrics, ending with the one-line JSON result.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use sr_obs::Json;

use crate::fixture::{scale_mb, Kind};
use crate::{run, traced, Metric};

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1 | --traced] [--repeat K] [--quick] | --compare A.json B.json";

/// The seed a run uses unless told otherwise (the TPC-H generator's own).
const DEFAULT_SEED: u64 = 0x511c_6007;
/// The measured window in seconds unless told otherwise: `run_seconds` of
/// `BENCHMARK.json`; two seconds in quick mode.
const DEFAULT_SECONDS: u64 = 20;
/// Where result sets and traces go, relative to the repository root.
const RESULTS_DIR: &str = "benchmark/results";
/// Layer counts that must repeat exactly between two runs of one commit.
const EXACT_COUNTS: [&str; 5] = [
    "sr-plan.oracle_requests",
    "sr-sqlgen.streams",
    "sr-engine.tuples",
    "sr-engine.wire_bytes",
    "sr-tagger.xml_bytes",
];
/// The ledger is closed when no more than this share of the traced op
/// wall is outside every layer span.
const LEDGER_TOLERANCE: f64 = 0.10;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    repeat: usize,
    quick: bool,
    child: bool,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        quick: false,
        child: false,
        trace_out: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    Kind::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => a.seed = parse_u64(value()?).ok_or("--seed takes a whole number")?,
            "--seconds" => {
                a.seconds = Some(
                    parse_u64(value()?)
                        .filter(|s| (1..=60).contains(s))
                        .ok_or("--seconds takes a whole number from 1 to 60")?,
                );
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => a.trace = true,
            "--repeat" => {
                a.repeat = parse_u64(value()?)
                    .filter(|k| (1..=10).contains(k))
                    .ok_or("--repeat takes a whole number from 1 to 10")?
                    as usize;
            }
            "--quick" => a.quick = true,
            "--child" => a.child = true,
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> u64 {
        self.seconds
            .unwrap_or(if self.quick { 2 } else { DEFAULT_SECONDS })
    }
}

/// Entry point of both binaries.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match &args.compare {
        Some((a, b)) => compare_files(a, b),
        None if args.child => child(&args),
        None => drive(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sr-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- child --

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::obj(vec![
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect(),
    )
}

/// Run one workload in this process. Prints `name value unit` per metric,
/// a `meta` line for the driver, and last the contract's result object.
/// `Ok(false)` when an op failed.
fn child(args: &Args) -> Result<bool, String> {
    let kind = args.workload.ok_or("--child needs --workload")?;
    let quick = args.quick;
    println!(
        "workload {} seed {:#x} seconds {} trace {}{}",
        kind.name(),
        args.seed,
        args.seconds(),
        u8::from(args.trace),
        if quick { " quick" } else { "" }
    );
    let mut meta = vec![
        ("scale_mb", Json::Float(scale_mb(quick))),
        ("callers", Json::UInt(kind.callers() as u64)),
        ("warmup_ops", Json::UInt(kind.warmup_ops(quick) as u64)),
    ];
    let (attempted, failed, metrics) = if args.trace {
        let r = traced::run(kind, args.seed, quick);
        let closed = r.unattributed_share <= LEDGER_TOLERANCE;
        println!(
            "ledger {}: {:.1} % of the traced op wall is outside every layer span (limit {:.0} %)",
            if closed { "closed" } else { "OPEN" },
            r.unattributed_share * 100.0,
            LEDGER_TOLERANCE * 100.0
        );
        if let Some(path) = &args.trace_out {
            std::fs::write(path, r.chrome.render())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("chrome trace: {}", path.display());
            meta.push(("trace_file", Json::Str(path.display().to_string())));
        }
        meta.push(("traced_ops", Json::UInt(traced::traced_ops(quick) as u64)));
        meta.push(("unattributed_share", Json::Float(r.unattributed_share)));
        meta.push(("ledger_closed", Json::Bool(closed)));
        (r.attempted, r.failed, r.metrics)
    } else {
        let r = run::run(kind, args.seed, Duration::from_secs(args.seconds()), quick);
        meta.push(("exec_mode", Json::Str(r.exec_mode)));
        (r.attempted, r.failed, r.metrics)
    };
    for m in &metrics {
        match m.name {
            "op_ms_p95" => println!("{} {} {} (samples {attempted})", m.name, m.value, m.unit),
            _ => println!("{} {} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "fail_ratio {} ratio ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    println!("meta {}", Json::obj(meta).render());
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(attempted as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.render());
    Ok(failed == 0)
}

// --------------------------------------------------------------- driver --

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The metric names `BENCHMARK.json` promises for a trace mode.
fn manifest_names(manifest: &Json, trace: bool) -> Vec<String> {
    let key = if trace { "per_layer" } else { "end_to_end" };
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from))
        .collect()
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run one workload in a child process, echoing its output. Returns the
/// child's result and meta objects and whether every op was correct.
fn run_child(
    args: &Args,
    kind: Kind,
    trace: bool,
    trace_out: &Path,
    manifest: &Json,
) -> Result<(Json, Json, bool), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // The traced binary is this one plus the counting allocator.
    let exe = if trace {
        me.with_file_name("sr-benchmark-traced")
    } else {
        me.with_file_name("sr-benchmark")
    };
    let mut cmd = Command::new(&exe);
    cmd.args(["--child", "--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    if trace {
        cmd.arg("--trace-out").arg(trace_out);
    }
    let mut process = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = process.stdout.take().expect("stdout is piped");
    let (mut result, mut meta) = (None, Json::Null);
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        println!("{line}");
        if let Some(m) = line.strip_prefix("meta ") {
            meta = Json::parse(m).map_err(|e| format!("child meta line: {e}"))?;
        } else if line.starts_with('{') {
            result = Some(Json::parse(&line).map_err(|e| format!("child result line: {e}"))?);
        }
    }
    let status = process
        .wait()
        .map_err(|e| format!("wait for {}: {e}", kind.name()))?;
    let result = result.ok_or_else(|| format!("{} printed no result ({status})", kind.name()))?;
    let correct = status.success() && result.get("correct") == Some(&Json::Bool(true));

    let printed: Vec<String> = match result.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    if printed != manifest_names(manifest, trace) {
        return Err(format!(
            "{}: the metrics printed differ from those BENCHMARK.json names for --trace {}",
            kind.name(),
            u8::from(trace)
        ));
    }
    Ok((result, meta, correct))
}

/// Run the selected workloads `--repeat` times, file each pass as a set,
/// and compare consecutive sets.
fn drive(args: &Args) -> Result<bool, String> {
    let manifest = read_json(Path::new("BENCHMARK.json"))?;
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("create {RESULTS_DIR}: {e}"))?;
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    // One pass measures the mode asked for; a repeat check needs both.
    let modes: &[bool] = if args.repeat > 1 {
        &[false, true]
    } else if args.trace {
        &[true]
    } else {
        &[false]
    };
    let stamp = format!(
        "{}-{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        std::process::id()
    );
    let mut all_correct = true;
    let mut sets: Vec<PathBuf> = Vec::new();
    for pass in 1..=args.repeat {
        let set = format!(
            "set-{stamp}{}-{pass}",
            if args.quick { "-quick" } else { "" }
        );
        let mut runs = Vec::new();
        for &kind in &kinds {
            for &trace in modes {
                let trace_out =
                    Path::new(RESULTS_DIR).join(format!("{set}.{}.trace.json", kind.name()));
                let (result, meta, correct) = run_child(args, kind, trace, &trace_out, &manifest)?;
                all_correct &= correct;
                runs.push(Json::obj(vec![
                    ("workload", Json::Str(kind.name().into())),
                    ("trace", Json::UInt(u64::from(trace))),
                    ("result", result),
                    ("meta", meta),
                ]));
            }
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = Json::obj(vec![
            ("set", Json::Str(set.clone())),
            (
                "commit",
                Json::Str(command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("rustc", Json::Str(command_line("rustc", &["--version"]))),
            ("nproc", Json::UInt(nproc as u64)),
            ("seed", Json::UInt(args.seed)),
            ("seconds", Json::UInt(args.seconds())),
            ("quick", Json::Bool(args.quick)),
            ("runs", Json::Arr(runs)),
        ]);
        let path = Path::new(RESULTS_DIR).join(format!("{set}.json"));
        std::fs::write(&path, doc.render_pretty() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("result set written to {}", path.display());
        sets.push(path);
    }
    let mut repeats = true;
    for pair in sets.windows(2) {
        repeats &= compare_files(&pair[0], &pair[1])?;
    }
    Ok(all_correct && repeats)
}

// -------------------------------------------------------------- compare --

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key).unwrap_or(&Json::Null)
}

fn runs(set: &Json) -> &[Json] {
    set.get("runs").and_then(Json::as_arr).unwrap_or(&[])
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compare two result sets of the same code: every end-to-end metric must
/// agree within its own bound from `BENCHMARK.json`, and the exact layer
/// counts must be identical. Sets measured under different conditions are
/// refused. `Ok(false)` when something did not repeat.
fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let manifest = read_json(Path::new("BENCHMARK.json"))?;
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for key in ["nproc", "seed", "seconds", "quick"] {
        if field(&a, key) != field(&b, key) {
            return Err(format!(
                "refusing to compare {} with {}: {key} differs ({} vs {})",
                a_path.display(),
                b_path.display(),
                field(&a, key).render(),
                field(&b, key).render()
            ));
        }
    }
    println!(
        "repeatability: {} vs {}",
        a_path.display(),
        b_path.display()
    );
    let mut all_ok = true;
    for ra in runs(&a) {
        let same = |rb: &&Json| {
            field(rb, "workload") == field(ra, "workload")
                && field(rb, "trace") == field(ra, "trace")
        };
        let Some(rb) = runs(&b).iter().find(same) else {
            continue;
        };
        let workload = field(ra, "workload").as_str().unwrap_or("?");
        if field(ra, "trace").as_f64() == Some(1.0) {
            for name in EXACT_COUNTS {
                let (x, y) = (metric_value(ra, name), metric_value(rb, name));
                let ok = x.is_some() && x == y;
                all_ok &= ok;
                println!(
                    "  {workload:<26} {name:<28} {:>14} {:>14}  {}",
                    x.unwrap_or(f64::NAN),
                    y.unwrap_or(f64::NAN),
                    if ok { "identical" } else { "DIFFERS" }
                );
            }
            continue;
        }
        for m in manifest
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(x), Some(y)) = (metric_value(ra, name), metric_value(rb, name)) else {
                return Err(format!("{workload}: a set lacks {name}"));
            };
            let diff = if x != 0.0 {
                (y - x).abs() / x.abs()
            } else {
                f64::INFINITY
            };
            let ok = diff <= bound;
            all_ok &= ok;
            println!(
                "  {workload:<26} {name:<14} {x:>12.4} {y:>12.4}  diff {:>6.2} %  bound {:>4.0} %  {}",
                diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "unresolved" }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_contract_flags_parse() {
        let a = parse_args(&argv(
            "--workload serve_mixed --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Kind::ServeMixed));
        assert_eq!((a.seed, a.seconds(), a.trace), (7, 12, true));
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds(), d.trace, d.repeat),
            (DEFAULT_SEED, DEFAULT_SECONDS, false, 1)
        );
        assert_eq!(parse_args(&argv("--quick")).unwrap().seconds(), 2);
        assert_eq!(parse_args(&argv("--seed 0x10 --traced")).unwrap().seed, 16);
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
