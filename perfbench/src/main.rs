//! The shapex benchmark: three workloads driven through the public service
//! API, every verdict checked, every end-to-end metric printed by name and
//! unit, and a traced mode that prints the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_audit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it stamp
//! the host and build, and give the run's verdict digest. An untraced run
//! of stream_revalidate measures in five fresh processes of this program
//! and reports each metric's median over them. The process exits with 1 when a verdict is
//! wrong or uncertified, a request fails, or the digest differs between the
//! processes or from an earlier run of the same program and seed; with 2
//! on bad arguments. See `perfbench/README.md`.

mod bounded_service;
mod cold_audit;
mod common;
mod replay;
mod stream_revalidate;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Args, Fnv, Outcome, Spans};

/// An independent, reproducible seed for input stream `stream` of a run.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark's directory, where results of earlier runs are kept.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn results_dir() -> PathBuf {
    bench_dir().join("results")
}

/// Write a traced run's spans next to its digests.
pub fn write_trace(args: &Args, spans: &Spans) {
    let dir = results_dir();
    let path = dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    if let Err(error) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_tsv()))
    {
        eprintln!("perfbench: cannot write {}: {error}", path.display());
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--child" => child = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// A digest of the library's and the benchmark's source files, so that
/// verdict digests are only ever compared between runs of the same program
/// on the same inputs.
fn source_digest() -> u64 {
    let root = bench_dir().join("..");
    let mut files = vec![bench_dir().join("Cargo.toml")];
    let mut stack = vec![
        root.join("src"),
        root.join("crates"),
        bench_dir().join("src"),
    ];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = Fnv::default();
    for path in files {
        h.str(&path.strip_prefix(&root).unwrap_or(&path).to_string_lossy());
        h.bytes(&std::fs::read(&path).unwrap_or_default());
    }
    h.0
}

/// The commit the checkout is at, when it is a git checkout.
fn git_commit() -> String {
    let git = bench_dir().join("..").join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|c| c.trim().to_owned())
            .unwrap_or_else(|_| format!("unresolved {reference}")),
        None => head.to_owned(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Compare this run's verdict digest with the last run of the same
/// program, workload and seed, then record it. Verdicts are deterministic,
/// so any difference is a bug.
fn check_digest(args: &Args, source: u64, digest: u64) -> Result<(), String> {
    let dir = results_dir().join("digests");
    let path = dir.join(format!(
        "{}-seed{}-src{source:016x}",
        args.workload, args.seed
    ));
    let current = format!("{digest:016x}");
    if let Ok(previous) = std::fs::read_to_string(&path) {
        if previous.trim() != current {
            return Err(format!(
                "verdict digest {current} differs from {} recorded by an earlier run with the same seed",
                previous.trim()
            ));
        }
        return Ok(());
    }
    let staged = dir.join(format!(".{}-{}", args.workload, std::process::id()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&staged, &current))
        .and_then(|()| std::fs::rename(&staged, &path));
    if let Err(error) = written {
        eprintln!(
            "perfbench: cannot record digest at {}: {error}",
            path.display()
        );
    }
    Ok(())
}

const WORKLOADS: [&str; 3] = ["cold_audit", "bounded_service", "stream_revalidate"];

/// Measuring processes of an untraced run of `workload`. This host's speed
/// on the same graph-heavy work differs by 20% and more from one process to
/// the next (see README.md), so stream_revalidate splits its time over five
/// fresh processes and reports each metric's median over them. The other
/// workloads measure in one process: bounded_service needs its warm,
/// evicting steady state, which a short process spends mostly reaching.
fn processes(workload: &str) -> usize {
    if workload == "stream_revalidate" {
        5
    } else {
        1
    }
}

fn run_workload(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "cold_audit" => cold_audit::run(args),
        "bounded_service" => bounded_service::run(args),
        _ => stream_revalidate::run(args),
    }
}

/// One measuring process: run the workload and report to the parent on
/// one `#child` line of standard output.
fn run_child(args: &Args) -> ExitCode {
    let outcome = run_workload(args);
    for line in &outcome.details {
        println!("# {line}");
    }
    for example in &outcome.failures.examples {
        eprintln!("perfbench: FAILED: {example}");
    }
    let mut line = format!(
        "#child {:016x} {} {}",
        outcome.digest, outcome.attempted, outcome.failures.count
    );
    for m in &outcome.metrics {
        let _ = write!(line, " {}={:?};{}", m.name, m.value, m.unit);
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Run `count` measuring processes one after another, each for an equal
/// share of the time, and fold their reports: every metric is the median
/// over the processes, counts are summed, and all must agree on the
/// verdict digest.
fn run_children(args: &Args, count: usize) -> Outcome {
    let mut out = Outcome::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            out.failures
                .miss(format!("cannot find this program to rerun it: {error}"));
            return out;
        }
    };
    let seconds = args.seconds / count as f64;
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut digests = Vec::new();
    for i in 0..count {
        let output = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                "0",
                "--child",
                "1",
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(error) => {
                out.failures
                    .miss(format!("process {i} did not start: {error}"));
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let report = stdout.lines().find_map(|l| l.strip_prefix("#child "));
        let (true, Some(report)) = (output.status.success(), report) else {
            out.failures
                .miss(format!("process {i} failed: {}", output.status));
            continue;
        };
        for line in stdout.lines().filter_map(|l| l.strip_prefix("# ")) {
            out.details.push(format!("process {i}: {line}"));
        }
        let mut fields = report.split_whitespace();
        let mut next = || fields.next().unwrap_or_default();
        digests.push(next().to_owned());
        out.attempted += next().parse::<u64>().unwrap_or(0);
        let failed = next().parse::<u64>().unwrap_or(1);
        for _ in 0..failed {
            out.failures
                .miss(format!("process {i} found a wrong or failed answer"));
        }
        for field in fields {
            let Some((name, rest)) = field.split_once('=') else {
                continue;
            };
            let Some((value, unit)) = rest.split_once(';') else {
                continue;
            };
            let value = value.parse::<f64>().unwrap_or(f64::NAN);
            match values.iter_mut().find(|(n, ..)| n == name) {
                Some((.., v)) => v.push(value),
                None => values.push((name.to_owned(), unit.to_owned(), vec![value])),
            }
        }
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        out.failures
            .miss("measuring processes of one seed disagree on a verdict");
    }
    out.digest = digests
        .first()
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .unwrap_or(0);
    for (name, unit, v) in values {
        out.push(&name, common::median(&v), &unit);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <cold_audit|bounded_service|stream_revalidate> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    }
    if args.child {
        return run_child(&args);
    }
    let source = source_digest();
    let solver_threads = std::env::var("SOLVER_THREADS").unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"profile\": {}, \"rustc\": {}, \"git_commit\": {}, \"source_digest\": \"{source:016x}\", \
         \"solver_threads\": {}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_string(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_string(&rustc_version()),
        json_string(&git_commit()),
        json_string(&solver_threads),
    );

    let count = processes(&args.workload);
    let mut outcome = if args.trace || count == 1 {
        run_workload(&args)
    } else {
        run_children(&args, count)
    };
    if let Err(message) = check_digest(&args, source, outcome.digest) {
        outcome.failures.miss(message);
    }
    for line in &outcome.details {
        println!("# {line}");
    }
    println!(
        "# verdict_digest: {} seed={} {:016x}",
        args.workload, args.seed, outcome.digest
    );
    for example in &outcome.failures.examples {
        eprintln!("perfbench: FAILED: {example}");
    }

    let correct = outcome.failures.count == 0;
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_string(&m.name),
            json_string(&m.unit)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failures.count
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
