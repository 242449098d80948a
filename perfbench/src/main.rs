//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a context line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed`, and `metrics` (each `{value, unit}`).
//! Exits 1 if any output check failed, 2 on bad arguments. The traced run
//! also writes its spans to `$CARGO_TARGET_DIR/perfbench/` (default
//! `target/perfbench/`).

use std::fmt::Write as _;
use std::process::ExitCode;

use incmr_perfbench::{run, Options, Sizes, Workload, THREADS};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "error: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return usage("--trace takes 0 or 1"),
                }
            }
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::standard(),
    };
    let out = run(&opts);

    if let Some(spans) = &out.spans_jsonl {
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
        )
        .join("perfbench");
        let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    for f in &out.failures {
        eprintln!("FAILED CHECK: {f}");
    }
    println!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"data_plane_threads\": {THREADS}, \
         \"available_parallelism\": {cores}, \"build_profile\": {}, \"git_rev\": {}, \
         \"timed_ops\": {}, \"setups\": {}, \"host_factor\": {}, \"sim_jobs\": {}, \
         \"sim_sampling_jobs\": {}, \"sim_digest\": \"{:016x}\"}}}}",
        json_str(workload.name()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        json_str(&git_rev()),
        out.samples.0,
        out.samples.1,
        out.host_factor
            .map_or("null".to_string(), |f| f.to_string()),
        out.sim.jobs,
        out.sim.sampling_response_s.len(),
        out.sim.digest,
    );
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        assert!(
            m.value.is_finite(),
            "metric {} is not finite: {}",
            m.name,
            m.value
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        );
    }
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {} operations failed", out.failed, out.attempted);
        ExitCode::from(1)
    }
}
