//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints a stamped header (host, revision, every
//! timing with its sample count and spread) and, as the last line, one
//! JSON object with the correctness verdict and the metrics: the
//! end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. A traced run also writes its spans to
//! `perfbench/out/<workload>-seed<n>.{chrome.json,spans.jsonl}`.

use emx_perfbench::{peak_rss_mb, per_layer_names, run_workload, Ctx, END_TO_END, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Output of `cmd args`, trimmed, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Only a checkout with its own .git has a revision to stamp; a
    // plain source tree stamps `unknown` without asking git to search
    // the directories above it.
    let git = if Path::new(".git").exists() {
        emx_obs::git_describe_string()
    } else {
        "unknown".into()
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# git {git} | cores {cores} | cpu {} | {}",
        cpu_model(),
        command_line("rustc", &["--version"])
    );

    let ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let mut out = run_workload(&args.workload, &ctx).expect("workload validated by parse");
    out.set("peak_rss_mb", peak_rss_mb());

    for note in &out.notes {
        println!("# {note}");
    }
    for t in &out.timings {
        println!("# timing {}", t.summary());
        if t.values.len() <= 64 {
            println!("#   samples (ms): {}", t.samples());
        }
    }
    if args.trace {
        println!("# self time per arm and span (s, summed over traced samples):");
        for ((arm, name), (n, secs)) in ctx.tracer.self_times() {
            println!("#   {arm:<18} {name:<20} n={n:<6} self={secs:.6}");
        }
        let dir = Path::new("perfbench/out");
        let stem = dir.join(format!("{}-seed{}", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| {
                std::fs::write(
                    stem.with_extension("chrome.json"),
                    ctx.tracer.chrome(&args.workload).to_json_string(),
                )
            })
            .and_then(|_| {
                std::fs::write(stem.with_extension("spans.jsonl"), ctx.tracer.spans_jsonl())
            });
        match written {
            Ok(()) => println!(
                "# spans written to {}.{{chrome.json,spans.jsonl}}",
                stem.display()
            ),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
    }
    let names: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        // A layer the workload does not call reports 0; an end-to-end
        // metric is always measured.
        let value = match out.values.get(&name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("workload did not measure {name}"),
        };
        if !value.is_finite() {
            out.check(false, || format!("{name} is {value}"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("# metric {name:<36} {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for f in &out.failures {
        println!("# FAILED {f}");
    }
    println!(
        "# failed_frac {} ({} of {} checked operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
