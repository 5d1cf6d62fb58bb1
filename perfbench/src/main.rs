//! End-to-end workload benchmark for `dtc-core`'s dynamic forest.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <label_stream|cut_link_cycle|query_mix> \
//!     --seed <u64> --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! Run from the repository root. Prints a host fingerprint line, then, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. A traced run also writes its spans as JSON lines. Exits 1
//! when any answer was wrong, 2 on bad arguments or an unusable build.

mod bench;
mod oracle;
mod stats;
mod trace;
mod zoo;

use bench::{Config, Outcome, Workload};
use dtc_core::{MinMax, SubtreeSum};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <label_stream|cut_link_cycle|query_mix> \
                     --seed <u64> --seconds <s> --trace <0|1> [--trace-out <path>]";

struct Args {
    cfg: Config,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        cfg: Config {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        },
        trace_out,
    })
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the library's and the benchmark's sources, relative to the
/// working directory: identifies the code where no git metadata is.
fn source_digest() -> String {
    let mut files: Vec<PathBuf> = ["crates/core/src", "perfbench/src"]
        .iter()
        .filter_map(|d| std::fs::read_dir(d).ok())
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    if files.is_empty() {
        return "unknown".to_string();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for &byte in f
            .to_string_lossy()
            .as_bytes()
            .iter()
            .chain(&std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host fingerprint every result carries.
fn host_line(cfg: &Config) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"rustc\":{},\"features\":{},\"git_sha\":{},\"source_fnv64\":{},\
         \"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}}}",
        json_str(&command_line("rustc", &["-V"])),
        json_str("dtc-core default (serial engine)"),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&source_digest()),
        json_str(cfg.workload.name()),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
    )
}

fn result_line(out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.tally.attempted,
        out.tally.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The `check` feature turns every contraction into a validation run;
    // numbers measured with it are not comparable with any others.
    if dtc_core::check::enabled() {
        eprintln!("perfbench: dtc-core was built with the `check` feature; refusing to measure");
        return ExitCode::from(2);
    }
    let cfg = &args.cfg;
    let host = host_line(cfg);
    println!("{host}");

    let run = match cfg.workload {
        Workload::LabelStream | Workload::CutLinkCycle => bench::run(SubtreeSum, cfg),
        Workload::QueryMix => bench::run(MinMax, cfg),
    };
    let (out, line) = match run.and_then(|out| result_line(&out).map(|line| (out, line))) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    if cfg.trace {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
            dir.join(format!(
                "perfbench-trace-{}-{}.jsonl",
                cfg.workload.name(),
                cfg.seed
            ))
        });
        if let Err(e) = out.tracer.write_jsonl(&path, &host) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            out.tracer.spans().len(),
            path.display()
        );
    }
    eprintln!(
        "perfbench: {} {} steps, {} ops attempted, {} failed (failed_op_frac {})",
        cfg.workload.name(),
        out.steps,
        out.tally.attempted,
        out.tally.failed,
        out.tally.failed as f64 / out.tally.attempted.max(1) as f64
    );
    for m in &out.metrics {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{line}");
    ExitCode::from(out.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload query_mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.cfg.workload, Workload::QueryMix);
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 10.0, true));
        assert!(args("--workload query_mix --seed 7 --seconds 10").is_err());
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload query_mix --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let out = Outcome {
            tally: oracle::Tally {
                attempted: 10,
                failed: 0,
            },
            steps: 1,
            metrics: vec![bench::Metric {
                name: "step_p50_ms",
                value: 1.25,
                unit: "ms",
            }],
            tracer: trace::Tracer::new(),
        };
        assert_eq!(
            result_line(&out).unwrap(),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"step_p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
