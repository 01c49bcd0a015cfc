//! Helper binary of the end-to-end benchmark (`perfbench/run.py`).
//!
//! - `gen` writes a workload's seeded inputs and a manifest;
//! - `verify` checks reports against the in-process reference;
//! - `traced` runs the in-process pipeline with per-layer timing;
//! - `exec` runs one command and reports its own wall time and peak RSS.
//!
//! Each subcommand prints one JSON object as its last stdout line.

mod exec;
mod traced;
mod verify;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Scale, Workload};

/// Parsed common arguments: `--workload W --seed N --scale S --dir D`.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub scale: Scale,
    pub dir: PathBuf,
    /// Every other `--flag value` pair, in order.
    pub rest: Vec<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut scale = None;
    let mut dir = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--scale" => {
                scale = Some(Scale::parse(&value).ok_or_else(|| format!("unknown scale {value}"))?)
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => rest.push((flag.clone(), value)),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        scale: scale.ok_or("--scale is required")?,
        dir: dir.ok_or("--dir is required")?,
        rest,
    })
}

/// Formats `(name, value)` pairs as a flat JSON object.
pub fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal (the benchmark's strings need no escapes beyond
/// quotes and backslashes).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn gen(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.dir).map_err(|e| format!("{}: {e}", args.dir.display()))?;
    let (inputs, generate_s) = workload::generate(args.workload, args.scale, args.seed, false);
    let t = std::time::Instant::now();
    for input in &inputs {
        workload::write_input(&args.dir, input).map_err(|e| format!("{}: {e}", input.name))?;
    }
    let write_s = t.elapsed().as_secs_f64();
    let mut files = Vec::new();
    for input in &inputs {
        let (statements, joints) = workload::composition(input.measured.events());
        let bytes = std::fs::metadata(args.dir.join(input.file_name()))
            .map_err(|e| e.to_string())?
            .len();
        files.push(json_object(&[
            ("name".into(), json_str(&input.name)),
            ("file".into(), json_str(&input.file_name())),
            ("events".into(), input.measured.len().to_string()),
            ("physical".into(), input.physical.len().to_string()),
            (
                "logical".into(),
                workload::logical_events(&input.physical).to_string(),
            ),
            ("statements".into(), statements.to_string()),
            ("joints".into(), joints.to_string()),
            ("bytes".into(), bytes.to_string()),
            (
                "reorder_window".into(),
                input.reorder_window.unwrap_or(0).to_string(),
            ),
        ]));
    }
    Ok(json_object(&[
        ("inputs".into(), format!("[{}]", files.join(", "))),
        (
            "checkpoint_every".into(),
            workload::CHECKPOINT_EVERY.to_string(),
        ),
        ("generate_s".into(), format!("{generate_s:.6}")),
        ("write_s".into(), format!("{write_s:.6}")),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!(
            "usage: ppa-perfbench <gen|verify|traced> --workload W --seed N --scale S --dir D ...\n\
             \x20      ppa-perfbench exec OUTPUT -- PROGRAM [ARG]..."
        );
        return ExitCode::from(64);
    };
    if cmd == "exec" {
        return exec::main(rest);
    }
    let result = parse_args(rest).and_then(|args| match cmd.as_str() {
        "gen" => gen(&args),
        "verify" => verify::run(&args),
        "traced" => traced::run(&args),
        other => Err(format!("unknown subcommand {other}")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ppa-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
