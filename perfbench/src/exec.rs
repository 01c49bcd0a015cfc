//! `exec OUTPUT -- PROGRAM [ARG]...`: runs one command with its stdout
//! and stderr in OUTPUT and prints `{"code", "wall_s", "rss_kb"}` for
//! that process alone.
//!
//! The measured commands are launched from here rather than from
//! `run.py` because a child's peak RSS counts the memory of the process
//! it was forked from: Linux carries the parent's high-water mark
//! across `fork` and `exec`. This launcher stays a few MB, so the figure
//! is the command's own; `wait4` gives it per child, where
//! `getrusage(RUSAGE_CHILDREN)` would give the maximum over all of them.

use crate::json_object;
use std::fs::File;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

fn seconds(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

/// One finished child: exit code (128 + signal when killed), wall
/// seconds from spawn to reap, peak RSS in KiB, user + system seconds.
pub struct Finished {
    pub code: i32,
    pub wall_s: f64,
    pub rss_kb: i64,
    pub cpu_s: f64,
}

/// Runs `argv` with stdout and stderr in `output` and reaps it with
/// `wait4`, so the usage figures are that child's alone.
pub fn run_child(argv: &[String], output: &Path) -> std::io::Result<Finished> {
    let out = File::create(output)?;
    let err = out.try_clone()?;
    let start = Instant::now();
    let child = Command::new(&argv[0])
        .args(&argv[1..])
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()?;
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types wait4(2) fills (`int` and `struct rusage`, whose 64-bit
        // Linux layout `RUsage` reproduces), and `pid` is our own
        // unreaped child, so the call reaps exactly it.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Finished {
        code,
        wall_s,
        rss_kb: usage.maxrss,
        cpu_s: seconds(usage.utime) + seconds(usage.stime),
    })
}

pub fn main(args: &[String]) -> ExitCode {
    let (output, argv) = match args {
        [output, dash, program, ..] if dash == "--" && !program.is_empty() => (output, &args[2..]),
        _ => {
            eprintln!("usage: ppa-perfbench exec OUTPUT -- PROGRAM [ARG]...");
            return ExitCode::from(64);
        }
    };
    match run_child(argv, Path::new(output)) {
        Ok(f) => {
            println!(
                "{}",
                json_object(&[
                    ("code".into(), f.code.to_string()),
                    ("wall_s".into(), format!("{:.9}", f.wall_s)),
                    ("rss_kb".into(), f.rss_kb.to_string()),
                ])
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ppa-perfbench exec: {}: {e}", argv[0]);
            ExitCode::from(1)
        }
    }
}
