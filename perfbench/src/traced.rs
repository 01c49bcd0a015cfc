//! The traced run: the pipelines behind the measured commands, rebuilt
//! in this process from the layers' public APIs, with each layer call
//! timed once per chunk of events, never per event (per-event timers
//! would perturb what they measure). Spans stay in memory as per-round
//! sums and are printed at the end as medians over rounds.
//!
//! Legs, each mirroring one command of the untraced run:
//! - stream: `ppa analyze --stream --format bin` (decode → reorder →
//!   expand → analyze → encode), plus the same pipeline untimed for
//!   `pipeline.trace_overhead`;
//! - checkpointed: `ppa analyze --stream --checkpoint` (JSONL report);
//! - batch: `ppa analyze` (read all → analyze → encode);
//! - check: `ppa check` on the stream leg's report;
//! - slice: `ppa slice` with the untraced run's query;
//! - serve: `ppa send` → `ppa serve` over a unix socket;
//! - cli: the real `ppa analyze --stream --format bin` process, for its
//!   user + system time.

use crate::verify::{read_report, Expected};
use crate::workload::{self, Input, CHECKPOINT_EVERY};
use crate::{json_object, json_str, Args};
use ppa::analysis::{
    event_based, CheckpointParts, DeltaCheckpointWriter, EventBasedAnalyzer, RepeatExpander,
    SinkState, StreamOutput, DEFAULT_COMPACT_EVERY,
};
use ppa::check::{ReportChecker, TraceLinter};
use ppa::prelude::*;
use ppa::server::protocol::{
    decode_error, encode_hello, read_frame, write_frame, FT_DATA, FT_DONE, FT_ERROR, FT_FIN,
    FT_HELLO, FT_OK,
};
use ppa::server::{ServeConfig, Server, DEFAULT_FRAME_BYTES};
use ppa::slice::{slice_stream, SliceOptions, SliceProbes, SliceSpec};
use ppa::trace::{
    read_trace_parallel, write_trace, AnyTraceReader, AnyTraceWriter, ReorderBuffer, TraceFormat,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Events per timed chunk: the CLI's span granularity, and a divisor of
/// the checkpoint cadence, so chunk ends fall exactly on the events
/// after which the CLI checkpoints.
const CHUNK: usize = 4096;
const TENANT: &str = "bench";
/// The processor-subset query of the slice leg (as `ppa slice --procs 0..3`).
pub const SLICE_QUERY: &str = "procs=0..3";

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// The CLI's default decode-worker count: one per core.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refills `chunk` with up to `CHUNK` decoded events; it is left empty
/// at the end of the input.
fn fill<R: Read>(reader: &mut AnyTraceReader<R>, chunk: &mut Vec<Event>) -> Res<()> {
    chunk.clear();
    while chunk.len() < CHUNK {
        match reader.next() {
            Some(item) => chunk.push(item.map_err(err("decode"))?),
            None => break,
        }
    }
    Ok(())
}

/// One round's raw sums over the workload's inputs: stage nanoseconds,
/// counts and bytes, keyed by name.
#[derive(Default)]
struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }
    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_insert(0.0);
        *e = e.max(v);
    }
    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// What the analyze sink counts, as the CLI's report sink does.
#[derive(Default)]
struct SinkCounts {
    events: u64,
    awaits: u64,
    barriers: u64,
    episodes: u64,
    last_time: Time,
}

impl SinkCounts {
    fn take<W: std::io::Write>(&mut self, o: StreamOutput, w: &mut AnyTraceWriter<W>) -> Res<()> {
        match o {
            StreamOutput::Event(e) => {
                self.last_time = self.last_time.max(e.time);
                self.events += 1;
                w.write_event(&e).map_err(err("report"))?;
            }
            StreamOutput::Await { .. } => self.awaits += 1,
            StreamOutput::Barrier { .. } => self.barriers += 1,
            StreamOutput::Episode { .. } => self.episodes += 1,
        }
        Ok(())
    }
}

/// Stage times of one streaming pipeline run.
#[derive(Default)]
struct Stages {
    decode: f64,
    reorder: f64,
    expand: f64,
    analyze: f64,
    encode: f64,
    checkpoint: f64,
    checkpoints: u64,
    wall: f64,
    resorted: u64,
    records: u64,
    expanded: u64,
    peak_resident: usize,
}

/// `ppa analyze --stream`, chunk-timed. `ckpt` adds the default-cadence
/// checkpoint chain (the report is then JSONL, as the CLI requires).
fn stream_traced(
    src: &Path,
    out: &Path,
    format: TraceFormat,
    window: Option<u64>,
    ckpt: Option<&Path>,
) -> Res<Stages> {
    let began = Instant::now();
    let mut st = Stages::default();
    let mut t = began;
    let mut lap = |acc: &mut f64| {
        let now = Instant::now();
        *acc += ns(now - t);
        t = now;
    };
    // Opening the reader starts its decode workers; creating the writer
    // emits the report header. Each counts to its layer.
    let file = File::open(src).map_err(err("input"))?;
    let mut reader = AnyTraceReader::open_parallel(BufReader::new(file), default_workers())
        .map_err(err("input"))?;
    let announced = reader.expected_events();
    lap(&mut st.decode);
    let out_file = File::create(out).map_err(err("report"))?;
    let mut writer = AnyTraceWriter::new(
        BufWriter::new(out_file),
        format,
        TraceKind::Approximated,
        announced,
    )
    .map_err(err("report"))?;
    lap(&mut st.encode);
    let mut analyzer = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
    let mut reorder = window.map(ReorderBuffer::new);
    let mut expander = RepeatExpander::new();
    let mut ckpt_writer = ckpt.map(|p| DeltaCheckpointWriter::new(p, DEFAULT_COMPACT_EVERY));
    let mut sink = SinkCounts::default();
    let (mut chunk, mut ordered, mut expanded, mut outputs) = (
        Vec::with_capacity(CHUNK),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut pushed, mut since) = (0u64, 0u64);
    lap(&mut st.analyze);
    // Analyzes and encodes the expanded events gathered so far, charging
    // the time since the last lap to expansion. Called whenever a chunk's
    // worth has gathered, so a repeat record that stands for thousands
    // of events is analyzed in chunks too.
    macro_rules! analyze_expanded {
        () => {
            lap(&mut st.expand);
            for e in expanded.drain(..) {
                analyzer.push(e).map_err(err("analyze"))?;
                while let Some(o) = analyzer.next_output() {
                    outputs.push(o);
                }
            }
            lap(&mut st.analyze);
            for o in outputs.drain(..) {
                sink.take(o, &mut writer)?;
            }
            lap(&mut st.encode);
        };
    }
    loop {
        fill(&mut reader, &mut chunk)?;
        lap(&mut st.decode);
        if chunk.is_empty() {
            break;
        }
        let n = chunk.len() as u64;
        match &mut reorder {
            Some(buf) => {
                for e in chunk.drain(..) {
                    buf.push(e);
                    while let Some(r) = buf.pop_ready() {
                        ordered.push(r);
                    }
                }
            }
            None => ordered.append(&mut chunk),
        }
        lap(&mut st.reorder);
        for e in ordered.drain(..) {
            expander.push(e, &mut expanded).map_err(err("expand"))?;
            if expanded.len() >= CHUNK {
                analyze_expanded!();
            }
        }
        analyze_expanded!();
        pushed += n;
        since += n;
        if let Some(w) = &mut ckpt_writer {
            if since >= CHECKPOINT_EVERY {
                since = 0;
                writer.flush().map_err(err("report"))?;
                let bytes_flushed = std::fs::metadata(out).map_err(err("report"))?.len();
                let parts = CheckpointParts {
                    positions_seen: pushed,
                    gaps: &[],
                    events_lost: 0,
                    reorder: reorder.as_ref().map(|b| b.snapshot()),
                    sink: SinkState {
                        bytes_flushed,
                        events: sink.events,
                        awaits: sink.awaits,
                        barriers: sink.barriers,
                        episodes: sink.episodes,
                        last_time: sink.last_time,
                    },
                };
                w.checkpoint(&mut analyzer, parts)
                    .map_err(err("checkpoint"))?;
                st.checkpoints += 1;
            }
        }
        lap(&mut st.checkpoint);
    }
    if let Some(buf) = &mut reorder {
        while let Some(e) = buf.pop_flush() {
            ordered.push(e);
        }
        st.resorted += buf.reordered();
        if buf.rejected() > 0 {
            return Err(format!(
                "reorder buffer rejected {} event(s)",
                buf.rejected()
            ));
        }
    }
    lap(&mut st.reorder);
    for e in ordered.drain(..) {
        expander.push(e, &mut expanded).map_err(err("expand"))?;
        if expanded.len() >= CHUNK {
            analyze_expanded!();
        }
    }
    expander.finish(&mut expanded);
    st.records = expander.records();
    st.expanded = expander.expanded();
    analyze_expanded!();
    let tail = analyzer.finish().map_err(err("analyze"))?;
    st.peak_resident = tail.stats.peak_resident;
    outputs.extend(tail.outputs);
    lap(&mut st.analyze);
    for o in outputs.drain(..) {
        sink.take(o, &mut writer)?;
    }
    let mut inner = writer.finish().map_err(err("report"))?;
    std::io::Write::flush(&mut inner).map_err(err("report"))?;
    drop(inner);
    lap(&mut st.encode);
    st.wall = ns(began.elapsed());
    Ok(st)
}

/// The same pipeline without timers, one event at a time as the CLI's
/// loop runs it: the base of `pipeline.trace_overhead`. Returns wall ns.
fn stream_untraced(src: &Path, out: &Path, window: Option<u64>) -> Res<f64> {
    let began = Instant::now();
    let file = File::open(src).map_err(err("input"))?;
    let reader = AnyTraceReader::open_parallel(BufReader::new(file), default_workers())
        .map_err(err("input"))?;
    let announced = reader.expected_events();
    let out_file = File::create(out).map_err(err("report"))?;
    let mut writer = AnyTraceWriter::new(
        BufWriter::new(out_file),
        TraceFormat::Binary,
        TraceKind::Approximated,
        announced,
    )
    .map_err(err("report"))?;
    let mut analyzer = EventBasedAnalyzer::new(&OverheadSpec::alliant_default());
    let mut reorder = window.map(ReorderBuffer::new);
    let mut expander = RepeatExpander::new();
    let mut sink = SinkCounts::default();
    let mut scratch = Vec::new();
    let mut feed = |e: Event, sink: &mut SinkCounts, w: &mut AnyTraceWriter<_>| -> Res<()> {
        scratch.clear();
        expander.push(e, &mut scratch).map_err(err("expand"))?;
        for ev in scratch.drain(..) {
            analyzer.push(ev).map_err(err("analyze"))?;
            while let Some(o) = analyzer.next_output() {
                sink.take(o, w)?;
            }
        }
        Ok(())
    };
    for item in reader {
        let e = item.map_err(err("decode"))?;
        match &mut reorder {
            Some(buf) => {
                buf.push(e);
                while let Some(r) = buf.pop_ready() {
                    feed(r, &mut sink, &mut writer)?;
                }
            }
            None => feed(e, &mut sink, &mut writer)?,
        }
    }
    if let Some(buf) = &mut reorder {
        while let Some(r) = buf.pop_flush() {
            feed(r, &mut sink, &mut writer)?;
        }
    }
    let mut rest = Vec::new();
    expander.finish(&mut rest);
    for ev in rest {
        analyzer.push(ev).map_err(err("analyze"))?;
        while let Some(o) = analyzer.next_output() {
            sink.take(o, &mut writer)?;
        }
    }
    for o in analyzer.finish().map_err(err("analyze"))?.outputs {
        sink.take(o, &mut writer)?;
    }
    let mut inner = writer.finish().map_err(err("report"))?;
    std::io::Write::flush(&mut inner).map_err(err("report"))?;
    Ok(ns(began.elapsed()))
}

/// `ppa analyze` without `--stream`: (read-all ns, analyze ns).
fn batch(src: &Path, out: &Path) -> Res<(f64, f64)> {
    let t0 = Instant::now();
    let file = File::open(src).map_err(err("input"))?;
    let measured =
        read_trace_parallel(BufReader::new(file), default_workers()).map_err(err("read"))?;
    let t1 = Instant::now();
    let result = event_based(&measured, &OverheadSpec::alliant_default()).map_err(err("batch"))?;
    let t2 = Instant::now();
    let out_file = File::create(out).map_err(err("report"))?;
    write_trace(&result.trace, BufWriter::new(out_file), TraceFormat::Binary)
        .map_err(err("report"))?;
    Ok((ns(t1 - t0), ns(t2 - t1)))
}

/// `ppa check` on a report: (lint ns, report-invariant ns); decode time
/// is left out of both.
fn check(report: &Path) -> Res<(f64, f64)> {
    let file = File::open(report).map_err(err("report"))?;
    let mut reader = AnyTraceReader::open(BufReader::new(file)).map_err(err("report"))?;
    let mut linter = TraceLinter::new();
    let mut checker = ReportChecker::new();
    let (mut lint, mut inv) = (0.0, 0.0);
    let mut chunk = Vec::with_capacity(CHUNK);
    loop {
        fill(&mut reader, &mut chunk)?;
        let t0 = Instant::now();
        for e in &chunk {
            linter.push(e);
        }
        let t1 = Instant::now();
        for e in &chunk {
            checker.push(e);
        }
        inv += ns(t1.elapsed());
        lint += ns(t1 - t0);
        if chunk.len() < CHUNK {
            break;
        }
    }
    let t0 = Instant::now();
    let mut found = linter.finish();
    let t1 = Instant::now();
    found.extend(checker.finish());
    inv += ns(t1.elapsed());
    lint += ns(t1 - t0);
    match found.first() {
        None => Ok((lint, inv)),
        Some(v) => Err(format!("{} violation(s), first: {v}", found.len())),
    }
}

/// `ppa slice`: the processor-subset query, or `--expand` on a
/// suppressed input. Returns wall ns of the slice engine call.
fn slice(src: &Path, out: &Path, expand: bool) -> Res<f64> {
    let file = File::open(src).map_err(err("input"))?;
    let mut reader = AnyTraceReader::open_parallel(BufReader::new(file), default_workers())
        .map_err(err("input"))?;
    let kind = reader.kind();
    let out_file = File::create(out).map_err(err("slice"))?;
    let mut writer = AnyTraceWriter::new(BufWriter::new(out_file), TraceFormat::Binary, kind, 0)
        .map_err(err("slice"))?;
    let t0 = Instant::now();
    if expand {
        let mut expander = RepeatExpander::new();
        let mut buf = Vec::new();
        for item in reader.by_ref() {
            buf.clear();
            expander
                .push(item.map_err(err("decode"))?, &mut buf)
                .map_err(err("expand"))?;
            for e in &buf {
                writer.write_event(e).map_err(err("slice"))?;
            }
        }
        buf.clear();
        expander.finish(&mut buf);
        for e in &buf {
            writer.write_event(e).map_err(err("slice"))?;
        }
    } else {
        let options = SliceOptions {
            spec: SliceSpec::parse(SLICE_QUERY).map_err(err("query"))?,
            suppress: false,
            use_skip_index: true,
        };
        slice_stream(&mut reader, &options, &SliceProbes::noop(), |e| {
            writer.write_event(e)
        })
        .map_err(err("slice"))?;
    }
    let mut inner = writer.finish().map_err(err("slice"))?;
    std::io::Write::flush(&mut inner).map_err(err("slice"))?;
    Ok(ns(t0.elapsed()))
}

/// A server refusal: (code, message).
type Refusal = (u16, String);

/// One `ppa send`-shaped upload: (connect → FIN sent ns, FIN → DONE ns),
/// or the server's typed refusal.
fn upload(sock: &Path, stream: &str, trace: &Path) -> Res<Result<(f64, f64), Refusal>> {
    let refusal = |f: &ppa::server::protocol::Frame| -> Res<Refusal> {
        decode_error(&f.payload).map_err(err("protocol"))
    };
    let t0 = Instant::now();
    let mut s = UnixStream::connect(sock).map_err(err("connect"))?;
    let hello = encode_hello(TENANT, stream).map_err(err("protocol"))?;
    write_frame(&mut s, FT_HELLO, &hello).map_err(err("send"))?;
    let ok = read_frame(&mut s).map_err(err("recv"))?;
    match ok.ty {
        FT_OK => {}
        FT_ERROR => return Ok(Err(refusal(&ok)?)),
        ty => return Err(format!("expected OK, got frame {ty:#04x}")),
    }
    let mut file = File::open(trace).map_err(err("upload"))?;
    let mut buf = vec![0u8; DEFAULT_FRAME_BYTES];
    loop {
        let n = file.read(&mut buf).map_err(err("upload"))?;
        if n == 0 {
            break;
        }
        if write_frame(&mut s, FT_DATA, &buf[..n]).is_err() {
            // The server closed the session; its last frame says why.
            let f = read_frame(&mut s).map_err(err("recv"))?;
            return match f.ty {
                FT_ERROR => Ok(Err(refusal(&f)?)),
                ty => Err(format!("upload cut off, then frame {ty:#04x}")),
            };
        }
    }
    write_frame(&mut s, FT_FIN, &[]).map_err(err("send"))?;
    let t1 = Instant::now();
    let done = read_frame(&mut s).map_err(err("recv"))?;
    let t2 = Instant::now();
    match done.ty {
        FT_DONE => Ok(Ok((ns(t1 - t0), ns(t2 - t1)))),
        FT_ERROR => Ok(Err(refusal(&done)?)),
        ty => Err(format!("expected DONE, got frame {ty:#04x}")),
    }
}

/// A CRC of a file's bytes: later rounds' outputs must equal round 0's,
/// which are checked against the reference.
fn digest(path: &Path) -> Res<u32> {
    Ok(ppa::trace::crc32(
        &std::fs::read(path).map_err(err("digest"))?,
    ))
}

struct Run<'a> {
    dir: &'a Path,
    /// The `ppa` binary, for the cli leg.
    ppa: &'a Path,
    inputs: &'a [InputFile],
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Round-0 output digests by (input, output kind), and the files to
    /// check against the reference.
    digests: BTreeMap<(String, &'static str), u32>,
    to_verify: Vec<(String, PathBuf)>,
}

/// An input file on disk with what the traced run needs to know of it.
struct InputFile {
    name: String,
    path: PathBuf,
    events: f64,
    window: Option<u64>,
    suppressed: bool,
}

impl Run<'_> {
    /// Counts one operation; a failure is a problem of the run.
    fn op<T>(&mut self, what: &str, r: Res<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records an output for the checks: round 0 keeps a copy, later
    /// rounds must reproduce its bytes.
    fn output(&mut self, round: usize, name: &str, kind: &'static str, path: &Path) -> Res<()> {
        let d = digest(path)?;
        let key = (name.to_string(), kind);
        if round == 0 {
            let kept = self.dir.join(format!(
                "traced-kept-{}-{}",
                self.to_verify.len(),
                path.file_name().and_then(|f| f.to_str()).unwrap_or("out")
            ));
            std::fs::copy(path, &kept).map_err(err("keep"))?;
            self.digests.insert(key, d);
            self.to_verify.push((name.to_string(), kept));
        } else if self.digests.get(&key) != Some(&d) {
            self.problems.push(format!(
                "{}: round {round} output differs from round 0",
                path.display()
            ));
        }
        Ok(())
    }

    fn round(&mut self, round: usize, sock: &Path, ckdir: &Path, sums: &mut Sums) -> Res<()> {
        let inputs = self.inputs;
        for inp in inputs {
            let out = |tag: &str| self.dir.join(format!("{}.traced-{tag}", inp.name));
            let (bin, jsonl, ckpt) = (out("stream.bin"), out("ckpt.jsonl"), out("ckpt"));
            if let Some(st) = self.op(
                "stream",
                stream_traced(&inp.path, &bin, TraceFormat::Binary, inp.window, None),
            ) {
                sums.add("decode", st.decode);
                sums.add("reorder", st.reorder);
                sums.add("expand", st.expand);
                sums.add("analyze", st.analyze);
                sums.add("encode_bin", st.encode);
                sums.add("stream_wall", st.wall);
                sums.add("resorted", st.resorted as f64);
                sums.add("records", st.records as f64);
                sums.add("expanded", st.expanded as f64);
                sums.max("peak_resident", st.peak_resident as f64);
                sums.add(
                    "bin_bytes",
                    std::fs::metadata(&bin).map_err(err("report"))?.len() as f64,
                );
                self.output(round, &inp.name, "stream", &bin)?;
            }
            let plain = out("plain.bin");
            if let Some(wall) = self.op("untraced", stream_untraced(&inp.path, &plain, inp.window))
            {
                sums.add("untraced_wall", wall);
            }
            std::fs::remove_file(&ckpt).ok();
            if let Some(st) = self.op(
                "checkpointed",
                stream_traced(
                    &inp.path,
                    &jsonl,
                    TraceFormat::Jsonl,
                    inp.window,
                    Some(&ckpt),
                ),
            ) {
                sums.add("encode_jsonl", st.encode);
                sums.add("checkpoint", st.checkpoint);
                sums.add("checkpoints", st.checkpoints as f64);
                let bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
                sums.add("checkpoint_bytes", bytes as f64);
                sums.add(
                    "jsonl_bytes",
                    std::fs::metadata(&jsonl).map_err(err("report"))?.len() as f64,
                );
                self.output(round, &inp.name, "checkpointed", &jsonl)?;
            }
            let batch_out = out("batch.bin");
            if let Some((read, analyze)) = self.op("batch", batch(&inp.path, &batch_out)) {
                sums.add("read_all", read);
                sums.add("batch", analyze);
                self.output(round, &inp.name, "batch", &batch_out)?;
            }
            if let Some((lint, inv)) = self.op("check", check(&bin)) {
                sums.add("lint", lint);
                sums.add("report_check", inv);
            }
            let sliced = out("slice.bin");
            if let Some(wall) = self.op("slice", slice(&inp.path, &sliced, inp.suppressed)) {
                sums.add("slice", wall);
            }
            // As in the untraced run: a suppressed input is uploaded as
            // is (refused today) and as its expansion, which is timed.
            let (upload_src, stream) = if inp.suppressed {
                let stream = format!("{}-suppressed-r{round}", inp.name);
                self.attempted += 1;
                match upload(sock, &stream, &inp.path)? {
                    Ok(_) => {
                        let report = ckdir.join(TENANT).join(format!("{stream}.report.jsonl"));
                        self.output(round, &inp.name, "served-suppressed", &report)?;
                        std::fs::remove_file(&report).ok();
                    }
                    Err((code, message)) => {
                        self.failed += 1;
                        if code != 7 || !message.contains("repeat record") {
                            self.problems
                                .push(format!("suppressed upload refused: ({code}) {message}"));
                        }
                    }
                }
                (sliced.clone(), format!("{}-timed-r{round}", inp.name))
            } else {
                (inp.path.clone(), format!("{}-timed-r{round}", inp.name))
            };
            let sent = upload(sock, &stream, &upload_src)
                .and_then(|r| r.map_err(|(c, m)| format!("refused ({c}): {m}")));
            if let Some((up, drain)) = self.op("serve", sent) {
                sums.add("upload", up);
                sums.add("drain", drain);
                let report = ckdir.join(TENANT).join(format!("{stream}.report.jsonl"));
                self.output(round, &inp.name, "served", &report)?;
                std::fs::remove_file(&report).ok();
            }
            let mut argv: Vec<String> = vec![
                self.ppa.display().to_string(),
                "analyze".into(),
                inp.path.display().to_string(),
                "--stream".into(),
                "--format".into(),
                "bin".into(),
                "--out".into(),
                out("cli.bin").display().to_string(),
            ];
            if let Some(w) = inp.window {
                argv.extend(["--reorder-window".into(), w.to_string()]);
            }
            let cli = crate::exec::run_child(&argv, &out("cli.out"))
                .map_err(err("ppa analyze"))
                .and_then(|f| match f.code {
                    0 => Ok(f.cpu_s),
                    code => Err(format!("ppa analyze exited {code}")),
                });
            if let Some(cpu) = self.op("cli", cli) {
                sums.add("cli_cpu", cpu);
                self.output(round, &inp.name, "cli", &out("cli.bin"))?;
            }
        }
        Ok(())
    }
}

/// Per-round metric values from the round's sums.
fn metrics_of(s: &Sums, events: f64) -> Vec<(&'static str, f64, &'static str)> {
    let per = |k: &str| s.get(k) / events;
    let layer_sum = ["decode", "reorder", "expand", "analyze", "encode_bin"]
        .iter()
        .map(|k| s.get(k))
        .sum::<f64>();
    vec![
        ("trace.decode_ns_per_event", per("decode"), "ns/event"),
        ("trace.reorder_ns_per_event", per("reorder"), "ns/event"),
        ("trace.reorder_resorted_events", s.get("resorted"), "count"),
        ("core.expand_ns_per_event", per("expand"), "ns/event"),
        (
            "core.expand_events_per_record",
            if s.get("records") > 0.0 {
                s.get("expanded") / s.get("records")
            } else {
                0.0
            },
            "events/record",
        ),
        ("core.analyze_ns_per_event", per("analyze"), "ns/event"),
        (
            "core.analyze_peak_resident_events",
            s.get("peak_resident"),
            "count",
        ),
        ("trace.read_all_ns_per_event", per("read_all"), "ns/event"),
        ("core.batch_ns_per_event", per("batch"), "ns/event"),
        (
            "trace.encode_bin_ns_per_event",
            per("encode_bin"),
            "ns/event",
        ),
        (
            "trace.report_bin_bytes_per_event",
            per("bin_bytes"),
            "B/event",
        ),
        (
            "trace.encode_jsonl_ns_per_event",
            per("encode_jsonl"),
            "ns/event",
        ),
        (
            "trace.report_jsonl_bytes_per_event",
            per("jsonl_bytes"),
            "B/event",
        ),
        ("core.checkpoint_ms", s.get("checkpoint") / 1e6, "ms"),
        ("core.checkpoint_bytes", s.get("checkpoint_bytes"), "B"),
        ("core.checkpoints", s.get("checkpoints"), "count"),
        ("check.lint_ns_per_event", per("lint"), "ns/event"),
        ("check.report_ns_per_event", per("report_check"), "ns/event"),
        ("slice.engine_ns_per_event", per("slice"), "ns/event"),
        ("server.upload_s", s.get("upload") / 1e9, "s"),
        ("server.drain_s", s.get("drain") / 1e9, "s"),
        ("cli.analyze_cpu_s", s.get("cli_cpu"), "s"),
        (
            "pipeline.layer_sum_ratio",
            layer_sum / s.get("stream_wall"),
            "ratio",
        ),
        (
            "pipeline.trace_overhead",
            s.get("stream_wall") / s.get("untraced_wall"),
            "ratio",
        ),
    ]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn run(args: &Args) -> Res<String> {
    let (mut seconds, mut ppa) = (None, None);
    for (flag, value) in &args.rest {
        match flag.as_str() {
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(err("--seconds"))?),
            "--ppa" => ppa = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    let ppa = ppa.ok_or("--ppa is required")?;
    let (generated, _) = workload::generate(args.workload, args.scale, args.seed, true);
    let inputs: Vec<InputFile> = generated
        .iter()
        .map(|i: &Input| InputFile {
            name: i.name.clone(),
            path: args.dir.join(i.file_name()),
            events: i.measured.len() as f64,
            window: i.reorder_window,
            suppressed: i.physical.len() != i.measured.len(),
        })
        .collect();
    let events: f64 = inputs.iter().map(|i| i.events).sum();

    let ckdir = args.dir.join("traced-serve");
    let sock = args.dir.join("traced-serve.sock");
    let server = Server::bind(ServeConfig {
        listen: Vec::new(),
        unix_socket: Some(sock.clone()),
        checkpoint_dir: ckdir.clone(),
        reorder_window: inputs.iter().filter_map(|i| i.window).max(),
        checkpoint_every: CHECKPOINT_EVERY,
        overheads: OverheadSpec::alliant_default(),
        ..ServeConfig::default()
    })
    .map_err(err("serve"))?;
    let stop = server.shutdown_flag();
    let daemon = std::thread::spawn(move || server.run());

    let mut run = Run {
        dir: &args.dir,
        ppa: &ppa,
        inputs: &inputs,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        digests: BTreeMap::new(),
        to_verify: Vec::new(),
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut rounds: Vec<Sums> = Vec::new();
    let mut result = Ok(());
    while rounds.is_empty() || Instant::now() < deadline {
        let mut sums = Sums::default();
        result = run.round(rounds.len(), &sock, &ckdir, &mut sums);
        if result.is_err() {
            break;
        }
        rounds.push(sums);
    }
    stop.store(true, Ordering::SeqCst);
    let served = daemon
        .join()
        .map_err(|_| "serve thread panicked".to_string())?;
    result?;
    served.map_err(err("serve"))?;

    // Round 0's outputs against the reference.
    let mut expected: BTreeMap<String, Expected> = BTreeMap::new();
    for (name, path) in &run.to_verify {
        if !expected.contains_key(name) {
            let input = generated
                .iter()
                .find(|i| &i.name == name)
                .ok_or("unknown input")?;
            expected.insert(name.clone(), Expected::of(input)?);
        }
        let events = read_report(path.to_str().ok_or("path")?)?;
        if let Err(e) = expected[name].check(&events) {
            run.problems.push(format!("{}: {e}", path.display()));
        }
    }

    let mut per_metric: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut order = Vec::new();
    for r in &rounds {
        for (name, v, unit) in metrics_of(r, events) {
            let e = per_metric.entry(name).or_insert_with(|| {
                order.push(name);
                (Vec::new(), unit)
            });
            e.0.push(v);
        }
    }
    let metrics: Vec<(String, String)> = order
        .iter()
        .map(|name| {
            let (vals, unit) = per_metric.remove(name).expect("metric recorded");
            (
                name.to_string(),
                format!("[{}, {}]", median(vals), json_str(unit)),
            )
        })
        .collect();
    let problems: Vec<String> = run.problems.iter().map(|p| json_str(p)).collect();
    Ok(json_object(&[
        ("rounds".into(), rounds.len().to_string()),
        ("attempted".into(), run.attempted.to_string()),
        ("failed".into(), run.failed.to_string()),
        ("problems".into(), format!("[{}]", problems.join(", "))),
        ("metrics".into(), json_object(&metrics)),
    ]))
}
