#!/usr/bin/env python3
"""End-to-end benchmark of the shipped `ppa` commands.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lfk17-bin --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --smoke

It builds `ppa` and the benchmark helper from source, generates the
workload's seeded inputs (timed as `setup_s`), then repeats the
workload's commands in round-robin order for `--seconds` and reports the
median of each metric over the rounds. Every report is checked against
the in-process reference afterwards. With `--trace 1` it runs the
helper's traced in-process pipeline instead and prints the per-layer
table. `--smoke` uses reduced inputs and runs both modes, so the harness
and every check run in seconds. The last stdout line of a run is one
JSON object: `{"correct", "attempted", "failed", "metrics"}`.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lfk17-bin", "episodes-shuffled-bin", "lfk17-suppressed-bin")
# Set-up repetitions per run; `setup_s` is their median.
SETUP_REPEATS = 5
# `ppa check` and `ppa slice` runs per input per round. Both are short
# commands (~60 ms and ~20 ms on the Loop 17 input), so a round times
# several of each and no sample is dominated by process start-up.
CHECK_REPEATS = 3
SLICE_REPEATS = 6
TENANT = "bench"
# What `ppa serve` answers today for an upload of a suppressed trace:
# its session loop has no repeat-record expander.
SUPPRESSED_REJECTION = ("bad-trace (7)", "repeat record")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Bench:
    def __init__(self, args):
        self.args = args
        self.root = Path.cwd()
        self.here = Path(__file__).resolve().parent
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = (self.root / target).resolve()
        self.ppa = self.target / "release" / "ppa"
        self.helper = self.target / "release" / "ppa-perfbench"
        self.scale = "smoke" if args.smoke else "full"
        self.work = self.root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.children = []

    # --- processes ---------------------------------------------------

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ppa-cli"],
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(self.here / "Cargo.toml")],
        ):
            r = subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr)
            if r.returncode != 0:
                raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")

    def timed(self, argv, out_name):
        """Runs one command to completion under the helper's `exec`
        launcher. Returns (exit code, wall s, peak RSS MB, output text) of
        that command's own process."""
        out_path = self.work / out_name
        r = subprocess.run([str(self.helper), "exec", str(out_path), "--", *argv],
                           cwd=self.work, stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: cannot run {argv[0]}")
        m = json.loads(r.stdout.strip().splitlines()[-1])
        text = out_path.read_text(errors="replace")
        return m["code"], m["wall_s"], m["rss_kb"] / 1024.0, text

    def helper_json(self, sub, *extra):
        argv = [str(self.helper), sub, "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--scale", self.scale,
                "--dir", str(self.work), *extra]
        code, wall, _, text = self.timed(argv, f"helper-{sub}.out")
        if code != 0:
            raise SystemExit(f"perfbench: helper {sub} failed:\n{text}")
        return json.loads(text.strip().splitlines()[-1]), wall

    def op(self, argv, out_name):
        """One counted operation: a `ppa` command that must exit 0."""
        self.attempted += 1
        code, wall, rss, text = self.timed([str(self.ppa), *argv], out_name)
        if code != 0:
            self.failed += 1
            self.problems.append(f"`ppa {' '.join(argv)}` exited {code}: {text.strip()[-300:]}")
            return None
        return wall, rss

    def stop_children(self):
        for p in list(self.children):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
                try:
                    p.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    p.kill()
                    p.wait()
        self.children.clear()

    # --- set-up ------------------------------------------------------

    def setup(self):
        """Generates the inputs SETUP_REPEATS times. Returns the last
        manifest, with `setup_s` (median wall time of the whole helper
        process) and its generate/write phases as medians too."""
        runs = [self.helper_json("gen") for _ in range(SETUP_REPEATS)]
        manifest = runs[-1][0]
        manifest["setup_s"] = statistics.median(wall for _, wall in runs)
        for phase in ("generate_s", "write_s"):
            manifest[phase] = statistics.median(m[phase] for m, _ in runs)
        return manifest

    # --- the serve leg -----------------------------------------------

    def start_daemon(self, tag):
        ckdir = self.work / f"serve-{tag}"
        sock = self.work / f"serve-{tag}.sock"
        errlog = self.work / f"serve-{tag}.log"
        err = open(errlog, "wb")
        p = subprocess.Popen(
            [str(self.ppa), "serve", "--checkpoint-dir", str(ckdir), "--unix-socket", str(sock),
             "--checkpoint-every", str(self.manifest["checkpoint_every"]),
             *self.reorder_flags()],
            stdout=subprocess.DEVNULL, stderr=err, cwd=self.work)
        err.close()
        self.children.append(p)
        deadline = time.monotonic() + 30
        while b"ready" not in errlog.read_bytes():
            if p.poll() is not None or time.monotonic() > deadline:
                raise SystemExit(f"perfbench: ppa serve did not start:\n{errlog.read_text()}")
            time.sleep(0.005)
        return p, ckdir, sock

    def stop_daemon(self, p):
        p.send_signal(signal.SIGTERM)
        p.wait(timeout=60)
        self.children.remove(p)

    def reorder_flags(self):
        windows = {i["reorder_window"] for i in self.manifest["inputs"]}
        w = max(windows)
        return ["--reorder-window", str(w)] if w else []

    # --- one run -----------------------------------------------------

    def run(self):
        args = self.args
        self.build()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        try:
            self.manifest = self.setup()
            if args.trace:
                return self.traced_run()
            return self.measured_run()
        finally:
            self.stop_children()
            shutil.rmtree(self.work, ignore_errors=True)

    def measured_run(self):
        args = self.args
        inputs = self.manifest["inputs"]
        samples = {k: [] for k in (
            "analyze_eps", "analyze_ckpt_eps", "analyze_batch_eps", "serve_eps",
            "check_eps", "slice_eps", "analyze_rss_mb", "analyze_batch_rss_mb")}
        # First copy of each distinct report content, kept for the checks.
        kept = {}
        deadline = time.monotonic() + args.seconds
        rounds = 0
        while rounds == 0 or time.monotonic() < deadline:
            sums = {k: [0, 0.0] for k in samples}
            rss = {"analyze_rss_mb": 0.0, "analyze_batch_rss_mb": 0.0}
            sends = []
            for inp in inputs:
                self.round_input(inp, sums, rss, kept, sends)
            self.round_serve(rounds, sends, sums, kept)
            for k, (events, secs) in sums.items():
                if secs > 0:
                    samples[k].append(events / secs)
            for k, v in rss.items():
                samples[k].append(v)
            rounds += 1
        log(f"{rounds} round(s) of {self.attempted // rounds} operation(s)")
        correct = self.check_reports(kept)
        units = {"analyze_rss_mb": "MB", "analyze_batch_rss_mb": "MB"}
        metrics = {}
        for k, vals in samples.items():
            if not vals:
                self.problems.append(f"no sample of {k}")
                correct = False
                continue
            metrics[k] = {"value": statistics.median(vals), "unit": units.get(k, "events/s")}
        metrics["setup_s"] = {"value": self.manifest["setup_s"], "unit": "s"}
        return correct and not self.problems, metrics

    def keep(self, kept, name, path):
        """Keeps the first copy of each distinct report content of input
        `name` for the checks; identical bytes need checking once."""
        with open(path, "rb") as f:
            digest = hashlib.file_digest(f, "sha256").hexdigest()
        if digest not in kept:
            dst = self.work / "kept" / f"{name}-{len(kept)}{path.suffix}"
            dst.parent.mkdir(exist_ok=True)
            path.rename(dst)
            kept[digest] = (name, dst)
        else:
            path.unlink()

    def round_input(self, inp, sums, rss, kept, sends):
        name, events = inp["name"], inp["events"]
        src = str(self.work / inp["file"])
        win = ["--reorder-window", str(inp["reorder_window"])] if inp["reorder_window"] else []

        def add(metric, secs, n=events):
            sums[metric][0] += n
            sums[metric][1] += secs

        r = self.op(["analyze", src, "--stream", "--format", "bin",
                     "--out", f"{name}.stream.bin", *win], f"{name}.analyze.out")
        if r:
            add("analyze_eps", r[0])
            rss["analyze_rss_mb"] = max(rss["analyze_rss_mb"], r[1])
        ckpt = self.work / f"{name}.ckpt"
        r = self.op(["analyze", src, "--stream", "--out", f"{name}.ckpt.jsonl",
                     "--checkpoint", str(ckpt),
                     "--checkpoint-every", str(self.manifest["checkpoint_every"]), *win],
                    f"{name}.ckpt.out")
        if r:
            add("analyze_ckpt_eps", r[0])
        if ckpt.exists():
            ckpt.unlink()
        r = self.op(["analyze", src, "--format", "bin", "--out", f"{name}.batch.bin"],
                    f"{name}.batch.out")
        if r:
            add("analyze_batch_eps", r[0])
            rss["analyze_batch_rss_mb"] = max(rss["analyze_batch_rss_mb"], r[1])
        report = self.work / f"{name}.stream.bin"
        for _ in range(CHECK_REPEATS):
            r = self.op(["check", str(report)], f"{name}.check.out")
            if r:
                add("check_eps", r[0])
        if inp["physical"] != inp["events"]:
            slice_args = ["--expand"]
        else:
            # A processor-subset query: no time window, so every block
            # is decoded.
            slice_args = ["--procs", "0..3"]
        sliced = f"{name}.slice.bin"
        for _ in range(SLICE_REPEATS):
            r = self.op(["slice", src, sliced, *slice_args, "--force"], f"{name}.slice.out")
            if r:
                add("slice_eps", r[0])
        for key in ("stream.bin", "ckpt.jsonl", "batch.bin"):
            path = self.work / f"{name}.{key}"
            if path.exists():
                self.keep(kept, name, path)
        # The upload: the input itself, except that a suppressed input is
        # uploaded both as is (rejected today) and as the `--expand`ed
        # trace the rejection asks for, which is what `serve_eps` times.
        if inp["physical"] != inp["events"]:
            sends.append((name, src, events, "suppressed"))
            sends.append((name, str(self.work / sliced), events, "timed"))
        else:
            sends.append((name, src, events, "timed"))

    def round_serve(self, rnd, sends, sums, kept):
        daemon, ckdir, sock = self.start_daemon(rnd)
        try:
            for name, path, events, role in sends:
                stream = f"{name}-{role}-r{rnd}"
                argv = ["send", path, "--unix", str(sock), "--tenant", TENANT, "--stream", stream]
                report = ckdir / TENANT / f"{stream}.report.jsonl"
                if role == "suppressed":
                    self.attempted += 1
                    code, _, _, text = self.timed([str(self.ppa), *argv], f"{name}.send.out")
                    if code == 0:
                        self.keep(kept, name, report)
                    elif all(s in text for s in SUPPRESSED_REJECTION):
                        self.failed += 1
                    else:
                        self.failed += 1
                        self.problems.append(f"suppressed upload failed unexpectedly: {text}")
                    continue
                r = self.op(argv, f"{name}.send.out")
                if r:
                    sums["serve_eps"][0] += events
                    sums["serve_eps"][1] += r[0]
                    self.keep(kept, name, report)
        finally:
            self.stop_daemon(daemon)
            shutil.rmtree(ckdir, ignore_errors=True)

    # --- checks ------------------------------------------------------

    def check_reports(self, kept):
        """(c) `ppa check` passes every distinct report; (a), (b), (d) and
        the negative control run in the helper against the reference."""
        correct = True
        pairs = []
        for name, path in kept.values():
            code, _, _, text = self.timed([str(self.ppa), "check", str(path)],
                                          "verify-check.out")
            if code != 0:
                correct = False
                self.problems.append(f"ppa check rejected {path.name}: {text.strip()[-300:]}")
            pairs += ["--report", f"{name}={path}"]
        result, _ = self.helper_json("verify", *pairs)
        if not result["correct"]:
            correct = False
            self.problems.extend(result["problems"])
        log(f"verified {result['reports']} report(s) against the reference; "
            f"negative control rejected: {result['negative_control_rejected']}")
        return correct

    # --- traced run --------------------------------------------------

    def traced_run(self):
        layer, _ = self.helper_json("traced", "--seconds", str(self.args.seconds),
                                    "--ppa", str(self.ppa))
        log(f"{layer['rounds']} traced round(s)")
        self.attempted += layer["attempted"]
        self.failed += layer["failed"]
        self.problems.extend(layer["problems"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer["metrics"].items()}
        metrics["sim.generate_s"] = {"value": self.manifest["generate_s"], "unit": "s"}
        metrics["trace.write_s"] = {"value": self.manifest["write_s"], "unit": "s"}
        return not self.problems, metrics


def measure(args):
    """One run; returns its result object."""
    bench = Bench(args)
    correct, metrics = bench.run()
    for p in bench.problems:
        log(f"problem: {p}")
    return {"correct": bool(correct), "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def smoke(args):
    """Both modes of every named workload on reduced inputs, every check
    included; exits 1 if any run is not correct."""
    ok = True
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        for trace in (0, 1):
            run = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            result = measure(run)
            ok = ok and result["correct"]
            print(json.dumps({"workload": name, "trace": trace, **result}), flush=True)
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs and both modes: exercise the harness and every "
                         "check in seconds (`--workload all` runs all three)")
    args = ap.parse_args()
    # A terminated run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.smoke:
        smoke(args)
    if args.workload == "all":
        ap.error("--workload all needs --smoke")
    print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
