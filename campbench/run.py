#!/usr/bin/env python3
"""Campaign benchmark of the REFINE reproduction.

    python3 campbench/run.py --workload paper-matrix --seed 0 --seconds 10 --trace 0
    python3 campbench/run.py --smoke

Builds refine-campaign and the benchmark's driver from this checkout into
.bench_build/campbench, then, for one workload (campbench/workloads.json):

  --trace 0  runs real refine-campaign processes in a closed loop for
             --seconds (the next run starts when the last has finished),
             times CampaignEngine::buildInstances in the driver (setup_s),
             and checks every report against the driver's oracle: goldens
             against the IR interpreter, and a recount of every trial. It
             prints wall_s, cpu_s, setup_s and peak_rss_mb (medians) and
             failed_frac.
  --trace 1  runs the workload once in the driver, untraced and then with a
             span around every call into a layer, plus the program once (for
             served-plan: through the frame relay, directly, and as a local
             --plan run), and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
(cells) and metrics. Each run also writes a result file with a host
fingerprint under .bench_build/campbench/results/ (see compare.py). The
exit code is 0 only when every correctness check passed, 2 when the
benchmark itself cannot run (for example outside a REFINE checkout).
"""

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import layers  # noqa: E402
import stats  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "campbench")
CAMPAIGN = os.path.join(BUILD, "tools", "refine-campaign")
DRIVER = os.path.join(BUILD, "bin", "campbench-driver")
PROCESS_TIMEOUT = 90  # seconds before a program run is killed and failed
BASE_SEED = 0x5EEDBA5E  # refine-campaign's default campaign seed

with open(os.path.join(HERE, "workloads.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = SPEC["workloads"]
THREADS = SPEC["threads"]
# Repetitions of the setup measurement: fewer where one build is long.
SETUP_REPS = {"paper-matrix": 31, "model-sweep": 5, "served-plan": 31}


class BenchError(Exception):
    pass


def log(msg):
    print("[campbench] " + msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and fingerprint
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("%s is not a REFINE checkout (no CMakeLists.txt or "
                         "src/); nothing to build" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--parallel", str(THREADS),
                  "--target", "refine-campaign", "campbench-driver"])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT):
                with open(build_log) as f:
                    tail = f.read()[-4000:]
                raise BenchError("build failed:\n" + tail)


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    """Host part (compared) plus the source identity (recorded)."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    toolchain = json.loads(subprocess.check_output([DRIVER, "fingerprint"]))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except subprocess.CalledProcessError:
            commit = None
    return {"host": {"cpu_model": cpu, "nproc": nproc,
                     "compiler": toolchain["compiler"],
                     "build_type": toolchain["build_type"]},
            "commit": commit or "source-" + source_digest()}


# ---------------------------------------------------------------------------
# Program runs
# ---------------------------------------------------------------------------

class Proc:
    """A child process reaped with wait4, so its own rusage is known."""

    def __init__(self, argv, stderr_path, stdout=subprocess.DEVNULL):
        self.err = open(stderr_path, "w")
        self.popen = subprocess.Popen(argv, stdout=stdout, stderr=self.err)
        self.lock = threading.Lock()
        self.status = None
        self.rusage = None

    def wait(self):
        _, status, rusage = os.wait4(self.popen.pid, 0)
        with self.lock:
            self.status = os.waitstatus_to_exitcode(status)
            self.popen.returncode = self.status
            self.rusage = rusage
        self.err.close()
        return self.status

    def kill(self):
        with self.lock:
            if self.status is None:
                self.popen.kill()

    @property
    def cpu(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def wait_all(procs, timeout=PROCESS_TIMEOUT):
    """Reaps every process; kills all of them if any outlives `timeout`."""
    timer = threading.Timer(timeout, lambda: [p.kill() for p in procs])
    timer.start()
    try:
        return [p.wait() for p in procs]
    finally:
        timer.cancel()


def stop_all(procs):
    for p in procs:
        if p.status is None and p.popen.returncode is None:
            p.kill()
            p.wait()


def wait_for_line(path, pattern, proc, timeout=30.0):
    """Polls a log file until `pattern` matches; fails if `proc` exits."""
    deadline = time.perf_counter() + timeout
    regex = re.compile(pattern)
    while time.perf_counter() < deadline:
        with open(path) as f:
            m = regex.search(f.read())
        if m:
            return m.group(1)
        if proc.popen.poll() is not None:
            proc.status = proc.popen.returncode  # reaped by poll()
            raise BenchError("process exited before printing %r" % pattern)
        time.sleep(0.002)
    raise BenchError("timed out waiting for %r in %s" % (pattern, path))


class Run:
    """One program run: timing, resources, exit status and its report."""

    def __init__(self, wall, procs, report_path):
        self.wall = wall
        self.cpu = sum(p.cpu for p in procs)
        self.rss = max(p.rss_mb for p in procs)
        self.ok = all(p.status == 0 for p in procs)
        self.report = None
        if self.ok and os.path.isfile(report_path):
            with open(report_path) as f:
                self.report = f.read()


def run_local(matrix, seed_hex, work, tag, checkpoint=False):
    report = os.path.join(work, tag + ".csv")
    argv = [CAMPAIGN] + matrix + ["--seed", seed_hex, "--report", report]
    if checkpoint:
        ckpt = os.path.join(work, tag + ".ckpt")
        argv += ["--checkpoint", ckpt]
    start = time.perf_counter()
    proc = Proc(argv, os.path.join(work, tag + ".log"))
    try:
        wait_all([proc])
    finally:
        stop_all([proc])
    run = Run(time.perf_counter() - start, [proc], report)
    for path in (report, os.path.join(work, tag + ".ckpt")):
        if os.path.exists(path):
            os.remove(path)
    return run


def run_served(matrix, seed_hex, work, tag, serve, relay_events=None):
    """Coordinator plus workers on loopback; with `relay_events`, the
    workers reach the coordinator through the driver's frame relay."""
    report = os.path.join(work, tag + ".csv")
    ckpt = os.path.join(work, tag + ".ckpt")
    coord_log = os.path.join(work, tag + ".coordinator.log")
    procs, relay = [], None
    start = time.perf_counter()
    try:
        coordinator = Proc([CAMPAIGN, "--serve", "0"] + matrix +
                           ["--seed", seed_hex, "--checkpoint", ckpt,
                            "--report", report], coord_log)
        procs.append(coordinator)
        port = wait_for_line(coord_log, r"serving on port (\d+)", coordinator)
        if relay_events is not None:
            relay = Proc([DRIVER, "relay", "--target-port", port, "--events",
                          relay_events], os.path.join(work, tag + ".relay.log"),
                         stdout=subprocess.PIPE)
            line = relay.popen.stdout.readline().decode()
            m = re.match(r"relay port (\d+)", line)
            if not m:
                raise BenchError("relay did not start: %r" % line)
            port = m.group(1)
        for w in range(serve["workers"]):
            procs.append(Proc([CAMPAIGN, "--worker", "127.0.0.1:" + port,
                               "--threads", str(serve["worker_threads"])],
                              os.path.join(work, "%s.worker%d.log" % (tag, w))))
        wait_all(procs)
        wall = time.perf_counter() - start
    finally:
        stop_all(procs)
        if relay is not None:
            if relay.status is None:
                relay.popen.send_signal(signal.SIGTERM)
                wait_all([relay], timeout=30)
            relay.popen.stdout.close()
    run = Run(wall, procs, report)
    if relay is not None and relay.status != 0:
        run.ok = False
    for path in (report, ckpt):
        if os.path.exists(path):
            os.remove(path)
    return run


def run_workload(name, matrix, seed_hex, work, tag, relay_events=None):
    wl = WORKLOADS[name]
    if "serve" in wl:
        return run_served(matrix, seed_hex, work, tag, wl["serve"],
                          relay_events)
    return run_local(matrix, seed_hex, work, tag, wl.get("checkpoint", False))


def driver(mode, matrix, seed_hex, work, extra=()):
    argv = [DRIVER, mode, "--work", work] + list(extra) + [
        "--"] + matrix + ["--seed", seed_hex]
    log_path = os.path.join(work, "driver-%s.log" % mode)
    proc = Proc(argv, log_path)
    try:
        status = wait_all([proc])[0]
    finally:
        stop_all([proc])
    if status != 0:
        with open(log_path) as f:
            raise BenchError("driver %s failed: %s" % (mode, f.read()[-2000:]))


# ---------------------------------------------------------------------------
# Report checking
# ---------------------------------------------------------------------------

def report_rows(text):
    """Report CSV -> (header, {cell key: row}). The key is every column
    before the trial count."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    k = next(i for i, c in enumerate(header) if c in ("trials", "trials_used"))
    return header, {tuple(r[:k]): r for r in rows[1:]}


def failed_cells(report, expected):
    """Keys of the expected cells this report gets wrong. A report whose
    rows all match but whose bytes differ fails every cell."""
    _, want = report_rows(expected)
    if report is None:
        return set(want)
    if report == expected:
        return set()
    try:
        _, got = report_rows(report)
    except (StopIteration, IndexError):
        return set(want)
    bad = {k for k, row in want.items() if got.get(k) != row}
    return bad or set(want)


def check_reports(runs, expected, golden_failures):
    """(attempted, failed) cells over every run's report."""
    cells = len(report_rows(expected)[1])
    attempted = failed = 0
    for run in runs:
        bad = failed_cells(run.report, expected)
        attempted += cells
        failed += min(cells, len(bad) + len(golden_failures))
    return attempted, failed


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def measure(name, matrix, seed_hex, seconds, work, reps):
    """--trace 0: closed-loop program runs, setup timing and the oracle."""
    # One untimed run first (page cache, CPU clocks); its report is checked.
    # On served-plan it is the local --plan run whose report the served
    # reports must equal, byte for byte.
    if "serve" in WORKLOADS[name]:
        warmup = run_local(matrix, seed_hex, work, "local")
    else:
        warmup = run_workload(name, matrix, seed_hex, work, "warmup")
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(run_workload(name, matrix, seed_hex, work,
                                 "run%d" % len(runs)))
    driver("check", matrix, seed_hex, work, ["--reps", str(reps)])
    with open(os.path.join(work, "check.json")) as f:
        check = json.load(f)
    with open(os.path.join(work, "expected.csv")) as f:
        expected = f.read()
    checked = [warmup] + runs
    attempted, failed = check_reports(checked, expected,
                                      check["golden_failures"])
    samples = {
        "wall_s": [r.wall for r in runs],
        "cpu_s": [r.cpu for r in runs],
        "setup_s": check["setup_s"],
        "peak_rss_mb": [r.rss for r in runs],
    }
    units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": stats.median(v), "unit": units[k]}
               for k, v in samples.items()}
    lines = []
    for k, v in samples.items():
        d = stats.describe(v)
        tail = ("p%g %.6g" % (d["tail_p"], d["tail"]) if "tail_p" in d
                else "no tail percentile: fewer than 10 samples beyond p90")
        lines.append("%-12s %12.6g %-3s median of %d (q1 %.6g, q3 %.6g; %s)"
                     % (k, d["median"], units[k], d["n"], d["q1"], d["q3"],
                        tail))
    lines.append("%-12s %12.6g     %d of %d cells failed" %
                 ("failed_frac", failed / attempted, failed, attempted))
    for msg in check["golden_failures"]:
        lines.append("golden oracle: " + msg)
    return metrics, samples, attempted, failed, lines


def traced(name, matrix, seed_hex, work):
    """--trace 1: the in-process traced run, plus program runs whose
    reports must match the traced run's."""
    driver("trace", matrix, seed_hex, work)
    with open(os.path.join(work, "trace.json")) as f:
        info = json.load(f)
    with open(os.path.join(work, "expected.csv")) as f:
        expected = f.read()
    spans = layers.read_spans(os.path.join(work, "spans.tsv"))
    cells = layers.read_cells(os.path.join(work, "cells.tsv"))

    direct = run_workload(name, matrix, seed_hex, work, "direct")
    runs, frames = [direct], []
    if "serve" in WORKLOADS[name]:
        events = os.path.join(work, "frames.tsv")
        runs.append(run_workload(name, matrix, seed_hex, work, "relayed",
                                 relay_events=events))
        runs.append(run_local(matrix, seed_hex, work, "local"))
        if os.path.isfile(events):
            frames = layers.read_frames(events)
    attempted, failed = check_reports(runs, expected, info["golden_failures"])

    metrics = {}
    metrics.update(layers.setup_metrics(spans))
    trial, notes = layers.trial_metrics(spans, cells)
    metrics.update(trial)
    metrics.update(layers.net_metrics(frames))
    header, rows = report_rows(expected)
    trials_col = next(i for i, c in enumerate(header)
                      if c in ("trials", "trials_used"))
    rounds = (max(int(r[header.index("rounds")]) for r in rows.values())
              if "rounds" in header else 1)
    metrics["campaign.trials"] = (
        sum(int(r[trials_col]) for r in rows.values()), "count")
    metrics["campaign.planner_rounds"] = (rounds, "count")
    metrics["campaign.checkpoint_bytes"] = (info["checkpoint_bytes"], "bytes")
    metrics["campaign.pool_util"] = (
        direct.cpu / (direct.wall * THREADS), "ratio")
    overhead = info["wall_traced_s"][0] / info["wall_untraced_s"][0]
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    lines = ["%-36s %14.6g %s" % (k, v, u) for k, (v, u) in sorted(
        metrics.items())]
    lines += notes
    lines.append("tracing overhead: traced %.4f s vs untraced %.4f s of the "
                 "same in-process run" % (info["wall_traced_s"][0],
                                          info["wall_untraced_s"][0]))
    if len(runs) > 1:
        lines.append("served: direct %.3f s, through the relay %.3f s, "
                     "local --plan %.3f s" % tuple(r.wall for r in runs))
    lines.append("%d of %d cells failed the oracle" % (failed, attempted))
    for msg in info["golden_failures"]:
        lines.append("golden oracle: " + msg)
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return out, attempted, failed, lines


def execute(name, seed, seconds, trace, matrix, reps):
    seed_hex = "%X" % ((BASE_SEED + seed) % (1 << 64))
    work = os.path.join(BUILD, "work", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if trace:
            metrics, attempted, failed, lines = traced(name, matrix, seed_hex,
                                                       work)
            samples = None
        else:
            metrics, samples, attempted, failed, lines = measure(
                name, matrix, seed_hex, seconds, work, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=name, seed=seed, campaign_seed=seed_hex,
                  trace=trace, seconds=seconds, matrix=matrix,
                  samples=samples, fingerprint=fingerprint())
    return result, record, lines


def on_sigterm(signum, frame):
    # Unwinds through the finally blocks that kill and reap every child.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once, both modes, at reduced "
                         "size, and check correctness only")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    try:
        build()
        if args.smoke:
            ok = True
            for name in sorted(WORKLOADS):
                for trace in (0, 1):
                    result, _, lines = execute(name, args.seed, 0, trace,
                                               WORKLOADS[name]["smoke"], 1)
                    ok &= result["correct"]
                    print("smoke %-12s trace=%d: %s (%d cells checked)" % (
                        name, trace, "correct" if result["correct"] else
                        "INCORRECT", result["attempted"]))
                    if not result["correct"]:
                        print("\n".join("  " + l for l in lines))
            return 0 if ok else 1
        result, record, lines = execute(
            args.workload, args.seed, args.seconds, args.trace,
            WORKLOADS[args.workload]["matrix"], SETUP_REPS[args.workload])
    except BenchError as e:
        log(str(e))
        return 2
    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print("campbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                             args.trace))
    for line in lines:
        print("  " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
