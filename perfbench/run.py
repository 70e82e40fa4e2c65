#!/usr/bin/env python3
"""Benchmark driver for the `dnnlife` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload fig9-exact --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

Builds the release `dnnlife` binary and the per-layer replay
(`perfbench/replay`), then for one workload:

1. runs the workload once at `--threads 1`, untimed: the reference store
   (at the default seed it must match the digest pinned in `pins.json`);
2. for `--seconds` seconds, spawns timed samples one at a time, each a
   cold child process at `--threads 2` in an empty directory, timing
   wall, CPU (the child's own rusage) and peak RSS; each sample's store
   must equal the reference byte for byte, and re-running the same
   command with `--resume` on it (the set-up cost: start-up, grid,
   store load, lock, finalize) must leave it unchanged;
3. with `--trace 1`, also runs the CLI once with `--telemetry` (for the
   journal readouts) and the replay, which times each crate's public
   calls in a process of its own and checks every record it reproduces.

Prints a table per workload on stderr; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

# The CLI arguments of each workload; `--seed`, `--threads` and `--out`
# are added per run.
WORKLOADS = {
    "fig9-exact": ["sweep", "--grid", "fig9", "--backend", "exact",
                   "--stride", "256", "--inferences", "100"],
    "fig11-analytic": ["sweep", "--grid", "fig11", "--stride", "16"],
    "inject-mnist": ["inject", "--platform", "baseline", "--trials", "3",
                     "--ages", "0,7", "--eval-images", "100", "--train-steps", "60"],
}
THREADS = "2"
DEFAULT_SEED = 42
MIN_SAMPLES = 3
SETUP_REPEATS = 30  # timed `--resume` re-runs per sample, after one untimed
CHILD_LIMIT_S = 60  # a child running longer is killed and counted failed
STORE = "store.jsonl"

# The children read only what the benchmark gives them: synthetic MNIST
# from the seed, never an IDX directory from the caller's environment.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "DNNLIFE_MNIST_DIR"}


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the CLI and the replay; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "campaign").is_dir():
        die("run from the repository root (no Cargo workspace with crates/campaign here)")
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "dnnlife-campaign",
         "--bin", "dnnlife"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(HERE / "replay" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return target / "release" / "dnnlife", target / "release" / "replay"


class Child:
    """One finished child process: exit code, wall seconds, CPU seconds
    (user + system, from its own rusage) and peak RSS in MB."""

    def __init__(self, argv, cwd):
        cwd.mkdir(parents=True, exist_ok=True)
        with open(cwd / "stderr.txt", "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err,
                                    env=CHILD_ENV)
            timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - started
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stderr = (cwd / "stderr.txt").read_text(errors="replace").strip()[-400:]


def read(path):
    try:
        return path.read_bytes()
    except OSError:
        return None


def journal_readouts(path):
    """Span durations by label, executor queue wait and occupancy, and
    the final counters, from a `--telemetry` events journal."""
    open_spans, spans, counters = {}, defaultdict(float), {}
    workers, busy_ms, queue_ms = 1, 0.0, 0.0
    for line in path.read_text().splitlines():
        try:
            ev = json.loads(line)
        except ValueError:
            continue  # a torn final line
        kind = ev.get("ev")
        if kind == "span_start":
            open_spans[ev["span"]] = (ev["label"], ev["t_us"])
        elif kind == "span_end" and ev["span"] in open_spans:
            label, t_us = open_spans.pop(ev["span"])
            spans[label] += (ev["t_us"] - t_us) / 1e3
        elif kind == "campaign_start":
            workers = ev["workers"]
        elif kind == "scenario_done":
            busy_ms += ev["wall_ms"]
            queue_ms += ev["queue_ms"]
        elif kind == "counters":
            counters.update(ev)
    campaign_ms = sum(ms for label, ms in spans.items() if label.startswith("campaign:"))
    occupancy = busy_ms / (workers * campaign_ms) if campaign_ms else 0.0
    return spans, queue_ms, occupancy, counters


def load_metric_specs():
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    return bench["end_to_end"], bench["per_layer"]


def measure(workload, seed, seconds, trace, dnnlife, replay, work):
    """Runs one workload; returns (correct, tally, metric values, the
    end-to-end summary, problems found)."""
    base = [str(dnnlife)] + WORKLOADS[workload] + ["--seed", str(seed), "--out", STORE]
    problems = []

    ref = Child(base + ["--threads", "1"], work / "reference")
    reference = read(work / "reference" / STORE)
    if ref.rc != 0 or reference is None:
        problems.append(f"reference run failed (exit {ref.rc}): {ref.stderr}")
    elif seed == DEFAULT_SEED:
        pins = json.loads((HERE / "pins.json").read_text())
        if hashlib.sha256(reference).hexdigest() != pins[workload]:
            problems.append("reference store does not match its pinned digest")

    tally = stats.Tally()
    samples, setup = [], []
    deadline = time.perf_counter() + seconds
    while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
        d = work / f"sample{len(samples)}"
        run = Child(base + ["--threads", THREADS], d)
        wrong = [] if run.rc == 0 else [f"exit {run.rc}: {run.stderr}"]
        stored = read(d / STORE)
        if stored != reference:
            wrong.append("store differs from the --threads 1 reference")
        for i in range(SETUP_REPEATS + 1):
            again = Child(base + ["--threads", THREADS, "--resume"], d)
            if i > 0:  # the first re-run follows the heavy sample; not timed
                setup.append(again.wall)
            if again.rc != 0:
                wrong.append(f"--resume exit {again.rc}: {again.stderr}")
        if read(d / STORE) != stored:
            wrong.append("--resume changed the store")
        tally.record(wrong)
        samples.append({"wall_s": run.wall, "cpu_s": run.cpu, "peak_rss_mb": run.rss_mb})
        shutil.rmtree(d)
    summary = stats.summarize(samples)
    summary.update(stats.summarize([{"setup_s": s} for s in setup]))
    values = {name: s["median"] for name, s in summary.items()}

    if trace:
        values.update(trace_metrics(workload, seed, base, replay, work, reference,
                                    values, problems))
    problems.extend(tally.reasons)
    return not problems, tally, values, summary, problems


def trace_metrics(workload, seed, base, replay, work, reference, medians, problems):
    """The per-layer metrics: journal readouts of one `--telemetry` CLI
    run plus the replay's timings."""
    tel = Child(base + ["--threads", THREADS, "--telemetry"], work / "telemetry")
    if tel.rc != 0 or read(work / "telemetry" / STORE) != reference:
        problems.append(f"--telemetry run failed or changed the store (exit {tel.rc})")
    events = work / "telemetry" / STORE.replace(".jsonl", ".events.jsonl")
    spans, queue_ms, occupancy, counters = journal_readouts(events) if events.exists() \
        else ({}, 0.0, 0.0, {})

    layers = {}
    try:
        proc = subprocess.run(
            [str(replay), "--workload", workload, "--seed", str(seed),
             "--store", str(work / "reference" / STORE), "--work", str(work / "replay")],
            capture_output=True, text=True, env=CHILD_ENV, timeout=CHILD_LIMIT_S * 2)
    except subprocess.TimeoutExpired:
        problems.append("replay timed out")
    else:
        if proc.returncode != 0:
            problems.append(f"replay fidelity check failed: {proc.stderr.strip()}")
        else:
            layers = json.loads(proc.stdout.strip().splitlines()[-1])
    if counters.get("exact_word_writes", 0) != layers.get("accel.exact_kernel.word_writes", 0):
        problems.append("journal exact_word_writes differs from the replay's word writes")

    layers["faultsim.trial_decode.ms"] = spans.get("trial_decode", 0.0)
    layers["campaign.executor.queue_wait.ms"] = queue_ms
    layers["campaign.executor.occupancy"] = occupancy
    layers["telemetry.overhead_s"] = tel.wall - medians["wall_s"]
    layers["unattributed.cpu_ms"] = (medians["cpu_s"] * 1e3
                                     - layers.get("replay.partition.ms", 0.0))
    return layers


def print_table(workload, seed, tally, summary, values, end_to_end, per_layer, trace):
    out = sys.stderr
    print(f"\n{workload}  seed {seed}  samples {tally.attempted}  failed {tally.failed}"
          f"  fail_frac {tally.fail_frac:g}", file=out)
    print(f"  {'metric':<36} {'unit':<8} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}",
          file=out)
    for m in end_to_end:
        s = summary[m["name"]]
        print(f"  {m['name']:<36} {m['unit']:<8} {s['median']:>14.6g} {s['q1']:>14.6g}"
              f" {s['q3']:>14.6g} {s['n']:>4}", file=out)
    if trace:
        for m in per_layer:
            print(f"  {m['name']:<36} {m['unit']:<8} {values.get(m['name'], 0.0):>14.6g}",
                  file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    end_to_end, per_layer = load_metric_specs()
    dnnlife, replay = build()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = per_layer if args.trace else end_to_end

    correct, attempted, failed, metrics = True, 0, 0, {}
    work_root = ROOT / ".bench_work"
    for workload in names:
        work = work_root / f"{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            ok, tally, values, summary, problems = measure(
                workload, args.seed, args.seconds, args.trace, dnnlife, replay, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print_table(workload, args.seed, tally, summary, values, end_to_end, per_layer,
                    args.trace)
        for problem in problems:
            print(f"  FAILED: {problem}", file=sys.stderr)
        correct &= ok
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{workload}." if len(names) > 1 else ""
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    try:
        work_root.rmdir()
    except OSError:
        pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
