#!/usr/bin/env python3
"""Build `afp` and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of stdout is the result object
({"correct", "attempted", "failed", "metrics"}); the line before it holds
the run's context (nproc, rustc, git rev, date, generator lag).

Steadiness mode repeats a workload with consecutive seeds and prints each
metric's median, quartiles and run-to-run spread ((q3 - q1) / median):

    python3 perfbench/run.py --workload write_edb --repeat 10 [--seed 1]

`--workload all` repeats every workload. Every run counts; a run the
benchmark flags as suspect (host steal, generator lag or a short trace
over its bound) says why on its progress line. Spreads are compared with
the bounds in BENCHMARK.json; a spread above a third of its bound is
flagged.
"""

import argparse
import datetime
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["read_heavy", "write_edb", "wide_cone"]
RUN_TIMEOUT_S = 175


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "afp"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        # Cargo's own output goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def context_env():
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"
    return {
        "PERFBENCH_RUSTC": out(["rustc", "--version"]),
        "PERFBENCH_REV": out(["git", "rev-parse", "--short", "HEAD"]),
        "PERFBENCH_DATE": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def run_once(workload, seed, seconds, trace, capture):
    """Run the benchmark binary once; returns (exit code, stdout text)."""
    tdir = target_dir()
    cmd = [str(tdir / "release" / "afp-perfbench"),
           "--workload", workload, "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--afp", str(tdir / "release" / "afp"),
           "--work", str(tdir / "perfbench-work")]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, **context_env())
    # A session of its own, so a timeout can kill the server it started too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"perfbench: {workload} seed {seed} ran past {RUN_TIMEOUT_S} s")
    return proc.returncode, out or ""


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def repeat(workloads, n, seed, seconds, trace):
    limits = bounds()
    for w in workloads:
        values = {}
        units = {}
        seeds = list(range(seed, seed + n))
        suspect = []
        for s in seeds:
            code, out = run_once(w, s, seconds, trace, capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            context = json.loads(lines[-2]).get("context", {}) if len(lines) > 1 else {}
            if code != 0 or not result.get("correct"):
                sys.exit(f"perfbench: {w} seed {s} failed (exit {code}): {lines[-2:]}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            note = f"host steal {context.get('host_steal_pct', '?')}%"
            if context.get("suspect"):
                suspect.append(s)
                note += f", suspect: {context['suspect']}"
            print(f"# {w} seed {s}: ok, {note}", file=sys.stderr, flush=True)
        print(f"\n{w}: {n} runs, seeds {seeds[0]}-{seeds[-1]}; suspect seeds {suspect}")
        print(f"{'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = limits.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            print(f"{name:<30} {units[name]:<6} {med:>12.3f} {q1:>12.3f} {q3:>12.3f}"
                  f" {spread:>8.3f} {bound if bound is not None else '-':>6}{flag}")
        sys.stdout.flush()


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness mode: run N times with consecutive seeds")
    a = p.parse_args()
    build()
    if a.repeat:
        names = WORKLOADS if a.workload == "all" else [a.workload]
        repeat(names, a.repeat, a.seed if a.seed is not None else 1, a.seconds,
               a.trace == 1)
        return 0
    if a.workload == "all":
        sys.exit("perfbench: --workload all needs --repeat")
    code, _ = run_once(a.workload, a.seed, a.seconds, a.trace == 1, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
