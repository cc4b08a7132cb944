#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny stream sizes.

usage (from the repository root):
    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second with --tiny, once
untraced and once traced, and checks that each run:
  * prints, as its last stdout line, an object with exactly the keys
    correct, attempted, failed and metrics;
  * passes every output check (correct, attempted >= 1, failed == 0);
  * emits exactly the end-to-end (untraced) or per-layer (traced)
    metrics BENCHMARK.json names, each a finite number with its unit,
    end-to-end values above zero;
  * when traced, writes its span file with the same per-layer figures.
It then checks that the benchmark exits non-zero without a result in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_run(spec, workload, trace):
    """Return the list of problems one tiny run shows."""
    group = "per_layer" if trace == "1" else "end_to_end"
    cmd = spec["command"] + ["--workload", workload, "--seed", SEED,
                             "--seconds", "1", "--trace", trace, "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    res = result_of(proc.stdout)
    if res is None:
        return [f"{where}: last stdout line is not a JSON object"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
        return problems
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"{where}: correct={res['correct']} attempted="
                        f"{res['attempted']} failed={res['failed']}: "
                        f"{proc.stderr[-800:]}")
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = res["metrics"]
    if set(got) != set(want):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        v = m.get("value")
        if m.get("unit") != unit:
            problems.append(f"{where}: {name} has unit {m.get('unit')!r}, not {unit!r}")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{where}: {name} = {v!r} is not a finite number")
        elif group == "end_to_end" and v <= 0:
            problems.append(f"{where}: {name} = {v} is not positive")
    if trace == "1":
        path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{SEED}.json")
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            problems.append(f"{where}: span file {path}: {e}")
        else:
            if set(doc.get("per_layer", {})) != set(want):
                problems.append(f"{where}: span file per_layer keys differ")
            if not doc.get("spans"):
                problems.append(f"{where}: span file holds no spans")
            if "overhead_pct" not in doc.get("tracing_overhead", {}):
                problems.append(f"{where}: span file states no tracing overhead")
    print(f"{where}: {'ok' if not problems else 'FAILED'} "
          f"({res['attempted']} ops checked)", flush=True)
    return problems


def check_bare_directory(spec):
    """The benchmark must refuse to run without the repository's crates."""
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", SEED, "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, env=env, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result_of(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print("bare directory: refused as expected", flush=True)
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace in ("0", "1"):
            problems += check_run(spec, wl["name"], trace)
    problems += check_bare_directory(spec)
    for p in problems:
        print("FAIL:", p, file=sys.stderr)
    print("smoke: " + ("all checks passed" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
