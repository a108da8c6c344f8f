"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py

Runs each workload for one second with tracing off and on, and fails unless
the last line of stdout names every metric of BENCHMARK.json with its unit,
the checks pass, and the trace files are written. It also checks that the
benchmark refuses to run, without printing a result, where there are no
efld sources. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def run(cwd, workload, trace, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, proc) -> list:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: checks failed: {proc.stdout}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        errors.append(f"{where}: missing {missing}, unexpected {extra}, wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], float):
            errors.append(f"{where}: {name} is not a number")
        elif not trace and not m["value"] > 0:
            errors.append(f"{where}: end-to-end metric {name} is {m['value']}")
    if trace:
        for suffix in ("spans", "layers"):
            path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{SEED}-{suffix}.csv")
            if not os.path.isfile(path):
                errors.append(f"{where}: {path} not written")
    return errors


def check_refuses_without_sources() -> list:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "serve-f32-b1", 0, root=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"run without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_result(spec, workload, trace, run(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not errors else 'FAILED'}", flush=True)
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
