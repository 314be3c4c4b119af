"""Smoke test of the benchmark: one op per workload, untraced and traced.

Usage (from the repository root): python3 bench/smoke.py

Exits 0 when every op succeeds and passes its output check, the traced
run records the layer the workload exists to exercise, and the per-layer
metrics computed from it are exactly those ``BENCHMARK.json`` lists.
Takes about 10 s.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# workload -> (name of a cheap op, a traced function that op must call)
SMOKE_OPS = {
    "report": ("pgm-report zn N=7 p=3 mu=2 k=1", "pgm.verify_optimality"),
    "solve": ("run-hsp pgm planted zpr p=3 jordan=2 k=2", "pgm.outcome_distribution"),
    "census": ("eta-stats exhaustive zpr p=5 jordan=3 k=2", "msum.eta_statistics"),
    "stripped": ("run-hsp stripped --exact zn N=7 p=3 mu=2", "metacyclic.exact_success_rate"),
}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [m["name"] for m in json.load(fh)["per_layer"]]
    env = run.child_env()
    workdir = os.path.join(run.WORK_ROOT, f"smoke-{os.getpid()}")
    os.makedirs(workdir)
    problems = []
    try:
        for workload, (op_name, layer) in SMOKE_OPS.items():
            op = next(op for op in workloads.build(workload, 1, workdir) if op.name == op_name)
            deadline = time.monotonic() + 60
            plain = run.run_op(op, False, workdir, env, deadline)
            traced = run.run_op(op, True, workdir, env, deadline)
            for label, res in (("untraced", plain), ("traced", traced)):
                if res.error or res.setup is None:
                    problems.append(f"{workload} {label}: {res.error or 'no set-up time'}")
            if plain.record.get("spans"):
                problems.append(f"{workload}: the untraced run recorded spans")
            if layer not in {span[0] for span in traced.record.get("spans", [])}:
                problems.append(f"{workload}: no {layer} span in the traced run")
            metrics = run.per_layer_metrics([[traced]], traced.wall - plain.wall)
            if sorted(metrics) != sorted(per_layer):
                problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
            print(f"{workload}: {op_name}: untraced {plain.wall:.3f} s, traced {traced.wall:.3f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(run.WORK_ROOT) and not os.listdir(run.WORK_ROOT):
            os.rmdir(run.WORK_ROOT)
    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
