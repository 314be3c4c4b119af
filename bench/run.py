"""pgmhsp benchmark: runs one workload (or all) and prints its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload report --seed 1 --seconds 30 --trace 0

One client runs the workload's ops in a closed loop: each op is a fresh
Python process (``bench/worker.py``) started when the previous one has
ended, the way a user runs the CLI, so every op starts with cold caches.
The ops run round-robin: one full pass, then on in order while the next
op's median time still fits in ``--seconds``.  A pass time is the sum over
ops of each op's median.  Every op's output is checked.

Times are reported at a reference machine speed.  On a shared host the
speed of every process can drift together, by a factor of 1.7 within
minutes on the machine measured in ``bench/README.md``, so this script also times a calibration process, which only imports numpy
and runs no code of this repository, before each op and after the last.
Each op run's times are scaled by ``CAL_REF_S`` over the mean of the two
calibration times around it.  The raw times are printed as well.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every op runs twice in a row, untraced and then traced,
and the last line carries the per-layer metrics of the traced runs plus
the tracing overhead.  The lines before it give medians, quartiles and
sample counts, the failure fraction and the environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

from worker import TRACED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Held constant so the dense linear algebra runs the same on every run.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# No op may run past this many seconds after the run starts, so that a
# run always ends within its 180 s limit.
HARD_LIMIT_S = 150.0
# The calibration process, and its time at the reference speed (about
# its time on a quiet 2-core Xeon VM at 2.0 GHz).
CAL_CODE = "import numpy"
CAL_REF_S = 0.15

# Every traced function, plus the CLI time no traced span covers.
SELF_TIMED = [f"{m}.{fn}" for m, fns in TRACED.items() for fn in fns] + ["cli"]
# Counters summed per pass, as the worker records them: name -> unit.
PASS_COUNTS = {
    "states.dense_bytes": "bytes",
    "states.blocks": "count",
    "states.support": "count",
    "pipeline.oracle_queries": "count",
    "pipeline.trials_used": "count",
    "msum.solve_auto.calls": "count",
}


@dataclass
class OpResult:
    wall: float
    setup: float | None
    rss_mb: float
    error: str | None
    record: dict = field(default_factory=dict)
    speed: float = 1.0  # scales this run's times to the reference speed


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGMHSP_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every op
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args: list, env: dict, actions: list, deadline: float):
    """Run ``python3 *args`` to its end, killed at ``deadline``.

    Returns the wait status, the child's rusage and whether it timed out.
    """
    timed_out = threading.Event()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)

    def kill():
        timed_out.set()
        os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted: stop the child before leaving
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    return status, usage, timed_out.is_set()


def calibrate(env: dict) -> float:
    """Wall time of one calibration process."""
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_RDWR, 0) for fd in (0, 1, 2)]
    start = time.monotonic()
    status, _usage, timed_out = spawn(["-c", CAL_CODE], env, quiet, start + 20.0)
    if timed_out or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"calibration process {CAL_CODE!r} failed")
    return time.monotonic() - start


def run_op(op, trace: bool, workdir: str, env: dict, deadline: float) -> OpResult:
    """Spawn one worker, wait for it with wait4, and check its output."""
    spec_path = os.path.join(workdir, "spec.json")
    record_path = os.path.join(workdir, "record.json")
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    spec = {"trace": trace, "record": record_path}
    spec.update({"argv": op.argv} if op.argv is not None else {"batch": op.batch})
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if os.path.exists(record_path):
        os.remove(record_path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.monotonic()
    status, usage, timed_out = spawn([WORKER, spec_path], env, actions, deadline)
    wall = time.monotonic() - start

    rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    record = {}
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    setup = record["imported"] - start if "imported" in record else None
    error = None
    code = os.waitstatus_to_exitcode(status)
    if timed_out:
        error = "timed out"
    elif code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            error = f"exit code {code}: {fh.read()[-500:]}"
    else:
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        try:
            op.check(stdout)
        except Exception as exc:  # any malformed output is a failed op
            error = f"check failed: {type(exc).__name__}: {exc}"
    return OpResult(wall, setup, rss_mb, error, record)


def span_times(record: dict) -> tuple[dict, float]:
    """Self time per traced function, and the time the top-level spans cover.

    A span's self time is its duration minus its direct children's; the
    wrapped calls are synchronous, so children never overlap.
    """
    spans = record.get("spans", [])
    self_s: dict[str, float] = {}
    covered = 0.0
    for name, start, end, parent in spans:
        duration = end - start
        self_s[name] = self_s.get(name, 0.0) + duration
        if parent < 0:
            covered += duration
        else:
            parent_name = spans[parent][0]
            self_s[parent_name] -= duration
    return self_s, covered


def op_layers(res: OpResult) -> dict:
    """Per-layer values of one traced op, times at the reference speed."""
    out: dict[str, float] = {}
    self_s, covered = span_times(res.record)
    for name, value in self_s.items():
        out[name + ".self_s"] = value * res.speed
    if res.setup is not None:
        out["cli.self_s"] = (res.wall - res.setup - covered) * res.speed
    out.update(res.record.get("counters", {}))
    for span in res.record.get("spans", []):
        out[span[0] + ".calls"] = out.get(span[0] + ".calls", 0) + 1
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: list[list[OpResult]], overhead_s: float) -> dict:
    """Per-layer metrics from the traced runs of each op.

    A value per pass is the sum over ops of the op's median; ratios and
    rates divide totals over every traced run.
    """
    layers = [[op_layers(res) for res in runs] for runs in traced]
    metrics = {}
    totals: dict[str, float] = {}
    for runs in layers:
        for values in runs:
            for key, value in values.items():
                totals[key] = totals.get(key, 0.0) + value

    def median_of(key):
        return sum(statistics.median(v.get(key, 0.0) for v in runs) for runs in layers if runs)

    for name in SELF_TIMED:
        metrics[name + ".self_s"] = (median_of(name + ".self_s"), "s")
    for name, unit in PASS_COUNTS.items():
        metrics[name] = (median_of(name), unit)
    metrics["pipeline.verify_ratio"] = (
        ratio(totals.get("pipeline.verified_trials", 0), totals.get("pipeline.trials_used", 0)),
        "ratio",
    )
    metrics["msum.eta_pairs_per_s"] = (
        ratio(totals.get("msum.eta_pairs", 0), totals.get("msum.eta_statistics.self_s", 0)),
        "1/s",
    )
    metrics["msum.solve_auto.us_per_call"] = (
        ratio(totals.get("msum.solve_auto.self_s", 0), totals.get("msum.solve_auto.calls", 0), 1e6),
        "us",
    )
    stripped_calls = totals.get("metacyclic.run_stripped_algorithm.calls", 0)
    metrics["metacyclic.run_stripped_algorithm.us_per_call"] = (
        ratio(totals.get("metacyclic.run_stripped_algorithm.self_s", 0), stripped_calls, 1e6),
        "us",
    )
    metrics["metacyclic.accept_ratio"] = (
        ratio(totals.get("metacyclic.accepted", 0), stripped_calls),
        "ratio",
    )
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)  # so clean-up runs on kill
    if not os.path.isfile(os.path.join(SRC, "pgmhsp", "__init__.py")):
        print(f"error: no pgmhsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pgmhsp
    import workloads

    if os.path.dirname(os.path.abspath(pgmhsp.__file__)) != os.path.join(SRC, "pgmhsp"):
        print(f"error: pgmhsp imported from {pgmhsp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = workloads.WORKLOADS
    elif args.workload in workloads.WORKLOADS:
        names = (args.workload,)
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    results = {}
    for name in names:
        started = time.monotonic()
        workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
        os.makedirs(workdir)
        try:
            ops = workloads.build(name, args.seed, workdir)
            results[name] = measure(name, args, ops, workdir, started)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
                os.rmdir(WORK_ROOT)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


def measure(workload: str, args, ops, workdir: str, started: float) -> dict:
    """Run the ops round-robin for ``--seconds``, print a summary, return the result.

    The first pass runs every op; after it, the next op runs only if its
    median time still fits in ``--seconds``.
    """
    env = child_env()
    deadline = started + HARD_LIMIT_S
    modes = (False, True) if args.trace else (False,)
    runs = {mode: [[] for _ in ops] for mode in modes}  # OpResults of op i
    order, rss, errors, cal = [], [], [], []  # op runs in order, calibrations
    attempted = 0
    loop_start = time.monotonic()
    for n in itertools.count():
        i = n % len(ops)
        if n >= len(ops):
            expected = sum(statistics.median(r.wall for r in runs[m][i]) for m in modes)
            expected += len(modes) * statistics.median(cal)  # and their calibrations
            if time.monotonic() - loop_start + expected > args.seconds:
                break
        for mode in modes:
            attempted += 1
            if time.monotonic() >= deadline:
                errors.append(f"{ops[i].name} (traced={mode}): not started, run time limit reached")
                continue
            cal.append(calibrate(env))
            res = run_op(ops[i], mode, workdir, env, deadline)
            runs[mode][i].append(res)
            order.append(res)
            rss.append(res.rss_mb)
            if res.error:
                errors.append(f"{ops[i].name} (traced={mode}): {res.error}")
        if time.monotonic() >= deadline:
            break
    cal.append(calibrate(env))
    for res, before, after in zip(order, cal, cal[1:]):
        res.speed = 2 * CAL_REF_S / (before + after)

    def pass_time(mode, scaled=True):
        """One pass: the sum over ops of each op's median wall time."""
        return sum(
            statistics.median(r.wall * (r.speed if scaled else 1.0) for r in op_runs)
            for op_runs in runs[mode] if op_runs
        )

    failed = len(errors)
    for message in errors:
        print(f"FAILED {message}")
    print(f"workload {workload} seed {args.seed} trace {args.trace}: {len(ops)} ops, "
          f"{attempted} runs in {time.monotonic() - loop_start:.1f} s")
    for mode in modes:
        for op, op_runs in zip(ops, runs[mode]):
            if op_runs:
                q1, med, q3 = quartiles([r.wall for r in op_runs])
                label = "traced " if mode else ""
                print(f"  {label}{op.name}: median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(op_runs)}")
    q1, med, q3 = quartiles(cal)
    print(f"  calibration    {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(cal)} "
          f"(reference {CAL_REF_S} s); op times above are raw")
    print(f"  {'pass_s':<14} {pass_time(False):.4f} s (raw {pass_time(False, False):.4f} s)")
    setups = [r.setup * r.speed for r in order if r.setup is not None]
    setup_s = statistics.median(setups) if setups else 0.0
    if setups:
        q1, med, q3 = quartiles(setups)
        raw = statistics.median(r.setup for r in order if r.setup is not None)
        print(f"  {'setup_s':<14} {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(setups)} (raw {raw:.4f} s)")
    print(f"  {'peak_rss_mb':<14} {max(rss, default=0.0):.1f} MB (highest of {len(rss)} ops)")
    print(f"  {'fail_frac':<14} {failed / attempted:.4f} ({failed} of {attempted} ops)")

    if args.trace:
        metrics = per_layer_metrics(runs[True], pass_time(True) - pass_time(False))
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:.6g} {unit}")
    else:
        metrics = {
            "pass_s": (pass_time(False), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(rss, default=0.0), "MB"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    raise SystemExit(main())
