"""Run one benchmark op in a fresh Python process.

Usage: python3 bench/worker.py SPEC.json

The spec names the op (a CLI argv, or a batch file of matrix-sum
instances), whether to trace, and where to write the timing record; the
op's output goes to stdout.  The record holds the monotonic time at which
``pgmhsp`` finished importing (the parent subtracts its spawn time to get
set-up time) and, with tracing on, the spans and counters.

Tracing wraps the public functions in ``TRACED`` in every ``pgmhsp.*``
namespace that binds them, so calls made through ``from .x import f``
aliases are caught too.  Spans stay in memory and are written at exit.  A
function missing from the package is skipped, not an error.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = {
    "groups": ("parse_group_spec",),
    "msum": ("eta_statistics", "solve_auto"),
    "states": ("block_decomposition", "hidden_subgroup_state"),
    "pgm": (
        "build_pgm",
        "success_probability_formula",
        "success_probability_trace",
        "best_certified_lower_bound",
        "verify_optimality",
        "outcome_distribution",
        "trivial_state_outcome_distribution",
    ),
    "pipeline": (
        "coset_hiding_function",
        "reduce_to_cyclic",
        "default_trial_budget",
        "run_pgm_hsp",
    ),
    "metacyclic": ("run_stripped_algorithm", "exact_success_rate"),
}


class Tracer:
    """Span recorder plus counters taken from the wrapped functions' results."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._seen_decompositions: dict[int, object] = {}
        self._oracles: list = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED that the package defines."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "pgmhsp" or name.startswith("pgmhsp.")
        }
        for module, functions in TRACED.items():
            home = modules.get("pgmhsp." + module)
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{module}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    # Counters, read off results where the work happens.

    def _observe_pipeline_coset_hiding_function(self, oracle) -> None:
        self._oracles.append(oracle)

    def finish(self) -> None:
        """Counters that are read at exit, when the run is complete."""
        for oracle in self._oracles:
            self.count("pipeline.oracle_queries", oracle.queries)

    def _observe_states_block_decomposition(self, dec) -> None:
        # Cached per group: count each decomposition once per process.
        if id(dec) in self._seen_decompositions:
            return
        self._seen_decompositions[id(dec)] = dec
        self.count("states.blocks", len(dec.blocks))
        self.count("states.support", sum(len(block) for block in dec.blocks))

    def _observe_states_hidden_subgroup_state(self, result) -> None:
        dim = result[0].shape[0]
        self.count("states.dense_bytes", dim * dim * 16)

    def _observe_msum_eta_statistics(self, stats) -> None:
        self.count("msum.eta_pairs", stats.population)

    def _observe_pipeline_run_pgm_hsp(self, run) -> None:
        self.count("pipeline.trials_used", run.trials_used)
        self.count("pipeline.verified_trials", sum(r.verified for r in run.transcript))

    def _observe_metacyclic_run_stripped_algorithm(self, transcript) -> None:
        self.count("metacyclic.accepted", bool(transcript.accepted))


def _element(a_group, value):
    return a_group.reduce(tuple(value) if isinstance(value, list) else value)


def run_msum_batch(path: str) -> int:
    """Solve every instance of a batch file with ``msum.solve_auto``."""
    from pgmhsp import groups, msum

    with open(path, encoding="utf-8") as fh:
        batches = json.load(fh)
    out = []
    for batch in batches:
        g = groups.parse_group_spec(batch["group"])
        a = g.a_group
        solved = []
        for x, w in batch["instances"]:
            inst = msum.MSumInstance(g, tuple(_element(a, xj) for xj in x), _element(a, w))
            solved.append([list(b) for b in msum.solve_auto(inst).solutions])
        out.append(solved)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    import pgmhsp  # noqa: F401  (imports every module of the package)
    import pgmhsp.cli

    imported = time.monotonic()
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    code = 1
    try:
        if "argv" in spec:
            code = pgmhsp.cli.main(spec["argv"])
        else:
            code = run_msum_batch(spec["batch"])
    finally:
        sys.stdout.flush()
        record = {"imported": imported}
        if tracer is not None:
            tracer.finish()
            record.update(spans=tracer.spans, counters=tracer.counters)
        with open(spec["record"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
