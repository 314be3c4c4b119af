"""Command-line driver for batch verification runs and report emission.

Subcommands: solve-msum, pgm-report, eta-stats, run-hsp.  Exit codes:
0 success, 2 usage or parse error, 3 resource cap exceeded, 4 internal
invariant violation.  A reader that closes stdout early (``| head``) ends
the run quietly with 0.  Output is deterministic for a fixed (config, seed):
sorted keys, %.17g floats.

``main()`` registers ``gc.freeze`` with ``atexit``, once per process.  At
interpreter exit every object still alive then sits in the permanent
generation, so the final collections skip it and the OS reclaims the heap,
as it would after ``os._exit``; the other atexit handlers and the flush of
stdout still run.  An in-process caller of ``main()`` keeps its GC state
until its own interpreter exits.  Python does not promise to call
``__del__`` for objects still alive at exit, so no output may rely on it.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from . import jsonio
from .caps import CapExceeded, enum_cap, pop_cap
from .groups import (
    CyclicGroup,
    SemidirectGroup,
    format_group_spec,
    parse_group_spec,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


def _group_from_args(args) -> SemidirectGroup:
    if not args.group:
        raise UsageError("--group is required")
    return parse_group_spec(args.group)


def _reject_unapplied(args, flags, route: str) -> None:
    """Exit 2 on the first of ``flags`` given to a route that does not apply it."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            raise UsageError(f"{flag} does not apply to {route}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _element_from_json(a_group, value):
    if isinstance(a_group, CyclicGroup):
        if not _is_int(value):
            raise UsageError(f"expected an integer element, got {value!r}")
        return a_group.reduce(value)
    if not isinstance(value, list) or not all(_is_int(c) for c in value):
        raise UsageError(f"expected a list of integers, got {value!r}")
    return a_group.reduce(tuple(value))


def _element_to_json(a_group, value):
    if isinstance(a_group, CyclicGroup):
        return int(value)
    return [int(c) for c in value]


def _write_output(text: str, path: str | None) -> None:
    """Write text, with a final newline added to non-empty text that lacks
    one, to the file at path, or with no path or ``-`` to stdout."""
    if text and not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jsonl(records) -> str:
    """One compact JSON document per line."""
    return "".join(jsonio.dumps(record) + "\n" for record in records)


# ---------------------------------------------------------------------------
# solve-msum


def cmd_solve_msum(args) -> int:
    import json

    from . import msum

    if args.instance and args.instance != "-":
        with open(args.instance, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.load(sys.stdin)
    if not isinstance(payload, dict):
        raise UsageError("instance document must be a JSON object")
    spec = args.group or payload.get("group")
    if not spec or not isinstance(spec, str):
        raise UsageError("group spec missing (flag --group or string key 'group')")
    g = parse_group_spec(spec)
    a = g.a_group
    try:
        x_raw = payload["x"]
        w_raw = payload["w"]
    except KeyError as exc:
        raise UsageError(f"instance document missing key {exc.args[0]!r}") from None
    if not isinstance(x_raw, list) or not x_raw:
        raise UsageError("'x' must be a non-empty list")
    k = payload.get("k", len(x_raw))
    if not _is_int(k) or k != len(x_raw):
        raise UsageError(f"k={k} does not match len(x)={len(x_raw)}")
    x = tuple(_element_from_json(a, xj) for xj in x_raw)
    w = _element_from_json(a, w_raw)
    inst = msum.MSumInstance(g, x, w)

    cap = enum_cap(args.enum_cap)
    result = msum.solve_auto(inst, cap)
    if args.verify:
        # every returned b by its residual; the whole set against brute
        # force where p^k fits the cap
        msum.check_solutions(inst, result.solutions)
        if g.p**inst.k <= cap:
            oracle = msum.solve_bruteforce(inst, cap)
            if oracle.solutions != result.solutions:
                raise AssertionError(
                    f"solver disagrees with brute force on {inst}: "
                    f"{result.solutions} vs {oracle.solutions}"
                )
    doc = {
        "group": format_group_spec(g),
        "k": k,
        "x": [_element_to_json(a, xj) for xj in x],
        "w": _element_to_json(a, w),
        "solutions": [list(b) for b in result.solutions],
        "eta": result.eta,
    }
    _write_output(jsonio.dumps(doc, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pgm-report


def cmd_pgm_report(args) -> int:
    from . import pgm

    g = _group_from_args(args)
    report = pgm.pgm_report(args.k, g, enum_cap(args.enum_cap), pop_cap(args.pop_cap))
    doc = {
        "group": report.group_spec,
        "k": report.k,
        "pr_formula": report.pr_formula,
        "pr_formula_exact": report.pr_formula_exact,
        "pr_trace": report.pr_trace,
        "lemma2": {
            "alpha": report.bracket.alpha,
            "beta": float(report.bracket.beta),
            "lower": float(report.bracket.lower),
            "upper": float(report.bracket.upper),
        },
        "optimality": {
            "character_residual": report.character_residual,
            "pass": report.passed,
        },
    }
    _write_output(jsonio.dumps(doc, indent=2), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eta-stats


def cmd_eta_stats(args) -> int:
    from . import eta

    if args.mode == "exhaustive":
        _reject_unapplied(args, ("--samples", "--seed"), "exhaustive mode")
    else:
        _reject_unapplied(args, ("--pop-cap",), "sampled mode")
        if args.seed is None:
            raise UsageError("sampled mode requires --seed")
        if args.samples is None:
            raise UsageError("sampled mode requires --samples")
    g = _group_from_args(args)
    stats = eta.eta_statistics(
        g,
        args.k,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        cap=pop_cap(args.pop_cap) if args.mode == "exhaustive" else None,
        enumeration_cap=enum_cap(args.enum_cap),
    )
    csv_lines = ["eta_value,count"]
    for eta in sorted(stats.counts):
        csv_lines.append(f"{eta},{stats.counts[eta]}")
    _write_output("\n".join(csv_lines) + "\n", args.out)
    summary = {
        "group": format_group_spec(g),
        "k": args.k,
        "mean": float(stats.mean),
        "variance": float(stats.variance),
        "population": stats.population,
        "mode": stats.mode,
        "seed": stats.seed,
    }
    sys.stdout.write(jsonio.dumps(summary, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run-hsp


def _load_fixture(path: str):
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError("fixture must be a JSON object")
    if doc.get("labeling", "canonical-coset") != "canonical-coset":
        raise UsageError(f"unsupported labeling {doc.get('labeling')!r}")
    if not isinstance(doc.get("group"), str):
        raise UsageError("fixture needs a string key 'group'")
    g = parse_group_spec(doc["group"])
    hidden = doc.get("hidden", "trivial")
    from .groups import GroupElement
    from .pipeline import coset_hiding_function

    if hidden == "trivial":
        return g, coset_hiding_function(g)
    if isinstance(hidden, dict) and "d" in hidden:
        d = _element_from_json(g.a_group, hidden["d"])
        return g, coset_hiding_function(g, hidden=d)
    if isinstance(hidden, dict) and "generators" in hidden:
        items = hidden["generators"]
        if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
            raise UsageError(f"'generators' must be a list of objects, got {items!r}")
        gens = []
        for item in items:
            if "a" not in item or "b" not in item:
                raise UsageError(f"generator {item!r} needs keys 'a' and 'b'")
            b = item["b"]
            if not _is_int(b):
                raise UsageError(f"generator 'b' must be an integer, got {b!r}")
            gens.append(GroupElement(_element_from_json(g.a_group, item["a"]), b))
        return g, coset_hiding_function(g, generators=gens)
    raise UsageError(f"unsupported hidden subgroup spec {hidden!r}")


def _subgroup_to_json(desc, g) -> dict:
    return {
        "order": desc.order,
        "trivial": desc.is_trivial,
        "generators": [
            {"a": _element_to_json(g.a_group, gen.a), "b": gen.b}
            for gen in desc.generators
        ],
    }


def cmd_run_hsp(args) -> int:
    if args.algo == "stripped":
        _reject_unapplied(args, ("--k", "--enum-cap", "--pop-cap", "--fixture"), "--algo stripped")
        if args.exact:
            _reject_unapplied(args, ("--trials", "--seed"), "--exact")
        return _run_hsp_stripped(args)
    _reject_unapplied(args, ("--exact", "--group"), "--algo pgm")
    if args.trials is not None:
        _reject_unapplied(args, ("--pop-cap",), "--trials")
    return _run_hsp_pgm(args)


def _run_hsp_stripped(args) -> int:
    from . import metacyclic

    g = _group_from_args(args)
    if not isinstance(g.a_group, CyclicGroup):
        raise UsageError("the stripped algorithm needs a zn group")
    n, p, mu = g.a_group.n, g.p, g.mu
    if args.exact:
        rate = metacyclic.exact_success_rate(n, p, mu)
        bound = metacyclic.success_bound(n, p)
        doc = {
            "N": n,
            "p": p,
            "mu": mu,
            "exact_rate": float(rate),
            "exact_rate_fraction": rate,
            "bound": float(bound),
            "pass": rate >= bound,
        }
        _write_output(jsonio.dumps(doc, indent=2), args.out)
        return EXIT_OK
    if args.seed is None:
        raise UsageError("sampled stripped runs require --seed")
    if args.trials is None:
        raise UsageError("sampled stripped runs require --trials")
    est = metacyclic.estimate_success_rate(
        n, p, mu, args.trials, args.seed, collect=args.out is not None
    )
    doc = {
        "N": n,
        "p": p,
        "mu": mu,
        "trials": est.trials,
        "successes": est.successes,
        "empirical_rate": est.rate,
        "wilson_99": list(est.interval) if est.interval else None,
        "bound": float(est.bound),
        "pass": est.passed,
        "seed": est.seed,
    }
    if args.out:
        _write_output(_jsonl(est.trial_records), args.out)
    sys.stdout.write(jsonio.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _run_hsp_pgm(args) -> int:
    from .pipeline import solve_hsp

    if not args.fixture:
        raise UsageError("--algo pgm requires --fixture")
    if args.seed is None:
        raise UsageError("--algo pgm requires --seed")
    g, f = _load_fixture(args.fixture)
    k = 1 if args.k is None else args.k
    result = solve_hsp(
        f,
        g,
        k,
        trials=args.trials,
        seed=args.seed,
        enumeration_cap=enum_cap(args.enum_cap),
        population_cap=None if args.trials is not None else pop_cap(args.pop_cap),
    )
    doc = {
        "group": format_group_spec(g),
        "k": k,
        "answer": _subgroup_to_json(result.answer, g),
        "reduction_final": result.reduction_final,
        "oracle_queries": result.oracle_queries,
        "trials_used": result.pgm_run.trials_used if result.pgm_run else 0,
        "seed": args.seed,
    }
    if args.out:
        run = result.pgm_run
        lines = (
            {
                "trial": rec.trial,
                "sampled": None  # samples live in the quotient
                if rec.sampled is None
                else _element_to_json(run.group.a_group, rec.sampled),
                "verified": rec.verified,
                "prep_queries": rec.prep_queries,
            }
            for rec in (run.transcript if run is not None else ())
        )
        _write_output(_jsonl(lines), args.out)
    sys.stdout.write(jsonio.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _int_at_least(low: int, what: str):
    """argparse type for an integer >= low; what names the range in errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgmhsp",
        description="Exact simulator and verifier for pretty-good-measurement "
        "hidden subgroup algorithms over A x| Z_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *caps):
        """--group, --out and the cap flags the subcommand applies."""
        p.add_argument("--group", help="group spec, e.g. 'zn N=7 p=3 mu=2'")
        p.add_argument("--out", help="output path (default stdout)")
        for cap in caps:
            p.add_argument(f"--{cap}-cap", type=_int_at_least(1, "positive"), default=None)

    p_msum = sub.add_parser("solve-msum", help="solve one matrix sum instance")
    common(p_msum, "enum")
    p_msum.add_argument("--instance", help="instance JSON path (default stdin)")
    p_msum.add_argument(
        "--verify",
        action="store_true",
        help="re-check every solution, and the set against brute force where p^k fits the cap",
    )
    p_msum.set_defaults(func=cmd_solve_msum)

    p_rep = sub.add_parser("pgm-report", help="success probability and optimality")
    common(p_rep, "enum", "pop")
    p_rep.add_argument("--k", type=_int_at_least(1, "positive"), default=1)
    p_rep.set_defaults(func=cmd_pgm_report)

    p_eta = sub.add_parser("eta-stats", help="solution-count histogram")
    common(p_eta, "enum", "pop")
    p_eta.add_argument("--k", type=_int_at_least(1, "positive"), default=1)
    p_eta.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p_eta.add_argument("--samples", type=int, default=None)
    p_eta.add_argument("--seed", type=_int_at_least(0, "non-negative"), default=None)
    p_eta.set_defaults(func=cmd_eta_stats)

    p_run = sub.add_parser("run-hsp", help="end-to-end hidden subgroup run")
    common(p_run, "enum", "pop")
    p_run.add_argument("--algo", choices=["pgm", "stripped"], default="pgm")
    p_run.add_argument(
        "--k", type=_int_at_least(1, "positive"), default=None,
        help="copies for --algo pgm (default 1)",
    )
    p_run.add_argument("--trials", type=_int_at_least(0, "non-negative"), default=None)
    p_run.add_argument("--seed", type=_int_at_least(0, "non-negative"), default=None)
    p_run.add_argument("--exact", action="store_true", help="full-branch aggregation")
    p_run.add_argument("--fixture", help="oracle fixture JSON path")
    p_run.set_defaults(func=cmd_run_hsp)
    return parser


def main(argv=None) -> int:
    # unregistered first, so that a process calling main() again still
    # freezes once at exit
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so the flush at
        # interpreter exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, MemoryError) as exc:
        print(f"cap exceeded: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAP
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
