"""Seeded op lists and output checks for the four benchmark workloads.

Every input a workload needs (fixtures, planted subgroups, Monte Carlo
seeds, matrix-sum instances) is drawn from ``random.Random`` seeded with
the workload name and the ``--seed`` value, so one seed always gives the
same ops.  The program under test sees only the generated argv and files.

Each op carries a check of its stdout; a check raises ``CheckFailed``.
The group lists are fixed: every op here succeeds at the commit that
defined the benchmark, and groups that hit a resource cap are left out.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from pgmhsp import groups, msum, pipeline

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# (group, k) for pgm-report: the dense route of pgm and states.
REPORT_CASES = [
    ("zn N=7 p=3 mu=2", 1),
    ("zn N=9 p=3 mu=4", 1),
    ("zn N=31 p=5 mu=2", 1),
    ("zpr p=3 jordan=2", 1),
    ("zpr p=5 jordan=2", 1),
    ("zpr p=3 jordan=3", 1),
    ("zpr p=7 jordan=2", 1),
    ("zn N=7 p=3 mu=2", 2),
    ("zn N=9 p=3 mu=4", 2),
    ("zpr p=3 jordan=2", 2),
]

# run-hsp --algo pgm fixtures: the block/outcome path and the reduction.
PLANTED_CASES = [
    ("zpr p=3 jordan=2", 2),
    ("zpr p=5 jordan=2", 2),
    ("zpr p=7 jordan=2", 2),
    ("zn N=31 p=5 mu=2", 2),
]
TRIVIAL_CASES = [("zpr p=3 jordan=2", 2), ("zn N=31 p=5 mu=2", 1)]
QUOTIENT_CASES = [("zpr p=3 jordan=3", 2), ("zn N=9 p=3 mu=4", 2)]

# eta-stats exhaustive and sampled: the batched histogram.
CENSUS_CASES = [
    ("zn N=9901 p=3 mu=99", 1),
    ("zn N=31 p=5 mu=2", 3),
    ("zpr p=7 jordan=2", 3),
    ("zpr p=5 jordan=3", 2),
    ("zpr p=3 jordan=3", 3),
]
SAMPLED_CASE = ("zpr p=5 jordan=3", 3)
SAMPLED_COUNT = 20000

# msum.solve_auto, one population per solver route: (route, group, k).
MSUM_ROUTES = [
    ("dlog", "zn N=9901 p=3 mu=99", 1),
    ("dlog", "zn N=31 p=5 mu=2", 1),
    ("closed_form", "zpr p=7 jordan=2", 2),
    ("jordan", "zpr p=3 jordan=3", 3),
    ("jordan", "zpr p=5 jordan=2", 3),
    ("bruteforce", "zn N=31 p=5 mu=2", 3),
]
MSUM_INSTANCES = 3000

# run-hsp --algo stripped: Monte Carlo (group, trials), plus --exact at N=7.
STRIPPED_CASES = [
    ("zn N=7 p=3 mu=2", 10000),
    ("zn N=31 p=5 mu=2", 2000),
    ("zn N=101 p=5 mu=36", 300),
]
STRIPPED_EXACT = "zn N=7 p=3 mu=2"

TOL = 1e-10
# A Monte Carlo success count further than this many standard deviations
# from trials * bound fails; the false-alarm rate per op is below 1e-6.
MC_SIGMAS = 5.0

class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass
class Op:
    """One op: a CLI argv or an msum batch file, and the check of its stdout."""

    name: str
    check: object  # callable(stdout: str) -> None, raises CheckFailed
    argv: list | None = None
    batch: str | None = None
    files: dict = field(default_factory=dict)  # path -> text, written at set-up


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def case_key(spec: str, k: int) -> str:
    return f"{spec} | k={k}"


def to_json(a_group, value):
    return int(value) if isinstance(a_group, groups.CyclicGroup) else list(value)


def from_json(a_group, value):
    return a_group.reduce(tuple(value) if isinstance(value, list) else value)


# ---------------------------------------------------------------------------
# report


def check_report(reference: dict):
    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        pr, pr_trace = doc["pr_formula"], doc["pr_trace"]
        require(abs(pr - pr_trace) <= TOL, f"pr_formula {pr} != pr_trace {pr_trace}")
        require(doc["optimality"]["pass"] is True, "optimality check did not pass")
        lemma = doc["lemma2"]
        require(
            lemma["lower"] - TOL <= pr <= lemma["upper"] + TOL,
            f"bracket {lemma['lower']} <= {pr} <= {lemma['upper']} fails",
        )
        require(
            doc["pr_formula_exact"] == reference["pr_formula_exact"],
            f"pr_formula_exact {doc['pr_formula_exact']} != {reference['pr_formula_exact']}",
        )
        require(lemma["alpha"] == reference["alpha"], "bracket alpha differs from reference")
        for key, value in (("pr_formula", pr), ("beta", lemma["beta"])):
            require(
                abs(value - reference[key]) <= TOL,
                f"{key} {value} differs from reference {reference[key]}",
            )

    return check


def report_ops(rng: random.Random, workdir: str) -> list[Op]:
    reference = load_reference()["report"]
    return [
        Op(
            f"pgm-report {spec} k={k}",
            check_report(reference[case_key(spec, k)]),
            argv=["pgm-report", "--group", spec, "--k", str(k)],
        )
        for spec, k in REPORT_CASES
    ]


# ---------------------------------------------------------------------------
# solve


def order_p_elements(g) -> list:
    return [d for d in g.a_group.elements() if groups.subgroup_order(d, g) == g.p]


def closure(generators, g) -> frozenset:
    return frozenset(pipeline.subgroup_closure(generators, g))


def invariant_line_generators(g) -> list:
    """Nonzero a whose cyclic subgroup <a> is mapped onto itself by phi."""
    out = []
    for a in g.a_group.elements():
        if a == g.a_group.zero:
            continue
        line = closure([g.element(a, 0)], g)
        if g.element(groups.phi_apply(a, g), 0) in line and len(line) < g.a_group.order:
            out.append(a)
    return out


def check_solve(g, planted: frozenset):
    def check(stdout: str) -> None:
        answer = json.loads(stdout)["answer"]
        gens = [g.element(from_json(g.a_group, item["a"]), item["b"])
                for item in answer["generators"]]
        require(answer["order"] == len(planted), f"answer order {answer['order']} != {len(planted)}")
        require(closure(gens, g) == planted, "answer is not the planted subgroup")

    return check


def solve_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = []

    def add(tag: str, spec: str, k: int, hidden, gens) -> None:
        g = groups.parse_group_spec(spec)
        path = os.path.join(workdir, f"fixture-{len(ops)}.json")
        fixture = {"group": spec, "hidden": hidden, "labeling": "canonical-coset"}
        ops.append(
            Op(
                f"run-hsp pgm {tag} {spec} k={k}",
                check_solve(g, closure(gens, g)),
                argv=["run-hsp", "--algo", "pgm", "--fixture", path, "--k", str(k),
                      "--seed", str(rng.randrange(2**31))],
                files={path: json.dumps(fixture)},
            )
        )

    for spec, k in PLANTED_CASES:
        g = groups.parse_group_spec(spec)
        d = rng.choice(order_p_elements(g))
        add("planted", spec, k, {"d": to_json(g.a_group, d)}, [g.element(d, 1)])
    for spec, k in TRIVIAL_CASES:
        add("trivial", spec, k, "trivial", [])
    for spec, k in QUOTIENT_CASES:
        g = groups.parse_group_spec(spec)
        a1 = rng.choice(invariant_line_generators(g))
        line = closure([g.element(a1, 0)], g)
        # (d, 1) must add a factor p, not more of A, so the quotient hides
        # a cyclic subgroup of order p.
        candidates = [
            d for d in g.a_group.elements()
            if len(closure([g.element(a1, 0), g.element(d, 1)], g)) == g.p * len(line)
        ]
        d = rng.choice(candidates)
        gens = [g.element(a1, 0), g.element(d, 1)]
        hidden = {"generators": [{"a": to_json(g.a_group, e.a), "b": e.b} for e in gens]}
        add("quotient", spec, k, hidden, gens)
    return ops


# ---------------------------------------------------------------------------
# census


def parse_histogram(stdout: str) -> tuple[dict, dict]:
    """eta-stats stdout: CSV 'eta_value,count' lines, then a JSON summary."""
    csv_text, brace, summary = stdout.partition("{")
    lines = csv_text.split()
    require(lines[:1] == ["eta_value,count"], "missing CSV header")
    counts = {}
    for line in lines[1:]:
        eta, count = line.split(",")
        counts[int(eta)] = int(count)
    return counts, json.loads(brace + summary)


def check_exhaustive(g, k: int, reference: dict):
    a_order = g.a_group.order

    def check(stdout: str) -> None:
        counts, summary = parse_histogram(stdout)
        population = sum(counts.values())
        require(population == a_order ** (k + 1), f"population {population} != |A|^(k+1)")
        require(summary["population"] == population, "summary population differs from CSV")
        mean = Fraction(sum(eta * c for eta, c in counts.items()), population)
        require(mean == Fraction(g.p**k, a_order), f"mean {mean} != p^k/|A|")
        require(
            counts == {int(eta): c for eta, c in reference.items()},
            "histogram differs from reference",
        )

    return check


def check_sampled(g, k: int, seed: int):
    def check(stdout: str) -> None:
        counts, summary = parse_histogram(stdout)
        require(sum(counts.values()) == SAMPLED_COUNT, "sample count differs")
        require(all(0 <= eta <= g.p**k for eta in counts), "eta outside [0, p^k]")
        require(summary["seed"] == seed and summary["mode"] == "sampled", "summary mismatch")

    return check


def msum_population(rng: random.Random, g, k: int) -> list:
    """Half the instances plant w as an image (eta > 0), half draw w uniformly."""
    a = g.a_group
    elems = list(a.elements())
    out = []
    for i in range(MSUM_INSTANCES):
        x = tuple(rng.choice(elems) for _ in range(k))
        if i % 2 == 0:
            w = a.zero
            for xj in x:
                w = a.add(w, groups.conj_apply(rng.randrange(g.p), xj, g))
        else:
            w = rng.choice(elems)
        out.append((x, w))
    return out


def check_msum(expected: list):
    def check(stdout: str) -> None:
        got = json.loads(stdout)
        require(got == expected, "solve_auto differs from solve_bruteforce")

    return check


def census_ops(rng: random.Random, workdir: str) -> list[Op]:
    reference = load_reference()["census"]
    ops = []
    for spec, k in CENSUS_CASES:
        g = groups.parse_group_spec(spec)
        ops.append(
            Op(
                f"eta-stats exhaustive {spec} k={k}",
                check_exhaustive(g, k, reference[case_key(spec, k)]),
                argv=["eta-stats", "--group", spec, "--k", str(k)],
            )
        )
    spec, k = SAMPLED_CASE
    seed = rng.randrange(2**31)
    ops.append(
        Op(
            f"eta-stats sampled {spec} k={k}",
            check_sampled(groups.parse_group_spec(spec), k, seed),
            argv=["eta-stats", "--group", spec, "--k", str(k), "--mode", "sampled",
                  "--samples", str(SAMPLED_COUNT), "--seed", str(seed)],
        )
    )
    # The brute-force answers are computed here, at set-up, outside timing.
    batches, expected = [], []
    for _route, spec, k in MSUM_ROUTES:
        g = groups.parse_group_spec(spec)
        population = msum_population(rng, g, k)
        batches.append({
            "group": spec,
            "instances": [[[to_json(g.a_group, xj) for xj in x], to_json(g.a_group, w)]
                          for x, w in population],
        })
        expected.append([
            [list(b) for b in msum.solve_bruteforce(msum.MSumInstance(g, x, w)).solutions]
            for x, w in population
        ])
    path = os.path.join(workdir, "msum-batch.json")
    ops.append(
        Op("msum.solve_auto batch", check_msum(expected), batch=path,
           files={path: json.dumps(batches)})
    )
    return ops


# ---------------------------------------------------------------------------
# stripped


def success_bound(n: int, p: int) -> Fraction:
    """phi(N) p / N^2, computed here independently of the package."""
    return Fraction(sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1) * p, n * n)


def check_stripped_mc(n: int, p: int, trials: int):
    bound = success_bound(n, p)

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        require(doc["trials"] == trials, "trial count differs")
        require(abs(doc["bound"] - float(bound)) <= TOL, "bound differs from phi(N) p / N^2")
        sigma = math.sqrt(trials * float(bound) * (1 - float(bound)))
        require(
            abs(doc["successes"] - trials * float(bound)) <= MC_SIGMAS * sigma,
            f"{doc['successes']} successes in {trials} trials is off the rate {bound}",
        )
        low, high = doc["wilson_99"]
        require(doc["pass"] is (high >= float(bound)), "pass flag disagrees with the interval")

    return check


def check_stripped_exact(n: int, p: int):
    bound = success_bound(n, p)

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        require(doc["pass"] is True, "exact run does not pass")
        require(
            Fraction(doc["exact_rate_fraction"]) == bound,
            f"exact rate {doc['exact_rate_fraction']} != {bound}",
        )

    return check


def stripped_ops(rng: random.Random, workdir: str) -> list[Op]:
    ops = []
    for spec, trials in STRIPPED_CASES:
        g = groups.parse_group_spec(spec)
        ops.append(
            Op(
                f"run-hsp stripped {spec} trials={trials}",
                check_stripped_mc(g.a_group.n, g.p, trials),
                argv=["run-hsp", "--algo", "stripped", "--group", spec,
                      "--trials", str(trials), "--seed", str(rng.randrange(2**31))],
            )
        )
    g = groups.parse_group_spec(STRIPPED_EXACT)
    ops.append(
        Op(
            f"run-hsp stripped --exact {STRIPPED_EXACT}",
            check_stripped_exact(g.a_group.n, g.p),
            argv=["run-hsp", "--algo", "stripped", "--group", STRIPPED_EXACT, "--exact"],
        )
    )
    return ops


OP_LISTS = {
    "report": report_ops,
    "solve": solve_ops,
    "census": census_ops,
    "stripped": stripped_ops,
}
WORKLOADS = tuple(OP_LISTS)


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The op list of one workload for one seed; writes the ops' input files."""
    rng = random.Random(f"{workload}:{seed}")
    ops = OP_LISTS[workload](rng, workdir)
    for op in ops:
        for path, text in op.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    return ops


def reference_cases() -> dict:
    """The seed-independent ops whose outputs ``reference.json`` pins."""
    return {
        "report": [(spec, k, ["pgm-report", "--group", spec, "--k", str(k)])
                   for spec, k in REPORT_CASES],
        "census": [(spec, k, ["eta-stats", "--group", spec, "--k", str(k)])
                   for spec, k in CENSUS_CASES],
    }


def reference_entry(workload: str, stdout: str) -> dict:
    if workload == "report":
        doc = json.loads(stdout)
        return {
            "pr_formula_exact": doc["pr_formula_exact"],
            "pr_formula": doc["pr_formula"],
            "alpha": doc["lemma2"]["alpha"],
            "beta": doc["lemma2"]["beta"],
        }
    counts, _summary = parse_histogram(stdout)
    return {str(eta): c for eta, c in sorted(counts.items())}
