"""Reduction to cyclic hidden subgroups and the end-to-end solve driver.

The reduction factors out H1 = H intersect (A x {0}) by linear algebra
over F_p on one basis.  The abelian problem on A x {0} is solved by
enumeration, and _span puts the A1 it finds in normal form: its reduced
row echelon basis (for Z_N, the generator gcd(N, A1)).  H1 is normal iff
the automorphism maps A1 into itself, a rank test: adding the images of
the basis leaves the rank unchanged (for Z_N, d divides mu d).  If not,
H = H1 and we are done; else the quotient A/A1 x| Z_p keeps the
non-pivot coordinates, and the projection clears the pivots, which gives
lexicographically-least coset representatives (_representative).  The
quotient of Z_N is cyclic and the quotient of Z_p^r is elementary
abelian, so both stay inside the supported families.  The fixture oracle
holds its planted subgroup in the same normal form, A1 and d, and labels
a coset from it with one table lookup (or product) and one reduction.

The PGM stage draws a uniform block x per trial, then an outcome from its
exact law for the state labeled by the planted generator; each sampled
candidate is verified against the oracle with two real queries.  State
preparation is charged k queries per trial to keep the standard accounting.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .eta import EtaStats, check_enumeration, eta_statistics
from .groups import (
    CyclicGroup,
    GroupElement,
    SemidirectGroup,
    _Record,
    element_mul,
    mat_identity,
    phi_apply,
    row_reduce,
    semidirect_zn,
    semidirect_zpr,
    subgroup_order,
)
from .pgm import best_certified_lower_bound, block_outcome_law


class HidingFunction:
    """Oracle g -> label, constant and distinct on left cosets of the
    hidden subgroup.  Counts every evaluation.

    ``hidden_d`` is a fixture side channel: the least-index d with (d, 1)
    in the planted subgroup, or None when the subgroup lies in A; the
    solver reads it only to build the exact simulated states, never
    through counted queries.
    """

    def __init__(self, group: SemidirectGroup, fn, hidden_d=None):
        self.group = group
        self._fn = fn
        self.queries = 0
        self.hidden_d = hidden_d

    def __call__(self, a, b: int):
        self.queries += 1
        return self._fn(self.group.element(a, b))


def subgroup_closure(generators, g: SemidirectGroup) -> set[GroupElement]:
    """All elements generated by the given list, by saturation."""
    elems = {g.identity}
    frontier = [g.identity]
    gens = [g.element(x.a, x.b) for x in generators]
    while frontier:
        current = frontier.pop()
        for gen in gens:
            nxt = element_mul(current, gen, g)
            if nxt not in elems:
                elems.add(nxt)
                frontier.append(nxt)
    return elems


def coset_hiding_function(
    g: SemidirectGroup, hidden=None, generators=None
) -> HidingFunction:
    """Canonical-coset oracle fixture.

    ``hidden=d`` plants H = <(d, 1)>; ``generators`` plants an arbitrary
    subgroup; passing neither plants the trivial subgroup.  H is read once
    into its normal form, A1 = H intersect A (_span) and the least-index
    d with (d, 1) in H if there is one, and a query labels the coset of
    (a, b) from that form without building it.  With (d, 1) in H, the
    label is the A-part of (a, b)(d, 1)^(-b), the coset's element with
    second coordinate 0, reduced modulo A1: a plus the shift of b, from a
    table of p shifts built once (_shifts).  Otherwise H = A1, and the coset
    (a + phi^b(A1), b) is labelled (phi^(-b)(a) reduced modulo A1, b).
    """
    if hidden is not None and generators is not None:
        raise ValueError("pass either hidden=d or generators, not both")
    if hidden is not None:
        gens = [g.element(hidden, 1)]
    elif generators is not None:
        gens = [g.element(x.a, x.b) for x in generators]
    else:
        gens = []
    subgroup = subgroup_closure(gens, g)
    rep = _representative(_span([elem.a for elem in subgroup if elem.b == 0], g), g)
    d = next((rep(elem.a) for elem in subgroup if elem.b == 1), None)
    if d is None:
        return HidingFunction(g, lambda elem: (rep(phi_apply(elem.a, g, -elem.b)), elem.b))
    shifts, add = _shifts(g, d), g.a_group.add
    return HidingFunction(g, lambda elem: rep(add(elem.a, shifts[elem.b])), d)


def _shifts(g: SemidirectGroup, d) -> list:
    """shifts[b] for b < p, the A-part of (0, b)(d, 1)^(-b), so that
    (a, b)(d, 1)^(-b) = (a + shifts[b], 0): from shifts[0] = 0, shifts[b + 1]
    = phi(shifts[b]) - d is the A-part of (-d, 1)(shifts[b], 0)."""
    step, shifts = g.element(g.a_group.neg(d), 1), [g.a_group.zero]
    for _ in range(g.p - 1):
        shifts.append(element_mul(step, GroupElement(shifts[-1], 0), g).a)
    return shifts


# ---------------------------------------------------------------------------
# Abelian stage and normality


class SubgroupDescription(NamedTuple):
    """A subgroup given by generators; ``cyclic_d`` marks H = <(d, 1)>."""

    generators: tuple[GroupElement, ...]
    order: int
    cyclic_d: object = None

    @property
    def is_trivial(self) -> bool:
        return self.order == 1


def abelian_hsp_solve(f: HidingFunction, g: SemidirectGroup) -> SubgroupDescription:
    """H1 = {a : f(a, 0) = f(0, 0)}, found with exactly |A| queries, in
    the order of A's elements (zero first); no label is kept."""
    zero = g.a_group.zero
    base = f(zero, 0)
    return _span([a for a in g.a_group.elements() if a != zero and f(a, 0) == base], g)


def _span(elements, g: SemidirectGroup) -> SubgroupDescription:
    """The subgroup of A x {0} that the A-elements generate, in normal
    form: the generator gcd(N, elements) for Z_N, the reduced row echelon
    basis for Z_p^r."""
    a_group = g.a_group
    if isinstance(a_group, CyclicGroup):
        gen = math.gcd(a_group.n, *elements)
        gens = () if gen == a_group.n else (g.element(gen, 0),)
        return SubgroupDescription(gens, a_group.n // gen)
    basis = row_reduce(elements, g.p)
    return SubgroupDescription(tuple(g.element(v, 0) for v in basis), g.p ** len(basis))


def _representative(h1: SubgroupDescription, g: SemidirectGroup):
    """a -> the least-index element of a + A1, for A1 in _span's normal
    form: a modulo the generator for Z_N; for Z_p^r, a with the pivots
    cleared, which is lexicographically least."""
    if isinstance(g.a_group, CyclicGroup):
        modulus = g.a_group.n // h1.order
        return lambda a: a % modulus
    p = g.p
    basis = [(next(i for i, c in enumerate(gen.a) if c), gen.a) for gen in h1.generators]

    def rep(a) -> tuple[int, ...]:
        for piv, row in basis:
            factor = a[piv]
            if factor:
                a = tuple([(u - factor * v) % p for u, v in zip(a, row)])
        return a

    return rep


def check_h1_normal(h1: SubgroupDescription, g: SemidirectGroup) -> bool:
    """H1 <= A x {0} is normal in G iff phi maps A1 into itself.

    A rank test over F_p for Z_p^r: phi(A1) lies in A1 iff adding the
    images of the generators leaves the rank unchanged.  For Z_N, A1 is
    generated by d = gcd(N, generators), and mu d lies in it iff d divides
    it (always so: every subgroup of a cyclic group is characteristic).
    """
    gens = [gen.a for gen in h1.generators]
    images = [phi_apply(a, g) for a in gens]
    if isinstance(g.a_group, CyclicGroup):
        d = math.gcd(g.a_group.n, *gens)
        return all(image % d == 0 for image in images)
    return len(row_reduce(gens + images, g.p)) == len(row_reduce(gens, g.p))


# ---------------------------------------------------------------------------
# Quotient construction


class ReducedProblem(NamedTuple):
    """The hidden subgroup problem pushed down to G2 = (A/A1) x| Z_p.

    ``lift`` maps an A2 element to its lexicographically least coset
    representative in A; ``project`` is the quotient map A -> A2.
    ``group2`` is None when A2 is trivial (H1 = A), in which case only
    the candidate d2 = 0 remains to test.
    """

    group: SemidirectGroup
    h1: SubgroupDescription
    group2: SemidirectGroup | None
    f2: HidingFunction | None
    lift: object  # callable A2-element -> A-element
    project: object  # callable A-element -> A2-element


class ReductionResult(NamedTuple):
    final: SubgroupDescription | None = None
    reduced: ReducedProblem | None = None


def _quotient(g: SemidirectGroup, h1: SubgroupDescription):
    """(G2, lift, project) for A2 = A/A1, with G2 None when A1 = A.  For
    Z_N, A2 = Z_(N/|A1|), and reducing modulo N/|A1| both lifts and
    projects.  For Z_p^r, h1 holds A1's reduced row echelon basis (_span):
    the non-pivot coordinates of A coordinatise A2, and clearing the
    pivots of a projects it."""
    rep = _representative(h1, g)
    if isinstance(g.a_group, CyclicGroup):
        modulus = g.a_group.n // h1.order
        return (semidirect_zn(modulus, g.p, g.mu) if modulus > 1 else None), rep, rep
    p, r = g.p, g.a_group.r
    pivots = {next(i for i, c in enumerate(gen.a) if c) for gen in h1.generators}
    free = [i for i in range(r) if i not in pivots]

    def project(a) -> tuple[int, ...]:
        vec = rep(a)
        return tuple(vec[i] for i in free)

    def lift(a2) -> tuple[int, ...]:
        vec = [0] * r
        for coord, i in zip(a2, free):
            vec[i] = coord % p
        return tuple(vec)

    if not free:
        return None, lift, project
    # Inherited automorphism: the group-side action is project . phi . lift,
    # and the stored (character-side) matrix is its transpose, whose rows
    # are exactly the images of the unit vectors.
    images = tuple(project(phi_apply(lift(unit), g)) for unit in mat_identity(len(free)))
    return semidirect_zpr(p, images), lift, project


def reduce_to_cyclic(f: HidingFunction, g: SemidirectGroup) -> ReductionResult:
    """Factor out H1; the result is either final (H = H1, when H1 is not
    normal) or a reduced problem whose hidden subgroup is trivial or
    cyclic of order p."""
    h1 = abelian_hsp_solve(f, g)
    if not check_h1_normal(h1, g):
        return ReductionResult(final=h1)
    g2, lift, project = _quotient(g, h1)
    if g2 is None:
        reduced = ReducedProblem(g, h1, None, None, lift, project)
        return ReductionResult(reduced=reduced)
    hidden2 = None if f.hidden_d is None else project(f.hidden_d)
    f2 = HidingFunction(g2, lambda elem: f(lift(elem.a), elem.b), hidden2)
    return ReductionResult(reduced=ReducedProblem(g, h1, g2, f2, lift, project))


def detect_trivial_vs_order_p(f: HidingFunction, d, g: SemidirectGroup) -> bool:
    """True iff (d, 1) lies in the hidden subgroup: f(0, 0) = f(d, 1)."""
    return f(g.a_group.zero, 0) == f(d, 1)


# ---------------------------------------------------------------------------
# PGM-driven solve


class TrialRecord(NamedTuple):
    trial: int
    sampled: object  # A element, or None for an outcome outside the support
    verified: bool
    prep_queries: int


class PGMRunResult(_Record):
    """The answer of one measurement-driven run and what it cost; a fresh
    list when no transcript is given."""

    __slots__ = __match_args__ = (
        "answer", "group", "transcript", "trials_used", "prep_queries", "oracle_queries", "seed"
    )

    def __init__(self, answer: SubgroupDescription, group: SemidirectGroup | None = None,
                 transcript: list[TrialRecord] | None = None, trials_used: int = 0,
                 prep_queries: int = 0, oracle_queries: int = 0, seed: int | None = None) -> None:
        self.answer, self.group, self.seed = answer, group, seed
        self.transcript = [] if transcript is None else transcript
        self.trials_used, self.prep_queries = trials_used, prep_queries
        self.oracle_queries = oracle_queries


def default_trial_budget(k: int, g: SemidirectGroup, stats: EtaStats) -> int:
    """ceil(40 / certified-lower-bound) trials, from the exhaustive eta
    histogram ``stats`` of (g, k)."""
    bracket = best_certified_lower_bound(k, g, stats)
    return math.ceil(40 / bracket.lower)


def run_pgm_hsp(
    f: HidingFunction,
    g: SemidirectGroup,
    k: int,
    trials: int | None = None,
    seed: int = 0,
    enumeration_cap: int | None = None,
    population_cap: int | None = None,
) -> PGMRunResult:
    """Measurement-driven search for the order-p hidden subgroup: after the
    enumeration cap, and without ``trials`` the population cap and
    default_trial_budget's eta histogram walk, the fixture must keep the
    promise after reduction (the trivial subgroup or some <(d, 1)> of order
    p).  Each trial draws from one ``random.Random(seed)``: x_1..x_k,
    ``randrange(|A|)`` each (Fourier sampling), then one ``random()`` picks j
    by inverse CDF from pgm.block_outcome_law(x), failing past the last j;
    every candidate is verified with two real queries."""
    if seed is not None and seed < 0:  # random.Random(-s) would draw what s draws
        raise ValueError(f"seed must be non-negative, got {seed}")
    a = g.a_group
    hidden_d = f.hidden_d
    check_enumeration(g.p, k, enumeration_cap)
    if trials is None:
        stats = eta_statistics(g, k, cap=population_cap, enumeration_cap=enumeration_cap)
        trials = default_trial_budget(k, g, stats)
    if hidden_d is not None and subgroup_order(hidden_d, g) != g.p:
        raise ValueError("fixture's planted subgroup does not have order p")
    rng = random.Random(seed)
    result = PGMRunResult(SubgroupDescription((), 1), group=g, seed=seed)
    for trial in range(trials):
        result.prep_queries += k
        xs = [rng.randrange(a.order) for _ in range(k)]
        probs, fail_mass = block_outcome_law(g, xs, hidden_d, enumeration_cap)
        cdf = np.cumsum(np.append(probs, fail_mass))
        draw = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        if draw >= a.order:
            result.transcript.append(TrialRecord(trial, None, False, k))
            continue
        candidate = a.element(draw)
        verified = detect_trivial_vs_order_p(f, candidate, g)
        result.transcript.append(TrialRecord(trial, candidate, verified, k))
        if verified:
            gen = g.element(candidate, 1)
            result.answer = SubgroupDescription((gen,), g.p, cyclic_d=candidate)
            result.trials_used = trial + 1
            result.oracle_queries = f.queries
            return result
    result.trials_used = trials
    result.oracle_queries = f.queries
    return result


class HSPResult(NamedTuple):
    answer: SubgroupDescription
    reduction_final: bool
    pgm_run: PGMRunResult | None
    oracle_queries: int


def solve_hsp(
    f: HidingFunction,
    g: SemidirectGroup,
    k: int,
    trials: int | None = None,
    seed: int = 0,
    enumeration_cap: int | None = None,
    population_cap: int | None = None,
) -> HSPResult:
    """Full pipeline: reduction, PGM stage on the quotient, and assembly
    of the answer inside the original group."""
    outcome = reduce_to_cyclic(f, g)
    if outcome.final is not None:
        return HSPResult(outcome.final, True, None, f.queries)
    reduced = outcome.reduced
    h1 = reduced.h1
    if reduced.group2 is None:
        # A2 trivial: only the candidate (0, 1) remains.
        found = detect_trivial_vs_order_p(f, g.a_group.zero, g)
        gens = h1.generators + ((g.element(g.a_group.zero, 1),) if found else ())
        order = h1.order * (g.p if found else 1)
        return HSPResult(SubgroupDescription(gens, order), False, None, f.queries)
    run = run_pgm_hsp(
        reduced.f2, reduced.group2, k, trials, seed, enumeration_cap, population_cap
    )
    if run.answer.is_trivial:
        answer = SubgroupDescription(h1.generators, h1.order)
    else:
        lifted = g.element(reduced.lift(run.answer.cyclic_d), 1)
        answer = SubgroupDescription(
            h1.generators + (lifted,), h1.order * g.p, cyclic_d=None
        )
    return HSPResult(answer, False, run, f.queries)
