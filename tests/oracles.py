"""Dense and direct reference constructions the tests compare against.

The library verifies the PGM on one x per symmetry orbit of A^k.  These
helpers build the same operators block by block over every x (the block
route), or as dense |G|^k x |G|^k matrices, or recompute a quantity by a
route the library does not take (the coset states, the step-by-step run of
the stripped metacyclic algorithm), so that every result has an
independent check at small dimensions.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from pgmhsp.caps import CapExceeded
from pgmhsp.groups import (
    AbelianGroup,
    CyclicGroup,
    GroupElement,
    SemidirectGroup,
    VectorGroup,
    _Record,
    conj_apply,
    element_index,
    element_mul,
    heisenberg_group,
    msum_table,
    parse_group_spec,
    phi_apply,
    phi_sum,
    subgroup_order,
)
from pgmhsp.eta import (
    _CHUNK,
    _phase_roots,
    eta_rows,
    fft_over_a,
    image_table,
    orbit_images,
    phase_indices,
)
from pgmhsp.metacyclic import _cdf, _erasure_table, _validate
from pgmhsp.msum import MSumInstance, SolutionSet, solve_bruteforce
from pgmhsp.pgm import OPTIMALITY_TOL, block_outcome_law
from pgmhsp.pipeline import HidingFunction, ReducedProblem, subgroup_closure

# ---------------------------------------------------------------------------
# Groups and the matrix sum problem


def group_elements(g: SemidirectGroup):
    """All of G in index order (A index major, Z_p index minor)."""
    for a in g.a_group.elements():
        for b in range(g.p):
            yield GroupElement(a, b)


def element_pow(x, e: int, g: SemidirectGroup):
    """x^e by repeated multiplication."""
    result = g.identity
    for _ in range(e):
        result = element_mul(result, x, g)
    return result


def instance_residual(inst: MSumInstance, b: tuple[int, ...]):
    """sum_j conj_apply(b_j, x_j) for a candidate b (soundness re-check)."""
    a = inst.group.a_group
    total = a.zero
    for bj, xj in zip(b, inst.x):
        total = a.add(total, conj_apply(bj, xj, inst.group))
    return total


def _component_tables(g: SemidirectGroup, x: tuple) -> list[list]:
    """Per-copy tables T_j[b] = conj_apply(b, x_j) for b in [0, p)."""
    return [[conj_apply(b, xj, g) for b in range(g.p)] for xj in x]


def _enumerate(g: SemidirectGroup, x: tuple):
    """(b, sum_j conj_apply(b_j, x_j)) for every b in Z_p^k, lexicographically."""
    a = g.a_group
    tables = _component_tables(g, tuple(a.reduce(xj) for xj in x))
    for b in itertools.product(range(g.p), repeat=len(x)):
        total = a.zero
        for bj, tab in zip(b, tables):
            total = a.add(total, tab[bj])
        yield b, total


def solve_all_w(g: SemidirectGroup, x: tuple) -> dict:
    """Map w -> sorted solution list for a fixed x, by one pure-Python
    enumeration of Z_p^k (the reference for every matrix-sum solver)."""
    buckets: dict = {}
    for b, total in _enumerate(g, x):
        buckets.setdefault(total, []).append(b)
    return buckets


TABLE_GROUPS = [
    "zn N=7 p=3 mu=2",
    "zn N=9 p=3 mu=4",
    "zpr p=3 jordan=2",
    "zpr p=3 jordan=3",
    "zpr p=3 r=2 mu=1,0;1,1",  # not in Jordan form
]
# (spec, k) where the pure-Python oracle enumerates at most 20000 (x, b) pairs
TABLE_CASES = [
    (spec, k)
    for spec in TABLE_GROUPS
    for k in (1, 2, 3)
    if (parse_group_spec(spec).order) ** k <= 20_000
]


def x_tuples(a_order: int, k: int) -> np.ndarray:
    """Per-copy A-indices, shape (|A|^k, k), of every x in idx_A order."""
    flat = np.arange(a_order**k, dtype=np.int64)
    return flat[:, None] // a_order ** np.arange(k, dtype=np.int64) % a_order


def block_images(
    g: SemidirectGroup, k: int, enumeration_cap: int | None = None
) -> np.ndarray:
    """Image table of every x in idx_A order, shape (|A|^k, p^k)."""
    return image_table(g, x_tuples(g.a_group.order, k), enumeration_cap)


def eta_rows_all_x(g: SemidirectGroup, k: int) -> np.ndarray:
    """eta rows of all |A|^k x in idx_A order, from one image table."""
    return eta_rows(block_images(g, k), g.a_group.order)


def eta_histogram_all_x(g: SemidirectGroup, k: int) -> dict[int, int]:
    """eta value -> number of (x, w) pairs, from the eta rows of all |A|^k x
    (the reference for the histogram over symmetry orbits)."""
    hist = np.bincount(eta_rows_all_x(g, k).ravel(), minlength=g.p**k + 1)
    return {int(eta): int(c) for eta, c in enumerate(hist) if c}


def squarefree_split(n: int) -> tuple[int, int]:
    """n = c^2 * s with s squarefree, by trial division; returns (c, s)."""
    c, d = 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            c *= d
        d += 1
    return c, n


def success_probability_formula_all_x(k: int, g: SemidirectGroup) -> Fraction | float:
    """(p / |G|^(k+1)) sum_x (sum_w sqrt(eta^x_w))^2 row by row over all
    |A|^k x, each eta split by trial division; exact where every row's
    etas share one squarefree part (the reference for the orbit sum)."""
    exact_total, float_total, all_exact = Fraction(0), 0.0, True
    for row in eta_rows_all_x(g, k):
        etas = row[row > 0].tolist()
        parts = [squarefree_split(eta) for eta in etas]
        if len({s for _c, s in parts}) <= 1:
            exact_total += Fraction(sum(c for c, _s in parts)) ** 2 * parts[0][1]
        else:
            all_exact = False
        float_total += sum(math.sqrt(eta) for eta in etas) ** 2
    scale = Fraction(g.p, g.order ** (k + 1))
    if all_exact:
        return scale * exact_total
    return float(scale) * float_total


def success_probability_decimal(k: int, g: SemidirectGroup, digits: int = 50) -> Decimal:
    """The same sum over all x with ``digits``-digit decimal square roots."""
    with localcontext() as ctx:
        ctx.prec = digits
        roots: dict[int, Decimal] = {}
        total = Decimal(0)
        for row in eta_rows_all_x(g, k):
            block = sum(roots.setdefault(eta, Decimal(eta).sqrt()) for eta in row.tolist())
            total += block * block
        return total * g.p / Decimal(g.order) ** (k + 1)


def outcome_distribution_all_x(k: int, g: SemidirectGroup, d) -> np.ndarray:
    """Pr(j) = (1/(|G|^k |A|)) sum_x |FFT_A(sqrt(eta^x))[d - j]|^2, one FFT
    per row over all |A|^k x (the reference for the per-block laws averaged
    over x).  For d = None, the maximally mixed state, each j has
    support / (|G|^k |A|), the support being the (x, w) with eta^x_w > 0;
    the rest of the mass lies outside the ensemble support."""
    a = g.a_group
    eta = eta_rows_all_x(g, k)
    if d is None:
        return np.full(a.order, np.count_nonzero(eta) / (g.order**k * a.order))
    amps = fft_over_a(a, np.sqrt(eta))
    power = (amps.real**2 + amps.imag**2).sum(axis=0)
    return power[minus_loop(a, a.reduce(d))] / (g.order**k * a.order)


def minus_loop(a: AbelianGroup, d) -> list[int]:
    """A-indices of d - j over j in A-index order, element by element (the
    reference for pgm._minus)."""
    return [a.index(a.add(d, a.neg(j))) for j in a.elements()]


def mean_block_outcome_law(k: int, g: SemidirectGroup, d=None) -> tuple[np.ndarray, float]:
    """(probs, fail_mass) of pgm.block_outcome_law averaged over all |A|^k
    blocks x, one call per block: the outcome law of the k-copy state as
    run-hsp --algo pgm samples it, x uniform."""
    total, fail = np.zeros(g.a_group.order), 0.0
    blocks = x_tuples(g.a_group.order, k)
    for xs in blocks.tolist():
        probs, mass = block_outcome_law(g, xs, d)
        total, fail = total + probs, fail + mass
    return total / len(blocks), fail / len(blocks)


def heisenberg_eta_distribution(p: int) -> dict[int, Fraction]:
    """Exhaustive eta distribution over Heisenberg k=2 instances with
    y1, y2, y1+y2 all nonzero, counted from the eta table."""
    g = heisenberg_group(p)
    a = g.a_group
    xs = np.array(
        [
            (a.index((x1, y1)), a.index((x2, y2)))
            for y1 in range(1, p)
            for y2 in range(1, p)
            if (y1 + y2) % p
            for x1 in range(p)
            for x2 in range(p)
        ]
    )
    hist = np.bincount(eta_rows(image_table(g, xs), a.order).ravel())
    total = int(hist.sum())
    return {int(i): Fraction(int(c), total) for i, c in enumerate(hist) if c}


# ---------------------------------------------------------------------------
# Index conventions and the quotient check


def element_from_index(i: int, g: SemidirectGroup) -> GroupElement:
    """The element of G with index idx_A(a) * p + b."""
    ai, b = divmod(i, g.p)
    return GroupElement(g.a_group.element(ai), b)


def a_tuple_index(a_group: AbelianGroup, x: tuple) -> int:
    """idx_A(x) with copy 1 least significant."""
    i = 0
    for xj in reversed(x):
        i = i * a_group.order + a_group.index(xj)
    return i


def a_tuple_from_index(a_group: AbelianGroup, i: int, k: int) -> tuple:
    """The x in A^k with idx_A(x) = i, inverse of a_tuple_index."""
    out = []
    for _ in range(k):
        i, c = divmod(i, a_group.order)
        out.append(a_group.element(c))
    return tuple(out)


def b_tuple_index(p: int, b: tuple[int, ...]) -> int:
    """idx_b(b) with copy 1 least significant."""
    i = 0
    for bj in reversed(b):
        i = i * p + bj
    return i


def eager_coset_labels(g: SemidirectGroup, subgroup) -> dict[GroupElement, int]:
    """Every element of G mapped to the least element index of its left
    coset, labelling all of G up front (the reference for the lazy oracle)."""
    labels: dict[GroupElement, int] = {}
    for elem in group_elements(g):
        if elem in labels:
            continue
        coset = [element_mul(elem, h, g) for h in subgroup]
        label = min(element_index(c, g) for c in coset)
        for c in coset:
            labels[c] = label
    return labels


def quotient_well_defined(f: HidingFunction, g: SemidirectGroup, reduced: ReducedProblem) -> bool:
    """Exhaustive check: f is constant on each representative fiber."""
    h1_elems = subgroup_closure(reduced.h1.generators, g)
    a1 = [elem.a for elem in h1_elems]
    for elem in group_elements(g):
        base = f(elem.a, elem.b)
        for h in a1:
            if f(g.a_group.add(elem.a, h), elem.b) != base:
                return False
    return True


def h1_normal_by_saturation(h1, g: SemidirectGroup) -> bool:
    """phi maps A1 into itself, with A1 built element by element from its
    generators (the reference for pipeline.check_h1_normal)."""
    a1 = {elem.a for elem in subgroup_closure(h1.generators, g)}
    return all(phi_apply(gen.a, g) in a1 for gen in h1.generators)


def subgroups_of_a(g: SemidirectGroup) -> dict[frozenset, tuple]:
    """Every subgroup A1 of A, as its set of elements, mapped to a list of
    generators that reaches it one element at a time, by saturation."""
    found = {frozenset([g.a_group.zero]): ()}
    frontier = list(found.items())
    while frontier:
        a1, gens = frontier.pop()
        for a in g.a_group.elements():
            if a not in a1:
                grown = gens + (a,)
                closure = subgroup_closure([g.element(x, 0) for x in grown], g)
                key = frozenset(elem.a for elem in closure)
                if key not in found:
                    found[key] = grown
                    frontier.append((key, grown))
    return found


# ---------------------------------------------------------------------------
# The Heisenberg closed form (k = 2), a reference independent of the
# polynomial solver


def is_heisenberg(g: SemidirectGroup) -> bool:
    return (
        isinstance(g.a_group, VectorGroup)
        and g.a_group.r == 2
        and g.mu == ((1, 1), (0, 1))
    )


def legendre_symbol(a: int, p: int) -> int:
    """0 for a = 0, +1 for nonzero squares, -1 for nonsquares."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


@lru_cache(maxsize=16)
def _residue_table(p: int) -> dict[int, int]:
    table: dict[int, int] = {}
    for x in range(p):
        table.setdefault(x * x % p, x)
    return table


def sqrt_mod_p(a: int, p: int) -> int:
    """Deterministic square root mod p; raises if a is a nonresidue.

    Table lookup for p < 10^4, Tonelli-Shanks (smallest-nonresidue
    variant) above.
    """
    a %= p
    if p < 10**4:
        root = _residue_table(p).get(a)
        if root is None:
            raise ValueError(f"{a} is not a square mod {p}")
        return root
    if a == 0:
        return 0
    if legendre_symbol(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks with the smallest quadratic nonresidue as generator.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def solve_heisenberg_closed_form(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Quadratic closed form for the Heisenberg matrix sum problem.

    With instance columns (x1, y1), (x2, y2) and target (w, v), the
    discriminant decides the count: two solutions for a nonzero square,
    one for zero, none for a nonsquare.  Degenerate denominators
    (y1, y2, or y1 + y2 = 0) fall back to brute force.
    """
    g = inst.group
    if not is_heisenberg(g):
        raise ValueError("closed form needs the Heisenberg group")
    if inst.k != 2:
        raise ValueError("closed form needs k = 2")
    p = g.p
    (x1, y1), (x2, y2) = inst.x
    w, v = inst.w
    if y1 == 0 or y2 == 0 or (y1 + y2) % p == 0:
        return solve_bruteforce(inst, cap)
    delta = (
        (2 * w * y1 + v * y1 - v * v - 2 * v * x1) * (y1 + y2) * y2
        + (v * y2 + x1 * y2 - x2 * y1) ** 2
    ) % p
    if legendre_symbol(delta, p) == -1:
        return SolutionSet(())
    root = sqrt_mod_p(delta, p)
    inv_b1 = pow(y1 * (y1 + y2), -1, p)
    inv_b2 = pow(y2 * (y1 + y2), -1, p)
    t1 = v * y1 + x2 * y1 - x1 * y2
    t2 = v * y2 + x1 * y2 - x2 * y1
    hits = set()
    for sign in (root, (-root) % p):
        b1 = (t1 + sign) * inv_b1 % p
        b2 = (t2 - sign) * inv_b2 % p
        hits.add((b1, b2))
    return SolutionSet(tuple(hits))


# ---------------------------------------------------------------------------
# Dense Fourier transforms over A


def phase_index(a_group: AbelianGroup, x, y) -> int:
    """t with chi_x(y) = exp(2 pi i t / char_denominator), for one pair of
    elements: their dot product modulo the denominator, in pure Python
    (eta.phase_indices computes the same t over arrays of A-indices)."""
    if isinstance(a_group, CyclicGroup):
        x, y = (x,), (y,)
    return sum(u * v for u, v in zip(x, y)) % a_group.char_denominator


def qft_matrix(a_group: AbelianGroup) -> np.ndarray:
    """F[x, a] = chi_x(a) / sqrt(|A|), element by element."""
    n = a_group.order
    roots = _phase_roots(a_group.char_denominator)
    f = np.empty((n, n), dtype=complex)
    elems = list(a_group.elements())
    for i, x in enumerate(elems):
        for j, a in enumerate(elems):
            f[i, j] = roots[phase_index(a_group, x, a)]
    return f / np.sqrt(n)


def stripped_qft(psi: np.ndarray, n: int, p: int) -> np.ndarray:
    """The stripped run's first Fourier step: (F_N (x) I_p) psi on the (a, b) register."""
    return np.kron(qft_matrix(CyclicGroup(n)), np.eye(p)) @ psi


def stripped_inverse_qft(erased: np.ndarray, n: int) -> np.ndarray:
    """The stripped run's last Fourier step: F_N^dagger on the erased register."""
    return qft_matrix(CyclicGroup(n)).conj().T @ erased


def stripped_base_laws(n: int, p: int, table: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The x-law of label d = 1 and the outcome law of (d, x) = (0, 1), from
    one run of the statevector steps with d = 1, ell = 0 and x = 1: the
    route metacyclic._base_laws replaces by closed forms."""
    values = np.array(table)
    psi = np.zeros((n, p), dtype=complex)
    psi[values, np.arange(p)] = 1 / math.sqrt(p)
    psi = np.fft.ifft(psi, axis=0, norm="ortho")
    x_law = (np.abs(psi) ** 2).sum(axis=1)
    # Collapse onto x = 1, whose ancilla values are M^(b) themselves.
    erased = np.zeros(n, dtype=complex)
    erased[values] = psi[1] / np.linalg.norm(psi[1])
    outcome_law = np.abs(np.fft.fft(erased, norm="ortho")) ** 2
    # The law of (1, 1) at y is the law of (0, 1) at y - 1.
    return x_law, np.roll(outcome_law, -1)


# ---------------------------------------------------------------------------
# The stripped metacyclic run, step by step


class SimTranscript(_Record):
    """Every intermediate state of one stripped run, plus the measurement
    record; a fresh dict when no steps are given."""

    __slots__ = __match_args__ = (
        "n", "p", "mu", "d", "ell", "steps", "measured_x", "accepted", "final_distribution",
        "measured_outcome", "success",
    )

    def __init__(self, n: int, p: int, mu: int, d: int, ell: int,
                 steps: dict[str, np.ndarray] | None = None, measured_x: int | None = None,
                 accepted: bool = False, final_distribution: np.ndarray | None = None,
                 measured_outcome: int | None = None, success: bool | None = None) -> None:
        self.n, self.p, self.mu, self.d, self.ell = n, p, mu, d, ell
        self.steps = {} if steps is None else steps
        self.measured_x, self.accepted, self.success = measured_x, accepted, success
        self.final_distribution, self.measured_outcome = final_distribution, measured_outcome


def _draw(weights: np.ndarray, rng: random.Random) -> int:
    """An index drawn with probability weights / weights.sum(): one
    rng.random() against the normalised cdf, by bisect_right, which is
    searchsorted(side="right") as the Monte Carlo reads its cdfs."""
    return bisect_right(_cdf(weights), rng.random())


def run_stripped_algorithm(
    n: int,
    p: int,
    mu: int,
    d: int,
    ell: int,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> SimTranscript:
    """One run of the single-copy metacyclic algorithm, step by step on the
    statevector: the reference for metacyclic's relabelled Monte Carlo."""
    g = _validate(n, p, mu)
    if rng is None:
        rng = random.Random(seed)
    table = msum_table(g)
    d %= n
    ell %= n
    t = SimTranscript(n, p, mu, d, ell)

    # Coset state over (a, b) with index a*p + b.
    psi = np.zeros(n * p, dtype=complex)
    for b in range(p):
        psi[((ell + table[b] * d) % n) * p + b] = 1 / math.sqrt(p)
    t.steps["coset"] = psi

    # Fourier transform the first register: F[x, a] = omega^(xa) / sqrt(N).
    psi = np.fft.ifft(psi.reshape(n, p), axis=0, norm="ortho").reshape(n * p)
    t.steps["post_qft"] = psi

    # Measure x: marginal over the second register.
    marginal = np.abs(psi.reshape(n, p)) ** 2
    x = _draw(marginal.sum(axis=1), rng)
    t.measured_x = x
    collapsed = np.zeros_like(psi)
    collapsed[x * p : (x + 1) * p] = psi[x * p : (x + 1) * p]
    collapsed /= np.linalg.norm(collapsed)
    t.steps["post_measurement"] = collapsed
    if math.gcd(x, n) != 1:
        t.accepted = False
        t.success = False
        return t
    t.accepted = True

    # Drop the measured register; compute |b, x M^(b)> on (b, ancilla).
    b_state = collapsed.reshape(n, p)[x]
    # Then erase b, which the ancilla determines (checked by _erasure_table).
    values = x * _erasure_table(g) % n
    joint = np.zeros(p * n, dtype=complex)
    joint[np.arange(p) * n + values] = b_state
    erased = np.zeros(n, dtype=complex)
    erased[values] = b_state
    t.steps["post_compute"] = joint
    t.steps["post_erasure"] = erased

    # Inverse Fourier transform and observe.
    final = np.fft.fft(erased, norm="ortho")
    t.steps["post_inverse_qft"] = final
    dist = np.abs(final) ** 2
    t.final_distribution = dist
    outcome = _draw(dist, rng)
    t.measured_outcome = outcome
    t.success = outcome == d
    return t


def perfect_state_overlap(n: int, p: int, mu: int, d: int, x: int) -> float:
    """|<d~|actual>| for an accepted x; equals sqrt(p/N) as the p ancilla
    values x*M^(b) are distinct (the erasure check recovers b from each)."""
    g = _validate(n, p, mu)
    if math.gcd(x, n) != 1:
        raise ValueError(f"x={x} is not a unit mod {n}")
    d %= n
    values = x * _erasure_table(g) % n
    roots = _phase_roots(n)
    actual = np.zeros(n, dtype=complex)
    actual[values] = roots[values * d % n] / math.sqrt(p)
    perfect = roots[np.arange(n) * d % n] / math.sqrt(n)
    return float(abs(np.vdot(perfect, actual)))


# ---------------------------------------------------------------------------
# Coset states and the Fourier-side hidden subgroup states


def characters(a_group: AbelianGroup, d) -> np.ndarray:
    """chi_w(d) for every w in A-index order."""
    w = np.arange(a_group.order, dtype=np.int64)
    t = phase_indices(a_group, w, np.int64(a_group.index(a_group.reduce(d))))
    return _phase_roots(a_group.char_denominator)[t]


def coset_state(ell, d, g: SemidirectGroup) -> np.ndarray:
    """Uniform superposition over the left coset (ell, 0) <(d, 1)>."""
    if subgroup_order(d, g) != g.p:
        raise ValueError(f"(d, 1) with d={d!r} does not generate an order-{g.p} subgroup")
    a = g.a_group
    ell = a.reduce(ell)
    vec = np.zeros(a.order * g.p, dtype=complex)
    amp = 1.0 / np.sqrt(g.p)
    for b in range(g.p):
        coord = a.add(ell, phi_sum(b, d, g))
        vec[a.index(coord) * g.p + b] = amp
    return vec


def fourier_coset_state(x, d, g: SemidirectGroup) -> np.ndarray:
    """Fourier-side coset state: amplitudes chi_x(Phi^(b)(d)) / sqrt(p) at (x, b)."""
    if subgroup_order(d, g) != g.p:
        raise ValueError(f"(d, 1) with d={d!r} does not generate an order-{g.p} subgroup")
    a = g.a_group
    x = a.reduce(x)
    roots = _phase_roots(a.char_denominator)
    vec = np.zeros(a.order * g.p, dtype=complex)
    base = a.index(x) * g.p
    for b in range(g.p):
        vec[base + b] = roots[phase_index(a, x, phi_sum(b, d, g))]
    return vec / np.sqrt(g.p)


def state_vectors(g: SemidirectGroup, d, images: np.ndarray) -> np.ndarray:
    """v_d[x, b] = chi_{w(x, b)}(d) / sqrt(|G|^k) for the image table of every x.

    The x-block of the k-copy state rho_d^(x)k is the rank-one
    |v_d^x><v_d^x|, read off the image table of the matrix sum problem
    (eta.image_table): b and b' lie in the same solution set S^x_w exactly
    when their images agree.  For labels d whose subgroup order differs
    from p this is still the formula-defined (valid) state.
    """
    return characters(g.a_group, g.a_group.reduce(d))[images] / math.sqrt(images.size)


# ---------------------------------------------------------------------------
# Dense states and ensemble operators
#
# These and the block route below build operators over all of A^k, so they
# keep a guard on the state dimension |G|^k of their own.

DIM_CAP = 4096


def check_dim(g: SemidirectGroup, k: int, cap: int | None = None) -> int:
    """|G|^k, or CapExceeded when it is above ``cap`` (default DIM_CAP)."""
    dim = g.order**k
    limit = DIM_CAP if cap is None else cap
    if dim > limit:
        raise CapExceeded(f"|G|^k = {dim} exceeds dimension cap {limit}")
    return dim


def coset_mixture_density(d, g: SemidirectGroup) -> np.ndarray:
    """rho_d = (1/|A|) sum_ell |psi_{ell,d}><psi_{ell,d}| (direct assembly)."""
    a = g.a_group
    dim = a.order * g.p
    rho = np.zeros((dim, dim), dtype=complex)
    for ell in a.elements():
        psi = coset_state(ell, d, g)
        rho += np.outer(psi, psi.conj())
    return rho / a.order


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """Dense matrix with the (|A|^k, p^k, p^k) x-blocks on its diagonal."""
    nx, pk, _ = blocks.shape
    out = np.zeros((nx, pk, nx, pk), dtype=complex)
    out[np.arange(nx), :, np.arange(nx), :] = blocks
    return out.reshape(nx * pk, nx * pk)


def support_blocks(
    g: SemidirectGroup, k: int, enumeration_cap: int | None = None
) -> np.ndarray:
    """x-blocks of the projector onto {|x, S^x_w>}: 1/eta^x_w where b, b' share w."""
    images = block_images(g, k, enumeration_cap)
    eta = np.take_along_axis(eta_rows(images, g.a_group.order), images, axis=1)
    same = images[:, :, None] == images[:, None, :]
    return np.where(same, 1.0 / eta[:, :, None], 0.0)


def hidden_subgroup_state(
    d,
    k: int,
    g: SemidirectGroup,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense k-copy Fourier-side state for the label d, with the image table.

    The x-block is the outer product of the vector with entries
    chi_{w(x, b)}(d), w(x, b) the image of b.
    """
    check_dim(g, k, cap)
    images = block_images(g, k, enumeration_cap)
    u = characters(g.a_group, g.a_group.reduce(d))[images]
    scale = 1.0 / g.order**k
    return block_diagonal(scale * (u[:, :, None] * u.conj()[:, None, :])), images


def ensemble_sigma(
    k: int,
    g: SemidirectGroup,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> np.ndarray:
    """Sigma = sum_{j in A} rho_j^(x)k, diagonal in the (x, S^x_w) basis."""
    check_dim(g, k, cap)
    images = block_images(g, k, enumeration_cap)
    same = images[:, :, None] == images[:, None, :]
    return block_diagonal(np.where(same, g.a_group.order / g.order**k, 0.0))


def support_projector(
    k: int,
    g: SemidirectGroup,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> np.ndarray:
    """Projector onto the span of {|x, S^x_w> : eta^x_w > 0}."""
    check_dim(g, k, cap)
    return block_diagonal(support_blocks(g, k, enumeration_cap))


def tensor_power_grouped(mat: np.ndarray, k: int, dim_a: int, dim_b: int) -> np.ndarray:
    """k-fold tensor power of a (dim_a * dim_b)-dim operator, reindexed to
    the grouped (A^k major, Z_p^k minor) convention."""
    if k == 1:
        return mat.copy()
    d = dim_a * dim_b
    if mat.shape != (d, d):
        raise ValueError(f"expected {d}x{d} matrix, got {mat.shape}")
    full = dim_a**k * dim_b**k
    idx = np.arange(full)
    ai, bi = np.divmod(idx, dim_b**k)
    out = np.ones((full, full), dtype=complex)
    for j in range(k):
        xj = (ai // dim_a**j) % dim_a
        bj = (bi // dim_b**j) % dim_b
        s = xj * dim_b + bj
        out *= mat[s[:, None], s[None, :]]
    return out


# ---------------------------------------------------------------------------
# The block route: the PGM's factors on every x in A^k
#
# The library checks the PGM on one x per symmetry orbit (pgm.pgm_report).
# These build its factors, the trace and the optimality check block by block
# over all of A^k, for the PGM or any POVM held in factored form, and the
# Neumark blocks of the unitary implementation.

PSD_TOL = 1e-9
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class POVM:
    """Block-diagonal POVM over outcomes j in A, held in factored form.

    ``factors`` has shape (|A|^k, |A|, p^k, R): with F = ``factors[xi, ji]``
    the x-block of E_j is F F^dagger.  The PGM is rank one on every block,
    so R = 1 and the single column of F is |e^x_j>.
    """

    group: SemidirectGroup
    k: int
    factors: np.ndarray


def build_pgm(
    k: int,
    g: SemidirectGroup,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> POVM:
    """PGM elements from the explicit character formula on each block:
    <b|e^x_j> = chi_w(j) / sqrt(|A| eta^x_w) with w the image of b."""
    check_dim(g, k, cap)
    a = g.a_group
    images = block_images(g, k, enumeration_cap)
    eta = np.take_along_axis(eta_rows(images, a.order), images, axis=1)
    norms = np.sqrt(a.order * eta)
    vectors = np.stack([characters(a, j)[images] / norms for j in a.elements()], axis=1)
    return POVM(g, k, vectors[..., None])


def success_probability_trace(
    k: int,
    g: SemidirectGroup,
    d,
    cap: int | None = None,
    enumeration_cap: int | None = None,
    povm: POVM | None = None,
) -> float:
    """tr(E_d rho_d^(x)k) = sum_x ||F_d^x^dagger v_d^x||^2, block by block,
    for the PGM or a prebuilt block POVM."""
    if povm is None:
        povm = build_pgm(k, g, cap, enumeration_cap)
    a = g.a_group
    v = state_vectors(g, d, block_images(g, k, enumeration_cap))
    amps = np.einsum("xar,xa->xr", povm.factors[:, a.index(a.reduce(d))].conj(), v)
    return float((amps.real**2 + amps.imag**2).sum())


class OptimalityReport(NamedTuple):
    """The two optimality conditions for the state ensemble: T = sum_j
    sigma_j E_j is Hermitian (its largest entry of |T - T^dagger|) and
    dominates every sigma_j (the least eigenvalue of T_h - sigma_j over j,
    T_h = (T + T^dagger) / 2)."""

    commutator_residual: float
    min_eig_margin: float

    @property
    def passed(self) -> bool:
        return (
            self.commutator_residual <= OPTIMALITY_TOL
            and self.min_eig_margin >= -OPTIMALITY_TOL
        )


def verify_optimality(
    k: int,
    g: SemidirectGroup,
    povm: POVM | None = None,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> OptimalityReport:
    """Check the two optimality conditions for the state ensemble:
    T = sum_j sigma_j E_j is Hermitian (equals sum_j E_j sigma_j) and
    dominates every sigma_j.

    Every operator is block diagonal over x, with sigma_j^x = |v_j^x><v_j^x|
    and E_j^x = F_j F_j^dagger, so T^x = sum_j |v_j>(<v_j|F_j) F_j^dagger
    is formed from the vectors and factors alone.  The margin takes one
    batched eigvalsh over x of T^x - sigma_j^x for each j.
    """
    check_dim(g, k, cap)
    if povm is None:
        povm = build_pgm(k, g, cap, enumeration_cap)
    images = block_images(g, k, enumeration_cap)
    v = np.stack([state_vectors(g, j, images) for j in g.a_group.elements()], axis=1)
    overlaps = np.einsum("xja,xjar->xjr", v.conj(), povm.factors)
    rows = np.einsum("xjr,xjbr->xjb", overlaps, povm.factors.conj())
    t = np.einsum("xja,xjb->xab", v, rows)
    t_dag = t.conj().transpose(0, 2, 1)
    commutator_residual = float(np.abs(t - t_dag).max())
    t_h = (t + t_dag) / 2
    margin = math.inf
    for v_j in v.transpose(1, 0, 2):
        # t's storage now holds sigma_j, then T_h - sigma_j, stacked over x
        np.einsum("xa,xb->xab", v_j, v_j.conj(), out=t)
        margin = min(margin, float(np.linalg.eigvalsh(np.subtract(t_h, t, out=t)).min()))
    return OptimalityReport(commutator_residual, margin)


# ---------------------------------------------------------------------------
# The per-orbit-row dense optimality check
#
# pgm.pgm_report derives the PGM's optimality from the characters'
# orthogonality.  These check it on one x per symmetry orbit of A^k from the
# vectors themselves: T^x, its commutator residual, one eigh of T_h^x, the
# least eigenvalue of every rank-one downdate T_h^x - |v_j><v_j|, and T^x
# against the closed form sum_w lambda_w |u_w><u_w| the derivation gives.


def row_vectors(g: SemidirectGroup, k: int, images: np.ndarray, eta: np.ndarray):
    """(e, v) of shape (rows, |A|, p^k) for image-table rows and their eta
    rows: the PGM vectors e^x_j[b] = chi_w(j) / sqrt(|A| eta^x_w) and the
    state vectors v^x_j[b] = chi_w(j) / sqrt(|G|^k), w the image of b, from
    one phase-index table over (row, j, b)."""
    a = g.a_group
    t = phase_indices(a, images[:, None, :], np.arange(a.order, dtype=np.int64)[:, None])
    chi = _phase_roots(a.char_denominator)[t]
    norms = np.sqrt(a.order * np.take_along_axis(eta, images, axis=1))
    return chi / norms[:, None, :], chi / math.sqrt(g.order**k)


def least_eigenvalues(lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Least eigenvalue of diag(lam) - z z^dagger for each row of c = |z|^2,
    shape (rows, m, n), with lam of shape (rows, n) ascending.

    Below lam_0 the eigenvalues of the downdate are the roots of
    psi(mu) = sum_i c_i / (lam_i - mu) = 1 (Bunch, Nielsen and Sorensen,
    Numer. Math. 1978); its least one is the root there, or lam_0 itself
    when the c_i at lam_0 vanish and no root lies below.  1/psi - 1 is
    concave and decreasing there, so Newton steps on it from a point right
    of the root descend to the root without passing it; the start lam_0 - tol
    is such a point unless the root lies within tol of lam_0.  Every
    lam_i - mu stays positive, so a vanishing c_i adds an exact 0.
    """
    lam = lam[:, None, :]
    top = lam[..., 0]
    tol = 4 * np.finfo(float).eps * np.maximum(np.abs(lam).max(axis=-1), c.sum(axis=-1))
    mu = top - tol
    for i in range(64):
        gap = lam - mu[..., None]
        psi = (c / gap).sum(axis=-1)
        right = psi > 1
        if i == 0:
            at_top = ~right
        dpsi = (c / gap**2).sum(axis=-1)
        shift = np.divide(psi * (psi - 1), dpsi, out=np.zeros_like(psi), where=right)
        mu -= shift
        if not (shift > tol).any():
            break
    return np.where(at_top, top, mu)


class RowCheck(NamedTuple):
    """The per-orbit-row dense check: the d = 0 trace success probability,
    the optimality conditions over the rows, the largest |margin| over every
    (row, j), and the largest entry of |T^x - sum_w lambda_w |u_w><u_w||."""

    trace: float
    optimality: OptimalityReport
    largest_margin: float
    closed_form_residual: float


def dense_row_check(k: int, g: SemidirectGroup) -> RowCheck:
    """The optimality check on one x per symmetry orbit of A^k, from each
    row's vectors (row_vectors): T^x = sum_j |v_j><v_j|e_j><e_j|, its
    commutator residual, one eigh of T_h^x, and the least eigenvalue of
    T_h^x - |v_j><v_j| for every j by the secular equation of that rank-one
    downdate (least_eigenvalues).  A unit c sends block x to cx with outcome
    j to cj, and permuting copies 2..k permutes b, so the blocks of one orbit
    have the same residual and the same set of margins.  The closed form is
    lambda_w = S sqrt(eta^x_w) / |G|^k, S = sum_w sqrt(eta^x_w), on the unit
    solution vectors u_w."""
    a, pk = g.a_group, g.p**k
    step = max(1, _CHUNK // (max(a.order, pk) * pk))
    trace, residual, margin, largest, closed = 0.0, 0.0, math.inf, 0.0, 0.0
    for weights, images in orbit_images(g, k):
        eta = eta_rows(images, a.order)
        for lo in range(0, len(images), step):
            rows, etas = images[lo : lo + step], eta[lo : lo + step]
            e, v = row_vectors(g, k, rows, etas)
            overlaps = np.einsum("xjb,xjb->xj", v.conj(), e)
            amps = overlaps[:, 0].real ** 2 + overlaps[:, 0].imag ** 2  # d = 0 is A-index 0
            trace += float(weights[lo : lo + step].astype(float) @ amps)
            t = (v * overlaps[..., None]).transpose(0, 2, 1) @ e.conj()
            t_dag = t.conj().transpose(0, 2, 1)
            residual = max(residual, float(np.abs(t - t_dag).max()))
            lam, q = np.linalg.eigh((t + t_dag) / 2)
            z = v @ q.conj()
            margins = least_eigenvalues(lam, z.real**2 + z.imag**2)
            margin = min(margin, float(margins.min()))
            largest = max(largest, float(np.abs(margins).max()))
            s = np.sqrt(etas).sum(axis=1)
            at_b = np.take_along_axis(etas, rows, axis=1)
            same = rows[:, :, None] == rows[:, None, :]
            form = np.where(same, (s[:, None] / np.sqrt(at_b))[:, :, None] / g.order**k, 0.0)
            closed = max(closed, float(np.abs(t - form).max()))
    return RowCheck(trace, OptimalityReport(residual, margin), largest, closed)


@dataclass(frozen=True)
class NeumarkBlock:
    """Unitary completion of the per-block solution isometry.

    ``unitary`` maps |w> (w in A-index order) to the embedded |S^x_w>
    whenever eta^x_w > 0 and to a deterministic completion vector
    otherwise; Gram-Schmidt over the standard basis in index order picks
    the completions.
    """

    x: tuple
    unitary: np.ndarray
    defined_columns: tuple[int, ...]  # A-indices of w with eta > 0
    completion_columns: tuple[int, ...]


def _images_of(x: tuple, g: SemidirectGroup, enumeration_cap: int | None) -> np.ndarray:
    """Image-table row of one x-tuple: the A-index of the image of every b."""
    a = g.a_group
    xs = np.array([[a.index(a.reduce(xj)) for xj in x]], dtype=np.int64)
    return image_table(g, xs, enumeration_cap)[0]


def build_neumark(
    x: tuple,
    k: int,
    g: SemidirectGroup,
    enumeration_cap: int | None = None,
) -> NeumarkBlock:
    a = g.a_group
    x = tuple(a.reduce(xj) for xj in x)
    images = _images_of(x, g, enumeration_cap)
    eta = np.bincount(images, minlength=a.order)
    pk = g.p**k
    dim = max(a.order, pk)
    u = np.zeros((dim, dim), dtype=complex)
    u[np.arange(pk), images] = 1.0 / np.sqrt(eta[images])
    defined = np.flatnonzero(eta).tolist()
    completions = [col for col in range(dim) if col >= a.order or not eta[col]]
    basis_cursor = 0
    for col in completions:
        while True:
            if basis_cursor >= dim:
                raise AssertionError("ran out of basis vectors completing the unitary")
            cand = np.zeros(dim, dtype=complex)
            cand[basis_cursor] = 1.0
            basis_cursor += 1
            cand -= u @ (u.conj().T @ cand)
            norm = np.linalg.norm(cand)
            if norm > 1e-6:
                u[:, col] = cand / norm
                break
    return NeumarkBlock(x, u, tuple(defined), tuple(completions))


@dataclass(frozen=True)
class QuantumSample:
    vector: np.ndarray
    eta: int
    postselection_probability: float


def quantum_sample_vector(
    x: tuple,
    w,
    k: int,
    g: SemidirectGroup,
    enumeration_cap: int | None = None,
) -> QuantumSample:
    """The uniform solution superposition |S^x_w> (zero vector when there
    are no solutions) with the label-and-measure postselection rate 1/eta."""
    a = g.a_group
    hits = _images_of(x, g, enumeration_cap) == a.index(a.reduce(w))
    eta = int(np.count_nonzero(hits))
    vec = np.zeros(g.p**k, dtype=complex)
    if eta:
        vec[hits] = 1.0 / np.sqrt(eta)
    prob = 1.0 / eta if eta else 0.0
    return QuantumSample(vec, eta, prob)


# ---------------------------------------------------------------------------
# Dense POVM routes


def dense_element(povm: POVM, j) -> np.ndarray:
    """E_j as a dense |G|^k x |G|^k matrix, rebuilt from its block factors."""
    a = povm.group.a_group
    f = povm.factors[:, a.index(a.reduce(j))]
    return block_diagonal(np.einsum("xar,xbr->xab", f, f.conj()))


def pgm_from_inverse_sqrt(
    k: int,
    g: SemidirectGroup,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> list[np.ndarray]:
    """Independent route: E_j = Sigma^(-1/2) rho_j Sigma^(-1/2) with the
    inverse square root taken over the support via eigendecomposition."""
    sigma = ensemble_sigma(k, g, cap, enumeration_cap)
    vals, vecs = np.linalg.eigh(sigma)
    inv_sqrt = np.zeros_like(vals)
    nonzero = vals > 1e-12
    inv_sqrt[nonzero] = 1.0 / np.sqrt(vals[nonzero])
    s_inv = (vecs * inv_sqrt) @ vecs.conj().T
    out = []
    for j in g.a_group.elements():
        rho, _ = hidden_subgroup_state(j, k, g, cap, enumeration_cap)
        out.append(s_inv @ rho @ s_inv)
    return out


def perturb_with_uniform(povm: POVM, eps: float) -> POVM:
    """Mix every element with the uniform POVM on the ensemble support.

    (1 - eps) E_j + (eps / |A|) P_x in factored form: the factors of E_j
    scaled by sqrt(1 - eps), next to sqrt(eps / |A|) |S^x_w> for every w in
    A.  Keeps completeness but destroys optimality; the negative control
    for the optimality check.
    """
    g = povm.group
    a = g.a_group
    images = block_images(g, povm.k)
    eta = np.take_along_axis(eta_rows(images, a.order), images, axis=1)
    solutions = (images[:, :, None] == np.arange(a.order)) / np.sqrt(eta[:, :, None])
    uniform = np.broadcast_to(solutions[:, None], (*povm.factors.shape[:3], a.order))
    factors = np.concatenate(
        [math.sqrt(1 - eps) * povm.factors, math.sqrt(eps / a.order) * uniform], axis=-1
    )
    return POVM(g, povm.k, factors)


def dense_verify_optimality(
    k: int,
    g: SemidirectGroup,
    povm: POVM | None = None,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> OptimalityReport:
    """The optimality conditions on dense matrices: T = sum_j sigma_j E_j
    is Hermitian and T - sigma_j is positive semidefinite for every j."""
    check_dim(g, k, cap)
    if povm is None:
        povm = build_pgm(k, g, cap, enumeration_cap)
    a = g.a_group
    sigmas = [
        hidden_subgroup_state(j, k, g, cap, enumeration_cap)[0]
        for j in a.elements()
    ]
    t = np.zeros_like(sigmas[0])
    for j, sigma_j in zip(a.elements(), sigmas):
        t += sigma_j @ dense_element(povm, j)
    commutator_residual = float(np.abs(t - t.conj().T).max())
    t_h = (t + t.conj().T) / 2
    margin = math.inf
    for sigma_j in sigmas:
        margin = min(margin, float(np.linalg.eigvalsh(t_h - sigma_j).min()))
    return OptimalityReport(commutator_residual, margin)


def simulate_neumark_outcomes(
    k: int,
    g: SemidirectGroup,
    d,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> np.ndarray:
    """Measurement simulation through the per-block unitaries.

    Measure the block label x (uniform for these states), apply the
    adjoint block unitary, Fourier transform the w register, and read out
    j; returns the aggregated outcome distribution over A.
    """
    check_dim(g, k, cap)
    a = g.a_group
    images = block_images(g, k, enumeration_cap)
    chi_d = characters(a, a.reduce(d))
    pk = g.p**k
    probs = np.zeros(a.order)
    block_weight = 1.0 / a.order**k
    for xi in range(a.order**k):
        x = a_tuple_from_index(a, xi, k)
        block = build_neumark(x, k, g, enumeration_cap)
        u = chi_d[images[xi]] / math.sqrt(pk)
        embedded = np.zeros(block.unitary.shape[0], dtype=complex)
        embedded[:pk] = u
        coeffs = block.unitary.conj().T @ embedded
        leak = np.linalg.norm(coeffs[a.order :])
        if leak > UNITARITY_TOL:
            raise AssertionError(f"state leaked {leak} outside the w register")
        outcome_amps = fft_over_a(a, coeffs[: a.order], norm="ortho")
        probs += block_weight * np.abs(outcome_amps) ** 2
    return probs
