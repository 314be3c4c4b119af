"""The pretty good measurement: success probability, outcome laws and
the optimality report.

The PGM for the k-copy ensemble is block diagonal over x in A^k; each
block element is the rank-one projector onto
|e^x_j> = |A|^(-1/2) sum_w chi_w(j) |S^x_w>, with S^x_w the solutions of
the matrix sum instance (x, w).  Every quantity here is read off the eta
table (eta): the success formula and pgm_report's d = 0 trace term sum over
the symmetry orbits of A^k, and a block's outcome law reads its own row.
The PGM's optimality is the theorem's, derived from the orthogonality of
the characters; pgm_report checks those numerically, once per group.  The
block route over every x (the PGM's factors, the trace and optimality
check of a given POVM, the Neumark blocks, the outcome law) and the dense
per-orbit-row optimality check are the tests' reference, in
tests/oracles.py.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .eta import (
    _CHUNK,
    EtaHistogram,
    EtaStats,
    _phase_roots,
    _uniform_floats,
    check_enumeration,
    eta_orbits,
    eta_rows,
    eta_statistics,
    fft_over_a,
    image_table,
    index_digits,
    orbit_images,
    phase_indices,
)
from .groups import SemidirectGroup, format_group_spec

OPTIMALITY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Success probability


def _square_parts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, s) with n = c^2 s and s squarefree, for each n in ``values``; c is
    the largest d with d^2 | n, by trial division, and n = 0 gives c = s = 0."""
    c = np.zeros_like(values)
    for d in range(1, math.isqrt(int(values.max(initial=0))) + 1):
        c[values % (d * d) == 0] = d
    c[values == 0] = 0
    return c, values // np.maximum(c, 1) ** 2


class _SuccessSum:
    """The success formula's sum over x, added one orbit chunk at a time:
    exactly, in Python ints, while each row's nonzero etas share one
    squarefree part (eta = c^2 s), and as a float fsum per chunk always."""

    def __init__(self):
        self.exact, self.all_exact, self.floats = 0, True, []

    def add(self, weights: np.ndarray, eta: np.ndarray) -> None:
        if self.all_exact:
            # split only the distinct etas of the chunk (sorted by hand: np.unique
            # imports numpy.ma on first use, 13 ms at numpy 2.4)
            ordered = np.sort(eta, axis=None)
            distinct = ordered[np.diff(ordered, prepend=-1) != 0]
            c, s = _square_parts(distinct)
            at = np.searchsorted(distinct, eta)
            parts = s[at]
            part = parts.max(axis=1)
            self.all_exact = bool(((parts == part[:, None]) | (eta == 0)).all())
            if self.all_exact:
                squares = c[at].sum(axis=1) ** 2 * part
                self.exact += sum(w * v for w, v in zip(weights.tolist(), squares.tolist()))
        self.floats.append(math.fsum((weights * np.sqrt(eta).sum(axis=1) ** 2).tolist()))

    def probability(self, g: SemidirectGroup, k: int) -> Fraction | float:
        scale = Fraction(g.p, g.order ** (k + 1))
        if self.all_exact:
            return scale * self.exact
        return float(scale * Fraction(math.fsum(self.floats)))


def success_probability_formula(
    k: int,
    g: SemidirectGroup,
    enumeration_cap: int | None = None,
) -> Fraction | float:
    """Pr(success) = (p / |G|^(k+1)) sum_x (sum_w sqrt(eta^x_w))^2.

    A block's term depends on x only through its eta multiset, so the sum
    runs over the symmetry orbits of A^k (eta.eta_orbits).  Exact Fraction
    when every block sum squares to a rational (the nonzero etas of each
    row, eta = c^2 s, share one squarefree part s), float otherwise.
    """
    total = _SuccessSum()
    for weights, eta in eta_orbits(g, k, enumeration_cap):
        total.add(weights, eta)
    return total.probability(g, k)


@lru_cache(maxsize=16)
def _minus(a, d) -> np.ndarray:
    """A-indices of d - j over j in A-index order, read-only: digit by digit
    (index_digits), modulo A.char_denominator."""
    radix, rank = a.char_denominator, a.rank
    j = np.arange(a.order, dtype=np.int64)
    places = radix ** np.arange(rank - 1, -1, -1, dtype=np.int64)
    shifts = (index_digits(a.index(d), radix, rank) - index_digits(j, radix, rank)) % radix @ places
    shifts.flags.writeable = False
    return shifts


def block_outcome_law(
    g: SemidirectGroup, xs, d=None, enumeration_cap: int | None = None
) -> tuple[np.ndarray, float]:
    """(probs, fail_mass) of the PGM outcome j, in A-index order, on the block
    x with per-copy A-indices ``xs``, from x's image-table row: for rho_d,
    Pr(j | x) = |FFT_A(sqrt(eta^x))[d - j]|^2 / (p^k |A|); for d = None (the
    maximally mixed state) s / (p^k |A|), and 1 - s / p^k fails, s = #{w: eta^x_w > 0}."""
    a, pk = g.a_group, g.p ** len(xs)
    eta = eta_rows(image_table(g, np.array([xs], dtype=np.int64), enumeration_cap), a.order)[0]
    if d is None:
        support = int(np.count_nonzero(eta))
        return np.full(a.order, support / (pk * a.order)), 1.0 - support / pk
    f = fft_over_a(a, np.sqrt(eta))
    return (f.real**2 + f.imag**2)[_minus(a, a.reduce(d))] / (pk * a.order), 0.0


# ---------------------------------------------------------------------------
# Lemma-style bracketing of the success probability


class SuccessBracket(NamedTuple):
    alpha: int
    beta: Fraction
    lower: Fraction
    upper: Fraction


def lemma2_bounds(
    k: int,
    g: SemidirectGroup,
    alpha: int,
    beta: Fraction | None = None,
    stats: EtaStats | None = None,
) -> SuccessBracket:
    """Bracket alpha*beta^2*|A|/p^k <= Pr(success) <= p^k/|A|.

    The hypothesis Pr(eta >= alpha) >= beta is certified against the
    exact exhaustive eta histogram; a failing hypothesis raises.
    """
    if stats is None:
        stats = eta_statistics(g, k)
    attained = stats.probability_at_least(alpha)
    if beta is None:
        beta = attained
    beta = Fraction(beta)
    if attained < beta:
        raise ValueError(
            f"hypothesis Pr(eta >= {alpha}) >= {beta} fails: attained {attained}"
        )
    a_order = g.a_group.order
    lower = alpha * beta**2 * Fraction(a_order, g.p**k)
    upper = Fraction(g.p**k, a_order)
    return SuccessBracket(alpha, beta, lower, upper)


def best_certified_lower_bound(
    k: int, g: SemidirectGroup, stats: EtaStats | None = None
) -> SuccessBracket:
    """The (alpha, beta) pair from the exact histogram maximizing the
    certified lower bound."""
    if stats is None:
        stats = eta_statistics(g, k)
    best = None
    for alpha in sorted(eta for eta in stats.counts if eta >= 1):
        bracket = lemma2_bounds(k, g, alpha, stats=stats)
        if bracket.lower > 0 and (best is None or bracket.lower > best.lower):
            best = bracket
    if best is None:
        raise ValueError("eta histogram has no mass at eta >= 1")
    return best


# ---------------------------------------------------------------------------
# Aggregate report

# Outcomes j at which pgm_report's character check compares the two routes
_CHECK_OUTCOMES = 64


class PGMReport(NamedTuple):
    group_spec: str
    k: int
    pr_formula: float
    pr_formula_exact: Fraction | None
    pr_trace: float
    bracket: SuccessBracket
    character_residual: float

    @property
    def passed(self) -> bool:
        return self.character_residual <= OPTIMALITY_TOL


def _character_residual(a) -> float:
    """max_j |fft_over_a(h)[j] - sum_w conj(chi_w(j)) h_w| / ||h||_1 over
    min(|A|, _CHECK_OUTCOMES) outcomes j: the transform every outcome law
    reads against the direct character sum from phase_indices, for a probe
    h and outcomes drawn from random.Random(0), at most max(_CHUNK, |A|)
    (j, w) pairs at a time."""
    rng = random.Random(0)
    h = _uniform_floats(rng, a.order)
    js = np.array(rng.sample(range(a.order), min(a.order, _CHECK_OUTCOMES)), dtype=np.int64)
    w, roots = np.arange(a.order, dtype=np.int64), _phase_roots(a.char_denominator)
    step = max(1, _CHUNK // a.order)
    direct = np.concatenate([
        roots[phase_indices(a, w, js[lo : lo + step, None])].conj() @ h
        for lo in range(0, js.size, step)
    ])
    return float(np.abs(fft_over_a(a, h)[js] - direct).max() / h.sum())


def pgm_report(
    k: int,
    g: SemidirectGroup,
    enumeration_cap: int | None = None,
    population_cap: int | None = None,
) -> PGMReport:
    """The success formula, the certified bracket and the d = 0 trace success
    probability, in one walk over the symmetry orbits of A^k
    (eta.orbit_images), and the character check of the PGM's optimality.

    A unit c sends block x to cx with outcome j to cj, and permuting copies
    2..k permutes b, so the d = 0 trace terms of one orbit agree.  Every
    character is 1 at j = 0, so a row's term is
    |<v_0|e_0>|^2 = (sum_b eta_(w(b))^(-1/2))^2 / (|G|^k |A|), summed over b
    from the image row.

    Optimality is derived, not computed per row: orthogonality of the
    characters gives T^x = sum_j |v_j><v_j|e_j><e_j| = sum_w lambda_w
    |u_w><u_w|, lambda_w = S sqrt(eta^x_w) / |G|^k with S = sum_w
    sqrt(eta^x_w) and u_w the unit solution vector of w: Hermitian, and
    above every |v_j><v_j| with margin exactly 0, for any image table (the
    tests' dense per-row check).  The characters it rests on are checked
    once per group (_character_residual); the report passes when that
    residual is within OPTIMALITY_TOL.

    The walk is bounded as eta-stats's is: the enumeration cap by p^k, the
    population cap by orbit rows times |A| (EtaHistogram), both before any
    table is built.
    """
    check_enumeration(g.p, k, enumeration_cap)
    a = g.a_group
    hist, total = EtaHistogram(g, k, population_cap), _SuccessSum()
    scale, trace = 1 / (g.order**k * a.order), 0.0
    for weights, images in orbit_images(g, k, enumeration_cap):
        eta = eta_rows(images, a.order)
        hist.add(weights, eta)
        total.add(weights, eta)
        sums = (1 / np.sqrt(np.take_along_axis(eta, images, axis=1))).sum(axis=1)
        trace += float(weights.astype(float) @ (sums**2 * scale))
    formula = total.probability(g, k)
    exact = formula if isinstance(formula, Fraction) else None
    bracket = best_certified_lower_bound(k, g, hist.stats())
    return PGMReport(
        format_group_spec(g), k, float(formula), exact, trace, bracket, _character_residual(a)
    )
