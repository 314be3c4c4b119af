"""The pretty good measurement: success probability, outcome laws and
the optimality report.

The PGM for the k-copy ensemble is block diagonal over x in A^k; each
block element is the rank-one projector onto
|e^x_j> = |A|^(-1/2) sum_w chi_w(j) |S^x_w>, with S^x_w the solutions of
the matrix sum instance (x, w).  Every quantity here is read off the eta
table (eta): the success formula sums over the symmetry orbits of A^k, a
block's outcome law reads its own row, and pgm_report checks optimality
on one x per orbit.  The block route over every x (the PGM's factors, the
trace and optimality check of a given POVM, the Neumark blocks, the outcome
law) is the tests' reference, in tests/oracles.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .caps import CapExceeded, enum_cap, pop_cap
from .eta import (
    _CHUNK,
    EtaHistogram,
    EtaStats,
    _phase_roots,
    check_enumeration,
    eta_orbits,
    eta_rows,
    eta_statistics,
    fft_over_a,
    image_table,
    orbit_images,
    orbit_rows,
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
    """A-indices of d - j over j in A-index order, read-only."""
    shifts = np.array([a.index(a.add(d, a.neg(j))) for j in a.elements()], dtype=np.int64)
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
# Optimality conditions


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


# ---------------------------------------------------------------------------
# Aggregate report


class PGMReport(NamedTuple):
    group_spec: str
    k: int
    pr_formula: float
    pr_formula_exact: Fraction | None
    pr_trace: float
    bracket: SuccessBracket
    optimality: OptimalityReport

    @property
    def consistent(self) -> bool:
        return abs(self.pr_formula - self.pr_trace) < 1e-10


def _row_vectors(g: SemidirectGroup, k: int, images: np.ndarray, eta: np.ndarray):
    """(e, v) of shape (rows, |A|, p^k) for image-table rows and their eta
    rows: the PGM vectors e^x_j[b] = chi_w(j) / sqrt(|A| eta^x_w) and the
    state vectors v^x_j[b] = chi_w(j) / sqrt(|G|^k), w the image of b, from
    one phase-index table over (row, j, b)."""
    a = g.a_group
    t = phase_indices(a, images[:, None, :], np.arange(a.order, dtype=np.int64)[:, None])
    chi = _phase_roots(a.char_denominator)[t]
    norms = np.sqrt(a.order * np.take_along_axis(eta, images, axis=1))
    return chi / norms[:, None, :], chi / math.sqrt(g.order**k)


def _least_eigenvalues(lam: np.ndarray, c: np.ndarray) -> np.ndarray:
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


def pgm_report(
    k: int,
    g: SemidirectGroup,
    enumeration_cap: int | None = None,
    population_cap: int | None = None,
) -> PGMReport:
    """The success formula, the certified bracket, the d = 0 trace success
    probability and the optimality check, in one walk over the symmetry
    orbits of A^k (eta.orbit_images).

    A unit c sends block x to cx with outcome j to cj, and permuting copies
    2..k permutes b, so the blocks of one orbit have the same residual and
    the same set of margins, and their d = 0 trace terms agree.  Each orbit
    row is checked from its vectors, as the tests' block route checks every
    block (oracles.verify_optimality):
    T^x = sum_j |v_j><v_j|e_j><e_j|, its commutator residual, one eigh of
    T_h^x, and the least eigenvalue of T_h^x - |v_j><v_j| for every j by
    the secular equation of that rank-one downdate (_least_eigenvalues).

    A row's vectors and its T^x hold max(|A|, p^k) p^k entries each: the
    enumeration cap bounds that, and the population cap bounds it summed
    over the orbit rows, both before any table is built.  |A| is bounded
    before orbit_rows factors N.
    """
    check_enumeration(g.p, k, enumeration_cap)
    a, pk = g.a_group, g.p**k
    entries = max(a.order, pk) * pk
    limit = enum_cap(enumeration_cap)
    if entries > limit:
        raise CapExceeded(
            f"max(|A|, p^k) p^k = {entries} entries per orbit row exceeds enumeration cap {limit}"
        )
    limit = pop_cap(population_cap)
    if entries > limit or orbit_rows(a, k) * entries > limit:
        raise CapExceeded(
            f"orbit rows times {entries} entries per row exceeds population cap {limit}"
        )
    walk = orbit_images(g, k, enumeration_cap)
    hist, total = EtaHistogram(g, k, population_cap), _SuccessSum()
    step = max(1, _CHUNK // entries)
    trace, residual, margin = 0.0, 0.0, math.inf
    for weights, images in walk:
        eta = eta_rows(images, a.order)
        hist.add(weights, eta)
        total.add(weights, eta)
        for lo in range(0, len(images), step):
            e, v = _row_vectors(g, k, images[lo : lo + step], eta[lo : lo + step])
            overlaps = np.einsum("xjb,xjb->xj", v.conj(), e)
            amps = overlaps[:, 0].real ** 2 + overlaps[:, 0].imag ** 2  # d = 0 is A-index 0
            trace += float(weights[lo : lo + step].astype(float) @ amps)
            t = (v * overlaps[..., None]).transpose(0, 2, 1) @ e.conj()
            t_dag = t.conj().transpose(0, 2, 1)
            residual = max(residual, float(np.abs(t - t_dag).max()))
            lam, q = np.linalg.eigh((t + t_dag) / 2)
            z = v @ q.conj()
            margin = min(margin, float(_least_eigenvalues(lam, z.real**2 + z.imag**2).min()))
    formula = total.probability(g, k)
    exact = formula if isinstance(formula, Fraction) else None
    bracket = best_certified_lower_bound(k, g, hist.stats())
    return PGMReport(
        format_group_spec(g), k, float(formula), exact, trace, bracket,
        OptimalityReport(residual, margin),
    )
