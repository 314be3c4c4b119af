"""The pretty good measurement: construction, success probability,
optimality check, and the Neumark block implementation.

The PGM for the k-copy ensemble is block diagonal over x in A^k; each
block element is the rank-one projector onto
|e^x_j> = |A|^(-1/2) sum_w chi_w(j) |S^x_w>.  The ensemble sum is
diagonal in the (x, S^x_w) basis, so its inverse square root is written
down directly rather than through a generic matrix function.  A POVM is
held by the factors F of its blocks, E^x_j = F F^dagger, and the trace
and the optimality check are computed from those factors without forming
any p^k x p^k block of an element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import SemidirectGroup
from .msum import EtaStats, eta_chunks, eta_orbits, eta_rows, eta_statistics, image_table
from .states import (
    block_images,
    characters,
    check_dim,
    fft_over_a,
    state_vectors,
)

PSD_TOL = 1e-9
UNITARITY_TOL = 1e-10
OPTIMALITY_TOL = 1e-8


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


# ---------------------------------------------------------------------------
# Success probability


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = c^2 * s with s squarefree; returns (c, s)."""
    c, s, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            c *= d
        d += 1
    return c, s * n


def success_probability_formula(
    k: int,
    g: SemidirectGroup,
    enumeration_cap: int | None = None,
) -> Fraction | float:
    """Pr(success) = (p / |G|^(k+1)) sum_x (sum_w sqrt(eta^x_w))^2.

    Exact Fraction when every block sum squares to a rational (the etas
    of each block share one squarefree part), float otherwise.
    """
    exact_total = Fraction(0)
    float_total = 0.0
    all_exact = True
    for chunk in eta_chunks(g, k, enumeration_cap):
        for row in chunk:
            etas = row[row > 0].tolist()
            parts = [_squarefree_split(eta) for eta in etas]
            if len({s for _c, s in parts}) <= 1:
                exact_total += Fraction(sum(c for c, _s in parts)) ** 2 * parts[0][1]
            else:
                all_exact = False
            float_total += sum(math.sqrt(eta) for eta in etas) ** 2
    scale = Fraction(g.p, g.order ** (k + 1))
    if all_exact:
        return scale * exact_total
    return float(scale) * float_total


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


def outcome_distribution(
    k: int,
    g: SemidirectGroup,
    d,
    enumeration_cap: int | None = None,
) -> np.ndarray:
    """Exact outcome probabilities tr(E_j rho_d^(x)k) over j in A-index order.

    Blockwise: Pr(j) = (1/(|G|^k |A|)) sum_x |sum_w chi_w(d - j) sqrt(eta)|^2,
    the squared Fourier transform over A of each row sqrt(eta^x_.): a
    length-N FFT for Z_N, a (p,)*r FFT for Z_p^r.
    """
    a = g.a_group
    d = a.reduce(d)
    power = np.zeros(a.order)
    for eta in eta_chunks(g, k, enumeration_cap):
        amps = fft_over_a(a, np.sqrt(eta))
        power += (amps.real**2 + amps.imag**2).sum(axis=0)
    shifts = [a.index(a.add(d, a.neg(j))) for j in a.elements()]
    return power[shifts] / (g.order**k * a.order)


def trivial_state_outcome_distribution(
    k: int,
    g: SemidirectGroup,
    enumeration_cap: int | None = None,
) -> tuple[np.ndarray, float]:
    """Outcome probabilities for the maximally mixed (trivial-subgroup)
    input, plus the leftover mass outside the ensemble support.  The support
    dimension, the number of (x, w) with eta^x_w > 0, is an exact integer
    summed over the symmetry orbits of x (msum.eta_orbits)."""
    a = g.a_group
    support = sum(
        int(weights @ np.count_nonzero(eta, axis=1))
        for weights, eta in eta_orbits(g, k, enumeration_cap)
    )
    dim = g.order**k
    per_outcome = support / (dim * a.order)
    probs = np.full(a.order, per_outcome)
    return probs, 1.0 - support / dim


# ---------------------------------------------------------------------------
# Lemma-style bracketing of the success probability


@dataclass(frozen=True)
class SuccessBracket:
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


@dataclass(frozen=True)
class OptimalityReport:
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
# Neumark blocks and quantum sampling


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
# Aggregate report


@dataclass(frozen=True)
class PGMReport:
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


def pgm_report(
    k: int,
    g: SemidirectGroup,
    cap: int | None = None,
    enumeration_cap: int | None = None,
    population_cap: int | None = None,
) -> PGMReport:
    from .groups import format_group_spec

    formula = success_probability_formula(k, g, enumeration_cap)
    exact = formula if isinstance(formula, Fraction) else None
    povm = build_pgm(k, g, cap, enumeration_cap)
    trace = success_probability_trace(k, g, g.a_group.zero, cap, enumeration_cap, povm)
    stats = eta_statistics(g, k, cap=population_cap, enumeration_cap=enumeration_cap)
    bracket = best_certified_lower_bound(k, g, stats)
    optimality = verify_optimality(k, g, povm, cap, enumeration_cap)
    return PGMReport(
        format_group_spec(g), k, float(formula), exact, trace, bracket, optimality
    )
