"""Dense and direct reference constructions the tests compare against.

The library verifies the PGM block by block over x in A^k.  These helpers
build the same operators as dense |G|^k x |G|^k matrices, or recompute a
quantity by a route the library does not take, so that every block
result has an independent check at small dimensions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from pgmhsp.groups import (
    AbelianGroup,
    CyclicGroup,
    GroupElement,
    SemidirectGroup,
    VectorGroup,
    conj_apply,
    element_mul,
    group_elements,
    heisenberg_group,
)
from pgmhsp.msum import (
    MSumInstance,
    SolutionSet,
    eta_chunks,
    eta_rows,
    image_table,
    solve_bruteforce,
)
from pgmhsp.pgm import POVM, UNITARITY_TOL, OptimalityReport, build_neumark, build_pgm
from pgmhsp.pipeline import HidingFunction, ReducedProblem, subgroup_closure
from pgmhsp.states import (
    _phase_roots,
    block_images,
    characters,
    check_dim,
    coset_state,
    fft_over_a,
)

# ---------------------------------------------------------------------------
# Groups and the matrix sum problem


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


def eta_histogram_all_x(g: SemidirectGroup, k: int) -> dict[int, int]:
    """eta value -> number of (x, w) pairs, from the eta rows of all |A|^k x
    (the reference for the histogram over symmetry orbits)."""
    hist = np.zeros(g.p**k + 1, dtype=np.int64)
    for eta in eta_chunks(g, k):
        hist += np.bincount(eta.ravel(), minlength=hist.size)
    return {int(eta): int(c) for eta, c in enumerate(hist) if c}


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


def qft_matrix(a_group: AbelianGroup) -> np.ndarray:
    """F[x, a] = chi_x(a) / sqrt(|A|), element by element."""
    n = a_group.order
    roots = _phase_roots(a_group.char_denominator)
    f = np.empty((n, n), dtype=complex)
    elems = list(a_group.elements())
    for i, x in enumerate(elems):
        for j, a in enumerate(elems):
            f[i, j] = roots[a_group.char_index(x, a)]
    return f / np.sqrt(n)


def stripped_qft(psi: np.ndarray, n: int, p: int) -> np.ndarray:
    """The stripped run's first Fourier step: (F_N (x) I_p) psi on the (a, b) register."""
    return np.kron(qft_matrix(CyclicGroup(n)), np.eye(p)) @ psi


def stripped_inverse_qft(erased: np.ndarray, n: int) -> np.ndarray:
    """The stripped run's last Fourier step: F_N^dagger on the erased register."""
    return qft_matrix(CyclicGroup(n)).conj().T @ erased


# ---------------------------------------------------------------------------
# Dense states and ensemble operators


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
