"""Coset states, Fourier-side hidden subgroup states, and the ensemble sum.

Basis convention (fixed for bit-exact reproducibility): the k-copy space
is C^(|A|^k) (x) C^(p^k) with full index

    index(x, b) = idx_A(x) * p^k + idx_b(b),
    idx_A(x)    = sum_j A.index(x_j) * |A|^(j-1)   (copy 1 least significant),
    idx_b(b)    = sum_j b_j * p^(j-1),

and A.index is the value itself for Z_N, lexicographic (first coordinate
most significant) for Z_p^r.  The Fourier kernel is
F[x, a] = chi_x(a) / sqrt(|A|).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .caps import CapExceeded, dim_cap
from .groups import (
    AbelianGroup,
    SemidirectGroup,
    phi_sum,
    subgroup_order,
)
from .msum import eta_rows, image_table, x_tuples


def state_dim(g: SemidirectGroup, k: int) -> int:
    return g.order**k


def check_dim(g: SemidirectGroup, k: int, cap: int | None = None) -> int:
    dim = state_dim(g, k)
    limit = dim_cap(cap)
    if dim > limit:
        raise CapExceeded(f"|G|^k = {dim} exceeds dimension cap {limit}")
    return dim


def a_tuple_index(a_group: AbelianGroup, x: tuple) -> int:
    """idx_A(x) with copy 1 least significant."""
    i = 0
    for xj in reversed(x):
        i = i * a_group.order + a_group.index(xj)
    return i


def a_tuple_from_index(a_group: AbelianGroup, i: int, k: int) -> tuple:
    out = []
    for _ in range(k):
        i, c = divmod(i, a_group.order)
        out.append(a_group.element(c))
    return tuple(out)


def b_tuple_index(p: int, b: tuple[int, ...]) -> int:
    i = 0
    for bj in reversed(b):
        i = i * p + bj
    return i


@lru_cache(maxsize=None)
def _phase_roots(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def characters(a_group: AbelianGroup, d) -> np.ndarray:
    """chi_w(d) for every w in A-index order."""
    t = [a_group.char_index(w, d) for w in a_group.elements()]
    return _phase_roots(a_group.char_denominator)[t]


def qft_matrix(a_group: AbelianGroup) -> np.ndarray:
    """F[x, a] = chi_x(a) / sqrt(|A|)."""
    n = a_group.order
    roots = _phase_roots(a_group.char_denominator)
    f = np.empty((n, n), dtype=complex)
    elems = list(a_group.elements())
    for i, x in enumerate(elems):
        for j, a in enumerate(elems):
            f[i, j] = roots[a_group.char_index(x, a)]
    return f / np.sqrt(n)


# ---------------------------------------------------------------------------
# Single-copy states


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
        vec[base + b] = roots[a.char_index(x, phi_sum(b, d, g))]
    return vec / np.sqrt(g.p)


def coset_mixture_density(d, g: SemidirectGroup) -> np.ndarray:
    """rho_d = (1/|A|) sum_ell |psi_{ell,d}><psi_{ell,d}| (direct assembly)."""
    a = g.a_group
    dim = a.order * g.p
    rho = np.zeros((dim, dim), dtype=complex)
    for ell in a.elements():
        psi = coset_state(ell, d, g)
        rho += np.outer(psi, psi.conj())
    return rho / a.order


# ---------------------------------------------------------------------------
# The k-copy Fourier-side states, block by block over x in A^k
#
# The x-block of every operator below is read off the image table of the
# matrix sum problem (msum.image_table): b and b' lie in the same solution
# set S^x_w exactly when their images agree.


def block_images(
    g: SemidirectGroup, k: int, enumeration_cap: int | None = None
) -> np.ndarray:
    """Image table of every x in idx_A order, shape (|A|^k, p^k)."""
    return image_table(g, x_tuples(g.a_group.order, k), enumeration_cap)


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
    """k-copy Fourier-side state for the label d, with the image table.

    The x-block is the outer product of the vector with entries
    chi_{w(x, b)}(d), w(x, b) the image of b; for labels d whose subgroup
    order differs from p this still returns the formula-defined (valid)
    density matrix.
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


def matrix_to_json_pairs(mat: np.ndarray) -> list:
    """Complex matrix as nested [re, im] pairs in the documented basis
    order, for cross-checking against independent implementations."""
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(mat)]


def matrix_from_json_pairs(data) -> np.ndarray:
    rows = [[complex(re, im) for re, im in row] for row in data]
    return np.array(rows, dtype=complex)


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
