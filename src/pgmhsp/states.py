"""Coset states and the Fourier-side hidden subgroup states.

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

import math
from functools import lru_cache

import numpy as np

from .caps import CapExceeded, dim_cap
from .groups import (
    AbelianGroup,
    CyclicGroup,
    SemidirectGroup,
    phi_sum,
    subgroup_order,
)
from .msum import image_table, index_digits, x_tuples


def state_dim(g: SemidirectGroup, k: int) -> int:
    return g.order**k


def check_dim(g: SemidirectGroup, k: int, cap: int | None = None) -> int:
    dim = state_dim(g, k)
    limit = dim_cap(cap)
    if dim > limit:
        raise CapExceeded(f"|G|^k = {dim} exceeds dimension cap {limit}")
    return dim


@lru_cache(maxsize=16)
def _phase_roots(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def characters(a_group: AbelianGroup, d) -> np.ndarray:
    """chi_w(d) for every w in A-index order."""
    d = a_group.reduce(d)
    w = np.arange(a_group.order, dtype=np.int64)
    if isinstance(a_group, CyclicGroup):
        t = w * d % a_group.n
    else:
        t = index_digits(w, a_group.p, a_group.r) @ np.array(d, dtype=np.int64) % a_group.p
    return _phase_roots(a_group.char_denominator)[t]


def fft_over_a(a_group: AbelianGroup, values: np.ndarray, norm: str | None = None) -> np.ndarray:
    """sum_w conj(chi_j(w)) values[..., w] for every j, over the last axis in
    A-index order: an FFT over A's shape, (N,) for Z_N and (p,)*r for Z_p^r,
    whose C order is A-index order."""
    shape = (a_group.n,) if isinstance(a_group, CyclicGroup) else (a_group.p,) * a_group.r
    lead = values.shape[:-1]
    axes = tuple(range(-len(shape), 0))
    amps = np.fft.fftn(values.reshape(*lead, *shape), axes=axes, norm=norm)
    return amps.reshape(*lead, a_group.order)


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


def state_vectors(g: SemidirectGroup, d, images: np.ndarray) -> np.ndarray:
    """v_d[x, b] = chi_{w(x, b)}(d) / sqrt(|G|^k) for the image table of every x.

    The x-block of the k-copy state rho_d^(x)k is the rank-one
    |v_d^x><v_d^x|; for labels d whose subgroup order differs from p this
    is still the formula-defined (valid) state.
    """
    return characters(g.a_group, g.a_group.reduce(d))[images] / math.sqrt(images.size)
