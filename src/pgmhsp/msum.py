"""Solvers and statistics for the matrix sum problem.

An instance is (x, w) with x a k-tuple over A and w in A; the task is to
find every b in Z_p^k with  sum_j conj_apply(b_j, x_j) = w.  Four solvers
are provided: exhaustive enumeration (the oracle for everything else), a
discrete-log route for Z_N with k = 1, the quadratic closed form for the
Heisenberg group with k = 2, and linear-slice elimination for Z_p^r.
Every specialized solver returns exactly the brute-force solution set.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .caps import CapExceeded, enum_cap, pop_cap
from .groups import (
    CyclicGroup,
    SemidirectGroup,
    VectorGroup,
    is_heisenberg,
    msum_table,
)


@dataclass(frozen=True)
class MSumInstance:
    """One matrix sum instance over a fixed group."""

    group: SemidirectGroup
    x: tuple
    w: object

    def __post_init__(self) -> None:
        a = self.group.a_group
        if len(self.x) < 1:
            raise ValueError("instance needs k >= 1 components")
        object.__setattr__(self, "x", tuple(a.reduce(xj) for xj in self.x))
        object.__setattr__(self, "w", a.reduce(self.w))

    @property
    def k(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class SolutionSet:
    """Lexicographically sorted solutions b in Z_p^k and their count eta."""

    solutions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "solutions", tuple(sorted(self.solutions)))

    @property
    def eta(self) -> int:
        return len(self.solutions)


def _component_tables(inst: MSumInstance) -> list[list]:
    """Per-copy tables T_j[b] = conj_apply(b, x_j) for b in [0, p)."""
    g = inst.group
    table = msum_table(g)
    a = g.a_group
    out = []
    for xj in inst.x:
        if isinstance(a, CyclicGroup):
            out.append([(m * xj) % a.n for m in table])
        else:
            out.append(
                [
                    tuple(sum(row[i] * xj[i] for i in range(a.r)) % g.p for row in m)
                    for m in table
                ]
            )
    return out


def check_enumeration(p: int, k: int, cap: int | None = None) -> None:
    """Raise CapExceeded when the b-grid Z_p^k is larger than the cap."""
    if k < 1:
        raise ValueError(f"need k >= 1 copies, got {k}")
    limit = enum_cap(cap)
    if p**k > limit:
        raise CapExceeded(f"p^k = {p**k} exceeds enumeration cap {limit}")


def _enumerate(inst: MSumInstance, cap: int | None):
    """(b, sum_j conj_apply(b_j, x_j)) for every b in Z_p^k, lexicographically."""
    g = inst.group
    check_enumeration(g.p, inst.k, cap)
    tables = _component_tables(inst)
    a = g.a_group
    for b in itertools.product(range(g.p), repeat=inst.k):
        total = a.zero
        for bj, tab in zip(b, tables):
            total = a.add(total, tab[bj])
        yield b, total


def solve_bruteforce(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Complete solution set by trying all b in Z_p^k."""
    return SolutionSet(tuple(b for b, total in _enumerate(inst, cap) if total == inst.w))


def solve_all_w(
    g: SemidirectGroup, x: tuple, cap: int | None = None
) -> dict:
    """Map w -> sorted solution list for a fixed x, via one enumeration."""
    buckets: dict = {}
    for b, total in _enumerate(MSumInstance(g, tuple(x), g.a_group.zero), cap):
        buckets.setdefault(total, []).append(b)
    return buckets


# ---------------------------------------------------------------------------
# Discrete-log route (Z_N, k = 1)


def discrete_log_bsgs(base: int, target: int, order: int, modulus: int):
    """Baby-step/giant-step log in the order-`order` subgroup <base> of Z_N^x.

    Returns b in [0, order) with base^b = target (mod modulus), or None.
    """
    if pow(base, order, modulus) != 1:
        raise ValueError(f"base^order != 1 (base={base}, order={order}, mod={modulus})")
    target %= modulus
    m = math.isqrt(order - 1) + 1 if order > 1 else 1
    baby: dict[int, int] = {}
    value = 1
    for j in range(m):
        baby.setdefault(value, j)
        value = (value * base) % modulus
    giant = pow(base, -m, modulus)
    y = target
    for i in range(m):
        j = baby.get(y)
        if j is not None:
            b = (i * m + j) % order
            if pow(base, b, modulus) == target:
                return b
        y = (y * giant) % modulus
    return None


def solve_metacyclic_dlog(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Z_N, k = 1: reduce M^(b) x = w to the discrete log mu^b = 1 + (mu-1) w/x.

    Requires unit x and unit mu - 1; otherwise falls back to brute force.
    The solution, when it exists, is unique.
    """
    g = inst.group
    if not isinstance(g.a_group, CyclicGroup):
        raise ValueError("metacyclic solver needs A = Z_N")
    if inst.k != 1:
        raise ValueError("metacyclic solver needs k = 1")
    n = g.a_group.n
    x, w = inst.x[0], inst.w
    if math.gcd(x, n) != 1 or math.gcd(g.mu - 1, n) != 1:
        return solve_bruteforce(inst, cap)
    target = (1 + (g.mu - 1) * w * pow(x, -1, n)) % n
    b = discrete_log_bsgs(g.mu, target, g.p, n)
    if b is None:
        return SolutionSet(())
    if (msum_table(g)[b] * x) % n != w:
        raise AssertionError("discrete-log route produced an unsound solution")
    return SolutionSet(((b,),))


# ---------------------------------------------------------------------------
# Square roots mod p


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


# ---------------------------------------------------------------------------
# Heisenberg closed form (k = 2)


def solve_heisenberg_closed_form(
    inst: MSumInstance, cap: int | None = None
) -> SolutionSet:
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
# Jordan elimination (Z_p^r)


def solve_jordan(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Z_p^r solver: use a coordinate linear in b to cut enumeration by p.

    A coordinate i qualifies when conj_apply(b, x_j)[i] = b * c_j for all
    copies; candidates then live on a (k-1)-dimensional slice and are
    checked against the full system.  Without a usable linear coordinate
    this is plain enumeration.
    """
    g = inst.group
    if not isinstance(g.a_group, VectorGroup):
        raise ValueError("jordan solver needs A = Z_p^r")
    p, r, k = g.p, g.a_group.r, inst.k
    check_enumeration(p, k, cap)
    tables = _component_tables(inst)

    pivot = None
    for i in range(r):
        coeffs = [tables[j][1][i] if p > 1 else 0 for j in range(k)]
        linear = all(
            tables[j][b][i] == (b * coeffs[j]) % p
            for j in range(k)
            for b in range(p)
        )
        if not linear:
            continue
        nonzero = [j for j in range(k) if coeffs[j] != 0]
        if nonzero:
            pivot = (i, coeffs, nonzero[0])
            break
        if inst.w[i] != 0:
            return SolutionSet(())

    if pivot is None:
        return solve_bruteforce(inst, cap)

    a = g.a_group
    hits = []
    i, coeffs, j0 = pivot
    inv = pow(coeffs[j0], -1, p)
    others = [j for j in range(k) if j != j0]
    for partial in itertools.product(range(p), repeat=k - 1):
        acc = inst.w[i]
        for j, bj in zip(others, partial):
            acc -= coeffs[j] * bj
        bj0 = acc * inv % p
        b = [0] * k
        b[j0] = bj0
        for j, bj in zip(others, partial):
            b[j] = bj
        total = a.zero
        for bj, tab in zip(b, tables):
            total = a.add(total, tab[bj])
        if total == inst.w:
            hits.append(tuple(b))
    return SolutionSet(tuple(hits))


def solve_auto(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Route an instance to the most specific solver for its group shape."""
    g = inst.group
    if isinstance(g.a_group, CyclicGroup) and inst.k == 1:
        return solve_metacyclic_dlog(inst, cap)
    if is_heisenberg(g) and inst.k == 2:
        return solve_heisenberg_closed_form(inst, cap)
    if isinstance(g.a_group, VectorGroup):
        return solve_jordan(inst, cap)
    return solve_bruteforce(inst, cap)


# ---------------------------------------------------------------------------
# Eta statistics


@dataclass(frozen=True)
class EtaStats:
    """Histogram of solution counts over an instance population."""

    counts: dict[int, int]
    population: int
    mode: str  # "exhaustive" | "sampled"
    seed: int | None = None

    @property
    def mean(self) -> Fraction:
        return Fraction(sum(eta * c for eta, c in self.counts.items()), self.population)

    @property
    def variance(self) -> Fraction:
        second = Fraction(
            sum(eta * eta * c for eta, c in self.counts.items()), self.population
        )
        return second - self.mean**2

    def probability_at_least(self, alpha: int) -> Fraction:
        return Fraction(
            sum(c for eta, c in self.counts.items() if eta >= alpha), self.population
        )

    def probability_of(self, eta: int) -> Fraction:
        return Fraction(self.counts.get(eta, 0), self.population)


# ---------------------------------------------------------------------------
# The eta table
#
# Row x, column idx_b(b) of the image table holds the A-index of
# sum_j M^(b_j) x_j; eta^x_w is the number of entries equal to w in row x.
# Additions are index arithmetic: mod N for Z_N.  For Z_p^r each of the k
# addends packs its r digits into bit fields wide enough to hold k(p-1),
# so the k codes add without carries; a lookup table then reduces every
# digit mod p once, up to _LUT_BITS bits of digits per lookup.

# Elements per batch: of 2^14..2^22, 2^16 ran the benchmark's exhaustive
# histograms fastest in total (2^22 was 1.5x slower) and keeps batches small.
_CHUNK = 1 << 16
_LUT_BITS = 16


def index_digits(indices: np.ndarray, p: int, r: int) -> np.ndarray:
    """Coordinates of the Z_p^r elements with the given A-indices, shape
    (*indices.shape, r), first coordinate most significant."""
    places = np.arange(r - 1, -1, -1, dtype=np.int64)
    return np.asarray(indices, dtype=np.int64)[..., None] // p**places % p


@lru_cache(maxsize=16)
def _decoder(p: int, r: int, k: int) -> tuple[np.ndarray, int, int]:
    """(lut, bits, width) for k-fold sums of Z_p^r codes with ``bits`` bits per
    digit: lut maps ``width`` packed digits to their A-index part mod p."""
    bits = (k * (p - 1)).bit_length()
    if bits * r > 62:
        raise CapExceeded(f"k = {k} copies of Z_{p}^{r} overflow 64-bit index sums")
    width = min(r, max(1, _LUT_BITS // bits))
    packed = np.arange(1 << bits * width, dtype=np.int64)
    lut = sum((packed >> bits * t & (1 << bits) - 1) % p * p**t for t in range(width))
    return lut, bits, width


def _codes(g: SemidirectGroup, xs: np.ndarray, bits: int) -> np.ndarray:
    """codes[..., b] codes M^(b) x for the A-indices ``xs``: the A-index for
    Z_N, the digits packed ``bits`` bits apart for Z_p^r."""
    a = g.a_group
    table = np.array(msum_table(g), dtype=np.int64)
    if isinstance(a, CyclicGroup):
        return xs[..., None] * table % a.n
    images = np.einsum("bij,...j->...bi", table, index_digits(xs, g.p, a.r)) % g.p
    return (images << bits * np.arange(a.r - 1, -1, -1, dtype=np.int64)).sum(axis=-1)


def x_tuples(a_order: int, k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Per-copy A-indices, shape (rows, k), of the x with idx_A in [start, stop)."""
    flat = np.arange(start, a_order**k if stop is None else stop, dtype=np.int64)
    return flat[:, None] // a_order ** np.arange(k, dtype=np.int64) % a_order


def image_table(
    g: SemidirectGroup, xs: np.ndarray, enumeration_cap: int | None = None
) -> np.ndarray:
    """A-index of sum_j conj_apply(b_j, x_j) for each row x of ``xs`` (per-copy
    A-indices, copy 1 first) and each b, in column idx_b(b)."""
    rows, k = xs.shape
    check_enumeration(g.p, k, enumeration_cap)
    a = g.a_group
    lut, bits, width = (None, 0, 0) if isinstance(a, CyclicGroup) else _decoder(g.p, a.r, k)
    # Codes only for the x components present: in idx_A order the later
    # copies take few distinct values per batch.
    used, inverse = np.unique(xs, return_inverse=True)
    codes = _codes(g, used, bits)
    inverse = inverse.reshape(rows, k)
    acc = codes[inverse[:, k - 1]]
    for j in range(k - 2, -1, -1):
        acc = (acc[:, :, None] + codes[inverse[:, j]][:, None, :]).reshape(rows, -1)
    if lut is None:
        return acc % a.n
    mask = lut.size - 1
    out = lut[acc & mask]
    for q in range(width, a.r, width):
        out += lut[acc >> bits * q & mask] * g.p**q
    return out


def eta_rows(images: np.ndarray, a_order: int) -> np.ndarray:
    """eta^x_w for each row of an image table: shape (rows, |A|)."""
    rows = images.shape[0]
    flat = (images + a_order * np.arange(rows, dtype=np.int64)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * a_order).reshape(rows, a_order)


def eta_chunks(g: SemidirectGroup, k: int, enumeration_cap: int | None = None):
    """eta rows of every x in idx_A order, a chunk of about _CHUNK elements at a time."""
    check_enumeration(g.p, k, enumeration_cap)
    a_order = g.a_group.order
    step = max(1, _CHUNK // max(g.p**k, a_order))
    total = a_order**k
    for start in range(0, total, step):
        xs = x_tuples(a_order, k, start, min(start + step, total))
        yield eta_rows(image_table(g, xs, enumeration_cap), a_order)


def eta_statistics(
    g: SemidirectGroup,
    k: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    cap: int | None = None,
    enumeration_cap: int | None = None,
) -> EtaStats:
    """Exact (exhaustive) or sampled histogram of eta over (x, w) pairs."""
    a = g.a_group
    check_enumeration(g.p, k, enumeration_cap)
    hist = np.zeros(g.p**k + 1, dtype=np.int64)
    if mode == "exhaustive":
        population = a.order ** (k + 1)
        limit = pop_cap(cap)
        if population > limit:
            raise CapExceeded(f"population {population} exceeds cap {limit}")
        for eta in eta_chunks(g, k, enumeration_cap):
            hist += np.bincount(eta.ravel(), minlength=hist.size)
        counts_map = {int(eta): int(c) for eta, c in enumerate(hist) if c}
        return EtaStats(counts_map, population, "exhaustive")
    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        if not samples or samples < 1:
            raise ValueError("sampled mode requires a positive sample count")
        rng = random.Random(seed)
        # Row: x_1..x_k then w, drawn in that order for each sample.
        draws = np.array(
            [[rng.randrange(a.order) for _ in range(k + 1)] for _ in range(samples)],
            dtype=np.int64,
        )
        step = max(1, _CHUNK // g.p**k)
        for lo in range(0, samples, step):
            batch = draws[lo : lo + step]
            etas = (image_table(g, batch[:, :k], enumeration_cap) == batch[:, k:]).sum(axis=1)
            hist += np.bincount(etas, minlength=hist.size)
        tally = {int(eta): int(c) for eta, c in enumerate(hist) if c}
        return EtaStats(tally, samples, "sampled", seed)
    raise ValueError(f"unknown mode {mode!r}")
