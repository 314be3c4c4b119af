"""Solvers and statistics for the matrix sum problem.

An instance is (x, w) with x a k-tuple over A and w in A; the task is to
find every b in Z_p^k with  sum_j conj_apply(b_j, x_j) = w.  solve_auto
takes Z_N with k = 1 to a discrete-log route when x and mu - 1 are units.
Every other instance with |A| p <= _CHUNK, p^(k-1) <= _PY_GRID and p^k
within the enumeration cap is solved by residual lookup: for each prefix
(b_1..b_(k-1)) the residual w - sum_(j<k) M^(b_j) x_j, in Python ints, is
looked up among the p images of the last copy.  Both routes keep what
does not depend on the instance in one context per (group, k) (_Context:
the decode, the prefixes, the baby steps, and per element of A the codes
and images the lookup reads), so a call costs about its own arithmetic.
Beyond that, Z_N goes to brute force and Z_p^r to the polynomial route,
where M^(b) = sum_l C(b, l+1) (mu - I)^l makes the system triangular in
b: it eliminates the linear layer over F_p, then checks the points of the
affine family left against the same integer image codes the eta table is
built from, or, for p beyond a few thousand, root-finds along its lines
without tabulating Z_p.  Every specialized
solver returns exactly the brute-force solution set; the tests check both
against an independent pure-Python enumeration.

Every exhaustive sum over A^k (the eta histogram here, and the success
formula and the outcome laws in pgm) walks one x per symmetry orbit
(eta_orbits), with the orbit size as its weight.  A scalar unit c commutes with every M^(b),
so eta^(cx)_(cw) = eta^x_w: copy 1 takes one representative per unit class
(the divisors d of N, of weight phi(N/d), for Z_N; 0 and the vectors whose
leading nonzero coordinate is 1, of weight p - 1, for Z_p^r).  Permuting
the copies permutes b, so copies 2..k take one nondecreasing tuple per
multiset, of weight (k-1)!/prod(mult!).  The walk streams its rows in
chunks and checks that the weights sum to |A|^k.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .caps import CapExceeded, enum_cap, pop_cap
from .groups import (
    CyclicGroup,
    SemidirectGroup,
    VectorGroup,
    mat_add,
    mat_identity,
    mat_mul,
    mat_transpose,
    mat_vec,
    matrix_sum,
    msum_table,
)


@dataclass(frozen=True, init=False)
class MSumInstance:
    """One matrix sum instance over a fixed group, its elements reduced in A."""

    group: SemidirectGroup
    x: tuple
    w: object

    def __init__(self, group: SemidirectGroup, x, w) -> None:
        reduce = group.a_group.reduce
        x = tuple(map(reduce, x))
        if not x:
            raise ValueError("instance needs k >= 1 components")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", reduce(w))

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


def check_enumeration(p: int, k: int, cap: int | None = None) -> None:
    """Raise CapExceeded when the b-grid Z_p^k is larger than the cap."""
    if k < 1:
        raise ValueError(f"need k >= 1 copies, got {k}")
    limit = enum_cap(cap)
    if p**k > limit:
        raise CapExceeded(f"p^k = {p**k} exceeds enumeration cap {limit}")


def check_solutions(inst: MSumInstance, solutions) -> None:
    """Raise AssertionError unless every b given lies in Z_p^k and solves
    the instance, sum_j M^(b_j) x_j = w.  Each M^(b_j) is computed by
    groups.matrix_sum, in O(log b_j) products, once per (j, b_j), so the
    check builds nothing of size p and shares no step with the solvers."""
    g, a, k = inst.group, inst.group.a_group, inst.k
    terms: dict[tuple[int, int], object] = {}
    for b in solutions:
        if len(b) != k or not all(0 <= bj < g.p for bj in b):
            raise AssertionError(f"b = {b} is not in Z_{g.p}^{k}")
        total = a.zero
        for j, bj in enumerate(b):
            if (j, bj) not in terms:
                m = matrix_sum(bj, g)
                xj = inst.x[j]
                terms[j, bj] = m * xj % a.n if isinstance(a, CyclicGroup) else mat_vec(m, xj, g.p)
            total = a.add(total, terms[j, bj])
        if total != inst.w:
            raise AssertionError(f"b = {b} maps to {total}, not w = {inst.w}")


# ---------------------------------------------------------------------------
# Integer image codes
#
# Column idx_b(b) = sum_j b_j p^j (copy 1 least significant) of a row holds
# the A-index of sum_j M^(b_j) x_j.  Additions are index arithmetic: mod N
# for Z_N.  For Z_p^r each of the k addends packs its r digits into bit
# fields wide enough to hold k(p-1), so the k codes add without carries; a
# lookup table then reduces every digit mod p once, up to _LUT_BITS bits of
# digits per lookup.  The eta table and the solvers sum (_code_sums) and
# decode (_decode) codes this way; none walks Z_p^k element by element.

# Elements per eta-table batch, and columns per solver block: of 2^14..2^22,
# 2^16 ran the benchmark's exhaustive histograms fastest in total (2^22 was
# 1.5x slower) and keeps batches small.
_CHUNK = 1 << 16
_LUT_BITS = 16
# Prefixes (b_1..b_(k-1)) up to which _solve_lookup walks residuals in Python ints.
_PY_GRID = 64


def index_digits(indices: np.ndarray, p: int, r: int) -> np.ndarray:
    """Coordinates of the Z_p^r elements with the given A-indices, shape
    (*indices.shape, r), first coordinate most significant."""
    places = np.arange(r - 1, -1, -1, dtype=np.int64)
    return np.asarray(indices, dtype=np.int64)[..., None] // p**places % p


@lru_cache(maxsize=16)
def _decoder(p: int, r: int, k: int) -> tuple[np.ndarray, int, int, np.ndarray]:
    """(lut, bits, width, weights) for k-fold sums of Z_p^r codes with ``bits``
    bits per digit: lut maps ``width`` packed digits to their A-index part
    mod p, and coordinates @ weights is the code of a vector.  Codes wider
    than 62 bits (which also covers A-indices beyond int64) are Python ints."""
    bits = (k * (p - 1)).bit_length()
    width = min(r, max(1, _LUT_BITS // bits))
    packed = np.arange(1 << bits * width, dtype=np.int64)
    lut = sum((packed >> bits * t & (1 << bits) - 1) % p * p**t for t in range(width))
    weights = np.array(
        [1 << bits * i for i in range(r - 1, -1, -1)],
        dtype=np.int64 if bits * r <= 62 else object,
    )
    return lut, bits, width, weights


@lru_cache(maxsize=16)
def _msum_array(g: SemidirectGroup) -> np.ndarray:
    """msum_table(g) as a read-only int64 array: (p,) for Z_N, (p, r, r) for Z_p^r."""
    table = np.array(msum_table(g), dtype=np.int64)
    table.flags.writeable = False
    return table


def _codes(g: SemidirectGroup, xs: np.ndarray, k: int) -> np.ndarray:
    """codes[..., b] codes M^(b) x for the A elements ``xs`` (A-indices for
    Z_N, coordinate vectors along a last axis for Z_p^r), ready for sums of
    k codes: the A-index for Z_N, the packed digits for Z_p^r."""
    a = g.a_group
    if isinstance(a, CyclicGroup):
        if (a.n - 1) ** 2 < 2**63:
            return xs[..., None] * _msum_array(g) % a.n
        # x * M^(b) would overflow int64: Python-int codes, summed as objects
        return np.array([[x * m % a.n for m in msum_table(g)] for x in xs.tolist()], dtype=object)
    # the digits of M^(b) x, shape (*xs.shape[:-1], p, r), packed
    digits = np.einsum("bij,...j->...bi", _msum_array(g), xs) % g.p
    return digits @ _decoder(g.p, a.r, k)[3]


def _code_sums(codes: np.ndarray) -> np.ndarray:
    """sums[..., idx_b(b)] = sum_j codes[..., j, b_j] over b in Z_p^k, for
    codes of shape (..., k, p)."""
    *lead, k, p = codes.shape
    if k == 0:
        return np.zeros((*lead, 1), dtype=np.int64)
    acc = codes[..., k - 1, :]
    for j in range(k - 2, -1, -1):
        acc = (acc[..., :, None] + codes[..., j, None, :]).reshape(*lead, -1)
    return acc


def _decode(g: SemidirectGroup, sums: np.ndarray, k: int) -> np.ndarray:
    """A-indices of sums of k codes."""
    a = g.a_group
    if isinstance(a, CyclicGroup):
        return sums % a.n
    lut, bits, width, weights = _decoder(g.p, a.r, k)
    mask = lut.size - 1
    out = lut[(sums & mask).astype(np.int64, copy=False)].astype(weights.dtype, copy=False)
    for q in range(width, a.r, width):
        part = lut[(sums >> bits * q & mask).astype(np.int64, copy=False)]
        out += part.astype(weights.dtype, copy=False) * g.p**q
    return out


def _column_blocks(codes: np.ndarray):
    """(first column, sums) over consecutive blocks of idx_b columns, where
    sums[c] = sum_j codes[j, b_j] for the b in column first + c.

    A block spans the low copies that fit in _CHUNK columns (at least one);
    the high copies are summed once and added one column prefix at a time,
    so a block holds at most max(_CHUNK, p) columns for any p^k.
    """
    k, p = codes.shape
    low = 1
    while low < k and p ** (low + 1) <= _CHUNK:
        low += 1
    low_sums = _code_sums(codes[:low])
    if low >= k:
        yield 0, low_sums
        return
    for h, high in enumerate(_code_sums(codes[low:]).tolist()):
        yield h * low_sums.size, low_sums + high


def _solution_set(cols: list[np.ndarray], p: int, k: int) -> SolutionSet:
    """The b-tuples, as Python ints, of the idx_b columns in ``cols``."""
    if not cols:
        return SolutionSet(())
    hits = np.concatenate(cols)
    digits = hits[:, None] // p ** np.arange(k, dtype=np.int64) % p
    return SolutionSet(tuple(map(tuple, digits.tolist())))


def solve_bruteforce(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Complete solution set: the image of every b in Z_p^k, a block of
    columns at a time, compared with w."""
    g, k = inst.group, inst.k
    check_enumeration(g.p, k, cap)
    target = g.a_group.index(inst.w)
    hits = []
    for first, sums in _column_blocks(_codes(g, np.array(inst.x), k)):
        found = (_decode(g, sums, k) == target).nonzero()[0]
        if found.size:
            hits.append(first + found)
    return _solution_set(hits, g.p, k)


# ---------------------------------------------------------------------------
# Discrete-log route (Z_N, k = 1)


def _baby_steps(base: int, order: int, modulus: int):
    """The baby-step/giant-step log in the order-`order` subgroup <base> of
    Z_N^x, as a function of the target: it returns b in [0, order) with
    base^b = target (mod modulus), or None.  The baby steps are built here,
    once; raises ValueError unless base^order = 1."""
    if pow(base, order, modulus) != 1:
        raise ValueError(f"base^order != 1 (base={base}, order={order}, mod={modulus})")
    m = math.isqrt(order - 1) + 1 if order > 1 else 1
    baby: dict[int, int] = {}
    value = 1
    for j in range(m):
        baby.setdefault(value, j)
        value = (value * base) % modulus
    giant = pow(base, -m, modulus)

    def log(target: int):
        target %= modulus
        y = target
        for i in range(m):
            j = baby.get(y)
            if j is not None:
                b = (i * m + j) % order
                if pow(base, b, modulus) == target:
                    return b
            y = (y * giant) % modulus
        return None

    return log


def discrete_log_bsgs(base: int, target: int, order: int, modulus: int):
    """Baby-step/giant-step log in the order-`order` subgroup <base> of Z_N^x.

    Returns b in [0, order) with base^b = target (mod modulus), or None.
    """
    return _baby_steps(base, order, modulus)(target)


def solve_metacyclic_dlog(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Z_N, k = 1: reduce M^(b) x = w to the discrete log mu^b = 1 + (mu-1) w/x.

    Requires unit x and unit mu - 1; otherwise the instance goes to the
    residual lookup, then brute force.  The solution, when it exists, is
    unique.  The baby steps are kept in the (group, 1) context.
    """
    g = inst.group
    if not isinstance(g.a_group, CyclicGroup):
        raise ValueError("metacyclic solver needs A = Z_N")
    if inst.k != 1:
        raise ValueError("metacyclic solver needs k = 1")
    n = g.a_group.n
    x, w = inst.x[0], inst.w
    log = _context(g, 1).log
    if log is None or math.gcd(x, n) != 1:
        return _lookup_or_scan(inst, cap)
    b = log((1 + (g.mu - 1) * w * pow(x, -1, n)) % n)
    if b is None:
        return SolutionSet(())
    if msum_table(g)[b] * x % n != w:
        raise AssertionError("discrete-log route produced an unsound solution")
    return SolutionSet(((b,),))


# ---------------------------------------------------------------------------
# Polynomial route (Z_p^r)
#
# N = mu - I is nilpotent (mu^p = I in characteristic p), so on 0 <= b < p
# M^(b) = sum_{l+1<p} C(b, l+1) N^l: sum_j M^(b_j) x_j - w is a polynomial of
# degree <= D = min(r, p - 1) in b, and <= l under a functional y with
# y N^l = 0; on the first layer (y N = 0) it is linear, sum_j b_j y.x_j - y.w.


@lru_cache(maxsize=1024)
def _eliminate(rows: tuple, n: int, p: int):
    """Solve the linear system [rows | rhs] in n unknowns over F_p:
    (base, directions, free), the solutions being base + sum_i s_i
    directions[i] with directions[i] 1 at free[i]; None when inconsistent."""
    rows = [[c % p for c in row] for row in rows]
    pivots: list[int] = []
    for col in range(n + 1):
        i = len(pivots)
        hit = next((j for j in range(i, len(rows)) if rows[j][col]), None)
        if hit is None:
            continue
        if col == n:
            return None
        rows[i], rows[hit] = rows[hit], rows[i]
        top = rows[i] = [c * pow(rows[i][col], -1, p) % p for c in rows[i]]
        for j, row in enumerate(rows):
            if j != i and row[col]:
                rows[j] = [(u - row[col] * v) % p for u, v in zip(row, top)]
        pivots.append(col)
    row_of = dict(zip(pivots, rows))
    free = tuple(j for j in range(n) if j not in row_of)
    base = tuple(row_of[j][n] if j in row_of else 0 for j in range(n))
    directions = tuple(
        tuple(-row_of[j][c] % p if j in row_of else int(j == c) for j in range(n)) for c in free
    )
    return base, directions, free


@lru_cache(maxsize=16)
def _layers(g: SemidirectGroup) -> tuple[tuple, int, tuple]:
    """(basis, linear, powers): a basis of functionals on Z_p^r ordered by the
    least l with y N^l = 0, the number with y N = 0, and powers[l] = basis N^l
    for l < D."""
    p, r = g.p, g.a_group.r
    n = mat_add(g.mu, tuple(tuple(-c for c in row) for row in mat_identity(r)), p)
    basis, linear, power = [], 0, n
    while len(basis) < r:
        # the y with y N^l = 0 (the kernel of the transpose) that extend the
        # basis, i.e. leave no combination of basis and y vanishing
        for y in _eliminate(tuple((*row, 0) for row in mat_transpose(power)), r, p)[1]:
            if not _eliminate(tuple((*col, 0) for col in zip(*basis, y)), len(basis) + 1, p)[1]:
                basis.append(y)
        linear = linear or len(basis)
        power = mat_mul(power, n, p)
    powers = [tuple(basis)]
    while len(powers) < min(r, p - 1):
        powers.append(mat_mul(powers[-1], n, p))
    return powers[0], linear, tuple(powers)


def _line_cost(p: int, degree: int) -> int:
    """Root finding on one line, in grid points checked in the same time:
    powering t^p modulo a polynomial of degree <= ``degree`` takes about
    degree^2 Python operations per bit of p, each worth some 50 points of
    the numpy grid scan (35-86 measured at p = 101..1009)."""
    return 50 * degree * degree * p.bit_length()


def _trim(poly: list) -> list:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _poly_divmod(a: list, m: list, p: int) -> tuple[list, list]:
    """Quotient and remainder over F_p, coefficients from degree 0."""
    a, q, inv = list(a), [], pow(m[-1], -1, p)
    while len(a) >= len(m):
        q.append(a[-1] * inv % p)
        for j, mj in enumerate(m, len(a) - len(m)):
            a[j] = (a[j] - q[-1] * mj) % p
        a.pop()
    return q[::-1], _trim(a)


def _poly_mulmod(a: list, b: list, m: list, p: int) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _poly_divmod(out, m, p)[1]


def _poly_gcd(a: list, b: list, p: int) -> list:
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a]


def _power_minus(base: list, e: int, m: list, p: int, minus: list) -> list:
    """base^e - minus, mod m over F_p."""
    power = [1]
    for bit in bin(e)[2:]:
        power = _poly_mulmod(power, power, m, p)
        if bit == "1":
            power = _poly_mulmod(power, base, m, p)
    return _trim([(u - v) % p for u, v in itertools.zip_longest(power, minus, fillvalue=0)])


def _roots(f: list, p: int) -> list[int]:
    """The distinct roots in F_p of a polynomial of degree 1..p-1: its gcd h
    with t^p - t, split by gcd(h, (t + a)^((p-1)/2) - 1) for a = 0, 1, ..."""
    stack, roots = [_poly_gcd(f, _power_minus([0, 1], p, f, p, [0, 1]), p)], []
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        for a in range(p) if len(h) > 2 else ():
            part = _poly_gcd(h, _power_minus([a, 1], (p - 1) // 2, h, p, [1]), p)
            if 1 < len(part) < len(h):
                stack += [part, _poly_divmod(h, part, p)[0]]
                break
    return roots


def _first_nonvanishing(c: tuple, v: tuple, coefficients: list, offsets: list, p: int):
    """Coefficients in t of the first functional i, in layer order, for which
    offsets[i] + sum_{j,l} coefficients[j][l][i] C(b_j, l + 1) does not vanish
    on the line b = c + t v; None if none does."""
    terms = []
    for cj, vj, per_l in zip(c, v, coefficients):
        binom = [1]
        for l, column in enumerate(per_l):
            # C(b, l + 1) = C(b, l) (b - l) / (l + 1) at b = cj + vj t
            scale = pow(l + 1, -1, p)
            binom = [(u * (cj - l) + w * vj) * scale % p for u, w in zip([*binom, 0], [0, *binom])]
            terms.append((column, binom))
    for i, offset in enumerate(offsets):
        poly = [offset] + [0] * len(coefficients[0])
        for column, binom in terms:
            for m, bm in enumerate(binom):
                poly[m] += column[i] * bm
        poly = _trim([u % p for u in poly])
        if poly:
            return poly
    return None


def solve_polynomial(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Z_p^r solver: small instances by _solve_lookup; otherwise eliminate
    the linear layer over F_p, leaving an affine family with f free
    coordinates.  For p up to _line_cost, check its p^f points against the
    image codes a block at a time; for larger p walk p^(f-1) lines c + t v
    and check the roots in t of the first functional (in layer order) not
    vanishing on each, a line with none being all solutions.  The cap
    bounds that work, counted in grid points, and the solutions written
    out; nothing of size p is built for the lines."""
    if not isinstance(inst.group.a_group, VectorGroup):
        raise ValueError("polynomial solver needs A = Z_p^r")
    limit = enum_cap(cap)
    found = _solve_lookup(inst, limit)
    if found is not None:
        return found
    g, k, p = inst.group, inst.k, inst.group.p
    a = g.a_group
    basis, linear, powers = _layers(g)
    line = _line_cost(p, len(powers))
    columns = [[sum(map(operator.mul, y, v)) for y in basis[:linear]] for v in (*inst.x, inst.w)]
    family = _eliminate(tuple(zip(*columns)), k, p)
    if family is None:
        return SolutionSet(())
    base, directions, free = family
    f = len(free)
    # the grid also tabulates the p values of each b_j
    walked = max(p**f, p) if p <= line else p ** max(f - 1, 0) * line
    if walked > limit:
        raise CapExceeded(f"{walked} grid points of work exceed enumeration cap {limit}")
    if p <= line:
        codes = _codes(g, np.array(inst.x), k)
        return _grid_scan(g, codes, a.index(inst.w), base, directions, free)
    # coefficients[j][l][i] = (basis N^l x_j)_i over the functionals above the linear layer
    coefficients = [
        [[sum(map(operator.mul, y, xj)) for y in power[linear:]] for power in powers]
        for xj in inst.x
    ]
    offsets = [-sum(map(operator.mul, y, inst.w)) for y in basis[linear:]]
    zero = (0,) * k
    if f == 0:
        point = _first_nonvanishing(base, zero, coefficients, offsets, p)
        return SolutionSet((base,) if point is None else ())
    hits, solved_lines = [], []
    for steps in itertools.product(range(p), repeat=f - 1):
        c = base
        for s, d in zip(steps, directions):
            c = [(u + s * e) % p for u, e in zip(c, d)]
        poly = _first_nonvanishing(c, directions[-1], coefficients, offsets, p)
        if poly is None:  # a basis vanishes: the line solves (written out last)
            solved_lines.append(c)
            if walked + p * len(solved_lines) > limit:
                raise CapExceeded(f"solutions exceed enumeration cap {limit}")
            continue
        for t in _roots(poly, p) if len(poly) > 1 else ():
            b = tuple((u + t * e) % p for u, e in zip(c, directions[-1]))
            if _first_nonvanishing(b, zero, coefficients, offsets, p) is None:
                hits.append(b)
    for c in solved_lines:
        hits += [tuple((u + t * e) % p for u, e in zip(c, directions[-1])) for t in range(p)]
    return SolutionSet(tuple(hits))


def _grid_scan(g: SemidirectGroup, codes: np.ndarray, target: int, base: tuple,
               directions: tuple, free: tuple) -> SolutionSet:
    """The points b = base + sum_i s_i directions[i] of the family whose
    image is target, by one numpy scan over blocks of the free copies'
    columns (_column_blocks); each other copy adds codes[j, b_j] with b_j
    summed over the same blocks from s_i directions[i][j]."""
    p, (k, _), f = g.p, codes.shape, len(free)
    others = [j for j in range(k) if j not in free]
    moves = np.array(directions, dtype=np.int64).reshape(f, k)
    steps = [np.arange(p) * moves[:, j, None] for j in others]  # s * directions[i][j]
    hits = [np.zeros(0, dtype=np.int64)]
    blocks = zip(_column_blocks(codes[list(free)]), *map(_column_blocks, steps))
    for (first, sums), *shifts in blocks:
        for j, (_, shift) in zip(others, shifts):
            sums = sums + codes[j][(base[j] + shift) % p]
        found = (_decode(g, sums, k) == target).nonzero()[0]
        if found.size:
            hits.append(first + found)
    s = np.concatenate(hits)[:, None] // p ** np.arange(f, dtype=np.int64) % p
    b = (np.array(base, dtype=np.int64) + s @ moves) % p
    return SolutionSet(tuple(map(tuple, b.tolist())))


# ---------------------------------------------------------------------------
# Residual lookup (small instances of either family)


class _Context:
    """What the small-instance routes reuse across the instances of one
    (group, k); _context caches one per pair.

    - size, grid and points: |A| p, p^(k-1) and p^k, which _solve_lookup
      checks against _CHUNK, _PY_GRID and the cap on every call;
    - prefixes: the (b_1..b_(k-1)) in itertools.product order;
    - decode: the A-index of a Python-int sum of k codes;
    - records, filled per element e of A as instances ask for it (record):
      the codes of M^(b) (-e) for b < p, a map from each image M^(b) e to
      its suffixes (b,) in ascending b, and the code of e;
    - log (Z_N at k = 1): the discrete log to base mu with its baby steps,
      or None when mu - 1 is not a unit.
    """

    def __init__(self, g: SemidirectGroup, k: int):
        self.g, self.k = g, k
        self.size, self.grid, self.points = g.a_group.order * g.p, g.p ** (k - 1), g.p**k
        self.records: dict = {}

    @cached_property
    def prefixes(self) -> tuple:
        return tuple(itertools.product(range(self.g.p), repeat=self.k - 1))

    @cached_property
    def suffixes(self) -> tuple:
        """((b,),) for each b, shared by the images with a single b."""
        return tuple(((b,),) for b in range(self.g.p))

    @cached_property
    def decode(self):
        a = self.g.a_group
        if isinstance(a, CyclicGroup):
            # a residual sums k residues: it is below k N
            return (list(range(a.n)) * self.k).__getitem__
        # one lut lookup per `width` digits, from the least significant;
        # each higher group's A-index part is scaled by p^width
        lut, bits, width, _ = _decoder(a.p, a.r, self.k)
        lut, mask, shift, scale = lut.tolist(), lut.size - 1, bits * width, a.p**width

        def below(high):
            return lambda u: lut[u & mask] + high(u >> shift) * scale

        decode = lut.__getitem__
        for _ in range(width, a.r, width):
            decode = below(decode)
        return decode

    @cached_property
    def log(self):
        g, n = self.g, self.g.a_group.n
        return _baby_steps(g.mu, g.p, n) if math.gcd(g.mu - 1, n) == 1 else None

    def record(self, e) -> tuple:
        found = self.records.get(e)
        if found is None:
            a = self.g.a_group
            codes, negated = _element_codes(
                self.g, np.array([a.index(e), a.index(a.neg(e))]), self.k
            ).tolist()
            inverse: dict[int, tuple] = {}
            for b, image in enumerate(map(self.decode, codes)):
                inverse[image] = inverse.get(image, ()) + self.suffixes[b]
            found = self.records[e] = (tuple(negated), inverse, codes[1])  # M^(1) = I
        return found

    def solve(self, x: tuple, w) -> SolutionSet:
        """The residual w - sum_(j<k) M^(b_j) x_j of each prefix, in
        itertools.product order, is w's code plus the codes of -x_j, decoded
        and looked up among the images M^(b) x_k, so the b come out sorted."""
        records = self.records
        try:
            sums = [records[w][2]]
            for xj in x[:-1]:
                row = records[xj][0]
                sums = [u + c for u in sums for c in row]
            last = records[x[-1]][1]
        except KeyError:
            for e in (w, *x):
                self.record(e)
            return self.solve(x, w)
        found = list(map(last.get, map(self.decode, sums)))
        return SolutionSet(tuple([prefix + b for prefix, suffixes in zip(
            itertools.compress(self.prefixes, found), filter(None, found)) for b in suffixes]))


# A context holds at most |A| records: 16 MiB for Z_N and 21 MiB for Z_2^15
# at |A| p = 2^16, the most the lookup takes (tracemalloc), so the eight
# kept contexts hold at most about 170 MiB.
@lru_cache(maxsize=8)
def _context(g: SemidirectGroup, k: int) -> _Context:
    return _Context(g, k)


def _solve_lookup(inst: MSumInstance, cap: int | None = None) -> SolutionSet | None:
    """Solutions of a small instance (_Context.solve), or None unless
    |A| p <= _CHUNK, p^(k-1) <= _PY_GRID and p^k is within the cap (so no
    other route could exceed it)."""
    context = _context(inst.group, len(inst.x))
    if context.size > _CHUNK or context.grid > _PY_GRID or context.points > enum_cap(cap):
        return None
    return context.solve(inst.x, inst.w)


def _lookup_or_scan(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    found = _solve_lookup(inst, cap)
    return solve_bruteforce(inst, cap) if found is None else found


def solve_auto(inst: MSumInstance, cap: int | None = None) -> SolutionSet:
    """Route an instance to the most specific solver for its group shape."""
    if isinstance(inst.group.a_group, VectorGroup):
        return solve_polynomial(inst, cap)
    if inst.k == 1:
        return solve_metacyclic_dlog(inst, cap)
    return _lookup_or_scan(inst, cap)


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
# Row x of the image table holds the A-index of sum_j M^(b_j) x_j in column
# idx_b(b); eta^x_w is the number of entries equal to w in row x.


def x_tuples(a_order: int, k: int) -> np.ndarray:
    """Per-copy A-indices, shape (|A|^k, k), of every x in idx_A order."""
    flat = np.arange(a_order**k, dtype=np.int64)
    return flat[:, None] // a_order ** np.arange(k, dtype=np.int64) % a_order


def _element_codes(g: SemidirectGroup, indices: np.ndarray, k: int) -> np.ndarray:
    """codes[..., b] of M^(b) x for the A elements with the given A-indices."""
    a = g.a_group
    return _codes(g, indices if isinstance(a, CyclicGroup) else index_digits(indices, g.p, a.r), k)


def _codes_of_a(g: SemidirectGroup, k: int) -> np.ndarray | None:
    """Codes of every element of A, rows in A-index order, for a walk that
    meets every x component; None when they would not fit in one chunk."""
    if g.a_group.order * g.p > _CHUNK:
        return None
    return _element_codes(g, np.arange(g.a_group.order, dtype=np.int64), k)


def image_table(
    g: SemidirectGroup,
    xs: np.ndarray,
    enumeration_cap: int | None = None,
    codes: np.ndarray | None = None,
) -> np.ndarray:
    """A-index of sum_j conj_apply(b_j, x_j) for each row x of ``xs`` (per-copy
    A-indices, copy 1 first) and each b, in column idx_b(b).  ``codes``, from
    _codes_of_a, holds the codes of all of A; without it the codes of the
    x components present are built for this batch alone."""
    rows, k = xs.shape
    check_enumeration(g.p, k, enumeration_cap)
    if codes is None:
        used, inverse = np.unique(xs, return_inverse=True)
        codes = _element_codes(g, used, k)
        xs = inverse.reshape(rows, k)
    return _decode(g, _code_sums(codes[xs]), k)


def eta_rows(images: np.ndarray, a_order: int) -> np.ndarray:
    """eta^x_w for each row of an image table: shape (rows, |A|)."""
    if images.dtype == object:  # Python-int codes: far too many w to count
        raise CapExceeded(f"|A| = {a_order} is too large to count solutions per w")
    rows = images.shape[0]
    flat = (images + a_order * np.arange(rows, dtype=np.int64)[:, None]).ravel()
    return np.bincount(flat, minlength=rows * a_order).reshape(rows, a_order)


# ---------------------------------------------------------------------------
# Symmetry orbits of A^k


def _prime_factors(n: int) -> list[int]:
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + ([n] if n > 1 else [])


@lru_cache(maxsize=16)
def _divisor_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The divisors d of n as A-indices of Z_n (d mod n, ascending), and
    phi(n/d), the number of x in Z_n with gcd(x, n) = d."""
    primes = _prime_factors(n)
    divisors = [1]
    for q in primes:
        powers = [1]
        while n % (powers[-1] * q) == 0:
            powers.append(powers[-1] * q)
        divisors = [d * e for d in divisors for e in powers]
    divisors.sort(key=lambda d: d % n)
    sizes = []
    for d in divisors:
        m = n // d
        for q in primes:
            if m % q == 0:
                m = m // q * (q - 1)
        sizes.append(m)
    reps = np.array([d % n for d in divisors], dtype=np.int64)
    weights = np.array(sizes, dtype=np.int64)
    reps.flags.writeable = weights.flags.writeable = False
    return reps, weights


def _unit_class_count(a) -> int:
    if isinstance(a, CyclicGroup):
        return len(_divisor_classes(a.n)[0])
    return 1 + (a.order - 1) // (a.p - 1)


def _unit_classes(a, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A-index and size of the unit classes {c x : c a unit} with the given
    ranks, in A-index order of their representatives."""
    if isinstance(a, CyclicGroup):
        reps, sizes = _divisor_classes(a.n)
        return reps[ranks], sizes[ranks]
    # Rank 0 is the zero vector; the representatives with their leading 1 in
    # digit e (counted from the least significant) are A-indices
    # [p^e, 2 p^e), at ranks from 1 + (p^e - 1)/(p - 1).
    p = a.p
    powers = p ** np.arange(a.r, dtype=np.int64)
    starts = 1 + (powers - 1) // (p - 1)
    e = np.searchsorted(starts, ranks, side="right") - 1
    nonzero = ranks > 0
    return np.where(nonzero, powers[e] + ranks - starts[e], 0), np.where(nonzero, p - 1, 1)


def class_means(a, laws) -> np.ndarray:
    """Sum the per-element arrays ``laws`` over each unit class of A, and
    spread every class total evenly over its members, in A-index order."""
    j = np.arange(a.order, dtype=np.int64)
    if isinstance(a, CyclicGroup):
        reps = np.gcd(j, a.n) % a.n
    else:
        # scale each vector by the inverse of its leading nonzero coordinate
        digits = index_digits(j, a.p, a.r)
        lead = np.take_along_axis(digits, (digits != 0).argmax(axis=1)[:, None], axis=1)
        inverses = np.array([0] + [pow(c, -1, a.p) for c in range(1, a.p)], dtype=np.int64)
        reps = digits * inverses[lead] % a.p @ a.p ** np.arange(a.r - 1, -1, -1)
    # class ranks: _unit_classes lists representatives in ascending A-index
    ranks = np.searchsorted(_unit_classes(a, np.arange(_unit_class_count(a)))[0], reps)
    totals = sum(np.bincount(ranks, weights=law) for law in laws)
    return (totals / np.bincount(ranks))[ranks]


def _colex_tables(n: int, m: int) -> list[np.ndarray]:
    """tables[j][c] = C(c, j + 1) for c in [0, n + m - 1): the combinatorial
    number system of m-element subsets of [0, n + m - 1)."""
    tables = []
    for _ in range(m):
        below = tables[-1] if tables else np.ones(n + m - 1, dtype=np.int64)
        tables.append(np.concatenate(([0], np.cumsum(below)[:-1])))
    return tables


def _multisets(
    tables: list[np.ndarray], ranks: np.ndarray, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Nondecreasing m-tuples y with the given colex ranks, shape (rows, m), and
    the number of distinct orderings of each, m!/prod(mult!), as ``dtype``.

    Rank r is sum_j C(c_j, j + 1) for the subset c_0 < ... < c_{m-1} with
    c_j = y_j + j, unranked greedily from the top."""
    m = len(tables)
    ys = np.empty((ranks.size, m), dtype=np.int64)
    rest = ranks.copy()
    for j in range(m - 1, -1, -1):
        c = np.searchsorted(tables[j], rest, side="right") - 1
        rest -= tables[j][c]
        ys[:, j] = c - j
    orderings = np.ones(ranks.size, dtype=dtype)
    run = np.ones(ranks.size, dtype=np.int64)
    for j in range(1, m):
        run = np.where(ys[:, j] == ys[:, j - 1], run + 1, 1)
        orderings = orderings * (j + 1) // run
    return ys, orderings


def orbit_rows(a, k: int) -> int:
    """Rows the orbit walk evaluates: unit classes of x_1 times multisets of
    x_2..x_k."""
    return _unit_class_count(a) * math.comb(a.order + k - 2, k - 1)


def eta_orbits(g: SemidirectGroup, k: int, enumeration_cap: int | None = None):
    """(weights, eta rows) over one x per symmetry orbit of A^k, a chunk of
    about _CHUNK elements at a time; weights[i] is the orbit size of row i.

    Summing weight times any function of the row's eta multiset gives its
    sum over all of A^k.  Weights are int64 while |A|^(k+1) < 2^63 and
    Python ints beyond that.  The caps are checked on the call, not lazily."""
    a_order = g.a_group.order
    return ((w, eta_rows(images, a_order)) for w, images in orbit_images(g, k, enumeration_cap))


def orbit_images(g: SemidirectGroup, k: int, enumeration_cap: int | None = None):
    """(weights, image-table rows) of the eta_orbits walk, chunk by chunk."""
    check_enumeration(g.p, k, enumeration_cap)
    multisets = math.comb(g.a_group.order + k - 2, k - 1)
    rows = _unit_class_count(g.a_group) * multisets
    if rows >= 2**63:
        raise CapExceeded(f"{rows} orbit rows exceed int64")
    return _orbit_chunks(g, k, enumeration_cap, multisets, rows)


def _orbit_chunks(g: SemidirectGroup, k: int, enumeration_cap, multisets: int, rows: int):
    a = g.a_group
    dtype = np.int64 if a.order ** (k + 1) < 2**63 else object
    tables = _colex_tables(a.order, k - 1)
    codes = _codes_of_a(g, k)
    step = max(1, _CHUNK // max(g.p**k, a.order))
    total = 0
    for start in range(0, rows, step):
        ranks = np.arange(start, min(start + step, rows), dtype=np.int64)
        first, sizes = _unit_classes(a, ranks // multisets)
        rest, orderings = _multisets(tables, ranks % multisets, dtype)
        weights = sizes.astype(dtype) * orderings
        total += int(weights.sum())
        xs = np.column_stack([first, rest])
        yield weights, image_table(g, xs, enumeration_cap, codes)
    if total != a.order**k:
        raise AssertionError(f"orbit weights sum to {total}, not |A|^k = {a.order**k}")


def _uniform_draws(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]`` as an int64 array.

    For n < 2^32, ``randrange(n)`` takes one 32-bit word per try, keeps its
    top ``n.bit_length()`` bits and rejects values >= n.  This does the same
    to words drawn in blocks, so it accepts the same sequence; words drawn
    past the last accepted value go unused.
    """
    if n >= 1 << 32:
        return np.array([rng.randrange(n) for _ in range(count)], dtype=np.int64)
    bits = n.bit_length()
    parts, have = [], 0
    while have < count:
        # the expected number of words for the values still missing, plus slack
        m = ((count - have) << bits) // n + 64
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        kept = words >> (32 - bits)
        kept = kept[kept < n]
        parts.append(kept)
        have += kept.size
    return np.concatenate(parts)[:count].astype(np.int64)


class EtaHistogram:
    """The exhaustive eta histogram, summed chunk by chunk over the eta_orbits
    walk.  The population cap bounds the (x, w) pairs evaluated, at least |A|
    of them, and is checked on construction; testing |A| first keeps a
    large N from being factored."""

    def __init__(self, g: SemidirectGroup, k: int, cap: int | None = None):
        a = g.a_group
        self.population = a.order ** (k + 1)
        self.size = g.p**k + 1
        self.counts = 0
        limit = pop_cap(cap)
        if a.order > limit or orbit_rows(a, k) * a.order > limit:
            raise CapExceeded(
                f"(x, w) pairs over the symmetry orbits of population {self.population} "
                f"exceed cap {limit}"
            )

    def add(self, weights: np.ndarray, eta: np.ndarray) -> None:
        """Add weight times each row's own histogram of eta over w."""
        rows, size = len(eta), self.size
        flat = (eta + size * np.arange(rows, dtype=np.int64)[:, None]).ravel()
        counts = np.bincount(flat, minlength=rows * size).reshape(rows, size)
        self.counts = self.counts + weights @ counts

    def stats(self) -> EtaStats:
        counts = {int(eta): int(c) for eta, c in enumerate(self.counts) if c}
        return EtaStats(counts, self.population, "exhaustive")


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
    if mode == "exhaustive":
        hist = EtaHistogram(g, k, cap)
        for weights, eta in eta_orbits(g, k, enumeration_cap):
            hist.add(weights, eta)
        return hist.stats()
    if mode == "sampled":
        if seed is None:
            raise ValueError("sampled mode requires a seed")
        if not samples or samples < 1:
            raise ValueError("sampled mode requires a positive sample count")
        hist = np.zeros(g.p**k + 1, dtype=np.int64)
        # Row: x_1..x_k then w, drawn in that order for each sample.
        draws = _uniform_draws(random.Random(seed), a.order, samples * (k + 1))
        draws = draws.reshape(samples, k + 1)
        step = max(1, _CHUNK // g.p**k)
        for lo in range(0, samples, step):
            batch = draws[lo : lo + step]
            etas = (image_table(g, batch[:, :k], enumeration_cap) == batch[:, k:]).sum(axis=1)
            hist += np.bincount(etas, minlength=hist.size)
        tally = {int(eta): int(c) for eta, c in enumerate(hist) if c}
        return EtaStats(tally, samples, "sampled", seed)
    raise ValueError(f"unknown mode {mode!r}")
