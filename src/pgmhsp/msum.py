"""Per-instance solvers for the matrix sum problem.

An instance is (x, w) with x a k-tuple over A and w in A; the task is to
find every b in Z_p^k with  sum_j conj_apply(b_j, x_j) = w.  solve_auto
takes Z_N with k = 1 to a discrete-log route when x and mu - 1 are units.
Every other instance with |A| p <= _CHUNK, p^(k-1) <= _PY_GRID and p^k
within the enumeration cap is solved by residual lookup: for each prefix
(b_1..b_(k-1)) the residual w - sum_(j<k) M^(b_j) x_j, in Python ints, is
looked up among the p images of the last copy.  Both routes keep what
does not depend on the instance in one context per (group, k) (_Context:
the decode, the prefixes, the baby steps, and a view of eta's cached
read-only table of the codes of A, 8 |A| p bytes, at most 512 KiB, shared
with the eta walk), so a call costs about its own arithmetic.
Beyond that, Z_N goes to brute force and Z_p^r to the polynomial route,
where M^(b) = sum_l C(b, l+1) (mu - I)^l makes the system triangular in
b: it eliminates the linear layer over F_p, then checks the points of the
affine family left against the same integer image codes the eta table is
built from (eta), or, for p beyond a few thousand, root-finds along its
lines without tabulating Z_p.  Every specialized solver returns exactly
the brute-force solution set; the tests check both against an independent
pure-Python enumeration.

``import pgmhsp`` binds this module lazily: only solve-msum and direct
callers of the solvers execute it.  The eta statistics live in eta;
eta_statistics is imported here too, so ``msum.eta_statistics`` still
names it.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache

import numpy as np

from .caps import CapExceeded, enum_cap
from .eta import (  # noqa: F401  (eta_statistics: see the module docstring)
    _CHUNK,
    _code_sums,
    _codes,
    _codes_of_a,
    _decode,
    _int_decoder,
    check_enumeration,
    eta_statistics,
)
from .groups import (
    CyclicGroup,
    SemidirectGroup,
    VectorGroup,
    _Frozen,
    _set,
    mat_add,
    mat_identity,
    mat_mul,
    mat_transpose,
    mat_vec,
    matrix_sum,
    row_reduce,
)


class MSumInstance(_Frozen):
    """One matrix sum instance over a fixed group, its elements reduced in A."""

    __slots__ = __match_args__ = ("group", "x", "w")

    def __init__(self, group: SemidirectGroup, x, w) -> None:
        reduce = group.a_group.reduce
        x = tuple(map(reduce, x))
        if not x:
            raise ValueError("instance needs k >= 1 components")
        _set(self, "group", group)
        _set(self, "x", x)
        _set(self, "w", reduce(w))

    @property
    def k(self) -> int:
        return len(self.x)


class SolutionSet(_Frozen):
    """Lexicographically sorted solutions b in Z_p^k and their count eta."""

    __slots__ = __match_args__ = ("solutions",)

    def __init__(self, solutions: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "solutions", tuple(sorted(solutions)))

    @property
    def eta(self) -> int:
        return len(self.solutions)


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
# Brute force over the integer image codes (eta)


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
    if matrix_sum(b, g) * x % n != w:  # O(log b) products, apart from the baby steps
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
    row_of = {next(j for j, c in enumerate(row) if c): row for row in row_reduce(rows, p)}
    if n in row_of:
        return None
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
            if len(row_reduce((*basis, y), p)) > len(basis):
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

# Prefixes (b_1..b_(k-1)) up to which _solve_lookup walks residuals in Python ints.
_PY_GRID = 64


class _Context:
    """What the small-instance routes reuse across the instances of one
    (group, k); _context caches one per pair.

    - size, grid and points: |A| p, p^(k-1) and p^k, which _solve_lookup
      checks against _CHUNK, _PY_GRID and the cap on every call;
    - prefixes: the (b_1..b_(k-1)) in itertools.product order;
    - decode: the A-index of a Python-int sum of k codes (eta);
    - codes: a flat read-only view of eta's cached table of the codes of
      M^(b) e for every element e of A (eta._codes_of_a), the row of e at
      p times its A-index; the context keeps no table of its own;
    - log (Z_N at k = 1): the discrete log to base mu with its baby steps,
      or None when mu - 1 is not a unit.
    """

    def __init__(self, g: SemidirectGroup, k: int):
        self.g, self.k = g, k
        self.size, self.grid, self.points = g.a_group.order * g.p, g.p ** (k - 1), g.p**k

    @cached_property
    def prefixes(self) -> tuple:
        return tuple(itertools.product(range(self.g.p), repeat=self.k - 1))

    @cached_property
    def decode(self):
        return _int_decoder(self.g, self.k)

    @cached_property
    def codes(self) -> memoryview:
        return memoryview(_codes_of_a(self.g, self.k).ravel())

    @cached_property
    def log(self):
        g, n = self.g, self.g.a_group.n
        return _baby_steps(g.mu, g.p, n) if math.gcd(g.mu - 1, n) == 1 else None

    def solve(self, x: tuple, w) -> SolutionSet:
        """The residual w - sum_(j<k) M^(b_j) x_j of each prefix, in
        itertools.product order, is w's code plus the codes of -x_j, decoded
        and looked up among the images M^(b) x_k, so the b come out sorted."""
        g, p, codes, decode = self.g, self.g.p, self.codes, self.decode
        # the rows of w, -x_j (j < k) and x_k start at p times their A-indices:
        # -x mod N for Z_N, Horner's rule over the digits (-c mod p) for Z_p^r
        signs = (1, *[-1] * (self.k - 1), 1)
        if isinstance(g.a_group, VectorGroup):
            starts = []
            for sign, e in zip(signs, (w, *x)):
                i = 0
                for c in e:
                    i = i * p + sign * c % p
                starts.append(i * p)
        else:
            starts = [sign * e % g.a_group.n * p for sign, e in zip(signs, (w, *x))]
        first, *middle, last = starts
        sums = [codes[first + 1]]  # M^(1) = I
        for s in middle:
            row = codes[s : s + p]
            sums = [u + c for u in sums for c in row]
        inverse: dict[int, list] = {}
        for b, image in enumerate(map(decode, codes[last : last + p])):
            inverse.setdefault(image, []).append(b)
        found = list(map(inverse.get, map(decode, sums)))
        return SolutionSet(tuple([prefix + (b,) for prefix, bs in zip(
            itertools.compress(self.prefixes, found), filter(None, found)) for b in bs]))


# A context holds a view of eta's table of codes (8 |A| p bytes, at most
# 512 KiB at |A| p = 2^16, the most the lookup takes) and its decode list
# (k N entries for Z_N) or lut: 2.0 MiB with the table for zn N=32768 p=2
# at k = 2 and 3.3 MiB at k = 7 (tracemalloc), so the eight kept contexts
# hold at most about 27 MiB.
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
