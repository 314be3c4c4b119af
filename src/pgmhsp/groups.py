"""Exact arithmetic for semidirect products G = A x| Z_p.

Two abelian families are supported for A:

  * ``CyclicGroup(n)``   -- Z_N, elements are ints in [0, N);
  * ``VectorGroup(p, r)`` -- Z_p^r, elements are length-r int tuples.

The automorphism of A is stored by the datum ``mu`` (a scalar for Z_N, an
r x r matrix for Z_p^r).  Convention: the stored matrix is the one acting
on *character labels*, i.e. the conjugate sum satisfies
``conj_apply(b, x) = matrix_sum(b) @ x``, while the action on group
elements goes through the transpose (for Z_N the two coincide).  All the
Fourier-side machinery (matrix sum problem, PGM blocks) consumes the
stored matrix directly.  Characters chi_x(y) are not evaluated here:
``char_denominator`` is their modulus, ``eta.fft_over_a`` sums against
them, and ``eta.phase_indices`` gives their exact integer phase index for
the direct sum that checks it.  An A-index has ``rank`` digits base
``char_denominator``: one for Z_N, r for Z_p^r (``eta.index_digits``).

Everything here is a pure function of immutable values; instances are
frozen ``__slots__`` classes (``_Frozen``) and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import attrgetter

Matrix = tuple[tuple[int, ...], ...]

_TRIAL_DIVISION_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic trial division; desk scale only (n <= 10^12)."""
    if n > _TRIAL_DIVISION_LIMIT**2:
        raise ValueError(f"primality test supports n <= 10^12, got {n}")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


# ---------------------------------------------------------------------------
# Value classes


class _Record:
    """Base of the package's value classes, which list their fields in
    ``__match_args__`` and store them in ``__slots__``: equality by those
    fields, only with an instance of the same class, and the repr
    ``Name(field=value, ...)``.  Mutable and unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__match_args__" in cls.__dict__:
            get = attrgetter(*cls.__match_args__)
            # the field values as a tuple, also for a single field
            cls._values = staticmethod(get if len(cls.__match_args__) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """An immutable _Record: hashed by its field values; assigning or
    deleting an attribute raises AttributeError, so ``__init__`` sets the
    fields with ``object.__setattr__`` (``_set``); pickle and copy rebuild
    an equal instance through the constructor, whose parameters are the
    fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


_set = object.__setattr__


# ---------------------------------------------------------------------------
# Abelian component


class CyclicGroup(_Frozen):
    """Additive group Z_N, N >= 2.  Element index equals the element."""

    __slots__ = __match_args__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"cyclic modulus must be >= 2, got {n}")
        _set(self, "n", n)

    @property
    def order(self) -> int:
        return self.n

    @property
    def zero(self) -> int:
        return 0

    def reduce(self, a: int) -> int:
        return a % self.n

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def neg(self, a: int) -> int:
        return (-a) % self.n

    def elements(self) -> range:
        return range(self.n)

    def index(self, a: int) -> int:
        return a % self.n

    def element(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"element index {i} out of range for Z_{self.n}")
        return i

    @property
    def char_denominator(self) -> int:
        return self.n

    @property
    def rank(self) -> int:
        return 1


class VectorGroup(_Frozen):
    """Additive group Z_p^r with p prime.  Index order is lexicographic."""

    __slots__ = __match_args__ = ("p", "r")

    def __init__(self, p: int, r: int) -> None:
        if not is_prime(p):
            raise ValueError(f"vector-group modulus must be prime, got {p}")
        if r < 1:
            raise ValueError(f"vector-group rank must be >= 1, got {r}")
        _set(self, "p", p)
        _set(self, "r", r)

    @property
    def order(self) -> int:
        return self.p**self.r

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.r

    def reduce(self, a) -> tuple[int, ...]:
        if len(a) != self.r:
            raise ValueError(f"expected length-{self.r} vector, got {a!r}")
        return tuple([c % self.p for c in a])

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((u + v) % self.p for u, v in zip(a, b))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-u) % self.p for u in a)

    def elements(self):
        return itertools.product(range(self.p), repeat=self.r)

    def index(self, a) -> int:
        i = 0
        for c in a:
            i = i * self.p + c % self.p
        return i

    def element(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.order:
            raise IndexError(f"element index {i} out of range for Z_{self.p}^{self.r}")
        digits = []
        for _ in range(self.r):
            i, c = divmod(i, self.p)
            digits.append(c)
        return tuple(reversed(digits))

    @property
    def char_denominator(self) -> int:
        return self.p

    @property
    def rank(self) -> int:
        return self.r


AbelianGroup = CyclicGroup | VectorGroup


# ---------------------------------------------------------------------------
# Matrices over Z_p (used only for the vector family; r is small)


def mat_identity(r: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    r = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(r)) % p for j in range(r))
        for i in range(r)
    )


def mat_add(a: Matrix, b: Matrix, p: int) -> Matrix:
    return tuple(
        tuple((u + v) % p for u, v in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_pow(a: Matrix, e: int, p: int) -> Matrix:
    result = mat_identity(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base, p)
        base = mat_mul(base, base, p)
        e >>= 1
    return result


def mat_vec(a: Matrix, v, p: int) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) % p for row in a)


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(tuple(row[i] for row in a) for i in range(len(a[0])))


def row_reduce(rows, p: int) -> list[tuple[int, ...]]:
    """The nonzero rows of the reduced row echelon form of ``rows`` over
    F_p, pivots ascending: the canonical basis of their span."""
    rows = [[c % p for c in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        hit = next((j for j in range(rank, len(rows)) if rows[j][col]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        top = rows[rank] = [c * pow(rows[rank][col], -1, p) % p for c in rows[rank]]
        for j, row in enumerate(rows):
            if j != rank and row[col]:
                rows[j] = [(u - row[col] * v) % p for u, v in zip(row, top)]
        rank += 1
    return [tuple(row) for row in rows[:rank]]


def jordan_matrix(p: int, block_sizes: tuple[int, ...] | list[int]) -> Matrix:
    """Unipotent Jordan-form matrix with the given block sizes, mod p."""
    sizes = tuple(int(s) for s in block_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive, got {block_sizes}")
    r = sum(sizes)
    rows = [[0] * r for _ in range(r)]
    offset = 0
    for s in sizes:
        for i in range(s):
            rows[offset + i][offset + i] = 1
            if i + 1 < s:
                rows[offset + i][offset + i + 1] = 1
        offset += s
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# The semidirect product


class GroupElement(_Frozen):
    """Element (a, b) of A x| Z_p; ``a`` reduced in A, 0 <= b < p."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a, b: int) -> None:
        _set(self, "a", a)
        _set(self, "b", b)


class SemidirectGroup(_Frozen):
    """G = A x| Z_p with the automorphism datum ``mu``.

    For Z_N: ``mu`` is a unit scalar with mu^p = 1 (mod N).
    For Z_p^r: ``mu`` is an invertible matrix with mu^p = I (mod p),
    stored in the character-label convention described in the module
    docstring.
    """

    __slots__ = ("a_group", "p", "mu", "_hash")
    __match_args__ = ("a_group", "p", "mu")

    def __init__(self, a_group: AbelianGroup, p: int, mu) -> None:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        a = a_group
        if isinstance(a, CyclicGroup):
            if not isinstance(mu, int):
                raise TypeError("cyclic family needs an integer mu")
            mu %= a.n
            if math.gcd(mu, a.n) != 1:
                raise ValueError(f"mu={mu} is not a unit mod {a.n}")
            if pow(mu, p, a.n) != 1:
                raise ValueError(f"mu={mu} does not satisfy mu^{p} = 1 mod {a.n}")
        elif isinstance(a, VectorGroup):
            if a.p != p:
                raise ValueError(
                    f"vector family requires matching primes, got A over {a.p} and p={p}"
                )
            mu = tuple(tuple(int(c) % p for c in row) for row in mu)
            if len(mu) != a.r or any(len(row) != a.r for row in mu):
                raise ValueError(f"mu must be a {a.r}x{a.r} matrix")
            if mat_pow(mu, p, p) != mat_identity(a.r):
                raise ValueError(f"mu must be invertible with mu^{p} = I mod {p}")
        else:
            raise TypeError(f"unsupported abelian component {a!r}")
        _set(self, "a_group", a)
        _set(self, "p", p)
        _set(self, "mu", mu)
        # every lru_cache keyed by the group hashes it: hash the nested mu once
        _set(self, "_hash", hash((a, p, mu)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.a_group.order * self.p

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self.a_group.zero, 0)

    def element(self, a, b: int) -> GroupElement:
        return GroupElement(self.a_group.reduce(a), b % self.p)


def semidirect_zn(n: int, p: int, mu: int) -> SemidirectGroup:
    return SemidirectGroup(CyclicGroup(n), p, mu)


def semidirect_zpr(p: int, mu) -> SemidirectGroup:
    mu = tuple(tuple(row) for row in mu)
    return SemidirectGroup(VectorGroup(p, len(mu)), p, mu)


def semidirect_jordan(p: int, block_sizes) -> SemidirectGroup:
    return semidirect_zpr(p, jordan_matrix(p, block_sizes))


def heisenberg_group(p: int) -> SemidirectGroup:
    """The nontrivial Z_p^2 x| Z_p (single 2x2 unipotent Jordan block)."""
    return semidirect_jordan(p, (2,))


# ---------------------------------------------------------------------------
# Automorphism action and the summed maps


# phi^b for every b < p of groups with p up to 1024: under 1 MB at r = 2
@lru_cache(maxsize=1024)
def _phi_power(g: SemidirectGroup, b: int):
    """The datum of phi^b on group elements, 0 <= b < p: mu^b mod N, or the
    transpose of mu to the b mod p."""
    ag = g.a_group
    if isinstance(ag, CyclicGroup):
        return pow(g.mu, b, ag.n)
    return mat_pow(mat_transpose(g.mu), b, g.p)


def phi_apply(a, g: SemidirectGroup, power: int = 1):
    """phi^power acting on an element of A (the group-side action)."""
    m = _phi_power(g, power % g.p)
    ag = g.a_group
    if isinstance(ag, CyclicGroup):
        return m * a % ag.n
    return mat_vec(m, a, g.p)


def element_mul(x: GroupElement, y: GroupElement, g: SemidirectGroup) -> GroupElement:
    """(a,b)(a',b') = (a + phi^b(a'), b + b')."""
    return GroupElement(
        g.a_group.add(x.a, phi_apply(y.a, g, x.b)), (x.b + y.b) % g.p
    )


def _running_sums(g: SemidirectGroup):
    """M^(0), M^(1), ... without end, by M^(b+1) = M^(b) + mu^b."""
    ag = g.a_group
    if isinstance(ag, CyclicGroup):
        total, power = 0, 1
        while True:
            yield total
            total, power = (total + power) % ag.n, power * g.mu % ag.n
    total, power = tuple((0,) * ag.r for _ in range(ag.r)), mat_identity(ag.r)
    while True:
        yield total
        total, power = mat_add(total, power, g.p), mat_mul(power, g.mu, g.p)


def matrix_sum(b: int, g: SemidirectGroup):
    """The literal sum M^(b) = sum_{i<b} mu^i of the stored datum.

    Scalar mod N for the cyclic family, matrix mod p for the vector
    family; M^(0) is the zero map.  For a unipotent Jordan block the
    (i, j) entry is binom(b, j-i+1) mod p.  Computed in O(log b) products
    from M^(2c) = (1 + mu^c) M^(c) and M^(c+1) = 1 + mu M^(c); nothing of
    size b is built.
    """
    if b < 0:
        raise ValueError(f"matrix_sum needs b >= 0, got {b}")
    ag = g.a_group
    if isinstance(ag, CyclicGroup):
        zero, one = 0, 1
        add, mul = (lambda u, v: (u + v) % ag.n), (lambda u, v: u * v % ag.n)
    else:
        zero, one = tuple((0,) * ag.r for _ in range(ag.r)), mat_identity(ag.r)
        add, mul = (lambda u, v: mat_add(u, v, g.p)), (lambda u, v: mat_mul(u, v, g.p))
    total, power = zero, one  # M^(c) and mu^c, from c = 0
    for bit in bin(b)[2:]:
        total, power = mul(add(one, power), total), mul(power, power)
        if bit == "1":
            total, power = add(one, mul(g.mu, total)), mul(power, g.mu)
    return total


@lru_cache(maxsize=16)
def msum_table(g: SemidirectGroup) -> tuple:
    """M^(b) for b = 0..p-1, cached per group: p running sums."""
    return tuple(itertools.islice(_running_sums(g), g.p))


def conj_apply(b: int, x, g: SemidirectGroup):
    """The conjugate sum applied to a character label x."""
    m = msum_table(g)[b % g.p] if 0 <= b < g.p else matrix_sum(b, g)
    ag = g.a_group
    if isinstance(ag, CyclicGroup):
        return (m * x) % ag.n
    return mat_vec(m, x, g.p)


def subgroup_order(d, g: SemidirectGroup) -> int:
    """Order of the cyclic subgroup generated by (d, 1), by iteration."""
    gen = g.element(d, 1)
    current = gen
    order = 1
    while current != g.identity:
        current = element_mul(current, gen, g)
        order += 1
        if order > g.order:
            raise AssertionError("subgroup order exceeded |G|; invalid group data")
    return order


# ---------------------------------------------------------------------------
# One-line group-spec grammar


def parse_group_spec(line: str) -> SemidirectGroup:
    """Parse ``zn N=.. p=.. mu=..`` / ``zpr p=.. r=.. mu=..`` / ``zpr p=.. jordan=..``."""
    tokens = line.split()
    if not tokens:
        raise ValueError("empty group spec")
    family, kv = tokens[0], {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ValueError(f"malformed token {tok!r} in group spec {line!r}")
        key, value = tok.split("=", 1)
        if key in kv:
            raise ValueError(f"duplicate key {key!r} in group spec {line!r}")
        kv[key] = value
    if family not in ("zn", "zpr"):
        raise ValueError(f"unknown group family {family!r} (expected zn or zpr)")
    try:
        if family == "zn":
            group = semidirect_zn(int(kv.pop("N")), int(kv.pop("p")), int(kv.pop("mu")))
        else:
            p = int(kv.pop("p"))
            if "jordan" in kv:
                sizes = tuple(int(s) for s in kv.pop("jordan").split(","))
                group = semidirect_jordan(p, sizes)
            else:
                r = int(kv.pop("r"))
                rows = kv.pop("mu").split(";")
                if len(rows) != r:
                    raise ValueError(f"mu must have {r} rows")
                mu = tuple(tuple(int(c) for c in row.split(",")) for row in rows)
                if any(len(row) != r for row in mu):
                    raise ValueError(f"mu rows must have {r} entries")
                group = semidirect_zpr(p, mu)
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r} in group spec {line!r}") from None
    if kv:
        raise ValueError(f"unexpected keys {sorted(kv)} in group spec {line!r}")
    return group


def format_group_spec(g: SemidirectGroup) -> str:
    ag = g.a_group
    if isinstance(ag, CyclicGroup):
        return f"zn N={ag.n} p={g.p} mu={g.mu}"
    rows = ";".join(",".join(str(c) for c in row) for row in g.mu)
    return f"zpr p={g.p} r={ag.r} mu={rows}"
