"""The eta table of the matrix sum problem, its statistics, and the
characters of A that pgm and metacyclic read, as integer phase indices.

Row x of the image table holds, in column idx_b(b), the A-index of
sum_j M^(b_j) x_j over b in Z_p^k; eta^x_w, the number of solutions of the
instance (x, w), is the number of entries equal to w in row x.  The eta
histogram here, and the success formula and the block outcome law in pgm,
are read off this table; the per-instance solvers in msum share its integer
codes, and the residual lookup reads its cached table of A (_codes_of_a).

Every exhaustive sum over A^k walks one x per symmetry orbit (eta_orbits),
with the orbit size as its weight.  A scalar unit c commutes with every
M^(b), so eta^(cx)_(cw) = eta^x_w: copy 1 takes one representative per unit
class (the divisors d of N, of weight phi(N/d), for Z_N; 0 and the vectors
whose leading nonzero coordinate is 1, of weight p - 1, for Z_p^r).
Permuting the copies permutes b, so copies 2..k take one nondecreasing
tuple per multiset, of weight (k-1)!/prod(mult!).  The walk streams its
rows in chunks and checks that the weights sum to |A|^k.

Basis convention (fixed for bit-exact reproducibility): the k-copy space
is C^(|A|^k) (x) C^(p^k) with full index

    index(x, b) = idx_A(x) * p^k + idx_b(b),
    idx_A(x)    = sum_j A.index(x_j) * |A|^(j-1)   (copy 1 least significant),
    idx_b(b)    = sum_j b_j * p^(j-1),

and A.index is the value itself for Z_N, lexicographic (first coordinate
most significant) for Z_p^r.  The Fourier kernel is
F[x, a] = chi_x(a) / sqrt(|A|); phase_indices and fft_over_a evaluate it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .caps import CapExceeded, enum_cap, pop_cap
from .groups import AbelianGroup, CyclicGroup, SemidirectGroup, msum_table


def check_enumeration(p: int, k: int, cap: int | None = None) -> None:
    """Raise CapExceeded when the b-grid Z_p^k is larger than the cap."""
    if k < 1:
        raise ValueError(f"need k >= 1 copies, got {k}")
    limit = enum_cap(cap)
    if p**k > limit:
        raise CapExceeded(f"p^k = {p**k} exceeds enumeration cap {limit}")


# ---------------------------------------------------------------------------
# Integer image codes
#
# Column idx_b(b) = sum_j b_j p^j (copy 1 least significant) of a row holds
# the A-index of sum_j M^(b_j) x_j.  Additions are index arithmetic: mod N
# for Z_N.  For Z_p^r each of the k addends packs its r digits into bit
# fields wide enough to hold k(p-1), so the k codes add without carries; a
# lookup table then reduces every digit mod p once, up to _LUT_BITS bits of
# digits per lookup.  The eta table and the solvers sum (_code_sums) and
# decode (_decode, or _int_decoder one Python int at a time) codes this way;
# none walks Z_p^k element by element.

# Elements per eta-table batch, and columns per solver block: of 2^14..2^22,
# 2^16 ran the benchmark's exhaustive histograms fastest in total (2^22 was
# 1.5x slower) and keeps batches small.
_CHUNK = 1 << 16
_LUT_BITS = 16


def index_digits(indices: np.ndarray, p: int, r: int) -> np.ndarray:
    """Coordinates of the Z_p^r elements with the given A-indices, shape
    (*indices.shape, r), first coordinate most significant."""
    places = np.arange(r - 1, -1, -1, dtype=np.int64)
    return np.asarray(indices, dtype=np.int64)[..., None] // p**places % p


@lru_cache(maxsize=16)
def _phase_roots(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def phase_indices(a_group: AbelianGroup, w: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The phase index t, exact modulo a_group.char_denominator, with
    chi_w(j) = exp(2 pi i t / char_denominator) =
    _phase_roots(char_denominator)[t], for int64 arrays of A-indices w and j
    broadcast against each other.  fft_over_a is the production route to the
    characters; pgm_report's check compares it with the direct sum over
    these indices."""
    if isinstance(a_group, CyclicGroup):
        return w * j % a_group.n
    p, r = a_group.p, a_group.r
    return (index_digits(w, p, r) * index_digits(j, p, r)).sum(axis=-1) % p


def fft_over_a(a_group: AbelianGroup, values: np.ndarray, norm: str | None = None) -> np.ndarray:
    """sum_w conj(chi_j(w)) values[..., w] for every j, over the last axis in
    A-index order: an FFT over A's shape, (N,) for Z_N and (p,)*r for Z_p^r,
    whose C order is A-index order."""
    shape = (a_group.n,) if isinstance(a_group, CyclicGroup) else (a_group.p,) * a_group.r
    lead = values.shape[:-1]
    axes = tuple(range(-len(shape), 0))
    amps = np.fft.fftn(values.reshape(*lead, *shape), axes=axes, norm=norm)
    return amps.reshape(*lead, a_group.order)


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


def _int_decoder(g: SemidirectGroup, k: int):
    """_decode for one Python-int sum of k codes, as a function of the sum."""
    a = g.a_group
    if isinstance(a, CyclicGroup):
        # a sum of k codes (A-indices) is below k N
        return (list(range(a.n)) * k).__getitem__
    # one lut lookup per `width` digits, from the least significant;
    # each higher group's A-index part is scaled by p^width
    lut, bits, width, _ = _decoder(g.p, a.r, k)
    lut, mask, shift, scale = lut.tolist(), lut.size - 1, bits * width, g.p**width

    def below(high):
        return lambda u: lut[u & mask] + high(u >> shift) * scale

    decode = lut.__getitem__
    for _ in range(width, a.r, width):
        decode = below(decode)
    return decode


# ---------------------------------------------------------------------------
# Eta statistics


class EtaStats(NamedTuple):
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


def _element_codes(g: SemidirectGroup, indices: np.ndarray, k: int) -> np.ndarray:
    """codes[..., b] of M^(b) x for the A elements with the given A-indices."""
    a = g.a_group
    return _codes(g, indices if isinstance(a, CyclicGroup) else index_digits(indices, g.p, a.r), k)


# Rows of A per block of _codes_of_a: the Z_2^15 table at k = 2 peaked at
# 19 MiB (tracemalloc) built in one go, at 2.8 MiB in blocks of 4096 rows.
_TABLE_BLOCK = 4096


@lru_cache(maxsize=8)
def _codes_of_a(g: SemidirectGroup, k: int) -> np.ndarray | None:
    """Codes of every element of A, rows in A-index order, read-only: the
    one table the orbit walk, the sampled histogram and msum's residual
    lookup read.  None when it would not fit in one chunk, |A| p > _CHUNK."""
    n = g.a_group.order
    if n * g.p > _CHUNK:
        return None
    table = np.concatenate([
        _element_codes(g, np.arange(lo, min(lo + _TABLE_BLOCK, n), dtype=np.int64), k)
        for lo in range(0, n, _TABLE_BLOCK)
    ])
    table.flags.writeable = False
    return table


def image_table(
    g: SemidirectGroup, xs: np.ndarray, enumeration_cap: int | None = None
) -> np.ndarray:
    """A-index of sum_j conj_apply(b_j, x_j) for each row x of ``xs`` (per-copy
    A-indices, copy 1 first) and each b, in column idx_b(b).  The codes come
    from the cached table of all of A (_codes_of_a); when A is too large for
    it, the codes of the x components present are built for this batch alone."""
    rows, k = xs.shape
    check_enumeration(g.p, k, enumeration_cap)
    codes = _codes_of_a(g, k)
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
    step = max(1, _CHUNK // max(g.p**k, a.order))
    total = 0
    for start in range(0, rows, step):
        ranks = np.arange(start, min(start + step, rows), dtype=np.int64)
        first, sizes = _unit_classes(a, ranks // multisets)
        rest, orderings = _multisets(tables, ranks % multisets, dtype)
        weights = sizes.astype(dtype) * orderings
        total += int(weights.sum())
        xs = np.column_stack([first, rest])
        yield weights, image_table(g, xs, enumeration_cap)
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


def _uniform_floats(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.random() for _ in range(count)]`` as a float64 array.

    ``random()`` takes two 32-bit words a, b and returns
    ((a >> 5) 2^26 + (b >> 6)) / 2^53.  ``getrandbits(64 count)`` draws the
    same 2 count words, the first in the lowest bits, so this builds the same
    numbers and leaves the generator in the same state.
    """
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"), dtype="<u4")
    high = (words[0::2] >> 5).astype(np.float64)
    return (high * 2.0**26 + (words[1::2] >> 6)) / 2.0**53


class EtaHistogram:
    """The exhaustive eta histogram, summed chunk by chunk over the eta_orbits
    walk.  Construction raises CapExceeded when the walk would evaluate more
    (x, w) pairs, |A| per orbit row, than the population cap; testing |A|
    first keeps a large N from being factored."""

    def __init__(self, g: SemidirectGroup, k: int, cap: int | None = None):
        a, limit = g.a_group, pop_cap(cap)
        self.population = a.order ** (k + 1)
        if a.order > limit or orbit_rows(a, k) * a.order > limit:
            raise CapExceeded(f"orbit rows times |A|, the (x, w) pairs over the symmetry orbits "
                              f"of population {self.population}, exceeds population cap {limit}")
        self.size = g.p**k + 1
        self.counts = 0

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
