"""Statevector simulation of the single-copy metacyclic algorithm.

The run over Z_N x| Z_p: prepare a coset state, Fourier transform over
Z_N, measure the label x (uniform), reject non-unit x, compute x*M^(b)
into an ancilla, erase b through the discrete-log round trip
b -> x*M^(b) -> mu^b -> b, inverse Fourier transform, and observe.  For
every accepted x the observation lands on d with probability exactly
p/N, giving an overall success rate of phi(N) * p / N^2.

The step-by-step statevector run, which records every intermediate state,
is the tests' reference (tests/oracles.py).  The Monte Carlo estimate
gives every trial its two laws from closed forms built once:

* the x-law is uniform for every (d, ell): each column b of the coset state
  is one basis vector, whose Fourier transform has modulus 1/sqrt(N);
* ell only multiplies the state by a global phase, and the outcome law of
  (d, x) at y is the base law L of (d, x) = (0, 1) at z = x*(y - d) mod N:
  one length-N FFT of the x = 1 row omega^(M^(b)) / sqrt(Np) of label d = 1.

So a trial draws z from L and observes y = d + z*x^(-1) mod N, which is d
exactly when z = 0.  The trials run in blocks of at most _BLOCK: each
block draws u_x, u_z, d and ell as four arrays, and x and z by searchsorted
of u_x and u_z in the cdf of the uniform x-law and of L, the only two cdfs
an estimate builds.  Memory stays O(N + p) plus the block, whatever the
trial count.

Every draw comes from one ``random.Random(seed)``.  A block of m trials
takes u_x, then u_z, equal to m calls of ``rng.random()`` each, and then d
and ell, equal to 2m calls of ``rng.randrange(N)``; that draw may consume
surplus words, so it ends the block.

Requires gcd(mu - 1, N) = 1 so the erasure identity
(mu - 1) M^(b) = mu^b - 1 determines b from x*M^(b).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .eta import _phase_roots, _uniform_draws, _uniform_floats
from .groups import SemidirectGroup, matrix_sum, msum_table, semidirect_zn

WILSON_Z_99 = 2.5758293035489004
# Trials the Monte Carlo estimate draws and decides at a time: each of its
# per-block arrays holds at most 32 KiB.
_BLOCK = 4096
# Amplitudes psi[u, b] exact_success_rate holds at a time (4 MiB).
_EXACT_CHUNK = 1 << 18


def _validate(n: int, p: int, mu: int) -> SemidirectGroup:
    g = semidirect_zn(n, p, mu)
    if math.gcd(mu - 1, n) != 1:
        raise ValueError(
            f"erasure step needs gcd(mu - 1, N) = 1, got mu={mu}, N={n}"
        )
    if matrix_sum(p, g) != 0:
        raise AssertionError("M^(p) != 0 despite unit mu - 1")
    return g


def _residue_dtype(n: int):
    """int64 while a product of two residues mod n fits it, Python ints beyond."""
    return np.int64 if (n - 1) ** 2 < 2**63 else object


def _mu_powers(mu: int, n: int, p: int) -> np.ndarray:
    """mu^b mod n for b < p, by doubling: the powers known so far, times
    mu^(their count), extend them."""
    powers = np.ones(1, dtype=_residue_dtype(n))
    while powers.size < p:
        step = pow(mu, powers.size, n)
        powers = np.concatenate((powers, powers[: p - powers.size] * step % n))
    return powers


def _erasure_sums(n: int, p: int, mu: int) -> list[int]:
    """M^(b) for b < p by M^(b+1) = 1 + mu M^(b) mod N, a recurrence apart
    from msum_table's M^(b+1) = M^(b) + mu^b."""
    sums = [0]
    for _ in range(p - 1):
        sums.append((1 + mu * sums[-1]) % n)
    return sums


def _erasure_table(g: SemidirectGroup) -> np.ndarray:
    """M^(b) for b < p from _erasure_sums, not the msum_table the coset
    states use, checked once for every x: the round trip through
    mu^b = 1 + (mu - 1) x^(-1) x*M^(b) must recover b, and x^(-1) cancels x.
    mu != 1 (gcd(mu - 1, N) = 1) has order p, so its p powers are distinct
    and comparing with mu^b entry by entry recovers b."""
    n, p, mu = g.a_group.n, g.p, g.mu
    sums = np.array(_erasure_sums(n, p, mu), dtype=_residue_dtype(n))
    wrong = np.flatnonzero((1 + (mu - 1) * sums) % n != _mu_powers(mu, n, p))
    if wrong.size:
        raise AssertionError(f"erasure round trip failed at b={wrong[0]}")
    return sums


def _cdf(weights: np.ndarray) -> memoryview:
    """The cdf of weights / weights.sum(), renormalised so its last entry is
    exactly 1, as a view of its float64 array: searchsorted reads it here,
    and bisect, as Python floats, in the tests' step-by-step run."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return memoryview(cdf)


def _base_laws(n: int, p: int, table) -> tuple[np.ndarray, np.ndarray]:
    """The x-law, uniform for every label, and the outcome law of
    (d, x) = (0, 1), in closed form from the p values M^(b) in ``table``."""
    values = np.asarray(table)
    # The collapsed x = 1 row of label d = 1, omega^(M^(b)) / sqrt(Np)
    # renormalised, erased onto its ancilla values M^(b).
    erased = np.zeros(n, dtype=complex)
    erased[values] = _phase_roots(n)[values] / math.sqrt(p)
    outcome_law = np.abs(np.fft.fft(erased, norm="ortho")) ** 2
    # The law of (1, 1) at y is the law of (0, 1) at y - 1.
    return np.full(n, 1 / n), np.roll(outcome_law, -1)


def exact_success_rate(n: int, p: int, mu: int) -> Fraction:
    """Full-branch check over the hidden d, the measured x and the outcome.

    The branch Pr(x) |final[d]|^2 of the coset state (0, d) at x depends
    on (d, x) only through u = x d mod N (_exact_branches), and every u is
    some x d, so each of the N branches must equal p / N^2 to 1e-12 / N;
    summed over the phi(N) unit x, rejected x contributing zero, each d
    then succeeds with the closed form phi(N) * p / N^2, which is returned
    exactly.  The coset offset ell only multiplies the state by the global
    phase omega^(x ell), so Pr(x | ell) and |final[d]|^2 do not depend on
    it and ell = 0 stands for the uniform average.
    """
    g = _validate(n, p, mu)
    for u, branch in enumerate(_exact_branches(g).tolist()):
        if abs(branch - p / (n * n)) > 1e-12 / n:
            raise AssertionError(f"branch {branch!r} at u={u} differs from p/N^2 = {p}/{n * n}")
    return success_bound(n, p)


def _exact_branches(g: SemidirectGroup) -> np.ndarray:
    """branch[u] = Pr(x) |final[d]|^2 for the coset state (0, d) at any x
    with x d = u mod N: the phase index (x a mod N) d with a = M^(b) is
    u a mod N.  Computed in chunks of at most _EXACT_CHUNK amplitudes."""
    n, p = g.a_group.n, g.p
    table = np.array(msum_table(g))
    erasure = _erasure_table(g)
    roots = _phase_roots(n)
    amplitudes, inverse = roots / math.sqrt(n * p), roots.conj()
    branch = np.empty(n)
    step = max(1, _EXACT_CHUNK // p)
    for lo in range(0, n, step):
        u = np.arange(lo, min(lo + step, n))[:, None]
        # psi[u, b]: the Fourier-transformed coset state (0, d) at (x, b)
        # for every x d = u, omega^(u a) / sqrt(N p) with a = M^(b).
        psi = amplitudes[u * table % n]
        pr_x = (np.abs(psi) ** 2).sum(axis=1)
        # The collapsed b register, erased onto the ancilla values x M^(b)
        # and inverse Fourier transformed, read at the outcome d.
        final_d = (inverse[u * erasure % n] * psi).sum(axis=1) / np.sqrt(n * pr_x)
        branch[lo : lo + step] = pr_x * np.abs(final_d) ** 2
    return branch


def _unit_mask(n: int) -> np.ndarray:
    """unit[x] for x in Z_N: whether gcd(x, N) = 1."""
    return np.gcd(np.arange(n), n) == 1


def success_bound(n: int, p: int, unit: np.ndarray | None = None) -> Fraction:
    """phi(N) * p / N^2, phi(N) counted on ``unit`` (_unit_mask(N)) when the
    caller already holds it."""
    if unit is None:
        unit = _unit_mask(n)
    return Fraction(int(np.count_nonzero(unit)) * p, n * n)


def wilson_interval(
    successes: int, trials: int, z: float = WILSON_Z_99
) -> tuple[float, float]:
    if trials == 0:
        raise ValueError("Wilson interval needs at least one trial")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


class SuccessEstimate(NamedTuple):
    n: int
    p: int
    mu: int
    trials: int
    successes: int
    rate: float | None
    interval: tuple[float, float] | None
    bound: Fraction
    passed: bool | None
    seed: int | None
    trial_records: tuple[dict, ...] = ()


def estimate_success_rate(
    n: int, p: int, mu: int, trials: int, seed: int, collect: bool = False
) -> SuccessEstimate:
    """Monte Carlo success frequency over uniform (d, ell) with a 99%
    Wilson interval; passes when the interval's upper edge clears the
    phi(N) p / N^2 bound.  Zero trials make no claim.  With ``collect``
    the per-trial records are kept for transcript emission."""
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    g = _validate(n, p, mu)
    unit = _unit_mask(n)
    bound = success_bound(n, p, unit)
    if trials == 0:
        return SuccessEstimate(n, p, mu, 0, 0, None, None, bound, None, seed)
    rng = random.Random(seed)
    # M^(p) = 0 (checked by _validate) gives every (d, 1) order p, so d is
    # uniform over Z_N.
    x_law, outcome_law = _base_laws(n, p, _erasure_table(g))
    x_cdf, z_cdf = _cdf(x_law), _cdf(outcome_law)
    successes = 0
    records = []
    for lo in range(0, trials, _BLOCK):
        m = min(_BLOCK, trials - lo)
        x = np.searchsorted(x_cdf, _uniform_floats(rng, m), side="right")
        z = np.searchsorted(z_cdf, _uniform_floats(rng, m), side="right")
        # ell is a global phase: neither law depends on it
        d, ell = np.split(_uniform_draws(rng, n, 2 * m), 2)
        accepted = unit[x]
        successes += int((accepted & (z == 0)).sum())
        if collect:
            rows = zip(d.tolist(), ell.tolist(), x.tolist(), accepted.tolist(), z.tolist())
            for i, (d_t, ell_t, x_t, ok, z_t) in enumerate(rows):
                # y = d + z x^(-1), the label whose outcome probability is L[z]
                y = (d_t + z_t * pow(x_t, -1, n)) % n if ok else None
                records.append({"trial": lo + i, "d": d_t, "ell": ell_t, "measured_x": x_t,
                                "accepted": ok, "outcome": y, "success": y == d_t})
    rate = successes / trials
    interval = wilson_interval(successes, trials)
    return SuccessEstimate(
        n, p, mu, trials, successes, rate, interval, bound,
        interval[1] >= bound, seed, tuple(records),
    )
