import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from pgmhsp import metacyclic
from pgmhsp.groups import msum_table, semidirect_zn
from pgmhsp.metacyclic import (
    estimate_success_rate,
    exact_success_rate,
    success_bound,
    wilson_interval,
)

import oracles
from oracles import (
    perfect_state_overlap,
    run_stripped_algorithm,
    stripped_base_laws,
    stripped_inverse_qft,
    stripped_qft,
)

STEP_NAMES = [
    "coset",
    "post_qft",
    "post_measurement",
    "post_compute",
    "post_erasure",
    "post_inverse_qft",
]


def test_precondition_validation():
    with pytest.raises(ValueError):
        run_stripped_algorithm(9, 3, 4, 1, 0, seed=0)  # gcd(mu-1, N) = 3
    with pytest.raises(ValueError):
        run_stripped_algorithm(7, 3, 3, 1, 0, seed=0)  # mu^p != 1
    run_stripped_algorithm(7, 3, 2, 1, 0, seed=0)


def test_transcript_steps_and_norms():
    t = run_stripped_algorithm(7, 3, 2, 1, 0, seed=2)
    recorded = list(t.steps)
    assert recorded[:3] == STEP_NAMES[:3]
    for name, state in t.steps.items():
        assert abs(np.linalg.norm(state) - 1) < 1e-12, name
    if t.accepted:
        assert recorded == STEP_NAMES
        assert math.gcd(t.measured_x, 7) == 1
        assert abs(t.final_distribution[t.d] - 3 / 7) < 1e-12
    else:
        assert t.success is False


@pytest.mark.parametrize("n,p,mu", [(7, 3, 2), (31, 5, 2), (101, 5, 36)])
def test_fourier_steps_match_dense_oracle(n, p, mu):
    accepted = 0
    for d, ell, seed in [(1, 0, 0), (2, 5, 1), (n - 1, 3, 2), (0, 1, 3), (5, n - 2, 4)]:
        t = run_stripped_algorithm(n, p, mu, d, ell, seed=seed)
        dense = stripped_qft(t.steps["coset"], n, p)
        assert np.abs(t.steps["post_qft"] - dense).max() < 1e-12
        if t.accepted:
            accepted += 1
            dense = stripped_inverse_qft(t.steps["post_erasure"], n)
            assert np.abs(t.steps["post_inverse_qft"] - dense).max() < 1e-12
    assert accepted >= 3


def test_rejected_branch_marked():
    # find a seed that measures a non-unit x
    for seed in range(50):
        t = run_stripped_algorithm(15, 2, 14, 1, 3, seed=seed)
        if not t.accepted:
            assert t.success is False
            assert t.measured_outcome is None
            assert "post_compute" not in t.steps
            break
    else:
        pytest.fail("no rejected branch found in 50 seeds")


def test_x_measurement_uniform():
    # exhaustive: post-QFT marginal of the first register is uniform
    for n, p, mu in [(7, 3, 2), (15, 2, 14), (13, 3, 3)]:
        assert n <= 50
        for ell in range(n):
            for d in range(n):
                t = run_stripped_algorithm(n, p, mu, d, ell, seed=0)
                psi = t.steps["post_qft"].reshape(n, p)
                marginal = (np.abs(psi) ** 2).sum(axis=1)
                assert np.abs(marginal - 1 / n).max() < 1e-12


def test_erasure_round_trip_exhaustive():
    # b -> x M^(b) -> mu^b -> b is the identity for every accepted x
    from pgmhsp.msum import _baby_steps

    for n, p, mu in [(7, 3, 2), (15, 2, 14)]:
        g = semidirect_zn(n, p, mu)
        table = msum_table(g)
        log = _baby_steps(mu, p, n)
        for x in range(1, n):
            if math.gcd(x, n) != 1:
                continue
            for b in range(p):
                y = (x * table[b]) % n
                power = (1 + (mu - 1) * y * pow(x, -1, n)) % n
                assert log(power) == b


def test_power_logs_match_bsgs():
    # on every admissible group with N <= 50: the powers of mu the erasure
    # check compares with have baby-step/giant-step logs 0, ..., p - 1, so
    # they are distinct, and the erasure table equals msum_table
    from pgmhsp.msum import _baby_steps

    groups = 0
    for n in range(3, 51):
        for p in (q for q in range(2, n) if all(q % r for r in range(2, q))):
            for mu in range(2, n):
                if pow(mu, p, n) != 1 or math.gcd(mu - 1, n) != 1:
                    continue
                groups += 1
                log = _baby_steps(mu, p, n)
                powers = metacyclic._mu_powers(mu, n, p).tolist()
                assert [log(t) for t in powers] == list(range(p)), (n, p, mu)
                g = semidirect_zn(n, p, mu)
                assert metacyclic._erasure_table(g).tolist() == list(msum_table(g))
    assert groups > 50


@pytest.mark.parametrize("n,p,root", [(2**31 - 1, 331, 7), (2**32 + 15, 131, 3)])
def test_power_logs_at_large_moduli(n, p, root):
    # the powers by doubling, in int64 below n^2 = 2^63 and in Python ints
    # above, against a pow loop; mu of order p in the prime field Z_n
    mu = pow(root, (n - 1) // p, n)
    expected = [pow(mu, b, n) for b in range(p)]
    assert len(set(expected)) == p
    for count in (1, 2, 3, p - 1, p):
        assert metacyclic._mu_powers(mu, n, count).tolist() == expected[:count]
    g = semidirect_zn(n, p, mu)
    assert metacyclic._erasure_table(g).tolist() == list(msum_table(g))


@pytest.mark.parametrize("n,p,mu", [(7, 3, 2), (15, 2, 14), (13, 3, 3), (31, 5, 2), (101, 5, 36)])
def test_every_d_has_order_p(n, p, mu):
    # why the estimate draws d uniformly from Z_N: M^(p) = 0 makes every
    # (d, 1) of order p, here checked by iterating the group law on the
    # groups the suite runs the stripped algorithm on
    from pgmhsp.groups import subgroup_order

    g = semidirect_zn(n, p, mu)
    assert [subgroup_order(d, g) for d in range(n)] == [p] * n


@pytest.mark.parametrize("n,p,mu", [(7, 3, 2), (15, 2, 14), (31, 5, 2)])
def test_closed_form_laws_match_statevector_oracle(n, p, mu):
    table = msum_table(semidirect_zn(n, p, mu))
    for law, reference in zip(metacyclic._base_laws(n, p, table), stripped_base_laws(n, p, table)):
        assert np.abs(law - reference).max() < 1e-12


def test_perfect_state_overlap_values():
    for x in range(1, 7):
        for d in range(7):
            assert abs(perfect_state_overlap(7, 3, 2, d, x) - math.sqrt(3 / 7)) < 1e-12
    with pytest.raises(ValueError):
        perfect_state_overlap(15, 2, 14, 1, 3)  # non-unit x


def test_perfect_state_overlap_against_inner_product():
    # independent oracle: assemble both vectors and take the inner product
    n, p, mu = 15, 2, 14
    g = semidirect_zn(n, p, mu)
    table = msum_table(g)
    omega = np.exp(2j * np.pi / n)
    for d in (0, 4, 11):
        for x in (1, 2, 7):
            actual = np.zeros(n, dtype=complex)
            for b in range(p):
                value = (x * table[b]) % n
                actual[value] = omega ** (value * d) / math.sqrt(p)
            perfect = np.array([omega ** (j * d) for j in range(n)]) / math.sqrt(n)
            direct = abs(np.vdot(perfect, actual))
            assert abs(perfect_state_overlap(n, p, mu, d, x) - direct) < 1e-12
            assert abs(direct - math.sqrt(p / n)) < 1e-12


def test_exact_success_rate():
    rate = exact_success_rate(7, 3, 2)
    assert rate == Fraction(18, 49)
    assert rate == success_bound(7, 3)
    assert exact_success_rate(15, 2, 14) == Fraction(16, 225)
    assert exact_success_rate(13, 3, 3) == Fraction(36, 169)


def test_exact_success_rate_detects_wrong_msum_table(monkeypatch):
    # M^(b) mod 7 for mu = 2 is 0, 1, 3; both tables below differ at b = 2.
    # _validate's M^(p) = 0 does not read the wrong erasure sums, so only
    # the erasure check can fail.
    monkeypatch.setattr(metacyclic, "_erasure_sums", lambda n, p, mu: [b * b % n for b in range(p)])
    with pytest.raises(AssertionError, match="erasure round trip failed at b=2"):
        exact_success_rate(7, 3, 2)
    monkeypatch.undo()
    # wrong coset-state phases: the erasure still works, the aggregate does not
    monkeypatch.setattr(metacyclic, "msum_table", lambda g: (0, 1, 2))
    with pytest.raises(AssertionError, match="differs"):
        exact_success_rate(7, 3, 2)


def test_exact_success_rate_chunks_over_u(monkeypatch):
    # at N = 1019, p = 509 one chunk of all N p amplitudes takes about
    # 8 MiB per array, and the check peaks near 20 MiB; in chunks of 2^14
    # amplitudes (32 values of u = x d) it peaks under 1 MiB, against a
    # 2 MiB bound at least 8 times below the one-chunk peak
    import tracemalloc

    def traced(chunk):
        monkeypatch.setattr(metacyclic, "_EXACT_CHUNK", chunk)
        tracemalloc.start()
        try:
            return exact_success_rate(1019, 509, 4), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full, full_peak = traced(1019 * 509)
    chunked, peak = traced(1 << 14)
    assert chunked == full == success_bound(1019, 509)
    assert peak < 2 * 1024 * 1024 < full_peak / 8


@pytest.mark.parametrize("n,p,mu", [(7, 3, 2), (15, 2, 14), (13, 3, 3), (31, 5, 2), (101, 5, 36)])
def test_exact_rates_match_the_walk_over_every_branch(monkeypatch, n, p, mu):
    # the branches computed once per u = x d mod N, summed per d, against the
    # walk over every (d, unit x, b).  With the true tables every branch is
    # p / N^2 whatever u, so the two are compared again with a wrong
    # coset-state table, under which the branches depend on u and the
    # rates on d
    g = semidirect_zn(n, p, mu)
    units = np.flatnonzero(metacyclic._unit_mask(n))
    table = msum_table(g)
    for coset_table in (table, (*table[:-1], (table[-1] + 1) % n)):
        monkeypatch.setattr(metacyclic, "msum_table", lambda g: coset_table)
        monkeypatch.setattr(oracles, "msum_table", lambda g: coset_table)
        branches = metacyclic._exact_branches(g)
        rates = np.array([branches[units * d % n].sum() for d in range(n)])
        reference = oracles.exact_rates_by_branch(n, p, mu)
        assert rates.shape == reference.shape == (n,)
        assert np.abs(rates - reference).max() < 1e-13
    assert rates.max() - rates.min() > 1e-4


def test_exact_rate_cross_checked_by_float_aggregation():
    # independent oracle: for each (d, ell, unit x) assemble the
    # post-erasure state, inverse-transform it, and sum Pr(outcome = d)
    # over all branches with their uniform weights
    n, p, mu = 7, 3, 2
    g = semidirect_zn(n, p, mu)
    table = msum_table(g)
    omega = np.exp(2j * np.pi / n)
    total = 0.0
    for d in range(n):
        for ell in range(n):
            for x in range(n):
                if math.gcd(x, n) != 1:
                    continue
                state = np.zeros(n, dtype=complex)
                for b in range(p):
                    value = (x * table[b]) % n
                    state[value] = omega ** (value * d) / math.sqrt(p)
                amp_d = sum(state[y] * omega ** (-d * y) for y in range(n))
                amp_d /= math.sqrt(n)
                total += abs(amp_d) ** 2 / (n * n)
    total /= n  # average over d (the rate is d-independent)
    assert abs(total - 18 / 49) < 1e-12


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert 0 < lo < 0.5 < hi < 1
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    # degenerate counts stay in [0, 1] up to float roundoff
    lo, hi = wilson_interval(0, 100)
    assert lo >= -1e-12
    lo, hi = wilson_interval(100, 100)
    assert hi <= 1 + 1e-12


def test_estimate_success_rate_zero_trials():
    est = estimate_success_rate(7, 3, 2, 0, seed=1)
    assert est.rate is None
    assert est.interval is None
    assert est.passed is None


def test_estimate_success_rate_seeded():
    est = estimate_success_rate(7, 3, 2, 3000, seed=13)
    assert est.passed
    lo, hi = est.interval
    assert lo <= 18 / 49 <= hi
    # rejected-x fraction is roughly 1 - phi(N)/N
    est15 = estimate_success_rate(15, 2, 14, 3000, seed=13)
    assert est15.interval[0] <= 16 / 225 <= est15.interval[1]


def test_estimate_reproducible():
    a = estimate_success_rate(7, 3, 2, 500, seed=4)
    b = estimate_success_rate(7, 3, 2, 500, seed=4)
    assert a.successes == b.successes


class _Uniforms:
    """Stands in for a random.Random: random() returns the given numbers in turn."""

    def __init__(self, *values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


# trials that fill less than one block of the Monte Carlo
_ONE_BLOCK = 300


def _records_unlike_single_runs(est) -> list[tuple[dict, dict]]:
    """The (estimate's, expected) record pairs that differ, the expected ones
    from one run_stripped_algorithm per trial of a single-block estimate:
    redraw the block's uniform numbers and d, ell by scalar calls in the
    block's order, measure x from the statevector with u_x, and read the
    outcome law of the final distribution in z-order, z = x (y - d), drawing
    z with u_z."""
    n, p, mu, trials = est.n, est.p, est.mu, est.trials
    assert len(est.trial_records) == trials <= metacyclic._BLOCK
    rng = random.Random(est.seed)
    u_x = [rng.random() for _ in range(trials)]
    u_z = [rng.random() for _ in range(trials)]
    d = [rng.randrange(n) for _ in range(trials)]
    ell = [rng.randrange(n) for _ in range(trials)]
    records = []
    for trial in range(trials):
        # 0.5 feeds the transcript's own outcome draw, in y-order and unused
        t = run_stripped_algorithm(n, p, mu, d[trial], ell[trial], rng=_Uniforms(u_x[trial], 0.5))
        outcome = None
        if t.accepted:
            labels = (d[trial] + np.arange(n) * pow(t.measured_x, -1, n)) % n
            z = bisect_right(metacyclic._cdf(t.final_distribution[labels]), u_z[trial])
            outcome = int(labels[z])
        records.append(
            {
                "trial": trial,
                "d": d[trial],
                "ell": ell[trial],
                "measured_x": t.measured_x,
                "accepted": t.accepted,
                "outcome": outcome,
                "success": outcome == d[trial],
            }
        )
    return [pair for pair in zip(est.trial_records, records) if pair[0] != pair[1]]


@pytest.mark.parametrize("n,p,mu", [(7, 3, 2), (15, 2, 14), (31, 5, 2)])
def test_estimate_sets_up_once_and_equals_single_runs(monkeypatch, n, p, mu):
    calls = {"_validate": 0, "_erasure_table": 0}
    validate, erasure_table = metacyclic._validate, metacyclic._erasure_table

    def counting_validate(*args):
        calls["_validate"] += 1
        return validate(*args)

    def counting_erasure_table(*args):
        calls["_erasure_table"] += 1
        return erasure_table(*args)

    monkeypatch.setattr(metacyclic, "_validate", counting_validate)
    monkeypatch.setattr(metacyclic, "_erasure_table", counting_erasure_table)
    est = estimate_success_rate(n, p, mu, _ONE_BLOCK, seed=21, collect=True)
    # one erasure check serves every measured x
    assert calls == {"_validate": 1, "_erasure_table": 1}
    assert _records_unlike_single_runs(est) == []
    assert est.successes == sum(rec["success"] for rec in est.trial_records)


@pytest.mark.parametrize("n,p,mu", [(7, 3, 2), (15, 2, 14), (31, 5, 2)])
def test_relabelled_outcome_fails_the_single_run_comparison(monkeypatch, n, p, mu):
    # a planted fault: the block draw reads the outcome law of label 1,
    # np.roll(L, 1), for that of label 0, so outcomes come out relabelled
    base_laws = metacyclic._base_laws

    def relabelled_base_laws(*args):
        x_law, outcome_law = base_laws(*args)
        return x_law, np.roll(outcome_law, 1)

    monkeypatch.setattr(metacyclic, "_base_laws", relabelled_base_laws)
    est = estimate_success_rate(n, p, mu, _ONE_BLOCK, seed=21, collect=True)
    assert _records_unlike_single_runs(est)


def test_success_bound_counts_phi_once(monkeypatch):
    # phi(N) by the gcd count, for N with repeated and with distinct primes
    for n in list(range(1, 130)) + [1019, 100043]:
        phi = sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)
        assert success_bound(n, 3) == Fraction(3 * phi, n * n)
    # the estimate counts it on the unit mask it draws against, built once
    masks = []
    unit_mask = metacyclic._unit_mask

    def counting_unit_mask(n):
        masks.append(n)
        return unit_mask(n)

    monkeypatch.setattr(metacyclic, "_unit_mask", counting_unit_mask)
    assert estimate_success_rate(31, 5, 2, 100, seed=1).bound == success_bound(31, 5)
    assert exact_success_rate(7, 3, 2) == Fraction(18, 49)
    assert masks == [31, 31, 7]


def test_rejected_fraction_matches_unit_density():
    # the x measurement is uniform, so rejections happen at rate 1 - phi(N)/N
    est = estimate_success_rate(7, 3, 2, 3000, seed=2, collect=True)
    rejected = sum(1 for rec in est.trial_records if not rec["accepted"])
    assert abs(rejected / 3000 - (1 - 6 / 7)) < 0.03


def test_estimate_rejects_negative_trials():
    with pytest.raises(ValueError):
        estimate_success_rate(7, 3, 2, -5, seed=1)


def test_draw_matches_inverse_cdf():
    # the index bisect_right finds for one random() in the normalised cdf, at
    # a positive weight, with exactly one random() consumed
    laws = random.Random(0)
    for seed in range(500):
        size = 1 if seed % 50 == 0 else laws.randrange(2, 40)
        w = np.array([laws.random() for _ in range(size)])
        w[[laws.random() < 0.3 for _ in range(size)]] = 0.0
        if not w.any():
            w[laws.randrange(size)] = 1.0
        w *= laws.choice([1e-6, 1.0, 1e6])
        reference, drawing = random.Random(seed), random.Random(seed)
        index = oracles._draw(w, drawing)
        cdf = np.cumsum(w / w.sum())
        cdf /= cdf[-1]
        assert index == bisect_right(cdf.tolist(), reference.random()), seed
        assert w[index] > 0
        assert drawing.getstate() == reference.getstate()


@pytest.mark.parametrize("n,p,mu", [(7, 3, 2), (15, 2, 14), (31, 5, 2)])
def test_relabelled_laws_match_transcripts(monkeypatch, n, p, mu):
    # Force each measured x; the laws run_stripped_algorithm draws from must
    # be the base laws of the estimate relabelled by d and x.
    x_law, outcome_law = metacyclic._base_laws(n, p, msum_table(semidirect_zn(n, p, mu)))
    labels = np.arange(n)
    drawn = []

    def forced_draw(weights, rng):
        drawn.append(weights)
        return forced_x if len(drawn) == 1 else 0

    monkeypatch.setattr(oracles, "_draw", forced_draw)
    rejected = 0
    for d in range(n):
        for ell in range(n):
            for forced_x in range(n):
                drawn.clear()
                t = run_stripped_algorithm(n, p, mu, d, ell, seed=0)
                assert t.measured_x == forced_x
                assert np.abs(drawn[0] - x_law[labels * d % n]).max() < 1e-12
                if not t.accepted:
                    rejected += 1
                    assert len(drawn) == 1
                    continue
                assert drawn[1] is t.final_distribution
                relabelled = outcome_law[(labels - d) * forced_x % n]
                assert np.abs(t.final_distribution - relabelled).max() < 1e-12
    assert rejected == n * n * (n - sum(math.gcd(x, n) == 1 for x in range(n)))


def test_estimate_memory_stays_linear_in_n():
    # the laws are N floats each (78 KiB at N = 9901) and a block's arrays at
    # most 32 KiB each, for any number of blocks; an N x p statevector would
    # take 764 MiB at N = 10007, a cache of laws per d alone N^2 floats
    import tracemalloc

    for n, p, mu, trials in [(9901, 3, 99, 500), (10007, 5003, 4, 3 * metacyclic._BLOCK + 1)]:
        tracemalloc.start()
        try:
            est = estimate_success_rate(n, p, mu, trials, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.trials == trials
        assert peak < 8 * 2**20, n


def test_estimate_in_the_efficient_regime():
    # N/p about 2, so the rate phi(N) p / N^2 is about 1/2
    import tracemalloc

    tracemalloc.start()
    try:
        est = estimate_success_rate(1019, 509, 4, 2000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = float(success_bound(1019, 509))
    assert abs(est.successes - 2000 * bound) <= 5 * math.sqrt(2000 * bound * (1 - bound))
    assert peak < 8 * 2**20


def test_estimate_sums_m_b_at_most_p_plus_one_times(monkeypatch):
    # M^(p) in _validate is the one matrix_sum call, whatever the trial count:
    # the erasure check takes its p sums from a recurrence
    calls = []
    matrix_sum = metacyclic.matrix_sum

    def counting_matrix_sum(b, g):
        calls.append(b)
        return matrix_sum(b, g)

    monkeypatch.setattr(metacyclic, "matrix_sum", counting_matrix_sum)
    counts = []
    for trials in (10, 3000):
        calls.clear()
        estimate_success_rate(31, 5, 2, trials, seed=4)
        counts.append(list(calls))
    assert counts == [[5], [5]]


@pytest.mark.parametrize("trials", [10, 10**4])
def test_estimate_builds_two_cdfs(monkeypatch, trials):
    # the uniform x-law and the base outcome law L, whatever the trial count
    built, cdf = [], metacyclic._cdf

    def counting(weights):
        built.append(len(weights))
        return cdf(weights)

    monkeypatch.setattr(metacyclic, "_cdf", counting)
    estimate_success_rate(31, 5, 2, trials, seed=5)
    assert built == [31, 31]
