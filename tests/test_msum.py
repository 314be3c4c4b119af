import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pgmhsp import msum
from pgmhsp.caps import CapExceeded
from pgmhsp.groups import (
    VectorGroup,
    heisenberg_group,
    parse_group_spec,
    semidirect_jordan,
    semidirect_zn,
)
from pgmhsp.msum import (
    EtaStats,
    MSumInstance,
    SolutionSet,
    discrete_log_bsgs,
    eta_rows,
    eta_statistics,
    image_table,
    legendre_symbol,
    solve_auto,
    solve_bruteforce,
    solve_heisenberg_closed_form,
    solve_jordan,
    solve_metacyclic_dlog,
    sqrt_mod_p,
    x_tuples,
)
from pgmhsp.states import b_tuple_index

from oracles import (
    eta_histogram_all_x,
    heisenberg_eta_distribution,
    instance_residual,
    solve_all_w,
)

Z7 = semidirect_zn(7, 3, 2)
HEIS3 = heisenberg_group(3)


def test_solution_set_sorted_and_eta():
    s = SolutionSet(((2, 0), (0, 1), (1, 1)))
    assert s.solutions == ((0, 1), (1, 1), (2, 0))
    assert s.eta == 3


def test_bruteforce_examples():
    for x in range(7):
        assert (0,) in solve_bruteforce(MSumInstance(Z7, (x,), 0)).solutions
    assert solve_bruteforce(MSumInstance(Z7, (1,), 3)).solutions == ((2,),)
    with pytest.raises(CapExceeded):
        solve_bruteforce(MSumInstance(Z7, (1,) * 20, 0), cap=100)


def test_bruteforce_soundness_random():
    rng = random.Random(0)
    for _ in range(50):
        x = tuple(rng.randrange(3) for _ in range(2))
        w = (rng.randrange(3), rng.randrange(3))
        xs = ((x[0], rng.randrange(3)), (x[1], rng.randrange(3)))
        inst = MSumInstance(HEIS3, xs, w)
        for b in solve_bruteforce(inst).solutions:
            assert instance_residual(inst, b) == inst.w


def test_discrete_log_bsgs():
    assert discrete_log_bsgs(2, 1, 3, 7) == 0
    assert discrete_log_bsgs(2, 4, 3, 7) == 2
    assert discrete_log_bsgs(2, 3, 3, 7) is None
    with pytest.raises(ValueError):
        discrete_log_bsgs(3, 1, 3, 7)  # 3^3 != 1 mod 7
    # larger deterministic sweep
    n, p = 101, 5
    mu = pow(2, 100 // p, n)
    for b in range(p):
        assert discrete_log_bsgs(mu, pow(mu, b, n), p, n) == b


def test_metacyclic_examples():
    assert solve_metacyclic_dlog(MSumInstance(Z7, (3,), 0)).solutions == ((0,),)
    assert solve_metacyclic_dlog(MSumInstance(Z7, (3,), 2)).solutions == ((2,),)
    assert solve_metacyclic_dlog(MSumInstance(Z7, (1,), 5)).solutions == ()
    with pytest.raises(ValueError):
        solve_metacyclic_dlog(MSumInstance(Z7, (1, 1), 0))
    with pytest.raises(ValueError):
        solve_metacyclic_dlog(MSumInstance(HEIS3, ((1, 1),), (0, 0)))


def admissible_metacyclic(limit: int):
    """(N, p, mu) with p prime dividing phi(N) and mu^p = 1 mod N."""
    for n in range(2, limit + 1):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        phi = len(units)
        for p in sorted({q for q in range(2, phi + 1) if phi % q == 0}):
            if any(p % q == 0 for q in range(2, p)):
                continue
            for mu in units:
                if pow(mu, p, n) == 1:
                    yield n, p, mu


def test_metacyclic_vs_bruteforce_small():
    for n, p, mu in admissible_metacyclic(20):
        g = semidirect_zn(n, p, mu)
        for x in range(n):
            for w in range(n):
                inst = MSumInstance(g, (x,), w)
                assert (
                    solve_metacyclic_dlog(inst).solutions
                    == solve_bruteforce(inst).solutions
                )


def test_metacyclic_uniqueness_unit_x():
    for n, p, mu in admissible_metacyclic(50):
        g = semidirect_zn(n, p, mu)
        for x in range(1, n):
            if math.gcd(x, n) != 1:
                continue
            for w in range(n):
                assert solve_bruteforce(MSumInstance(g, (x,), w)).eta <= 1


def test_legendre_and_sqrt():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            sym = legendre_symbol(a, p)
            assert sym == (0 if a == 0 else (1 if a in squares else -1))
            if a in squares:
                root = sqrt_mod_p(a, p)
                assert root * root % p == a
            else:
                with pytest.raises(ValueError):
                    sqrt_mod_p(a, p)
    # Tonelli-Shanks branch
    p = 10007
    for a in (3, 12345, 9999):
        sq = a * a % p
        root = sqrt_mod_p(sq, p)
        assert root * root % p == sq
    p = 10009  # p % 4 == 1 forces the full loop
    for a in (5, 4242):
        sq = a * a % p
        root = sqrt_mod_p(sq, p)
        assert root * root % p == sq


def test_heisenberg_examples():
    inst = MSumInstance(HEIS3, ((0, 1), (0, 1)), (0, 0))
    assert (0, 0) in solve_heisenberg_closed_form(inst).solutions
    g5 = heisenberg_group(5)
    inst5 = MSumInstance(g5, ((1, 1), (1, 1)), (1, 1))
    assert (
        solve_heisenberg_closed_form(inst5).solutions
        == solve_bruteforce(inst5).solutions
    )
    with pytest.raises(ValueError):
        solve_heisenberg_closed_form(MSumInstance(HEIS3, ((1, 1),), (0, 0)))
    with pytest.raises(ValueError):
        solve_heisenberg_closed_form(
            MSumInstance(semidirect_jordan(3, (2, 1)), ((1, 1, 0), (0, 1, 0)), (0, 0, 0))
        )


def test_heisenberg_exhaustive_p3():
    for xs in itertools.product(range(3), repeat=4):
        for w in itertools.product(range(3), repeat=2):
            inst = MSumInstance(HEIS3, ((xs[0], xs[1]), (xs[2], xs[3])), w)
            assert (
                solve_heisenberg_closed_form(inst).solutions
                == solve_bruteforce(inst).solutions
            )


@pytest.mark.parametrize("p", [5, 7, 11])
def test_heisenberg_sampled(p):
    g = heisenberg_group(p)
    rng = random.Random(p)
    for _ in range(500):
        xs = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
        w = (rng.randrange(p), rng.randrange(p))
        inst = MSumInstance(g, xs, w)
        assert (
            solve_heisenberg_closed_form(inst).solutions
            == solve_bruteforce(inst).solutions
        )


def test_heisenberg_distribution_rationals():
    for p in (3, 5):
        dist = heisenberg_eta_distribution(p)
        assert set(dist) <= {0, 1, 2}
        assert dist[0] == Fraction(1, 2) - Fraction(1, 2 * p)
        assert dist[1] == Fraction(1, p)
        assert dist[2] == Fraction(1, 2) - Fraction(1, 2 * p)


def test_jordan_examples():
    g = semidirect_jordan(3, (3,))
    inst = MSumInstance(g, ((1, 2, 0), (0, 1, 1), (2, 2, 2)), (0, 0, 0))
    assert (0, 0, 0) in solve_jordan(inst).solutions
    with pytest.raises(ValueError):
        solve_jordan(MSumInstance(Z7, (1,), 0))


def test_jordan_matches_heisenberg_closed_form_exhaustive():
    for xs in itertools.product(range(3), repeat=4):
        for w in itertools.product(range(3), repeat=2):
            inst = MSumInstance(HEIS3, ((xs[0], xs[1]), (xs[2], xs[3])), w)
            assert (
                solve_jordan(inst).solutions
                == solve_heisenberg_closed_form(inst).solutions
            )


@pytest.mark.parametrize(
    "g,k",
    [
        (semidirect_jordan(3, (3,)), 3),
        (semidirect_jordan(3, (2, 1)), 2),
        (semidirect_jordan(5, (3,)), 2),
    ],
)
def test_jordan_vs_bruteforce_sampled(g, k):
    rng = random.Random(11)
    a = g.a_group
    for _ in range(300):
        xs = tuple(tuple(rng.randrange(g.p) for _ in range(a.r)) for _ in range(k))
        w = tuple(rng.randrange(g.p) for _ in range(a.r))
        inst = MSumInstance(g, xs, w)
        assert solve_jordan(inst).solutions == solve_bruteforce(inst).solutions


def test_solve_all_w_partition():
    # sum_w eta^x_w = p^k for every fixed x
    for g, k in [(Z7, 1), (Z7, 2), (HEIS3, 1), (HEIS3, 2)]:
        a = g.a_group
        for xi in itertools.product(list(a.elements()), repeat=k):
            buckets = solve_all_w(g, tuple(xi))
            assert sum(len(v) for v in buckets.values()) == g.p**k


def test_solve_auto_routing():
    assert solve_auto(MSumInstance(Z7, (1,), 3)).solutions == ((2,),)
    inst = MSumInstance(HEIS3, ((1, 1), (2, 1)), (0, 1))
    assert solve_auto(inst).solutions == solve_bruteforce(inst).solutions
    g = semidirect_jordan(3, (2, 1))
    inst3 = MSumInstance(g, ((1, 1, 2),), (0, 1, 2))
    assert solve_auto(inst3).solutions == solve_bruteforce(inst3).solutions
    inst_zn2 = MSumInstance(Z7, (1, 2), 3)
    assert solve_auto(inst_zn2).solutions == solve_bruteforce(inst_zn2).solutions


def test_eta_statistics_exhaustive_moments():
    for g, k in [(Z7, 1), (HEIS3, 1), (HEIS3, 2)]:
        stats = eta_statistics(g, k)
        assert stats.mean == Fraction(g.p**k, g.a_group.order)
        assert stats.population == g.a_group.order ** (k + 1)
    stats = eta_statistics(semidirect_jordan(3, (2,)), 2)
    assert stats.variance == Fraction(8, 9)


def test_eta_statistics_sampled():
    stats = eta_statistics(HEIS3, 2, mode="sampled", samples=500, seed=42)
    assert stats.population == 500
    assert stats.mode == "sampled"
    assert stats.seed == 42
    assert sum(stats.counts.values()) == 500
    again = eta_statistics(HEIS3, 2, mode="sampled", samples=500, seed=42)
    assert again.counts == stats.counts
    # the value the per-sample loop gave before sampling was batched
    assert stats.counts == {0: 142, 1: 269, 2: 40, 3: 49}
    with pytest.raises(ValueError):
        eta_statistics(HEIS3, 2, mode="sampled", samples=500)
    with pytest.raises(ValueError):
        eta_statistics(HEIS3, 2, mode="bogus")
    with pytest.raises(CapExceeded):
        eta_statistics(heisenberg_group(11), 3, cap=1000)


def test_eta_stats_probability_helpers():
    stats = EtaStats({0: 3, 1: 4, 2: 3}, 10, "exhaustive")
    assert stats.probability_at_least(1) == Fraction(7, 10)
    assert stats.probability_of(2) == Fraction(3, 10)
    assert stats.mean == Fraction(4 + 6, 10)


def test_jordan_solver_on_non_canonical_form():
    # conjugated Heisenberg matrix: same group up to isomorphism, solver
    # must still match brute force
    from pgmhsp.groups import mat_mul, semidirect_zpr

    s, s_inv = ((1, 0), (1, 1)), ((1, 0), (2, 1))
    mu = mat_mul(mat_mul(s, heisenberg_group(3).mu, 3), s_inv, 3)
    g = semidirect_zpr(3, mu)
    for xs in itertools.product(range(3), repeat=4):
        for w in itertools.product(range(3), repeat=2):
            inst = MSumInstance(g, ((xs[0], xs[1]), (xs[2], xs[3])), w)
            assert solve_jordan(inst).solutions == solve_bruteforce(inst).solutions


def test_eta_statistics_large_jordan_exhaustive():
    # r = k = 3 at p = 5: population 5^12, mean exactly p^(k-r) = 1
    stats = eta_statistics(semidirect_jordan(5, (3,)), 3, cap=3 * 10**8)
    assert stats.mean == 1
    assert stats.variance == 1 - Fraction(1, 125)
    assert stats.probability_of(1) + stats.probability_of(2) >= Fraction(1, 4)


TABLE_GROUPS = [
    "zn N=7 p=3 mu=2",
    "zn N=9 p=3 mu=4",
    "zpr p=3 jordan=2",
    "zpr p=3 jordan=3",
    "zpr p=3 r=2 mu=1,0;1,1",  # not in Jordan form
]
# (spec, k) where the pure-Python oracle enumerates at most 20000 (x, b) pairs
TABLE_CASES = [
    (spec, k)
    for spec in TABLE_GROUPS
    for k in (1, 2, 3)
    if (parse_group_spec(spec).order) ** k <= 20_000
]


def check_table_against_enumeration(g, k):
    a = g.a_group
    xs = x_tuples(a.order, k)
    images = image_table(g, xs)
    eta = eta_rows(images, a.order)
    for xi, row in enumerate(xs.tolist()):
        buckets = solve_all_w(g, tuple(a.element(c) for c in row))
        assert eta[xi].tolist() == [len(buckets.get(w, ())) for w in a.elements()]
        for w, sols in buckets.items():
            positions = np.flatnonzero(images[xi] == a.index(w)).tolist()
            assert positions == sorted(b_tuple_index(g.p, b) for b in sols)


@pytest.mark.parametrize("spec,k", TABLE_CASES)
def test_image_table_matches_enumeration(spec, k):
    check_table_against_enumeration(parse_group_spec(spec), k)


def test_image_table_decodes_digits_in_groups(monkeypatch):
    # a small lookup table forces the decode to split the r digits
    monkeypatch.setattr(msum, "_LUT_BITS", 4)
    msum._decoder.cache_clear()
    try:
        check_table_against_enumeration(parse_group_spec("zpr p=3 jordan=3"), 2)
        check_table_against_enumeration(parse_group_spec("zpr p=2 jordan=2,2,1"), 2)
    finally:
        msum._decoder.cache_clear()


# the divisor classes of a composite N with two prime factors: 1, 3, 7, 21
ORBIT_GROUPS = TABLE_GROUPS + ["zn N=21 p=3 mu=4"]


@pytest.mark.parametrize("spec", ORBIT_GROUPS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbit_histogram_matches_all_x_oracle(spec, k):
    g = parse_group_spec(spec)
    stats = eta_statistics(g, k)
    assert stats.counts == eta_histogram_all_x(g, k)
    assert stats.population == g.a_group.order ** (k + 1)


@pytest.mark.parametrize("spec", ORBIT_GROUPS + ["zn N=12 p=2 mu=5", "zpr p=5 jordan=2,1"])
def test_unit_classes_partition_a(spec):
    # brute force: the class of x is {c x : c a unit}; its least A-index is
    # the representative (d for gcd(x, N) = d, or the leading coordinate 1)
    a = parse_group_spec(spec).a_group
    if isinstance(a, VectorGroup):
        units = [lambda v, c=c: tuple(c * t % a.p for t in v) for c in range(1, a.p)]
    else:
        units = [lambda v, c=c: c * v % a.n for c in range(1, a.n) if math.gcd(c, a.n) == 1]
    classes = {}
    for x in a.elements():
        rep = min(a.index(unit(x)) for unit in units)
        classes[rep] = classes.get(rep, 0) + 1
    count = msum._unit_class_count(a)
    reps, sizes = msum._unit_classes(a, np.arange(count))
    assert dict(zip(reps.tolist(), sizes.tolist())) == classes
    assert reps.tolist() == sorted(classes)


@pytest.mark.parametrize("spec,k", [("zn N=21 p=3 mu=4", 4), ("zpr p=3 jordan=3", 4),
                                    ("zn N=7 p=3 mu=2", 6)])
def test_orbit_weights_sum_to_population(spec, k):
    g = parse_group_spec(spec)
    a = g.a_group
    seen, total, rows = set(), 0, 0
    for weights, eta in msum.eta_orbits(g, k):
        assert weights.dtype == np.int64
        total += int(weights.sum())
        rows += len(eta)
    assert total == a.order**k
    assert rows == msum.orbit_rows(a, k)
    # the multisets of copies 2..k are distinct and nondecreasing
    tables = msum._colex_tables(a.order, k - 1)
    count = math.comb(a.order + k - 2, k - 1)
    ys, orderings = msum._multisets(tables, np.arange(count), np.int64)
    assert (np.diff(ys, axis=1) >= 0).all()
    assert len({tuple(y) for y in ys.tolist()}) == count
    assert int(orderings.sum()) == a.order ** (k - 1)


def test_orbit_walk_checks_its_weights(monkeypatch):
    classes = msum._unit_classes
    monkeypatch.setattr(msum, "_unit_classes", lambda a, ranks: (classes(a, ranks)[0], ranks * 0 + 1))
    with pytest.raises(AssertionError, match="orbit weights"):
        eta_statistics(Z7, 2)


def test_orbit_weights_beyond_int64_are_python_ints():
    # |A|^(k+1) = 2097169^3 > 2^63: the weights are exact Python ints
    g = parse_group_spec("zn N=2097169 p=3 mu=315549")
    weights, eta = next(msum.eta_orbits(g, 2))
    assert weights.dtype == object
    assert weights.tolist() == [1]  # x = (0, 0)
    assert eta.shape == (1, 2097169)


def test_population_cap_bounds_orbit_pairs():
    # Z7, k = 2: 2 unit classes x 7 multisets = 14 rows, 98 (x, w) pairs
    assert msum.orbit_rows(Z7.a_group, 2) == 14
    stats = eta_statistics(Z7, 2, cap=98)
    assert stats.population == 343
    assert stats.counts == eta_histogram_all_x(Z7, 2)
    with pytest.raises(CapExceeded, match="cap 97"):
        eta_statistics(Z7, 2, cap=97)
    # |A| alone above the cap: no factoring of N
    with pytest.raises(CapExceeded):
        eta_statistics(parse_group_spec("zn N=2097169 p=3 mu=315549"), 1, cap=10**6)


def check_solvers_against_enumeration(g, k, max_rows):
    # every w, for at most max_rows x-tuples spread evenly over A^k
    a = g.a_group
    xs = x_tuples(a.order, k)
    for row in xs[:: math.ceil(len(xs) / max_rows)].tolist():
        x = tuple(a.element(c) for c in row)
        buckets = solve_all_w(g, x)
        for w in a.elements():
            inst = MSumInstance(g, x, w)
            expected = tuple(buckets.get(w, ()))
            assert solve_bruteforce(inst).solutions == expected
            if isinstance(a, VectorGroup):
                assert solve_jordan(inst).solutions == expected


@pytest.mark.parametrize("spec,k", TABLE_CASES)
def test_solvers_match_enumeration_across_blocks(monkeypatch, spec, k):
    # blocks of p columns: every k > 1 scan crosses block boundaries
    monkeypatch.setattr(msum, "_CHUNK", 4)
    check_solvers_against_enumeration(parse_group_spec(spec), k, max_rows=243)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def planted_instance(g, k, seed):
    rng = random.Random(seed)
    a = g.a_group
    x = tuple(a.element(rng.randrange(a.order)) for _ in range(k))
    b = tuple(rng.randrange(g.p) for _ in range(k))
    return MSumInstance(g, x, instance_residual(MSumInstance(g, x, a.zero), b)), b


def test_large_scan_memory_is_bounded():
    # p^k = 3^13 = 1 594 323 columns, under the 10^7 enumeration cap; one
    # unchunked int64 row of them is 12.8 MB.
    g = parse_group_spec("zn N=9901 p=3 mu=99")
    inst, planted = planted_instance(g, 13, seed=13)
    got, peak = traced_peak(solve_bruteforce, inst)
    assert peak < 8 * 2**20
    assert planted in got.solutions
    assert solve_auto(inst) == got
    # the same row built in one piece by the eta table
    row = image_table(g, np.array([[g.a_group.index(xj) for xj in inst.x]]))[0]
    hits = np.flatnonzero(row == g.a_group.index(inst.w))
    assert got.eta == hits.size
    assert sorted(b_tuple_index(g.p, b) for b in got.solutions) == hits.tolist()
    for b in got.solutions:
        assert instance_residual(inst, b) == inst.w

    # Z_3^6 keeps the solution set itself small (eta near 3^13 / 729).
    h = parse_group_spec("zpr p=3 jordan=3,3")
    inst, planted = planted_instance(h, 13, seed=7)
    sliced, peak = traced_peak(solve_jordan, inst)
    assert peak < 8 * 2**20
    scanned, peak = traced_peak(solve_bruteforce, inst)
    assert peak < 8 * 2**20
    assert planted in sliced.solutions
    assert sliced == scanned == solve_auto(inst)


def test_large_modulus_codes_are_exact():
    # N - 1 > 3.04e9: x * M^(b) exceeds int64, so the codes are Python ints
    g = parse_group_spec("zn N=4294967311 p=3 mu=2208774156")
    n = g.a_group.n
    rng = random.Random(5)
    for k in (1, 2, 3):
        for _ in range(4):
            x = tuple(n - 1 - rng.randrange(1000) for _ in range(k))
            buckets = solve_all_w(g, x)
            for w, sols in buckets.items():
                assert solve_bruteforce(MSumInstance(g, x, w)).solutions == tuple(sols)
            row = image_table(g, np.array([x]))[0]
            for w, sols in buckets.items():
                positions = np.flatnonzero(row == w).tolist()
                assert positions == sorted(b_tuple_index(g.p, b) for b in sols)


@pytest.mark.parametrize(
    "spec",
    [
        "zpr p=3 jordan=" + ",".join(["3"] * 11),  # 2-bit digits: 66-bit codes
        "zpr p=5 jordan=" + ",".join(["5"] * 6),  # |A| = 5^30 is beyond int64
    ],
)
def test_wide_codes_are_exact(spec):
    # codes wider than 62 bits are summed and decoded as Python ints
    g = parse_group_spec(spec)
    a = g.a_group
    rng = random.Random(3)
    for k in (1, 2):
        for _ in range(3):
            x = tuple(tuple(rng.randrange(g.p) for _ in range(a.r)) for _ in range(k))
            buckets = solve_all_w(g, x)
            for w, sols in buckets.items():
                inst = MSumInstance(g, x, w)
                assert solve_bruteforce(inst).solutions == tuple(sols)
                assert solve_jordan(inst).solutions == tuple(sols)
            if a.order < 2**63:
                row = image_table(g, np.array([[a.index(xj) for xj in x]]))[0]
                for w, sols in buckets.items():
                    positions = np.flatnonzero(row == a.index(w)).tolist()
                    assert positions == sorted(b_tuple_index(g.p, b) for b in sols)
    if a.order < 2**63:
        # per-w counts of such an A stay out of reach, with a cap error
        with pytest.raises(CapExceeded):
            eta_statistics(g, 1, cap=a.order**2)
