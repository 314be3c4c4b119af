import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pgmhsp import eta as eta_module
from pgmhsp import msum
from pgmhsp.caps import CapExceeded
from pgmhsp.groups import (
    VectorGroup,
    heisenberg_group,
    mat_identity,
    mat_mul,
    mat_pow,
    parse_group_spec,
    semidirect_jordan,
    semidirect_zn,
    semidirect_zpr,
)
from pgmhsp.eta import EtaStats, eta_rows, eta_statistics, image_table
from pgmhsp.msum import (
    MSumInstance,
    SolutionSet,
    solve_auto,
    solve_bruteforce,
    solve_metacyclic_dlog,
    solve_polynomial,
)

from oracles import (
    TABLE_CASES,
    TABLE_GROUPS,
    b_tuple_index,
    eta_histogram_all_x,
    heisenberg_eta_distribution,
    instance_residual,
    legendre_symbol,
    probability_of,
    solve_all_w,
    solve_heisenberg_closed_form,
    sqrt_mod_p,
    x_tuples,
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


@pytest.mark.parametrize(
    "g", [Z7, semidirect_zn(31, 5, 2), HEIS3, semidirect_jordan(5, (3,)), semidirect_jordan(3, (2, 1))]
)
def test_check_solutions_accepts_exactly_the_solutions(g):
    # every b of Z_p^2, for seeded instances: accepted iff brute force finds it
    rng = random.Random(9)
    a = g.a_group
    for _ in range(10):
        inst = MSumInstance(g, tuple(a.element(rng.randrange(a.order)) for _ in range(2)),
                            a.element(rng.randrange(a.order)))
        solutions = solve_bruteforce(inst).solutions
        msum.check_solutions(inst, solutions)
        for b in itertools.product(range(g.p), repeat=2):
            if b not in solutions:
                with pytest.raises(AssertionError, match="not w"):
                    msum.check_solutions(inst, [*solutions, b])
    for b in [(0,), (0, 0, 0), (g.p, 0), (-1, 0)]:
        with pytest.raises(AssertionError, match="is not in"):
            msum.check_solutions(inst, [b])


def test_discrete_log_bsgs():
    log = msum._baby_steps(2, 3, 7)
    assert log(1) == 0
    assert log(4) == 2
    assert log(3) is None
    with pytest.raises(ValueError):
        msum._baby_steps(3, 3, 7)  # 3^3 != 1 mod 7
    # larger deterministic sweep
    n, p = 101, 5
    mu = pow(2, 100 // p, n)
    log = msum._baby_steps(mu, p, n)
    for b in range(p):
        assert log(pow(mu, b, n)) == b


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
        == solve_polynomial(inst5).solutions
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
                == solve_polynomial(inst).solutions
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
            == solve_polynomial(inst).solutions
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
    assert (0, 0, 0) in solve_polynomial(inst).solutions
    with pytest.raises(ValueError):
        solve_polynomial(MSumInstance(Z7, (1,), 0))


def test_jordan_matches_heisenberg_closed_form_exhaustive():
    for xs in itertools.product(range(3), repeat=4):
        for w in itertools.product(range(3), repeat=2):
            inst = MSumInstance(HEIS3, ((xs[0], xs[1]), (xs[2], xs[3])), w)
            assert (
                solve_polynomial(inst).solutions
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
        assert solve_polynomial(inst).solutions == solve_bruteforce(inst).solutions


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


@pytest.fixture
def handed_over(monkeypatch):
    """The b-tuples each solver hands to SolutionSet, before it sorts them."""
    seen = []

    class Recording(SolutionSet):
        def __init__(self, solutions) -> None:
            seen.append(solutions)
            super().__init__(solutions)

    monkeypatch.setattr(msum, "SolutionSet", Recording)
    return seen


def check_lookup(inst, expected, handed_over):
    # the route is taken, and its b come out sorted without duplicates,
    # through msum._solve_lookup itself and through each solver that calls it
    solvers = [msum._solve_lookup, solve_auto]
    if isinstance(inst.group.a_group, VectorGroup):
        solvers.append(solve_polynomial)
    for solve in solvers:
        assert solve(inst).solutions == expected
        assert handed_over[-1] == tuple(sorted(set(handed_over[-1])))
    assert solve_bruteforce(inst).solutions == expected


@pytest.mark.parametrize("spec,k", [("zn N=7 p=3 mu=2", 2), ("zn N=7 p=3 mu=2", 3),
                                    ("zn N=9 p=3 mu=4", 2), ("zn N=9 p=3 mu=4", 3),
                                    ("zpr p=3 jordan=2", 2)])
def test_lookup_matches_enumeration_exhaustive(handed_over, spec, k):
    # every (x, w); at N = 9 some x and mu - 1 are not units
    g = parse_group_spec(spec)
    a = g.a_group
    for x in itertools.product(list(a.elements()), repeat=k):
        buckets = solve_all_w(g, x)
        for w in a.elements():
            check_lookup(MSumInstance(g, x, w), tuple(buckets.get(w, ())), handed_over)


class RowReads:
    """A stand-in for a context's table of codes: it records the key of
    every read, and reads 1 for w's code and zeros in every row, so that
    no residual matches and each solve is short."""

    def __init__(self):
        self.keys = []

    def __getitem__(self, key):
        self.keys.append(key)
        return [0] * (key.stop - key.start) if isinstance(key, slice) else 1


def inline_row_starts(g, x, w):
    """The lookup's row starts of w, -x_j (j < k) and x_k, times p, by
    separate formulas: sign e mod N for Z_N, Horner's rule over the digits
    (sign c mod p) for Z_p^r."""
    p, signs = g.p, (1, *[-1] * (len(x) - 1), 1)
    if isinstance(g.a_group, VectorGroup):
        starts = []
        for sign, e in zip(signs, (w, *x)):
            i = 0
            for c in e:
                i = i * p + sign * c % p
            starts.append(i * p)
        return starts
    return [sign * e % g.a_group.n * p for sign, e in zip(signs, (w, *x))]


@pytest.mark.parametrize("spec", ["zn N=7 p=3 mu=2", "zn N=9901 p=3 mu=99", "zn N=1019 p=509 mu=4",
                                  "zpr p=5 jordan=3", "zpr p=3 jordan=2,1"])
def test_lookup_rows_start_at_the_a_indices(spec):
    # _Context.solve reads row w at M^(1) = I, then the p codes of each -x_j
    # and of x_k, at starts from A.index and A.neg for both families
    g = parse_group_spec(spec)
    a, p, rng = g.a_group, g.p, random.Random(spec)
    for k in (1, 2, 3) if p < 10 else (1, 2):  # p^(k-1) prefixes a solve
        context = msum._Context(g, k)
        for _ in range(20):
            x = tuple(a.element(rng.randrange(a.order)) for _ in range(k))
            for inst in (MSumInstance(g, x, a.element(rng.randrange(a.order))),
                         MSumInstance(g, (a.zero,) * k, a.zero)):
                context.__dict__["codes"] = reads = RowReads()
                context.solve(inst.x, inst.w)
                first, *middle, last = inline_row_starts(g, inst.x, inst.w)
                rows = [slice(s, s + p) for s in (*middle, last)]
                assert reads.keys == [first + 1, *rows]


def test_lookup_decodes_digits_in_groups(handed_over):
    # r = 5 digits of 4 bits each at k = 3: the decode takes two lut lookups
    g = parse_group_spec("zpr p=5 jordan=5")
    a = g.a_group
    assert eta_module._decoder(g.p, a.r, 3)[2] < a.r
    rng = random.Random(5)
    for _ in range(40):
        x = tuple(a.element(rng.randrange(a.order)) for _ in range(3))
        buckets = solve_all_w(g, x)
        for w in [*list(buckets)[:3], a.element(rng.randrange(a.order)), a.zero]:
            check_lookup(MSumInstance(g, x, w), tuple(buckets.get(w, ())), handed_over)


def test_lookup_peak_on_a_large_group_is_under_a_mebibyte():
    # |A| = 9901: the table of A's codes (8 |A| p bytes, 238 KB) and the
    # decode list fit in 1 MiB with the call; b = (1, 2) is planted, M^(1) = 1 and
    # M^(2) = 1 + mu = 100
    g = parse_group_spec("zn N=9901 p=3 mu=99")
    inst = MSumInstance(g, (5, 9900), (5 - 100) % 9901)
    tracemalloc.start()
    try:
        found = solve_auto(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (1, 2) in found.solutions
    assert msum._solve_lookup(inst) is not None
    assert found.solutions == solve_bruteforce(inst).solutions


@pytest.mark.parametrize("spec,k", [("zn N=9 p=3 mu=4", 1), ("zn N=21 p=3 mu=4", 2),
                                    ("zn N=7 p=3 mu=2", 1), ("zn N=31 p=5 mu=2", 3),
                                    ("zpr p=3 jordan=2", 2), ("zpr p=5 jordan=2", 3),
                                    ("zpr p=5 jordan=5", 3), ("zpr p=3 jordan=3,3,3", 4)])
def test_warm_context_matches_enumeration_in_any_order(spec, k):
    # the same seeded instances solved cold and then warm, in two shuffled
    # orders; zpr p=5 jordan=5 at k = 3 decodes in two lut lookups and
    # jordan=3,3,3 at k = 4 in three; N = 9 and 21 have non-unit mu - 1
    g = parse_group_spec(spec)
    a = g.a_group
    rng = random.Random(17)
    cases = []
    for _ in range(60):
        x = tuple(a.element(rng.randrange(a.order)) for _ in range(k))
        buckets = solve_all_w(g, x)
        for w in [*list(buckets)[:2], a.element(rng.randrange(a.order))]:
            cases.append((MSumInstance(g, x, w), tuple(buckets.get(w, ()))))
    msum._context.cache_clear()
    for seed in (1, 2):
        random.Random(seed).shuffle(cases)
        for inst, expected in cases:
            assert solve_auto(inst).solutions == expected
            assert msum._solve_lookup(inst).solutions == expected
    for inst, expected in cases[:40]:
        assert solve_bruteforce(inst).solutions == expected


def test_lookup_decode_with_small_luts(monkeypatch):
    # a 4-bit lut splits every code into one lookup per digit
    monkeypatch.setattr(eta_module, "_LUT_BITS", 4)
    eta_module._decoder.cache_clear()
    msum._context.cache_clear()
    try:
        rng = random.Random(8)
        for spec, k in [("zpr p=3 jordan=3", 2), ("zpr p=2 jordan=2,2,1", 3)]:
            g = parse_group_spec(spec)
            a = g.a_group
            for _ in range(100):
                x = tuple(a.element(rng.randrange(a.order)) for _ in range(k))
                buckets = solve_all_w(g, x)
                for w in a.elements():
                    assert msum._solve_lookup(MSumInstance(g, x, w)).solutions == tuple(
                        buckets.get(w, ()))
    finally:
        eta_module._decoder.cache_clear()
        msum._context.cache_clear()


def test_equal_groups_share_a_context():
    g, h = parse_group_spec("zpr p=3 jordan=3"), parse_group_spec("zpr p=3 jordan=3")
    assert g is not h and msum._context(g, 2) is msum._context(h, 2)
    assert msum._context(g, 2) is not msum._context(g, 3)
    c = conjugated(g, 4)
    assert c != g and msum._context(c, 2) is not msum._context(g, 2)
    a = g.a_group
    rng = random.Random(3)
    for _ in range(50):
        x = tuple(a.element(rng.randrange(a.order)) for _ in range(2))
        w = a.element(rng.randrange(a.order))
        for group in (g, h, c):
            inst = MSumInstance(group, x, w)
            assert solve_auto(inst).solutions == solve_bruteforce(inst).solutions


def test_discrete_log_context_is_built_once(monkeypatch):
    built = []
    baby_steps = msum._baby_steps

    def counting(*args):
        built.append(args)
        return baby_steps(*args)

    monkeypatch.setattr(msum, "_baby_steps", counting)
    msum._context.cache_clear()
    for spec in ("zn N=31 p=5 mu=2", "zn N=31 p=5 mu=2"):  # parsed twice
        g = parse_group_spec(spec)
        for x in range(31):
            for w in range(31):
                inst = MSumInstance(g, (x,), w)
                assert solve_auto(inst).solutions == solve_bruteforce(inst).solutions
    assert built == [(2, 5, 31)]


def test_discrete_log_check_builds_no_table(monkeypatch):
    # the route is O(sqrt p); its answer is checked by groups.matrix_sum in
    # O(log b) products, not against the p running sums of msum_table
    def refuse(g):
        raise AssertionError("msum_table built")

    monkeypatch.setattr(msum, "msum_table", refuse, raising=False)
    g = parse_group_spec("zn N=100043 p=50021 mu=4")
    inst = MSumInstance(g, (5,), 78386)
    assert solve_auto(inst).solutions == ((12345,),)
    for w in (0, 1, 78387):
        inst = MSumInstance(g, (5,), w)
        assert solve_metacyclic_dlog(inst) == solve_bruteforce(inst)


def test_non_unit_discrete_log_instances_take_the_lookup(monkeypatch):
    # x = 0 and x sharing a factor with N, and a group whose mu - 1 is no
    # unit: the residual lookup answers, brute force is never reached
    cases = [(parse_group_spec("zn N=9901 p=3 mu=99"), (0,)),
             (parse_group_spec("zn N=91 p=3 mu=16"), (0, 7, 13, 14, 26, 1, 5)),
             (parse_group_spec("zn N=21 p=3 mu=4"), tuple(range(21)))]
    expected = {}
    for g, xs in cases:
        for x in xs:
            for w in range(0, g.a_group.n, max(1, g.a_group.n // 40)):
                inst = MSumInstance(g, (x,), w)
                expected[inst] = solve_bruteforce(inst).solutions

    def refuse(*args):
        raise AssertionError("brute force reached")

    monkeypatch.setattr(msum, "solve_bruteforce", refuse)
    for g, xs in cases:
        for x in xs:
            if math.gcd(x, g.a_group.n) == 1 and math.gcd(g.mu - 1, g.a_group.n) == 1:
                continue
            for w in range(0, g.a_group.n, max(1, g.a_group.n // 40)):
                inst = MSumInstance(g, (x,), w)
                assert solve_metacyclic_dlog(inst).solutions == expected[inst]


@pytest.mark.parametrize("spec", ["zn N=32768 p=2 mu=16385", "zpr p=2 jordan=2,2,2,2,2,2,2,1"])
def test_context_keeps_no_object_per_element(spec):
    # |A| p = 2^16, the most the residual lookup takes, at k = 2: once
    # instances have used every element of A, the context keeps a view of
    # eta's 512 KiB table of codes and its decode list or lut, and nothing
    # per element; filling the table, in blocks of rows, peaks under 4 MiB
    g = parse_group_spec(spec)
    a = g.a_group
    elements = list(a.elements())
    msum._context.cache_clear()
    eta_module._codes_of_a.cache_clear()
    tracemalloc.start()
    try:
        context = msum._context(g, 2)
        for i in range(0, a.order, 3):
            context.solve(elements[i : i + 2], elements[(i + 2) % a.order])
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 4 * 2**20, size
    assert peak < 4 * 2**20, peak
    rng = random.Random(2)
    for _ in range(20):
        x = (a.element(rng.randrange(a.order)), a.element(rng.randrange(a.order)))
        inst = MSumInstance(g, x, a.element(rng.randrange(a.order)))
        assert solve_auto(inst).solutions == solve_bruteforce(inst).solutions
    msum._context.cache_clear()


@pytest.mark.parametrize("spec", ["zn N=31 p=5 mu=2", "zpr p=3 jordan=3"])
def test_lookup_and_walk_share_one_code_table(spec):
    # the orbit walk and the residual lookup of one (group, k) read one
    # read-only table, built once; the context keeps only a view of it
    g = parse_group_spec(spec)
    a = g.a_group
    msum._context.cache_clear()
    eta_module._codes_of_a.cache_clear()
    eta_statistics(g, 2)
    rng = random.Random(4)
    for _ in range(30):
        x = (a.element(rng.randrange(a.order)), a.element(rng.randrange(a.order)))
        inst = MSumInstance(g, x, a.element(rng.randrange(a.order)))
        assert solve_auto(inst).solutions == solve_bruteforce(inst).solutions
    assert eta_module._codes_of_a.cache_info().misses == 1
    table = eta_module._codes_of_a(g, 2)
    assert not table.flags.writeable
    context = msum._context(g, 2)
    assert context.codes.readonly
    assert np.shares_memory(np.asarray(context.codes), table)
    assert not any(isinstance(value, np.ndarray) for value in vars(context).values())
    msum._context.cache_clear()


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


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 7, 8, 125, 128, 1030301, 2**31, 2**32 - 1, 2**32, 2**40 + 3]
)
def test_uniform_draws_match_randrange(n):
    # The block draw must accept exactly randrange's sequence: the sampled
    # census is seeded, and its output is pinned by seed.
    for seed in (0, 1, 42, 2**31 - 1):
        rng = random.Random(seed)
        expected = [rng.randrange(n) for _ in range(2000)]
        got = eta_module._uniform_draws(random.Random(seed), n, 2000)
        assert got.dtype == np.int64
        assert got.tolist() == expected


@pytest.mark.parametrize("count", [0, 1, 2, 4096, 10000])
def test_uniform_floats_match_random(count):
    # The stripped Monte Carlo draws its uniform numbers in bulk; its seeded
    # output is pinned, and a scalar replay of a block must reproduce it.
    for seed in (0, 1, 42, 2**31 - 1, 2**70 + 5):
        rng, reference = random.Random(seed), random.Random(seed)
        expected = [reference.random() for _ in range(count)]
        got = eta_module._uniform_floats(rng, count)
        assert got.dtype == np.float64
        assert got.tolist() == expected
        # the generator ends in the same state
        assert rng.random() == reference.random()
        assert rng.getstate() == reference.getstate()


def test_eta_stats_probability_helpers():
    stats = EtaStats({0: 3, 1: 4, 2: 3}, 10, "exhaustive")
    assert stats.probability_at_least(1) == Fraction(7, 10)
    assert probability_of(stats, 2) == Fraction(3, 10)
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
            assert solve_polynomial(inst).solutions == solve_bruteforce(inst).solutions


def test_eta_statistics_large_jordan_exhaustive():
    # r = k = 3 at p = 5: population 5^12, mean exactly p^(k-r) = 1
    stats = eta_statistics(semidirect_jordan(5, (3,)), 3, cap=3 * 10**8)
    assert stats.mean == 1
    assert stats.variance == 1 - Fraction(1, 125)
    assert probability_of(stats, 1) + probability_of(stats, 2) >= Fraction(1, 4)


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
    monkeypatch.setattr(eta_module, "_LUT_BITS", 4)
    eta_module._decoder.cache_clear()
    try:
        check_table_against_enumeration(parse_group_spec("zpr p=3 jordan=3"), 2)
        check_table_against_enumeration(parse_group_spec("zpr p=2 jordan=2,2,1"), 2)
    finally:
        eta_module._decoder.cache_clear()


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
    count = eta_module._unit_class_count(a)
    reps, sizes = eta_module._unit_classes(a, np.arange(count))
    assert dict(zip(reps.tolist(), sizes.tolist())) == classes
    assert reps.tolist() == sorted(classes)


@pytest.mark.parametrize("spec,k", [("zn N=21 p=3 mu=4", 4), ("zpr p=3 jordan=3", 4),
                                    ("zn N=7 p=3 mu=2", 6)])
def test_orbit_weights_sum_to_population(spec, k):
    g = parse_group_spec(spec)
    a = g.a_group
    seen, total, rows = set(), 0, 0
    for weights, eta in eta_module.eta_orbits(g, k):
        assert weights.dtype == np.int64
        total += int(weights.sum())
        rows += len(eta)
    assert total == a.order**k
    assert rows == eta_module.orbit_rows(a, k)
    # the multisets of copies 2..k are distinct and nondecreasing
    tables = eta_module._colex_tables(a.order, k - 1)
    count = math.comb(a.order + k - 2, k - 1)
    ys, orderings = eta_module._multisets(tables, np.arange(count), np.int64)
    assert (np.diff(ys, axis=1) >= 0).all()
    assert len({tuple(y) for y in ys.tolist()}) == count
    assert int(orderings.sum()) == a.order ** (k - 1)


def test_orbit_walk_checks_its_weights(monkeypatch):
    classes = eta_module._unit_classes
    monkeypatch.setattr(eta_module, "_unit_classes", lambda a, ranks: (classes(a, ranks)[0], ranks * 0 + 1))
    with pytest.raises(AssertionError, match="orbit weights"):
        eta_statistics(Z7, 2)


def test_orbit_weights_beyond_int64_are_python_ints():
    # |A|^(k+1) = 2097169^3 > 2^63: the weights are exact Python ints
    g = parse_group_spec("zn N=2097169 p=3 mu=315549")
    weights, eta = next(eta_module.eta_orbits(g, 2))
    assert weights.dtype == object
    assert weights.tolist() == [1]  # x = (0, 0)
    assert eta.shape == (1, 2097169)


def test_population_cap_bounds_orbit_pairs():
    # Z7, k = 2: 2 unit classes x 7 multisets = 14 rows, 98 (x, w) pairs
    assert eta_module.orbit_rows(Z7.a_group, 2) == 14
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
                assert solve_polynomial(inst).solutions == expected


@pytest.mark.parametrize("spec,k", TABLE_CASES)
def test_solvers_match_enumeration_across_blocks(monkeypatch, spec, k):
    # blocks of p columns: every k > 1 scan crosses block boundaries
    monkeypatch.setattr(msum, "_CHUNK", 4)
    check_solvers_against_enumeration(parse_group_spec(spec), k, max_rows=243)


@pytest.fixture
def route(monkeypatch, request):
    """Force a route of solve_polynomial: "grid" as routed (the residual
    lookup on small instances), "scan" the numpy block scan in blocks of 9
    columns, "lines" the line walk whenever f > 0."""
    if request.param != "grid":
        monkeypatch.setattr(msum, "_PY_GRID", 0)
    if request.param == "scan":
        monkeypatch.setattr(msum, "_CHUNK", 9)
    if request.param == "lines":
        monkeypatch.setattr(msum, "_line_cost", lambda p, degree: 0)
    msum._context.cache_clear()
    yield request.param
    msum._context.cache_clear()


def conjugated(g, seed):
    """The group with mu replaced by S mu S^-1 for a seeded invertible S."""
    p, r = g.p, g.a_group.r
    rng = random.Random(seed)
    order = math.prod(p**r - p**i for i in range(r))  # |GL_r(F_p)|
    while True:
        s = tuple(tuple(rng.randrange(p) for _ in range(r)) for _ in range(r))
        s_inv = mat_pow(s, order - 1, p)
        if mat_mul(s, s_inv, p) == mat_identity(r):
            return semidirect_zpr(p, mat_mul(mat_mul(s, g.mu, p), s_inv, p))


POLYNOMIAL_SPECS = [
    f"zpr p={p} jordan={blocks}"
    for p in (3, 5, 7, 11, 13)
    for blocks in ("2", "3", "4", "2,1", "3,2", "1,1")
    if max(map(int, blocks.split(","))) <= p
]


def check_polynomial_against_oracle(g, k, rng, rows):
    # planted and uniform w for random x, and the degenerate x: each x_j in
    # ker N (M^(b) x_j = b x_j), and x = 0
    a, p = g.a_group, g.p
    n = [[(c - (i == j)) % p for j, c in enumerate(row)] for i, row in enumerate(g.mu)]
    kernel = msum._eliminate(tuple((*row, 0) for row in n), a.r, p)[1]

    def in_kernel():
        x = a.zero
        for y, s in zip(kernel, [rng.randrange(p) for _ in kernel]):
            x = a.add(x, tuple(s * c for c in y))
        assert instance_residual(MSumInstance(g, (x,), a.zero), (2,)) == a.add(x, x)
        return x

    xs = [tuple(a.element(rng.randrange(a.order)) for _ in range(k)) for _ in range(rows)]
    xs += [tuple(in_kernel() for _ in range(k)), (a.zero,) * k]
    for x in xs:
        buckets = solve_all_w(g, x)
        ws = list(buckets)[:4] + [a.element(rng.randrange(a.order)) for _ in range(2)] + [a.zero]
        for w in ws:
            assert solve_polynomial(MSumInstance(g, x, w)).solutions == tuple(buckets.get(w, ()))


@pytest.mark.parametrize("route", ["grid", "scan", "lines"], indirect=True)
@pytest.mark.parametrize("spec", POLYNOMIAL_SPECS)
def test_polynomial_matches_oracle_seeded(route, spec):
    g = parse_group_spec(spec)
    rng = random.Random(spec)
    for k in (1, 2, 3):
        if g.p**k <= 1331:
            check_polynomial_against_oracle(g, k, rng, rows=4)


@pytest.mark.parametrize("route", ["grid", "scan", "lines"], indirect=True)
@pytest.mark.parametrize("spec", ["zpr p=3 jordan=2", "zpr p=5 jordan=3", "zpr p=3 jordan=2,1",
                                  "zpr p=5 jordan=3,2", "zpr p=2 jordan=2,1"])
def test_polynomial_matches_oracle_conjugated_mu(route, spec):
    g = conjugated(parse_group_spec(spec), seed=len(spec))
    assert g.mu != parse_group_spec(spec).mu
    rng = random.Random(spec)
    for k in (1, 2, 3):
        check_polynomial_against_oracle(g, k, rng, rows=3)


@pytest.mark.parametrize("route", ["scan", "lines"], indirect=True)
@pytest.mark.parametrize("spec,k", TABLE_CASES)
def test_polynomial_matches_enumeration_across_blocks(route, spec, k):
    g = parse_group_spec(spec)
    if isinstance(g.a_group, VectorGroup):
        check_solvers_against_enumeration(g, k, max_rows=81)


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1009, 10007])
def test_roots_over_prime_fields(p):
    rng = random.Random(p)
    for degree in range(1, 5 if p > 3 else 3):
        for _ in range(20):
            if rng.random() < 0.5:  # a product of linear factors, some repeated
                roots = [rng.randrange(p) for _ in range(degree)]
                poly = [1]
                for root in roots:
                    poly = [((poly[i - 1] if i else 0) - root * (poly[i] if i < len(poly) else 0)) % p
                            for i in range(len(poly) + 1)]
                expected = sorted(set(roots))
            else:
                poly = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
                expected = None
            got = sorted(msum._roots(poly, p))
            if expected is None and p <= 1009:
                expected = [t for t in range(p) if sum(c * pow(t, i, p) for i, c in enumerate(poly)) % p == 0]
            if expected is not None:
                assert got == expected, (poly, p)
            assert all(sum(c * pow(t, i, p) for i, c in enumerate(poly)) % p == 0 for t in got)


def test_polynomial_cap_bounds_the_candidates_walked():
    g = parse_group_spec("zpr p=3 jordan=3")
    a = g.a_group
    # one linear equation in three copies: f = 2, 9 points walked of p^k = 27
    inst = MSumInstance(g, ((1, 2, 0), (0, 1, 1), (2, 2, 2)), a.zero)
    assert solve_polynomial(inst, cap=9) == solve_bruteforce(inst)
    with pytest.raises(CapExceeded):
        solve_polynomial(inst, cap=8)
    # x = 0, w = 0: every b solves, all 27 points are walked
    zero = MSumInstance(g, (a.zero,) * 3, a.zero)
    assert solve_polynomial(zero, cap=27).eta == 27
    with pytest.raises(CapExceeded):
        solve_polynomial(zero, cap=26)
    # p = 1009, f = 2: the 1009^2-point grid is cheaper than 1009 lines
    big = parse_group_spec("zpr p=1009 jordan=3")
    x = ((1, 2, 3), (4, 5, 6), (7, 8, 10))
    inst = MSumInstance(big, x, instance_residual(MSumInstance(big, x, big.a_group.zero), (5, 6, 7)))
    assert 1009 * msum._line_cost(1009, 3) > 1009**2
    assert (5, 6, 7) in solve_polynomial(inst, cap=1009**2).solutions
    with pytest.raises(CapExceeded):
        solve_polynomial(inst, cap=1009**2 - 1)
    # p = 10007, f = 1: one line, charged its root finding
    big = parse_group_spec("zpr p=10007 jordan=3")
    inst = MSumInstance(big, x[:2], instance_residual(MSumInstance(big, x[:2], big.a_group.zero), (5, 6)))
    work = msum._line_cost(10007, 3)
    assert work < 10007
    assert (5, 6) in solve_polynomial(inst, cap=work).solutions
    with pytest.raises(CapExceeded):
        solve_polynomial(inst, cap=work - 1)
    with pytest.raises(CapExceeded):  # x = 0: f = 2, 10007 lines
        solve_polynomial(MSumInstance(big, (big.a_group.zero,) * 2, big.a_group.zero), cap=10**7)


def test_polynomial_cap_stops_before_writing_out_solutions():
    # x = 0, w = 0 at p = 1009: every b solves; the p^3 points exceed the cap
    # before one of them (300 MB as tuples) is written out
    g = parse_group_spec("zpr p=1009 jordan=3")
    inst = MSumInstance(g, (g.a_group.zero,) * 3, g.a_group.zero)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            solve_polynomial(inst, cap=2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def heisenberg_residual(p, x, b):
    """sum_j M^(b_j) x_j in the Heisenberg group, M^(b) (u, v) = (b u + C(b, 2) v, b v),
    in O(k) arithmetic at any p."""
    return (
        sum(bj * u + bj * (bj - 1) // 2 * v for bj, (u, v) in zip(b, x)) % p,
        sum(bj * v for bj, (u, v) in zip(b, x)) % p,
    )


def test_polynomial_large_p_builds_nothing_of_size_p():
    # Heisenberg k = 2 at p near 10^9: f = 1, one line and a quadratic in t
    p = 999999937
    g = parse_group_spec(f"zpr p={p} jordan=2")
    rng = random.Random(p)
    for _ in range(5):
        x = tuple((rng.randrange(p), rng.randrange(1, p)) for _ in range(2))
        b = (rng.randrange(p), rng.randrange(p))
        inst = MSumInstance(g, x, heisenberg_residual(p, x, b))
        got, peak = traced_peak(solve_auto, inst)
        assert peak < 2**20
        assert b in got.solutions and got == solve_heisenberg_closed_form(inst)
        for other in got.solutions:
            assert heisenberg_residual(p, x, other) == inst.w
    # x_2 = -x_1, w = 0: every b_1 = b_2 solves, p solutions on the one line
    inst = MSumInstance(g, ((1, 1), (p - 1, p - 1)), (0, 0))
    got, peak = traced_peak(lambda: pytest.raises(CapExceeded, solve_auto, inst))
    assert peak < 2**20
    small = parse_group_spec("zpr p=1009 jordan=2")
    assert solve_auto(MSumInstance(small, ((1, 1), (1008, 1008)), (0, 0))).solutions == tuple(
        (t, t) for t in range(1009)
    )


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
    sliced, peak = traced_peak(solve_polynomial, inst)
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
                assert solve_polynomial(inst).solutions == tuple(sols)
            if a.order < 2**63:
                row = image_table(g, np.array([[a.index(xj) for xj in x]]))[0]
                for w, sols in buckets.items():
                    positions = np.flatnonzero(row == a.index(w)).tolist()
                    assert positions == sorted(b_tuple_index(g.p, b) for b in sols)
    if a.order < 2**63:
        # per-w counts of such an A stay out of reach, with a cap error
        with pytest.raises(CapExceeded):
            eta_statistics(g, 1, cap=a.order**2)
