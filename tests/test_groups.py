import importlib
import math
import pkgutil
import random
import re

import numpy as np
import pytest

import pgmhsp
from pgmhsp.eta import phase_indices
from pgmhsp.groups import (
    CyclicGroup,
    GroupElement,
    SemidirectGroup,
    VectorGroup,
    _phi_power,
    _running_sums,
    element_inv,
    element_mul,
    format_group_spec,
    heisenberg_group,
    jordan_matrix,
    mat_add,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_transpose,
    mat_vec,
    matrix_sum,
    msum_table,
    parse_group_spec,
    phi_apply,
    phi_sum,
    row_reduce,
    semidirect_jordan,
    semidirect_zn,
    semidirect_zpr,
    subgroup_order,
)

from oracles import element_from_index, element_pow, group_elements, is_heisenberg

Z7 = semidirect_zn(7, 3, 2)
HEIS3 = heisenberg_group(3)

SMALL_GROUPS = [
    Z7,
    HEIS3,
    semidirect_zn(9, 3, 4),
    semidirect_zn(4, 2, 3),
    semidirect_zn(15, 2, 14),
    semidirect_zpr(2, ((0, 1), (1, 0))),
    semidirect_zn(13, 3, 3),
    semidirect_jordan(3, (2, 1)),
]


def phase_table(a_group):
    """t[x, y] = phase index of chi_x(y) for every pair of A-indices, exact
    modulo char_denominator; A.elements() runs in A-index order."""
    assert [a_group.index(e) for e in a_group.elements()] == list(range(a_group.order))
    idx = np.arange(a_group.order, dtype=np.int64)
    return phase_indices(a_group, idx[:, None], idx[None, :])


def test_construction_validation():
    with pytest.raises(ValueError):
        semidirect_zn(7, 3, 3)  # 3^3 = 27 != 1 mod 7
    with pytest.raises(ValueError):
        semidirect_zn(6, 2, 2)  # not a unit
    with pytest.raises(ValueError):
        semidirect_zn(7, 4, 2)  # p not prime
    with pytest.raises(ValueError):
        semidirect_zpr(3, ((1, 1), (1, 1)))  # singular
    with pytest.raises(ValueError):
        semidirect_zpr(3, ((0, 1), (1, 0)))  # order 2, not dividing 3
    with pytest.raises(ValueError):
        semidirect_jordan(3, (4,))  # block larger than p: mu^p != I
    with pytest.raises(ValueError):
        CyclicGroup(1)
    with pytest.raises(ValueError):
        VectorGroup(4, 2)
    # r = p is constructible (mu^p = I still holds)
    semidirect_jordan(3, (3,))


def test_element_mul_examples():
    assert element_mul(GroupElement(1, 1), GroupElement(1, 0), Z7) == GroupElement(3, 1)
    for g in group_elements(Z7):
        assert element_mul(g, Z7.identity, Z7) == g
        assert element_mul(Z7.identity, g, Z7) == g
    # Heisenberg: phi acts through the transpose of the stored matrix
    prod = element_mul(GroupElement((1, 0), 1), GroupElement((0, 1), 1), HEIS3)
    phi_once = phi_apply((0, 1), HEIS3)
    expected = HEIS3.a_group.add((1, 0), phi_once)
    assert prod == GroupElement(expected, 2)


def test_element_inv_examples():
    assert element_inv(Z7.identity, Z7) == Z7.identity
    inv = element_inv(GroupElement(1, 1), Z7)
    assert element_mul(GroupElement(1, 1), inv, Z7) == Z7.identity
    # exhaustive-search oracle over |G| = 21
    brute = [
        h
        for h in group_elements(Z7)
        if element_mul(GroupElement(1, 1), h, Z7) == Z7.identity
    ]
    assert brute == [inv]
    for g in group_elements(HEIS3):
        assert element_inv(element_inv(g, HEIS3), HEIS3) == g


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=format_group_spec)
def test_group_axioms_exhaustive(g):
    assert g.order <= 200
    elems = list(group_elements(g))
    n = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    mtab = [
        [index[element_mul(a, b, g)] for b in elems] for a in elems
    ]
    identity_count = sum(
        1
        for i in range(n)
        if all(mtab[i][j] == j and mtab[j][i] == j for j in range(n))
    )
    assert identity_count == 1
    for a in elems:
        inv = element_inv(a, g)
        assert element_mul(a, inv, g) == g.identity
        assert element_mul(inv, a, g) == g.identity
    for i in range(n):
        row_i = mtab[i]
        for j in range(n):
            ij = row_i[j]
            row_ij = mtab[ij]
            row_j = mtab[j]
            for k in range(n):
                assert row_ij[k] == row_i[row_j[k]]


def test_phi_sum_examples():
    assert phi_sum(0, 5, Z7) == 0
    assert phi_sum(2, 1, Z7) == 3
    for d in HEIS3.a_group.elements():
        assert phi_sum(3, d, HEIS3) == (0, 0)
        assert element_pow(GroupElement(d, 1), 3, HEIS3) == HEIS3.identity


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=format_group_spec)
def test_phi_sum_power_law(g):
    for d in g.a_group.elements():
        gen = GroupElement(g.a_group.reduce(d), 1)
        for b in range(2 * g.p + 1):
            assert element_pow(gen, b, g) == GroupElement(
                phi_sum(b, d, g), b % g.p
            )


@pytest.mark.parametrize("g", SMALL_GROUPS, ids=format_group_spec)
def test_phi_sum_cocycle(g):
    a_group = g.a_group
    for a in a_group.elements():
        for b in range(g.p + 1):
            for c in range(g.p + 1 - b):
                lhs = phi_sum(b + c, a, g)
                rhs = a_group.add(phi_sum(b, a, g), phi_apply(phi_sum(c, a, g), g, b))
                assert lhs == rhs


def test_matrix_sum_examples():
    assert matrix_sum(0, Z7) == 0
    assert matrix_sum(2, Z7) == 3
    p = 3
    s = pow(-2, -1, p)
    for b in range(p):
        assert matrix_sum(b, HEIS3) == ((b, s * b * (1 - b) % p), (0, b))
    # direct summation cross-check
    for b in range(p):
        acc = (0, 0)
        m = ((1, 0), (0, 1))
        total = ((0, 0), (0, 0))
        from pgmhsp.groups import mat_add, mat_mul

        for _ in range(b):
            total = mat_add(total, m, p)
            m = mat_mul(m, HEIS3.mu, p)
        assert matrix_sum(b, HEIS3) == total


def test_matrix_sum_binomial_entries():
    g = semidirect_jordan(5, (4,))
    for b in range(5):
        m = matrix_sum(b, g)
        for i in range(4):
            for j in range(4):
                expected = math.comb(b, j - i + 1) % 5 if j >= i else 0
                assert m[i][j] == expected


def _conjugated_jordan3(p: int):
    """S J S^-1 for the 3x3 Jordan block J and a fixed S of determinant 1."""
    s = ((1, 1, 0), (0, 1, 0), (2, 0, 1))
    s_inv = mat_pow(s, math.prod(p**3 - p**i for i in range(3)) - 1, p)  # |GL_3(F_p)|
    return semidirect_zpr(p, mat_mul(mat_mul(s, jordan_matrix(p, (3,)), p), s_inv, p))


@pytest.mark.parametrize(
    "g",
    [
        semidirect_jordan(3, (3,)),
        semidirect_jordan(5, (3,)),
        semidirect_jordan(3, (2, 1)),
        semidirect_jordan(2, (2,)),
        _conjugated_jordan3(5),
        semidirect_zn(31, 5, 2),
    ],
    ids=format_group_spec,
)
def test_msum_table_equals_power_sums(g):
    # the running sums against sum_{i<b} mu^i, each power computed on its own
    a = g.a_group
    for b, m in enumerate(msum_table(g)):
        if isinstance(a, CyclicGroup):
            expected = sum(pow(g.mu, i, a.n) for i in range(b)) % a.n
        else:
            expected = tuple((0,) * a.r for _ in range(a.r))
            for i in range(b):
                expected = mat_add(expected, mat_pow(g.mu, i, g.p), g.p)
        assert m == expected == matrix_sum(b, g)


@pytest.mark.parametrize(
    "g",
    [
        Z7,
        HEIS3,
        semidirect_jordan(5, (3,)),
        semidirect_jordan(3, (2, 1)),
        semidirect_jordan(2, (2,)),
        _conjugated_jordan3(5),
        semidirect_zn(31, 5, 2),
        semidirect_zn(15, 2, 14),
        semidirect_zn(31, 3, 5),
    ],
    ids=format_group_spec,
)
def test_matrix_sum_equals_running_sums(g):
    # doubling against the running sums M^(b+1) = M^(b) + mu^b, past b = p
    # (for Z_N, also against sum_{i<b} mu^i mod N with each power on its own)
    sums = _running_sums(g)
    for b in range(4 * g.p + 3):
        assert matrix_sum(b, g) == next(sums), b
        if isinstance(g.a_group, CyclicGroup):
            assert matrix_sum(b, g) == sum(pow(g.mu, i, g.a_group.n) for i in range(b)) % g.a_group.n
    with pytest.raises(ValueError):
        matrix_sum(-1, g)


def test_matrix_sum_at_large_p():
    # Heisenberg: M^(b) = ((b, b(b-1)/2), (0, b)) mod p, with no table of size p
    p = 999999937
    g = heisenberg_group(p)
    for b in (0, 1, 2, 12345, p - 2, p - 1, p, 3 * p + 7):
        assert matrix_sum(b, g) == ((b % p, b * (b - 1) // 2 % p), (0, b % p))


def _order_p_mu(n: int, p: int) -> int:
    phi = sum(1 for x in range(1, n) if math.gcd(x, n) == 1)
    assert phi % p == 0
    for a in range(2, n):
        if math.gcd(a, n) != 1:
            continue
        mu = pow(a, phi // p, n)
        if mu != 1 and pow(mu, p, n) == 1:
            return mu
    raise AssertionError(f"no order-{p} unit mod {n}")


@pytest.mark.parametrize(
    "g",
    [
        Z7,
        HEIS3,
        semidirect_zn(9, 3, 4),
        semidirect_jordan(5, (3,)),
        semidirect_zn(311, 31, _order_p_mu(311, 31)),
        semidirect_zn(59, 29, _order_p_mu(59, 29)),
    ],
    ids=format_group_spec,
)
def test_matrix_sum_doubling_identity(g):
    # M^(2b) = (I + mu^b) M^(b) on the literal sums, all b < p
    a_group = g.a_group
    for b in range(g.p):
        lhs = matrix_sum(2 * b, g)
        if isinstance(a_group, CyclicGroup):
            assert lhs == ((1 + pow(g.mu, b, a_group.n)) * matrix_sum(b, g)) % a_group.n
        else:
            from pgmhsp.groups import mat_add, mat_identity, mat_mul, mat_pow

            factor = mat_add(mat_identity(a_group.r), mat_pow(g.mu, b, g.p), g.p)
            assert lhs == mat_mul(factor, matrix_sum(b, g), g.p)


@pytest.mark.parametrize(
    "g",
    [
        Z7,
        semidirect_zn(100, 5, 21),  # 21^5 = 1 mod 100
        HEIS3,
        heisenberg_group(5),
        semidirect_jordan(3, (2, 1)),
    ],
    ids=format_group_spec,
)
def test_conjugation_identity_exhaustive(g):
    a_group = g.a_group
    assert a_group.order <= 121
    from pgmhsp.groups import conj_apply

    elems = list(a_group.elements())
    t = phase_table(a_group)
    for b in range(g.p):
        phi = [a_group.index(phi_sum(b, d, g)) for d in elems]
        conj = [a_group.index(conj_apply(b, x, g)) for x in elems]
        # t(x, Phi^(b)(d)) = t(conj_apply(b, x), d) for every x and d
        assert np.array_equal(t[:, phi], t[conj, :])


def test_character_examples():
    a7 = CyclicGroup(7)
    assert phase_indices(a7, np.int64(0), np.int64(5)) == 0
    assert phase_indices(a7, np.int64(3), np.int64(2)) == 6
    a52 = VectorGroup(5, 2)
    x, y = (np.int64(a52.index(v)) for v in ((1, 2), (3, 4)))
    assert phase_indices(a52, x, y) == 1


@pytest.mark.parametrize(
    "a_group",
    [CyclicGroup(100), CyclicGroup(121), VectorGroup(11, 2), VectorGroup(3, 4)],
)
def test_character_bilinearity_symmetry_exhaustive(a_group):
    assert a_group.order <= 121
    elems = list(a_group.elements())
    m = a_group.char_denominator
    t = phase_table(a_group)
    assert np.array_equal(t, t.T)
    # t(x, y + y2) = t(x, y) + t(x, y2) mod m for every x and y
    for j2, y2 in enumerate(elems[:7]):
        shifted = [a_group.index(a_group.add(y, y2)) for y in elems]
        assert np.array_equal(t[:, shifted], (t + t[:, [j2]]) % m)
    # chi_x * chi_x' = chi_{x+x'} pointwise on a slice
    for i, x in enumerate(elems[:11]):
        for i2, x2 in enumerate(elems[:11]):
            assert np.array_equal(t[a_group.index(a_group.add(x, x2))], (t[i] + t[i2]) % m)


def test_subgroup_order():
    assert subgroup_order(0, Z7) == 3
    for d in HEIS3.a_group.elements():
        assert subgroup_order(d, HEIS3) == 3
    g9 = semidirect_zn(9, 3, 4)
    assert subgroup_order(1, g9) == 9  # M^(3) * 1 = 3 != 0
    assert subgroup_order(3, g9) == 3
    # oracle: direct iteration
    gen = GroupElement(1, 1)
    current, order = gen, 1
    while current != g9.identity:
        current = element_mul(current, gen, g9)
        order += 1
    assert order == 9


def test_group_spec_grammar_roundtrip():
    for g in SMALL_GROUPS:
        assert parse_group_spec(format_group_spec(g)) == g
    assert parse_group_spec("zpr p=3 jordan=2") == HEIS3
    assert parse_group_spec("zpr p=3 jordan=2,1") == semidirect_jordan(3, (2, 1))
    assert is_heisenberg(parse_group_spec("zpr p=5 r=2 mu=1,1;0,1"))
    for bad in [
        "",
        "zq N=7 p=3 mu=2",
        "zn N=7 p=3",
        "zn N=7 p=3 mu=2 extra",
        "zn N=7 p=3 mu=2 mu=2",
        "zpr p=3 r=2 mu=1,1",
        "zpr p=3 r=2 mu=1,1;0,1;0,0",
    ]:
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_group_specs_reject_unknown_keys():
    # zn as zpr: a key the family does not read is an error, not ignored
    for spec, keys in [
        ("zn N=7 p=3 mu=2 r=9 jordan=2", "['jordan', 'r']"),
        ("zpr p=3 jordan=2 N=7", "['N']"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"unexpected keys {keys} in group spec")):
            parse_group_spec(spec)


def test_jordan_matrix_layout():
    assert jordan_matrix(5, (2, 1)) == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        jordan_matrix(5, ())


def _span(rows, p: int, r: int) -> set:
    """Every F_p combination of the rows: the zero vector closed under
    adding any row."""
    span, frontier = {(0,) * r}, [(0,) * r]
    while frontier:
        v = frontier.pop()
        for row in rows:
            w = tuple((a + b) % p for a, b in zip(v, row))
            if w not in span:
                span.add(w)
                frontier.append(w)
    return span


def _assert_reduced_echelon(rows, p: int) -> None:
    pivots = [next(i for i, c in enumerate(row) if c) for row in rows]  # no zero row
    assert pivots == sorted(set(pivots))
    for row, pivot in zip(rows, pivots):
        assert all(0 <= c < p for c in row) and row[pivot] == 1
        assert [other[pivot] for other in rows].count(0) == len(rows) - 1


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_row_reduce_against_span_enumeration(p, r):
    rng = random.Random(p * 10 + r)
    zero, unit = (0,) * r, tuple(int(i == 0) for i in range(r))
    inputs = [[], [zero], [zero, zero], [unit, unit, zero], [tuple(-c - p for c in unit)]]
    inputs += [mat_identity(r), mat_identity(r)[::-1]]  # already reduced, and its reverse
    for _ in range(40):
        rows = [tuple(rng.randrange(p) for _ in range(r)) for _ in range(rng.randrange(5))]
        inputs.append(rows + rows[: rng.randrange(len(rows) + 1)])  # with repeats
    for rows in inputs:
        reduced = row_reduce(rows, p)
        _assert_reduced_echelon(reduced, p)
        assert _span(reduced, p, r) == _span(rows, p, r)
        assert len(_span(reduced, p, r)) == p ** len(reduced)  # independent rows
        # the reduced form is canonical: it does not depend on the generators
        assert row_reduce(reduced, p) == reduced
        assert row_reduce(list(rows)[::-1], p) == reduced


def test_element_index_roundtrip():
    from pgmhsp.groups import element_index

    for g in (Z7, HEIS3):
        for i in range(g.order):
            assert element_index(element_from_index(i, g), g) == i
    a = HEIS3.a_group
    for i in range(a.order):
        assert a.index(a.element(i)) == i
    with pytest.raises(IndexError):
        a.element(a.order)
    with pytest.raises(ValueError):
        a.reduce((1, 2, 3))


def test_every_lru_cache_is_bounded():
    sizes = {}
    for info in pkgutil.iter_modules(pgmhsp.__path__):
        module = importlib.import_module(f"pgmhsp.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                sizes[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"groups.msum_table", "groups._phi_power", "msum._layers",
            "eta._phase_roots"} <= set(sizes)
    assert all(size is not None for size in sizes.values()), sizes


@pytest.mark.parametrize("spec", ["zn N=31 p=5 mu=2", "zpr p=3 jordan=3", "zpr p=3 r=2 mu=1,0;1,1"])
def test_group_hash_is_kept_and_consistent(spec):
    g, h = parse_group_spec(spec), parse_group_spec(spec)
    assert g is not h and g == h and hash(g) == hash(h)
    assert hash(g) == hash((g.a_group, g.p, g.mu))
    assert {g: 1}[h] == 1
    same = SemidirectGroup(g.a_group, g.p, g.mu)
    assert same == g and hash(same) == hash(g)
    # another generator of the same subgroup of automorphisms
    mu = pow(g.mu, 2, g.a_group.n) if isinstance(g.mu, int) else mat_pow(g.mu, 2, g.p)
    other = SemidirectGroup(g.a_group, g.p, mu)
    assert other != g and other.mu == mu
    assert hash(other) == hash((other.a_group, other.p, other.mu))
    with pytest.raises(AttributeError):
        g.p = 7


@pytest.mark.parametrize(
    "spec",
    ["zpr p=3 jordan=2", "zpr p=7 jordan=2", "zpr p=5 jordan=3", "zpr p=3 jordan=2,1",
     "zn N=31 p=5 mu=2"],
)
def test_phi_powers_from_the_cache_match_the_direct_formula(spec):
    # the formula phi_apply used before the cache, kept here as the oracle
    g = parse_group_spec(spec)
    a = g.a_group

    def direct(elem, power):
        if isinstance(a, CyclicGroup):
            return (pow(g.mu, power % g.p, a.n) * elem) % a.n
        return mat_vec(mat_pow(mat_transpose(g.mu), power % g.p, g.p), elem, g.p)

    rng = random.Random(spec)
    elems = list(a.elements())
    for b in range(g.p):
        if isinstance(a, CyclicGroup):
            assert _phi_power(g, b) == pow(g.mu, b, a.n)
        else:
            assert _phi_power(g, b) == mat_pow(mat_transpose(g.mu), b, g.p)
        for power in (b, b - g.p, b + 2 * g.p):
            for elem in rng.sample(elems, min(len(elems), 40)):
                assert phi_apply(elem, g, power) == direct(elem, power)
        for elem in rng.sample(elems, min(len(elems), 10)):
            x, y = GroupElement(elem, b), GroupElement(rng.choice(elems), rng.randrange(g.p))
            assert element_mul(x, y, g) == GroupElement(
                a.add(x.a, direct(y.a, x.b)), (x.b + y.b) % g.p)
            assert element_inv(x, g) == GroupElement(direct(a.neg(x.a), -b), -b % g.p)
