"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from pgmhsp.groups import (
    CyclicGroup,
    GroupElement,
    conj_apply,
    element_inv,
    element_mul,
    heisenberg_group,
    mat_add,
    mat_identity,
    mat_mul,
    mat_pow,
    matrix_sum,
    phi_sum,
    semidirect_jordan,
    semidirect_zn,
    semidirect_zpr,
)
from pgmhsp.eta import eta_statistics, phase_indices
from pgmhsp.msum import (
    MSumInstance,
    solve_bruteforce,
    solve_metacyclic_dlog,
    solve_polynomial,
)
from pgmhsp.pgm import (
    lemma2_bounds,
    pgm_report,
    success_probability_formula,
)
from pgmhsp.pipeline import (
    coset_hiding_function,
    default_trial_budget,
    reduce_to_cyclic,
    run_pgm_hsp,
)
from pgmhsp.metacyclic import (
    estimate_success_rate,
    exact_success_rate,
    success_bound,
)

from oracles import (
    build_pgm,
    dense_element,
    group_elements,
    heisenberg_eta_distribution,
    hidden_subgroup_state,
    mean_block_outcome_law,
    perfect_state_overlap,
    perturb_with_uniform,
    quotient_well_defined,
    simulate_neumark_outcomes,
    solve_all_w,
    solve_heisenberg_closed_form,
    success_probability_trace,
    verify_optimality,
)

Z7 = semidirect_zn(7, 3, 2)
HEIS3 = heisenberg_group(3)

CRITERION_4_INSTANCES = [(Z7, 1), (HEIS3, 1), (HEIS3, 2)]


def test_criterion_01_heisenberg_eta_distribution():
    start = time.monotonic()
    for p in (3, 5, 7):
        dist = heisenberg_eta_distribution(p)
        expected = {
            0: Fraction(1, 2) - Fraction(1, 2 * p),
            1: Fraction(1, p),
            2: Fraction(1, 2) - Fraction(1, 2 * p),
        }
        assert dist == expected, (p, dist)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"\n[PASS] criterion 1: Heisenberg eta distribution exact for "
        f"p in {{3,5,7}} ({elapsed:.1f}s)"
    )


def _admissible_metacyclic(limit):
    for n in range(2, limit + 1):
        units = [x for x in range(1, n) if math.gcd(x, n) == 1]
        phi = len(units)
        primes = [q for q in range(2, phi + 1) if phi % q == 0
                  and all(q % r for r in range(2, q))]
        for p in primes:
            for mu in units:
                if pow(mu, p, n) == 1:
                    yield n, p, mu


def test_criterion_02_solver_equivalence():
    start = time.monotonic()
    # Heisenberg: the polynomial solver against the closed form, itself
    # checked against brute force; exhaustive at p=3
    for xs in itertools.product(range(3), repeat=4):
        for w in itertools.product(range(3), repeat=2):
            inst = MSumInstance(HEIS3, ((xs[0], xs[1]), (xs[2], xs[3])), w)
            closed = solve_heisenberg_closed_form(inst).solutions
            assert closed == solve_bruteforce(inst).solutions
            assert solve_polynomial(inst).solutions == closed
    # Heisenberg: 10^4 sampled instances per p
    rng = np.random.default_rng(1)
    for p in (3, 5, 7, 11):
        g = heisenberg_group(p)
        draws = rng.integers(0, p, size=(10_000, 6))
        for x1, y1, x2, y2, w, v in draws:
            inst = MSumInstance(
                g, ((int(x1), int(y1)), (int(x2), int(y2))), (int(w), int(v))
            )
            closed = solve_heisenberg_closed_form(inst).solutions
            assert closed == solve_bruteforce(inst).solutions
            assert solve_polynomial(inst).solutions == closed
    # metacyclic discrete log: exhaustive over admissible triples, N <= 50
    triple_count = 0
    for n, p, mu in _admissible_metacyclic(50):
        g = semidirect_zn(n, p, mu)
        triple_count += 1
        for x in range(n):
            for w in range(n):
                inst = MSumInstance(g, (x,), w)
                assert (
                    solve_metacyclic_dlog(inst).solutions
                    == solve_bruteforce(inst).solutions
                )
    assert triple_count > 50
    # polynomial solver on Jordan blocks: exhaustive where the population fits
    for p, r in ((3, 2), (5, 2), (3, 3)):
        g = semidirect_jordan(p, (r,))
        k = r
        a = g.a_group
        assert a.order ** (k + 1) <= 10**7
        elems = list(a.elements())
        for xi in itertools.product(elems, repeat=k):
            oracle = solve_all_w(g, xi)
            for w in elems:
                inst = MSumInstance(g, xi, w)
                expected = tuple(sorted(oracle.get(w, ())))
                assert solve_polynomial(inst).solutions == expected
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"\n[PASS] criterion 2: specialized solvers match brute force "
        f"(heisenberg, metacyclic x{triple_count} triples, polynomial) ({elapsed:.1f}s)"
    )


def test_criterion_03_moment_identities():
    start = time.monotonic()
    for p, r in ((3, 2), (5, 2), (3, 3)):
        stats = eta_statistics(semidirect_jordan(p, (r,)), r)
        assert stats.mean == 1
        assert stats.variance == 1 - Fraction(1, p**r)
        assert stats.probability_of(1) + stats.probability_of(2) >= Fraction(1, 4)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"\n[PASS] criterion 3: single-block moments mean=1, "
        f"var=1-p^-r, Pr(eta in {{1,2}}) >= 1/4 ({elapsed:.1f}s)"
    )


def test_criterion_04_formula_trace_agreement():
    start = time.monotonic()
    value = success_probability_formula(1, Z7)
    assert value == Fraction(19, 49)  # frozen after oracle confirmation
    for g, k in CRITERION_4_INSTANCES:
        formula = float(success_probability_formula(k, g))
        for d in g.a_group.elements():
            from pgmhsp.groups import subgroup_order

            assert subgroup_order(d, g) == g.p
            assert abs(formula - success_probability_trace(k, g, d)) < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        f"\n[PASS] criterion 4: |formula - trace| < 1e-10 on all order-p d; "
        f"Z7 value frozen at 19/49 ({elapsed:.1f}s)"
    )


def _assert_bracketed(bracket, value):
    if isinstance(value, Fraction):
        assert bracket.lower <= value <= bracket.upper
    else:
        assert float(bracket.lower) <= value + 1e-12
        assert value <= float(bracket.upper) + 1e-12


def test_criterion_05_lemma2_bracketing():
    for g, k in CRITERION_4_INSTANCES:
        stats = eta_statistics(g, k)
        value = success_probability_formula(k, g)
        brackets = []
        for alpha in sorted(eta for eta in stats.counts if eta >= 1):
            bracket = lemma2_bounds(k, g, alpha, stats=stats)
            assert bracket.beta == stats.probability_at_least(alpha)
            _assert_bracketed(bracket, value)
            brackets.append(bracket)
        # pgm_report certifies one of them from its own orbit walk, and it
        # brackets the report's own success probabilities
        report = pgm_report(k, g)
        assert report.bracket in brackets
        exact = report.pr_formula_exact
        _assert_bracketed(report.bracket, report.pr_formula if exact is None else exact)
        _assert_bracketed(report.bracket, report.pr_trace)
    print(
        "\n[PASS] criterion 5: alpha*beta^2*|A|/p^k <= Pr <= p^k/|A| for "
        "every histogram-certified (alpha, beta)"
    )


def test_criterion_06_optimality():
    for g, k in CRITERION_4_INSTANCES:
        report = verify_optimality(k, g)
        assert report.commutator_residual < 1e-8
        assert report.min_eig_margin >= -1e-8
        assert report.passed
        report = pgm_report(k, g)
        assert report.character_residual <= 1e-8
        assert report.passed
    control = verify_optimality(1, Z7, perturb_with_uniform(build_pgm(1, Z7), 0.5))
    assert not control.passed
    print(
        "\n[PASS] criterion 6: optimality conditions hold on all instances and "
        "pgm_report's character check passes; perturbed control fails"
    )


def test_criterion_07_neumark_consistency():
    a = HEIS3.a_group
    success = pgm_report(2, HEIS3).pr_trace
    for d in ((0, 0), (1, 1), (2, 1)):
        sim = simulate_neumark_outcomes(2, HEIS3, d)
        povm = build_pgm(2, HEIS3)
        rho, _ = hidden_subgroup_state(d, 2, HEIS3)
        for ji, j in enumerate(a.elements()):
            direct = float(np.trace(dense_element(povm, j) @ rho).real)
            assert abs(sim[ji] - direct) < 1e-10
        # the library's per-block outcome laws, averaged over x, and success probability
        assert np.abs(mean_block_outcome_law(2, HEIS3, d)[0] - sim).max() < 1e-10
        assert abs(sim[a.index(d)] - success) < 1e-10
    print(
        "\n[PASS] criterion 7: Neumark measurement simulation reproduces "
        "tr(E_j rho_d) to 1e-10 for 3 fixtures"
    )


def test_criterion_08_stripped_metacyclic():
    start = time.monotonic()
    rate = exact_success_rate(7, 3, 2)
    assert rate >= success_bound(7, 3)
    assert rate == Fraction(18, 49)  # frozen regression value
    for x in range(1, 7):
        for d in range(7):
            assert abs(perfect_state_overlap(7, 3, 2, d, x) - math.sqrt(3 / 7)) < 1e-12
    est = estimate_success_rate(7, 3, 2, 10_000, seed=20260809)
    lo, hi = est.interval
    assert lo <= float(rate) <= hi
    assert est.passed
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(
        f"\n[PASS] criterion 8: exact rate 18/49 >= bound, overlaps sqrt(3/7), "
        f"10^4-trial estimate {est.rate:.4f} brackets the exact rate ({elapsed:.1f}s)"
    )


def test_criterion_09_end_to_end_hsp():
    start = time.monotonic()
    budget_z7 = default_trial_budget(1, Z7, eta_statistics(Z7, 1))
    for d in range(7):
        f = coset_hiding_function(Z7, hidden=d)
        result = run_pgm_hsp(f, Z7, 1, trials=budget_z7, seed=1000 + d)
        assert result.answer.cyclic_d == d, (d, result.answer)
    budget_heis = default_trial_budget(2, HEIS3, eta_statistics(HEIS3, 2))
    for d in HEIS3.a_group.elements():
        f = coset_hiding_function(HEIS3, hidden=d)
        result = run_pgm_hsp(f, HEIS3, 2, trials=budget_heis, seed=53)
        assert result.answer.cyclic_d == d, (d, result.answer)
    for g, k in ((Z7, 1), (HEIS3, 2)):
        f = coset_hiding_function(g)
        assert run_pgm_hsp(f, g, k, trials=20, seed=7).answer.is_trivial
    # reduction control fixtures: quotient maps are well defined
    z4 = semidirect_zn(4, 2, 1)
    f4 = coset_hiding_function(z4, generators=[GroupElement(2, 0)])
    red4 = reduce_to_cyclic(f4, z4).reduced
    assert red4 is not None and quotient_well_defined(f4, z4, red4)
    z22 = semidirect_zpr(2, ((0, 1), (1, 0)))
    f22 = coset_hiding_function(z22, generators=[GroupElement((1, 1), 0)])
    red22 = reduce_to_cyclic(f22, z22).reduced
    assert red22 is not None and quotient_well_defined(f22, z22, red22)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"\n[PASS] criterion 9: every planted subgroup recovered within the "
        f"default budget (Z7: {budget_z7}, Heisenberg: {budget_heis}); trivial "
        f"and reduction fixtures pass ({elapsed:.1f}s)"
    )


def test_criterion_10_property_suites():
    start = time.monotonic()
    # group axioms, exhaustive, |G| <= 200
    axiom_groups = [
        Z7,
        HEIS3,
        semidirect_zn(9, 3, 4),
        semidirect_zn(15, 2, 14),
        semidirect_zpr(2, ((0, 1), (1, 0))),
        semidirect_jordan(3, (2, 1)),
    ]
    for g in axiom_groups:
        assert g.order <= 200
        elems = list(group_elements(g))
        index = {e: i for i, e in enumerate(elems)}
        mtab = [[index[element_mul(a, b, g)] for b in elems] for a in elems]
        for a in elems:
            assert element_mul(a, element_inv(a, g), g) == g.identity
        for i in range(len(elems)):
            for j in range(len(elems)):
                ij = mtab[i][j]
                for k_ in range(len(elems)):
                    assert mtab[ij][k_] == mtab[i][mtab[j][k_]]
    # character bilinearity and symmetry, |A| <= 121, as exact congruences
    # between phase indices modulo char_denominator over all A-index pairs
    def phase_table(a_group):
        assert [a_group.index(e) for e in a_group.elements()] == list(range(a_group.order))
        idx = np.arange(a_group.order, dtype=np.int64)
        return phase_indices(a_group, idx[:, None], idx[None, :])

    for a_group in (CyclicGroup(100), semidirect_zpr(11, mat_identity(2)).a_group):
        elems = list(a_group.elements())
        assert len(elems) <= 121
        t = phase_table(a_group)
        assert np.array_equal(t, t.T)
        shifted = [a_group.index(a_group.add(y, elems[7])) for y in elems]
        assert np.array_equal(t[:, shifted], (t + t[:, [7]]) % a_group.char_denominator)
    # conjugation identity, |A| <= 121
    for g in (Z7, semidirect_zn(100, 5, 21), HEIS3, heisenberg_group(5)):
        a_group = g.a_group
        assert a_group.order <= 121
        elems = list(a_group.elements())
        t = phase_table(a_group)
        for b in range(g.p):
            phi = [a_group.index(phi_sum(b, d, g)) for d in elems]
            conj = [a_group.index(conj_apply(b, x, g)) for x in elems]
            assert np.array_equal(t[:, phi], t[conj, :])
    # partition: sum_w eta^x_w = p^k
    for g, k in [(Z7, 1), (Z7, 2), (HEIS3, 2)]:
        for xi in itertools.product(list(g.a_group.elements()), repeat=k):
            buckets = solve_all_w(g, tuple(xi))
            assert sum(len(v) for v in buckets.values()) == g.p**k
    # doubling identity up to p = 31
    mu31 = next(
        pow(a, 310 // 31, 311)
        for a in range(2, 311)
        if pow(a, 310 // 31, 311) != 1
    )
    doubling_groups = [Z7, HEIS3, semidirect_zn(9, 3, 4), semidirect_zn(311, 31, mu31)]
    for g in doubling_groups:
        for b in range(g.p):
            lhs = matrix_sum(2 * b, g)
            if isinstance(g.a_group, CyclicGroup):
                n = g.a_group.n
                assert lhs == ((1 + pow(g.mu, b, n)) * matrix_sum(b, g)) % n
            else:
                factor = mat_add(
                    mat_identity(g.a_group.r), mat_pow(g.mu, b, g.p), g.p
                )
                assert lhs == mat_mul(factor, matrix_sum(b, g), g.p)
    elapsed = time.monotonic() - start
    print(
        f"\n[PASS] criterion 10: axioms, characters, conjugation, partition, "
        f"and doubling identities all exhaustive with zero failures ({elapsed:.1f}s)"
    )
