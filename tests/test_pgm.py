import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pgmhsp.groups import heisenberg_group, semidirect_zn
from pgmhsp.msum import eta_rows, eta_statistics
from pgmhsp.pgm import (
    POVM,
    PSD_TOL,
    UNITARITY_TOL,
    best_certified_lower_bound,
    build_neumark,
    build_pgm,
    lemma2_bounds,
    outcome_distribution,
    pgm_report,
    quantum_sample_vector,
    success_probability_formula,
    success_probability_trace,
    trivial_state_outcome_distribution,
    verify_optimality,
)
from pgmhsp.states import block_images

from oracles import (
    a_tuple_from_index,
    dense_element,
    dense_verify_optimality,
    hidden_subgroup_state,
    perturb_with_uniform,
    pgm_from_inverse_sqrt,
    simulate_neumark_outcomes,
    support_projector,
)

Z7 = semidirect_zn(7, 3, 2)
HEIS3 = heisenberg_group(3)
Z33 = semidirect_zn(3, 3, 1)  # abelian sanity case


@pytest.mark.parametrize("g,k", [(Z7, 1), (HEIS3, 1), (HEIS3, 2)])
def test_povm_validity(g, k):
    povm = build_pgm(k, g)
    total = np.zeros((g.order**k, g.order**k), dtype=complex)
    for j in g.a_group.elements():
        dense = dense_element(povm, j)
        assert np.abs(dense - dense.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(dense).min() > -PSD_TOL
        total += dense
    assert np.abs(total - support_projector(k, g)).max() < 1e-10


def test_pgm_matches_inverse_sqrt_route():
    for g, k in [(Z7, 1), (HEIS3, 1)]:
        povm = build_pgm(k, g)
        reference = pgm_from_inverse_sqrt(k, g)
        for ji, j in enumerate(g.a_group.elements()):
            assert np.abs(dense_element(povm, j) - reference[ji]).max() < 1e-10


def test_pgm_block_j0_x0_uniform():
    # j = 0 on the x = 0 block: rank one with uniform entries
    povm = build_pgm(1, Z7)
    vec = povm.factors[0, 0, :, 0]
    nonzero = vec[np.abs(vec) > 1e-14]
    assert np.allclose(nonzero, nonzero[0])


def test_success_probability_formula_values():
    assert success_probability_formula(1, Z7) == Fraction(19, 49)
    assert success_probability_formula(1, HEIS3) == Fraction(25, 81)
    f2 = success_probability_formula(2, HEIS3)
    assert isinstance(f2, float)
    assert f2 >= 2 / 9  # value claim from the quadratic eta analysis
    # success never exceeds p^k/|A|
    for g, k in [(Z7, 1), (HEIS3, 1), (HEIS3, 2), (Z33, 1)]:
        value = float(success_probability_formula(k, g))
        assert value <= g.p**k / g.a_group.order + 1e-12


def test_formula_vs_trace_all_order_p_labels():
    for g, k in [(Z7, 1), (Z33, 1), (HEIS3, 1), (HEIS3, 2)]:
        formula = float(success_probability_formula(k, g))
        for d in g.a_group.elements():
            assert abs(formula - success_probability_trace(k, g, d)) < 1e-10


def test_success_probability_independent_of_d():
    povm = build_pgm(1, Z7)
    values = set()
    for d in range(7):
        rho, _ = hidden_subgroup_state(d, 1, Z7)
        values.add(round(float(np.trace(dense_element(povm, d) @ rho).real), 12))
    assert len(values) == 1


def test_outcome_distribution_matches_dense_traces():
    for g, k, d in [(Z7, 1, 2), (HEIS3, 2, (1, 1))]:
        povm = build_pgm(k, g)
        rho, _ = hidden_subgroup_state(d, k, g)
        dist = outcome_distribution(k, g, d)
        for ji, j in enumerate(g.a_group.elements()):
            direct = float(np.trace(dense_element(povm, j) @ rho).real)
            assert abs(dist[ji] - direct) < 1e-10
        assert abs(dist.sum() - 1) < 1e-10


def test_povm_completeness_on_states():
    # sum_j tr(E_j rho) = 1 for ensemble states
    povm = build_pgm(1, Z7)
    for d in range(7):
        rho, _ = hidden_subgroup_state(d, 1, Z7)
        total = sum(
            float(np.trace(dense_element(povm, j) @ rho).real) for j in range(7)
        )
        assert abs(total - 1) < 1e-10


def test_trivial_state_distribution():
    probs, fail = trivial_state_outcome_distribution(2, HEIS3)
    assert np.allclose(probs, probs[0])
    assert 0 < fail < 1
    # against the dense maximally mixed state
    povm = build_pgm(2, HEIS3)
    dim = HEIS3.order**2
    rho = np.eye(dim) / dim
    direct = float(np.trace(dense_element(povm, (0, 0)) @ rho).real)
    assert abs(probs[0] - direct) < 1e-12
    assert abs(probs.sum() + fail - 1) < 1e-12


def test_lemma2_bounds_certified():
    stats = eta_statistics(Z7, 1)
    bracket = lemma2_bounds(1, Z7, 1, beta=Fraction(19, 49), stats=stats)
    assert bracket.lower == Fraction(19, 49) ** 2 * Fraction(7, 3)
    assert bracket.upper == Fraction(3, 7)
    value = success_probability_formula(1, Z7)
    assert bracket.lower <= value <= bracket.upper
    # alpha = 1 with the attained beta is always certified
    for g, k in [(Z7, 1), (HEIS3, 1), (HEIS3, 2)]:
        bracket = lemma2_bounds(k, g, 1)
        value = float(success_probability_formula(k, g))
        assert float(bracket.lower) <= value + 1e-12
        assert value <= float(bracket.upper) + 1e-12


def test_lemma2_rejects_uncertified_hypothesis():
    # the conditional-distribution beta = 1/2 - 1/(2p) is NOT met by the
    # unconditional histogram at small p
    with pytest.raises(ValueError):
        lemma2_bounds(2, HEIS3, 2, beta=Fraction(1, 3))
    with pytest.raises(ValueError):
        lemma2_bounds(2, heisenberg_group(5), 2, beta=Fraction(2, 5))


def test_lemma2_value_claims_p5():
    # the bracket endpoints quoted for p=5 do contain the true value
    value = float(success_probability_formula(2, heisenberg_group(5)))
    assert 8 / 25 <= value <= 1


def test_best_certified_lower_bound():
    bracket = best_certified_lower_bound(1, Z7)
    assert bracket.alpha == 1
    assert bracket.beta == Fraction(19, 49)
    bracket2 = best_certified_lower_bound(2, HEIS3)
    assert bracket2.lower >= Fraction(1, 4)  # comfortably above the generic floor


@pytest.mark.parametrize("g,k", [(Z7, 1), (HEIS3, 1), (HEIS3, 2)])
def test_optimality_conditions(g, k):
    report = verify_optimality(k, g)
    assert report.commutator_residual < 1e-8
    assert report.min_eig_margin > -1e-8
    assert report.passed


@pytest.mark.parametrize(
    "g,k,perturbed",
    [
        (Z7, 1, False),
        (HEIS3, 1, False),
        (HEIS3, 2, False),
        (semidirect_zn(9, 3, 4), 2, False),
        (Z7, 1, True),
    ],
    ids=["z7-1", "heis3-1", "heis3-2", "zn9-2", "z7-1-perturbed"],
)
def test_block_optimality_matches_dense_oracle(g, k, perturbed):
    povm = build_pgm(k, g)
    tested = perturb_with_uniform(povm, 0.5) if perturbed else povm
    block = verify_optimality(k, g, tested)
    dense = dense_verify_optimality(k, g, tested)
    assert abs(block.commutator_residual - dense.commutator_residual) < 1e-12
    assert abs(block.min_eig_margin - dense.min_eig_margin) < 1e-12
    assert block.passed == dense.passed == (not perturbed)
    for d in g.a_group.elements():
        rho, _ = hidden_subgroup_state(d, k, g)
        direct = np.einsum("ij,ji->", dense_element(povm, d), rho).real
        assert abs(success_probability_trace(k, g, d) - direct) < 1e-12


@pytest.mark.parametrize(
    "g,cap,bound_mib",
    [
        # one dense 729 x 729 complex matrix alone takes 8.1 MiB
        (HEIS3, None, 8),
        # a (|A|^k, |A|, p^k, p^k) complex stack alone takes 149 MiB
        (heisenberg_group(5), 20000, 96),
    ],
    ids=["heis3", "heis5"],
)
def test_pgm_report_heisenberg_k2_peak_memory(g, cap, bound_mib):
    tracemalloc.start()
    try:
        report = pgm_report(2, g, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.optimality.passed
    assert peak < bound_mib * 2**20


def test_pgm_report_builds_pgm_once(monkeypatch):
    from pgmhsp import pgm

    calls = []

    def counting_build_pgm(*args, **kwargs):
        calls.append(args)
        return build_pgm(*args, **kwargs)

    monkeypatch.setattr(pgm, "build_pgm", counting_build_pgm)
    report = pgm.pgm_report(1, HEIS3)
    assert len(calls) == 1
    assert report.consistent and report.optimality.passed
    # a prebuilt POVM is used as given
    povm = build_pgm(1, HEIS3)
    assert success_probability_trace(1, HEIS3, (0, 0), povm=povm) == report.pr_trace
    assert len(calls) == 1


def test_perturbed_povm_fails_optimality():
    povm = build_pgm(1, Z7)
    perturbed = perturb_with_uniform(povm, 0.5)
    # still a valid POVM ...
    total = np.zeros((21, 21), dtype=complex)
    for j in range(7):
        dense = dense_element(perturbed, j)
        assert np.linalg.eigvalsh(dense).min() > -PSD_TOL
        total += dense
    assert np.abs(total - support_projector(1, Z7)).max() < 1e-10
    # ... but no longer optimal
    report = verify_optimality(1, Z7, perturbed)
    assert not report.passed
    assert report.min_eig_margin < -1e-8


@pytest.mark.parametrize("g", [Z7, HEIS3], ids=["z7", "heis3"])
def test_optimality_margin_covers_every_outcome(g):
    # the PGM and its perturbation are covariant, so every j gives the same
    # margin; zeroing the last element breaks that and moves the minimum
    # to one j alone
    factors = build_pgm(1, g).factors.copy()
    factors[:, -1] = 0
    dropped = POVM(g, 1, factors)
    block = verify_optimality(1, g, dropped)
    dense = dense_verify_optimality(1, g, dropped)
    assert abs(block.min_eig_margin - dense.min_eig_margin) < 1e-12
    assert abs(block.commutator_residual - dense.commutator_residual) < 1e-12
    assert not block.passed


def test_neumark_unitarity_and_columns():
    a = HEIS3.a_group
    for xi in [0, 17, 80]:
        x = a_tuple_from_index(a, xi, 2)
        block = build_neumark(x, 2, HEIS3)
        u = block.unitary
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < UNITARITY_TOL
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < UNITARITY_TOL


def test_neumark_permutation_when_all_eta_one():
    # find an x whose 9 solutions hit 9 distinct w values
    eta = eta_rows(block_images(HEIS3, 2), 9)
    a = HEIS3.a_group
    xi = next(i for i in range(81) if eta[i].max() == 1)
    block = build_neumark(a_tuple_from_index(a, xi, 2), 2, HEIS3)
    u = block.unitary
    assert np.allclose(np.abs(u) * (np.abs(u) > 1e-12), np.abs(u))
    assert ((np.abs(u) > 1e-12).sum(axis=0) == 1).all()
    assert ((np.abs(u) > 1e-12).sum(axis=1) == 1).all()


def test_neumark_rectangular_case():
    # |A| = 7 > p^k = 3: completion columns pad the unitary
    block = build_neumark((2,), 1, Z7)
    u = block.unitary
    assert u.shape == (7, 7)
    assert np.abs(u @ u.conj().T - np.eye(7)).max() < 1e-10
    assert len(block.defined_columns) == 3
    assert len(block.completion_columns) == 4


@pytest.mark.parametrize("d", [(0, 0), (1, 1), (2, 1)])
def test_neumark_measurement_simulation(d):
    sim = simulate_neumark_outcomes(2, HEIS3, d)
    ref = outcome_distribution(2, HEIS3, d)
    assert np.abs(sim - ref).max() < 1e-10


def test_quantum_sample_vector():
    # eta = 1: single basis vector, postselection probability 1
    sample = quantum_sample_vector((1,), 3, 1, Z7)
    assert sample.eta == 1
    assert sample.postselection_probability == 1.0
    assert np.count_nonzero(np.abs(sample.vector) > 1e-14) == 1
    # eta = 0: zero vector
    sample = quantum_sample_vector((1,), 5, 1, Z7)
    assert sample.eta == 0
    assert np.linalg.norm(sample.vector) == 0
    assert sample.postselection_probability == 0.0
    # Heisenberg p=5 instance with eta = 2
    g5 = heisenberg_group(5)
    from pgmhsp.msum import MSumInstance, solve_bruteforce

    inst = MSumInstance(g5, ((1, 1), (1, 1)), (1, 1))
    oracle = solve_bruteforce(inst)
    assert oracle.eta == 2
    sample = quantum_sample_vector(inst.x, inst.w, 2, g5)
    assert sample.eta == 2
    assert sample.postselection_probability == 0.5
    nonzero = sample.vector[np.abs(sample.vector) > 1e-14]
    assert np.allclose(nonzero, 1 / math.sqrt(2))


def test_pgm_report_smoke():
    report = pgm_report(1, Z7)
    assert report.pr_formula_exact == Fraction(19, 49)
    assert report.consistent
    assert report.optimality.passed
    assert report.bracket.lower <= Fraction(19, 49) <= report.bracket.upper


def test_mixed_order_group_povm():
    # Z_9 x| Z_3 with mu=4 has <(j,1)> of order 9 for j a unit; the POVM
    # stays valid and formula/trace agreement holds on the order-3 labels
    from pgmhsp.groups import semidirect_zn, subgroup_order

    g9 = semidirect_zn(9, 3, 4)
    povm = build_pgm(1, g9)
    total = np.zeros((27, 27), dtype=complex)
    for j in range(9):
        dense = dense_element(povm, j)
        assert np.linalg.eigvalsh(dense).min() > -PSD_TOL
        total += dense
    assert np.abs(total - support_projector(1, g9)).max() < 1e-10
    formula = float(success_probability_formula(1, g9))
    order_p = [d for d in range(9) if subgroup_order(d, g9) == 3]
    assert order_p == [0, 3, 6]
    for d in order_p:
        assert abs(formula - success_probability_trace(1, g9, d)) < 1e-10


def test_neumark_upper_left_block_is_solution_isometry():
    a = HEIS3.a_group
    for xi in (3, 40):
        x = a_tuple_from_index(a, xi, 2)
        block = build_neumark(x, 2, HEIS3)
        for w in a.elements():
            sample = quantum_sample_vector(x, w, 2, HEIS3)
            if not sample.eta:
                continue
            wi = a.index(w)
            col = block.unitary[:9, wi]
            assert np.abs(col - sample.vector).max() < 1e-12
            assert wi in block.defined_columns
