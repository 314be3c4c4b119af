import math
import pathlib
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pgmhsp import eta as eta_module
from pgmhsp import pgm
from pgmhsp.caps import CapExceeded
from pgmhsp.eta import EtaStats, eta_rows, eta_statistics, fft_over_a, index_digits, phase_indices
from pgmhsp.groups import heisenberg_group, parse_group_spec, semidirect_jordan, semidirect_zn
from pgmhsp.pgm import (
    best_certified_lower_bound,
    lemma2_bounds,
    pgm_report,
    success_probability_formula,
)

import oracles
from oracles import (
    POVM,
    PSD_TOL,
    TABLE_CASES,
    UNITARITY_TOL,
    a_tuple_from_index,
    block_images,
    build_neumark,
    build_pgm,
    dense_element,
    dense_row_check,
    dense_verify_optimality,
    eta_histogram_all_x,
    hidden_subgroup_state,
    least_eigenvalues,
    mean_block_outcome_law,
    minus_loop,
    outcome_distribution_all_x,
    perturb_with_uniform,
    pgm_from_inverse_sqrt,
    quantum_sample_vector,
    simulate_neumark_outcomes,
    squarefree_split,
    success_probability_decimal,
    success_probability_formula_all_x,
    success_probability_trace,
    support_projector,
    verify_optimality,
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


# the table groups plus a composite N with four divisor classes and a
# Z_p^3 group that is not a single Jordan block
ORBIT_SUM_CASES = TABLE_CASES + [
    (spec, k)
    for spec in ("zn N=21 p=3 mu=4", "zpr p=3 r=3 mu=1,1,0;0,1,0;0,0,1")
    for k in (1, 2, 3)
]


def test_square_parts_match_trial_division():
    from pgmhsp.pgm import _square_parts

    c, s = _square_parts(np.arange(2001))
    assert (c[0], s[0]) == (0, 0)
    assert list(zip(c[1:].tolist(), s[1:].tolist())) == [squarefree_split(n) for n in range(1, 2001)]


def test_formula_square_parts_follow_the_rows_walked():
    # p^k = 17161 is 65 times |A| = 263, yet the formula's peak stays within
    # 10 % of the orbit walk's own; a (c, s) table over 0..p^k added 25 %
    g = parse_group_spec("zn N=263 p=131 mu=4")
    success_probability_formula(2, g)  # fills the walk's caches

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def walk():
        for weights, eta in eta_module.eta_orbits(g, 2):
            del weights, eta

    assert peak(walk) > 2**20
    assert peak(lambda: success_probability_formula(2, g)) < 1.1 * peak(walk)


@pytest.mark.parametrize("spec,k", ORBIT_SUM_CASES)
def test_orbit_formula_matches_all_x_oracle(spec, k):
    g = parse_group_spec(spec)
    value = success_probability_formula(k, g)
    reference = success_probability_formula_all_x(k, g)
    assert type(value) is type(reference)
    if isinstance(reference, Fraction):
        assert value == reference
    else:
        assert abs(Decimal(value) - success_probability_decimal(k, g)) < Decimal("1e-15")


@pytest.mark.parametrize("spec,k", ORBIT_SUM_CASES)
def test_orbit_outcome_law_matches_all_x_oracle(spec, k):
    g = parse_group_spec(spec)
    a = g.a_group
    for d in (a.zero, a.element(a.order - 1)):
        law = mean_block_outcome_law(k, g, d)[0]
        assert np.abs(law - outcome_distribution_all_x(k, g, d)).max() < 1e-12


@pytest.mark.parametrize("spec,k", [("zn N=21 p=3 mu=4", 3), ("zpr p=3 jordan=3", 3)])
def test_formula_and_outcome_law_walk_the_orbit_rows(monkeypatch, spec, k):
    g = parse_group_spec(spec)
    rows = []
    image_table = eta_module.image_table

    def counting_image_table(g, xs, *args):
        rows.append(len(xs))
        return image_table(g, xs, *args)

    monkeypatch.setattr(eta_module, "image_table", counting_image_table)
    success_probability_formula(k, g)
    assert sum(rows) == eta_module.orbit_rows(g.a_group, k)


@pytest.mark.parametrize("k", [4, -1])
def test_formula_checks_caps_before_its_square_table(monkeypatch, k):
    # the (c, s) table is sized p^k, so an over-cap or invalid k must be
    # refused before it is built
    def fail(m):
        raise AssertionError("square table built before the cap check")

    monkeypatch.setattr(pgm, "_square_parts", fail)
    with pytest.raises(CapExceeded if k > 0 else ValueError):
        success_probability_formula(k, HEIS3, enumeration_cap=3**4 - 1)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "label,g",
    [
        ("Heisenberg | 3", heisenberg_group(3)),
        ("Heisenberg | 5", heisenberg_group(5)),
        ("`jordan=3` | 3", semidirect_jordan(3, (3,))),
    ],
    ids=["heisenberg-3", "heisenberg-5", "jordan3-3"],
)
def test_readme_headline_rows_match_all_x_oracle(label, g):
    # each cell is "Pr_success (certified lower bound)" to four places, bold at
    # k = r
    row = next(line for line in README.read_text().splitlines() if line.startswith(f"| {label} |"))
    cells = [cell.strip("* ") for cell in row.split("|")[3:-1]]
    for k, cell in enumerate(cells, start=1):
        value = float(success_probability_formula_all_x(k, g))
        stats = EtaStats(eta_histogram_all_x(g, k), g.a_group.order ** (k + 1), "exhaustive")
        lower = float(best_certified_lower_bound(k, g, stats).lower)
        assert re.fullmatch(r"\d\.\d{4} \(\d\.\d{4}\)", cell), cell
        assert cell == f"{value:.4f} ({lower:.4f})"


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
        dist = mean_block_outcome_law(k, g, d)[0]
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
    probs, fail = mean_block_outcome_law(2, HEIS3)
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
    "g,bound_mib",
    [
        # one dense 729 x 729 complex matrix alone takes 8.1 MiB
        (HEIS3, 8),
        # a (|A|^k, |A|, p^k, p^k) complex stack alone takes 149 MiB
        (heisenberg_group(5), 96),
        # the block route peaked at 606 MB of RSS
        (heisenberg_group(7), 16),
    ],
    ids=["heis3", "heis5", "heis7"],
)
def test_pgm_report_heisenberg_k2_peak_memory(g, bound_mib):
    tracemalloc.start()
    try:
        report = pgm_report(2, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < bound_mib * 2**20


def test_pgm_report_calls_no_block_route(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("pgm_report entered the block route")

    # the block route stays the checker of a POVM a caller supplies, used as given
    povm = build_pgm(2, HEIS3)
    monkeypatch.setattr(oracles, "build_pgm", fail)
    trace = success_probability_trace(2, HEIS3, (0, 0), povm=povm)
    # pgm_report reads the orbit rows alone, never an image table over all of A^k
    for name in ("block_images", "build_pgm", "success_probability_trace", "verify_optimality"):
        assert not hasattr(pgm, name), name
    rows = []
    image_table = eta_module.image_table

    def counting_image_table(g, xs, *args):
        rows.append(len(xs))
        return image_table(g, xs, *args)

    monkeypatch.setattr(eta_module, "image_table", counting_image_table)
    report = pgm.pgm_report(2, HEIS3)
    assert sum(rows) == eta_module.orbit_rows(HEIS3.a_group, 2)
    assert abs(report.pr_formula - report.pr_trace) < 1e-10 and report.passed
    assert abs(trace - report.pr_trace) < 1e-12


# the pgm-report cases of the benchmark's report workload (bench/workloads.py)
REPORT_CASES = [
    ("zn N=7 p=3 mu=2", 1),
    ("zn N=9 p=3 mu=4", 1),
    ("zn N=31 p=5 mu=2", 1),
    ("zpr p=3 jordan=2", 1),
    ("zpr p=5 jordan=2", 1),
    ("zpr p=3 jordan=3", 1),
    ("zpr p=7 jordan=2", 1),
    ("zn N=7 p=3 mu=2", 2),
    ("zn N=9 p=3 mu=4", 2),
    ("zpr p=3 jordan=2", 2),
]


@pytest.mark.parametrize("spec,k", sorted(set(TABLE_CASES + REPORT_CASES)))
def test_pgm_report_matches_block_route(spec, k):
    g = parse_group_spec(spec)
    # pgm_report under its default caps; 20_000 raises the block route's own
    # guard on |G|^k, for zpr p=3 jordan=2 at k = 3 (|G|^k = 19683) among others
    report = pgm_report(k, g)
    povm = build_pgm(k, g, 20_000)
    block = verify_optimality(k, g, povm, 20_000)
    rows = dense_row_check(k, g).optimality
    assert abs(report.pr_trace - success_probability_trace(k, g, g.a_group.zero, povm=povm)) < 1e-12
    assert abs(rows.commutator_residual - block.commutator_residual) < 1e-10
    assert abs(rows.min_eig_margin - block.min_eig_margin) < 1e-10
    assert report.passed and rows.passed and block.passed
    formula = success_probability_formula(k, g)
    assert report.pr_formula == float(formula)
    assert report.pr_formula_exact == (formula if isinstance(formula, Fraction) else None)
    assert report.bracket == best_certified_lower_bound(k, g, eta_statistics(g, k))


@pytest.mark.parametrize(
    "spec,k",
    TABLE_CASES + [("zpr p=7 jordan=2", 2), ("zn N=1019 p=509 mu=4", 1)],
)
def test_dense_rows_pin_the_derivation(spec, k):
    # on every orbit row T^x = sum_w lambda_w |u_w><u_w| with lambda_w =
    # S sqrt(eta_w) / |G|^k, Hermitian, with every margin 0: the optimality
    # pgm_report derives instead of computing per row
    g = parse_group_spec(spec)
    rows = dense_row_check(k, g)
    assert rows.optimality.commutator_residual <= 1e-12
    assert rows.largest_margin <= 1e-12
    assert rows.closed_form_residual <= 1e-12
    assert abs(pgm_report(k, g).pr_trace - rows.trace) <= 1e-12


@pytest.mark.parametrize("g,k", [(HEIS3, 2), (semidirect_zn(9, 3, 4), 2)], ids=["heis3", "zn9"])
def test_pgm_report_fails_a_scaled_pgm_vector(monkeypatch, g, k):
    # the dense per-row check reads the vectors it is given: scaling one
    # outcome's e^x_j by 1.1 must fail it, so it is not true by construction
    assert dense_row_check(k, g).optimality.passed
    vectors = oracles.row_vectors

    def scaled(*args):
        e, v = vectors(*args)
        e[:, 1] *= 1.1
        return e, v

    monkeypatch.setattr(oracles, "row_vectors", scaled)
    assert not dense_row_check(k, g).optimality.passed


def _negated(a, w, j):
    return -phase_indices(a, w, j) % a.char_denominator


def _reversed_j(a, w, j):
    digits = index_digits(j, a.p, a.r)[..., ::-1]
    return phase_indices(a, w, digits @ a.p ** np.arange(a.r - 1, -1, -1))


def _transposed(a, values, norm=None):
    out = fft_over_a(a, values, norm)
    return out.reshape(*out.shape[:-1], *(a.p,) * a.r).swapaxes(-1, -2).reshape(out.shape)


@pytest.mark.parametrize(
    "spec,name,mutant",
    [
        ("zpr p=3 jordan=2", "phase_indices", _negated),
        ("zn N=9 p=3 mu=4", "phase_indices", _negated),
        ("zpr p=3 jordan=2", "phase_indices", _reversed_j),
        ("zpr p=3 jordan=2", "fft_over_a", _transposed),
    ],
    ids=["negated-heis3", "negated-zn9", "reversed-j-heis3", "transposed-fft-heis3"],
)
def test_pgm_report_fails_a_phase_fault(monkeypatch, spec, name, mutant):
    # each fault in the characters the derivation rests on must fail the
    # report's check; the per-row dense check passed the first two
    g = parse_group_spec(spec)
    assert pgm_report(2, g).passed
    monkeypatch.setattr(pgm, name, mutant)
    report = pgm_report(2, g)
    assert not report.passed
    assert report.character_residual > 0.01


@pytest.mark.parametrize("spec", sorted({spec for spec, _ in TABLE_CASES}))
def test_minus_matches_the_element_loop(spec):
    a = parse_group_spec(spec).a_group
    for i in sorted({0, 1, a.order // 2, a.order - 1}):
        shifts = pgm._minus(a, a.element(i))
        assert shifts.dtype == np.int64 and not shifts.flags.writeable
        assert shifts.tolist() == minus_loop(a, a.element(i))


def _downdate_case(rng, n, m, lam=None, zero=()):
    """(lam, c, matrices): a random Hermitian H = Q diag(lam) Q^dagger and
    m vectors v with z = Q^dagger v, zeroed at the indices ``zero``."""
    if lam is None:
        lam = rng.normal(size=n)
    lam = np.sort(np.asarray(lam, dtype=float))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    z = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    z[:, list(zero)] = 0
    h = q @ np.diag(lam) @ q.conj().T
    vs = z @ q.T
    return lam, np.abs(z) ** 2, [h - np.outer(v, v.conj()) for v in vs]


@pytest.mark.parametrize(
    "lam,zero",
    [
        (None, ()),
        ([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0], ()),  # repeated eigenvalues
        ([-1.0, -1.0, 0.5, 0.5, 0.5, 2.0], (0, 1)),  # a deflated repeated least one
        (None, (0, 2, 3)),  # vanishing z-components
        ([0.0, 0.0, 1e-12, 3.0, 3.0, 7.0], (0, 3)),
    ],
    ids=["random", "repeated", "deflated-repeated", "zero-z", "tiny-gap"],
)
def test_least_eigenvalues_match_eigvalsh(lam, zero):
    rng = np.random.default_rng(7)
    for trial in range(20):
        lams, c, mats = _downdate_case(rng, 6, 5, lam, zero)
        with np.errstate(all="raise"):
            got = least_eigenvalues(lams[None], c[None])[0]
        want = [np.linalg.eigvalsh(mat).min() for mat in mats]
        assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(lams).max() + c.sum(axis=1).max())


def test_least_eigenvalue_of_an_exact_zero_margin():
    # sum_i c_i / lam_i = 1 puts a root at 0; the c = 0 at lam = 0 deflates
    lam = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    c = np.array([0.0, 0.125, 0.25, 0.5, 1.0])
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    v = q @ np.sqrt(c)
    want = np.linalg.eigvalsh(q @ np.diag(lam) @ q.conj().T - np.outer(v, v.conj())).min()
    with np.errstate(all="raise"):
        got = least_eigenvalues(lam[None], c[None, None])[0, 0]
    assert got == 0.0
    assert abs(want) < 1e-14
    # the root alone, without the deflated pole at 0
    with np.errstate(all="raise"):
        assert abs(least_eigenvalues(lam[None, 1:], c[None, None, 1:])[0, 0]) < 1e-15


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
    ref = mean_block_outcome_law(2, HEIS3, d)[0]
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
    assert abs(report.pr_formula - report.pr_trace) < 1e-10
    assert report.passed
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
