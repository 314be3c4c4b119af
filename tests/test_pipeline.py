import random

import numpy as np
import pytest

from pgmhsp import eta, pgm, pipeline
from pgmhsp.caps import CapExceeded
from pgmhsp.eta import eta_statistics
from pgmhsp.groups import (
    CyclicGroup,
    GroupElement,
    heisenberg_group,
    parse_group_spec,
    semidirect_jordan,
    semidirect_zn,
    semidirect_zpr,
)
from pgmhsp.pipeline import (
    HidingFunction,
    SubgroupDescription,
    abelian_hsp_solve,
    check_h1_normal,
    coset_hiding_function,
    default_trial_budget,
    detect_trivial_vs_order_p,
    reduce_to_cyclic,
    run_pgm_hsp,
    solve_hsp,
    subgroup_closure,
)

from oracles import (
    eager_coset_labels,
    element_index,
    group_elements,
    h1_normal_by_saturation,
    outcome_distribution_all_x,
    quotient_well_defined,
    subgroups_of_a,
)

Z7 = semidirect_zn(7, 3, 2)
HEIS3 = heisenberg_group(3)
Z42 = semidirect_zn(4, 2, 1)  # abelian control
Z22 = semidirect_zpr(2, ((0, 1), (1, 0)))  # swap automorphism


def test_hiding_function_labels_cosets():
    f = coset_hiding_function(Z7, hidden=2)
    h = subgroup_closure([GroupElement(2, 1)], Z7)
    assert len(h) == 3
    # constant on cosets, distinct across cosets
    labels = {}
    for g in group_elements(Z7):
        labels.setdefault(f(g.a, g.b), set()).add(g)
    assert len(labels) == 21 // 3
    for members in labels.values():
        assert len(members) == 3
    assert f.hidden_d == 2


@pytest.mark.parametrize(
    "g,kwargs",
    [
        (Z7, {"hidden": 2}),
        (HEIS3, {"hidden": (1, 2)}),
        (semidirect_jordan(3, (3,)), {"hidden": (0, 1, 2)}),
        (Z7, {}),
        (HEIS3, {}),
        (semidirect_zn(8, 2, 3), {"generators": [GroupElement(2, 0)]}),
        (HEIS3, {"generators": [GroupElement((1, 0), 0)]}),
        (Z22, {"generators": [GroupElement((1, 1), 0), GroupElement((0, 0), 1)]}),
    ],
    ids=["z7-planted", "heis3-planted", "jordan3-planted", "z7-trivial", "heis3-trivial",
         "z8-generators", "heis3-nonnormal", "z22-generators"],
)
def test_lazy_labels_match_eager_labelling(g, kwargs):
    f = coset_hiding_function(g, **kwargs)
    gens = [GroupElement(kwargs["hidden"], 1)] if "hidden" in kwargs else kwargs.get("generators", [])
    eager = eager_coset_labels(g, subgroup_closure(gens, g))
    # every element twice, in a shuffled order: the same partition of G
    elements = list(group_elements(g))
    order = elements + random.Random(5).sample(elements, len(elements))
    assert_same_partition([f(e.a, e.b) for e in order], [eager[e] for e in order])
    assert f.queries == len(order)


def assert_same_partition(labels, reference):
    """Two labellings of the same elements agree as equality relations."""
    pairs = set(zip(labels, reference))
    assert len(pairs) == len(set(labels)) == len(set(reference))


@pytest.mark.parametrize(
    "spec",
    ["zn N=7 p=3 mu=2", "zn N=4 p=2 mu=1", "zn N=8 p=2 mu=3", "zn N=12 p=2 mu=5",
     "zn N=9 p=3 mu=4", "zpr p=3 jordan=2", "zpr p=3 jordan=3", "zpr p=3 jordan=2,1",
     "zpr p=2 jordan=2,1", "zpr p=2 r=2 mu=0,1;1,0"],
)
def test_coset_labels_and_hidden_d_on_random_generator_sets(spec):
    # seeded random generator sets, from none to three: the oracle's labels
    # partition G into the left cosets of their closure, and hidden_d is the
    # least-index (d, 1) in it (None when the closure lies in A)
    g = parse_group_spec(spec)
    rng = random.Random(spec)
    elements = list(group_elements(g))
    for _ in range(12):
        gens = rng.sample(elements, rng.randrange(4))
        f = coset_hiding_function(g, generators=gens)
        closure = subgroup_closure(gens, g)
        eager = eager_coset_labels(g, closure)
        assert_same_partition([f(e.a, e.b) for e in elements], [eager[e] for e in elements])
        hits = [elem for elem in closure if elem.b == 1]
        expected = min(hits, key=lambda e: element_index(e, g)).a if hits else None
        assert f.hidden_d == expected, gens


def test_planted_fixture_and_abelian_stage_cost_about_one_product_per_query(monkeypatch):
    # the closure of <(d, 1)> (p products) and the table of p shifts (p - 1),
    # and no product per query: at most 3p element products whatever |A|,
    # where one product per query took |A| + 2p and building each queried
    # coset about |A| p
    g = parse_group_spec("zn N=1019 p=509 mu=4")
    calls = []
    element_mul = pipeline.element_mul

    def counting_element_mul(*args):
        calls.append(None)
        return element_mul(*args)

    monkeypatch.setattr(pipeline, "element_mul", counting_element_mul)
    f = coset_hiding_function(g, hidden=7)
    h1 = abelian_hsp_solve(f, g)
    assert h1.is_trivial and f.hidden_d == 7 and f.queries == 1019
    assert len(calls) <= 3 * 509


def test_hiding_function_query_counter():
    f = coset_hiding_function(Z7, hidden=1)
    assert f.queries == 0
    f(0, 0)
    f(1, 2)
    assert f.queries == 2


def test_abelian_hsp_solve_examples():
    # injective on A: trivial H1
    f = coset_hiding_function(Z7, hidden=1)  # H = <(1,1)> meets A trivially
    h1 = abelian_hsp_solve(f, Z7)
    assert h1.is_trivial
    # A = Z_8, f constant on <2>-cosets
    g8 = semidirect_zn(8, 2, 3)
    f8 = coset_hiding_function(g8, generators=[GroupElement(2, 0)])
    before = f8.queries
    h1 = abelian_hsp_solve(f8, g8)
    assert f8.queries - before == 8  # exactly |A| queries
    assert h1.order == 4
    assert h1.generators == (GroupElement(2, 0),)
    # A = Z_5^2 hiding span{(1,2)}
    g52 = semidirect_zpr(5, ((1, 0), (0, 1)))
    f52 = coset_hiding_function(g52, generators=[GroupElement((1, 2), 0)])
    h1 = abelian_hsp_solve(f52, g52)
    assert h1.order == 5
    closure = {e.a for e in subgroup_closure(h1.generators, g52)}
    expected = {tuple((t * 1 % 5, t * 2 % 5)) for t in range(5)}
    assert closure == expected


def test_check_h1_normal():
    # trivial H1 is normal
    f = coset_hiding_function(Z7, hidden=1)
    assert check_h1_normal(abelian_hsp_solve(f, Z7), Z7)
    # any subgroup of Z_N is mu-invariant
    g8 = semidirect_zn(8, 2, 3)
    f8 = coset_hiding_function(g8, generators=[GroupElement(2, 0)])
    assert check_h1_normal(abelian_hsp_solve(f8, g8), g8)
    # Heisenberg: span{(0,1)} is invariant, span{(1,0)} is not
    f_inv = coset_hiding_function(HEIS3, generators=[GroupElement((0, 1), 0)])
    assert check_h1_normal(abelian_hsp_solve(f_inv, HEIS3), HEIS3)
    f_non = coset_hiding_function(HEIS3, generators=[GroupElement((1, 0), 0)])
    assert not check_h1_normal(abelian_hsp_solve(f_non, HEIS3), HEIS3)
    # a generator list with zeros and repeats spans the same A1
    invariant = [GroupElement(a, 0) for a in [(0, 1), (0, 0), (0, 2), (0, 1)]]
    assert check_h1_normal(SubgroupDescription(tuple(invariant), 3), HEIS3)
    moved = [GroupElement(a, 0) for a in [(1, 0), (2, 0), (0, 0)]]
    assert not check_h1_normal(SubgroupDescription(tuple(moved), 3), HEIS3)
    f = coset_hiding_function(HEIS3, generators=invariant)
    h1 = abelian_hsp_solve(f, HEIS3)
    assert h1.generators == (GroupElement((0, 1), 0),) and h1.order == 3


@pytest.mark.parametrize(
    "spec",
    ["zpr p=3 jordan=2", "zpr p=3 jordan=3", "zpr p=3 jordan=2,1", "zpr p=2 jordan=2,1",
     "zn N=8 p=2 mu=3", "zn N=12 p=2 mu=5", "zn N=31 p=5 mu=2"],
)
def test_check_h1_normal_matches_saturation_on_every_subgroup(spec):
    # the rank (Z_p^r) or divisibility (Z_N) test against building A1 by
    # saturation, for every A1 <= A, from a minimal generator list and from
    # all of A1 (maximally redundant); over F_2 a Jordan block longer than 2
    # has mu^2 != I, so jordan=2,1 is the rank-3 case at p = 2
    g = parse_group_spec(spec)
    verdicts = []
    for a1, gens in subgroups_of_a(g).items():
        for generators in (gens, tuple(sorted(a1))):
            h1 = SubgroupDescription(tuple(g.element(a, 0) for a in generators), len(a1))
            verdicts.append(check_h1_normal(h1, g))
            assert verdicts[-1] == h1_normal_by_saturation(h1, g), (a1, generators)
    # every subgroup of a cyclic group is characteristic; each Z_p^r case
    # here has some A1 that phi moves
    assert all(verdicts) == isinstance(g.a_group, CyclicGroup)


def test_reduce_trivial_is_identity():
    f = coset_hiding_function(Z7)
    result = reduce_to_cyclic(f, Z7)
    assert result.final is None
    reduced = result.reduced
    assert reduced.h1.is_trivial
    assert reduced.group2 == Z7
    # f2 agrees with f pointwise
    for g in group_elements(Z7):
        assert reduced.f2(g.a, g.b) == f(g.a, g.b)


def test_reduce_heisenberg_cyclic_hidden():
    f = coset_hiding_function(HEIS3, hidden=(1, 1))
    result = reduce_to_cyclic(f, HEIS3)
    assert result.final is None
    assert result.reduced.group2 == HEIS3
    assert result.reduced.f2.hidden_d == (1, 1)


def test_reduce_nonnormal_h1_is_final():
    f = coset_hiding_function(HEIS3, generators=[GroupElement((1, 0), 0)])
    result = reduce_to_cyclic(f, HEIS3)
    assert result.final is not None
    assert result.final.order == 3
    closure = {e.a for e in subgroup_closure(result.final.generators, HEIS3)}
    assert closure == {(0, 0), (1, 0), (2, 0)}


def test_reduce_z4_control():
    f = coset_hiding_function(Z42, generators=[GroupElement(2, 0)])
    result = reduce_to_cyclic(f, Z42)
    assert result.final is None
    reduced = result.reduced
    assert reduced.group2.a_group.n == 2
    assert quotient_well_defined(f, Z42, reduced)
    # representative map: lexicographically least element of each coset
    assert reduced.lift(0) == 0 and reduced.lift(1) == 1
    # quotient oracle hides the trivial subgroup of G2
    assert reduced.f2.hidden_d is None


def test_reduce_z22_control():
    f = coset_hiding_function(Z22, generators=[GroupElement((1, 1), 0)])
    result = reduce_to_cyclic(f, Z22)
    reduced = result.reduced
    assert reduced.group2.a_group.order == 2
    assert quotient_well_defined(f, Z22, reduced)
    # lex-least representatives: coset {(1,0),(0,1)} is represented by (0,1)
    assert reduced.lift((1,)) == (0, 1)


def test_reduce_full_a_part():
    # H = A x {0}: quotient is trivial, pipeline tests (0,1) directly
    g8 = semidirect_zn(8, 2, 3)
    f = coset_hiding_function(g8, generators=[GroupElement(1, 0)])
    result = reduce_to_cyclic(f, g8)
    assert result.reduced is not None
    assert result.reduced.group2 is None
    full = solve_hsp(
        coset_hiding_function(g8, generators=[GroupElement(1, 0)]), g8, 1, seed=0
    )
    assert full.answer.order == 8
    # and the everything-hidden case H = G
    f_all = coset_hiding_function(
        g8, generators=[GroupElement(1, 0), GroupElement(0, 1)]
    )
    full_all = solve_hsp(f_all, g8, 1, seed=0)
    assert full_all.answer.order == 16


def test_quotient_well_definedness_exhaustive_small():
    fixtures = [
        (Z42, [GroupElement(2, 0)]),
        (Z22, [GroupElement((1, 1), 0)]),
        (semidirect_zn(8, 2, 3), [GroupElement(4, 0)]),
        (semidirect_zn(12, 2, 5), [GroupElement(3, 0)]),
        (HEIS3, [GroupElement((0, 1), 0)]),
        (semidirect_jordan(3, (2, 1)), [GroupElement((0, 1, 0), 0)]),
    ]
    for g, gens in fixtures:
        assert g.order <= 200
        f = coset_hiding_function(g, generators=gens)
        result = reduce_to_cyclic(f, g)
        if result.reduced is None or result.reduced.group2 is None:
            continue
        assert quotient_well_defined(f, g, result.reduced)


def test_detect_trivial_vs_order_p():
    f = coset_hiding_function(Z7)
    assert not any(detect_trivial_vs_order_p(f, d, Z7) for d in range(7))
    f = coset_hiding_function(Z7, hidden=3)
    assert detect_trivial_vs_order_p(f, 3, Z7)
    assert not any(detect_trivial_vs_order_p(f, d, Z7) for d in range(7) if d != 3)


def test_run_pgm_hsp_z7_all_hidden():
    for d in range(7):
        f = coset_hiding_function(Z7, hidden=d)
        result = run_pgm_hsp(f, Z7, 1, trials=50, seed=100 + d)
        assert result.answer.cyclic_d == d
        assert result.prep_queries == result.trials_used * 1


def test_run_pgm_hsp_heisenberg_k2():
    f = coset_hiding_function(HEIS3, hidden=(2, 1))
    result = run_pgm_hsp(f, HEIS3, 2, trials=40, seed=5)
    assert result.answer.cyclic_d == (2, 1)
    assert result.prep_queries == result.trials_used * 2


def test_run_pgm_hsp_trivial():
    f = coset_hiding_function(Z7)
    result = run_pgm_hsp(f, Z7, 1, trials=25, seed=3)
    assert result.answer.is_trivial
    assert result.trials_used == 25
    assert all(not rec.verified for rec in result.transcript)
    # random.Random(-3) would repeat seed 3's draws
    with pytest.raises(ValueError, match="non-negative"):
        run_pgm_hsp(f, Z7, 1, trials=25, seed=-3)


def test_run_pgm_hsp_rejects_bad_promise():
    g9 = semidirect_zn(9, 3, 4)
    f = coset_hiding_function(g9, hidden=1)  # order 9, violates the promise
    with pytest.raises(ValueError):
        run_pgm_hsp(f, g9, 1, trials=5, seed=0)


def test_default_trial_budget():
    assert default_trial_budget(1, Z7, eta_statistics(Z7, 1)) == 115  # ceil(40 / (361/1029))
    assert default_trial_budget(2, HEIS3, eta_statistics(HEIS3, 2)) == 82


@pytest.mark.parametrize("trials", [None, 60], ids=["default", "given"])
@pytest.mark.parametrize("fixture", ["planted", "trivial", "quotient"])
def test_run_pgm_hsp_reads_one_row_per_trial(monkeypatch, fixture, trials):
    # each trial evaluates its own block's image-table row; only the default
    # budget's eta histogram walks the symmetry orbits, one row per orbit
    rows = []
    image_table = eta.image_table

    def counting_image_table(g, xs, *args):
        rows.append(len(xs))
        return image_table(g, xs, *args)

    monkeypatch.setattr(eta, "image_table", counting_image_table)
    monkeypatch.setattr(pgm, "image_table", counting_image_table)
    if fixture == "quotient":
        g = semidirect_jordan(3, (3,))
        gens = [GroupElement((0, 0, 1), 0), GroupElement((0, 0, 0), 1)]
        result = solve_hsp(coset_hiding_function(g, generators=gens), g, 2, trials, seed=1)
        assert result.answer.order == 9 and not result.reduction_final
        run = result.pgm_run
    else:
        f = coset_hiding_function(HEIS3, hidden=(1, 1) if fixture == "planted" else None)
        run = run_pgm_hsp(f, HEIS3, 2, trials, seed=1)
        if fixture == "planted":
            assert run.answer.cyclic_d == (1, 1)
        else:
            assert run.answer.is_trivial and run.trials_used == (trials or 82)
    walked = eta.orbit_rows(run.group.a_group, 2) if trials is None else 0
    assert sum(rows) == walked + run.trials_used


@pytest.mark.parametrize("d", [(1, 1), None], ids=["planted", "trivial"])
def test_trial_outcomes_follow_the_exact_law(d):
    # 20 000 seeded trials (a uniform block x, then j from that block's law)
    # against an oracle that hides the trivial subgroup, so no trial verifies
    # and each is recorded; every outcome's count, failure included, lies
    # within 5 sigma of its exact probability over all x
    n, a = 20_000, HEIS3.a_group
    f = HidingFunction(HEIS3, lambda elem: element_index(elem, HEIS3), d)
    run = run_pgm_hsp(f, HEIS3, 2, trials=n, seed=7)
    assert run.answer.is_trivial and len(run.transcript) == n
    draws = [a.order if rec.sampled is None else a.index(rec.sampled) for rec in run.transcript]
    law = outcome_distribution_all_x(2, HEIS3, d)
    law = np.append(law, max(0.0, 1.0 - law.sum()))
    counts = np.bincount(draws, minlength=law.size)
    assert (np.abs(counts - n * law) <= 5 * np.sqrt(n * law * (1 - law)) + 1e-9).all()
    assert (counts[-1] > 0) == (d is None)
    # the first trials replay the documented draws: x_1, x_2, then one random()
    rng = random.Random(7)
    for draw in draws[:200]:
        xs = [rng.randrange(a.order) for _ in range(2)]
        cdf = np.cumsum(np.append(*pgm.block_outcome_law(HEIS3, xs, d)))
        assert draw == min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), a.order)


def test_run_pgm_hsp_with_trials_beyond_the_population_cap():
    # Heisenberg p = 53 at k = 2: the orbit walk's 4.3e8 (x, w) pairs exceed
    # the default population cap, which a given budget does not need
    g = heisenberg_group(53)
    f = coset_hiding_function(g, hidden=(1, 1))
    run = run_pgm_hsp(f, g, 2, trials=40, seed=1)
    assert run.answer.cyclic_d == (1, 1) and run.answer.order == 53
    with pytest.raises(CapExceeded):
        run_pgm_hsp(f, g, 2, seed=1)


def test_transcript_structure():
    f = coset_hiding_function(Z7, hidden=1)
    result = run_pgm_hsp(f, Z7, 1, trials=30, seed=0)
    assert result.trials_used >= 1
    assert len(result.transcript) == result.trials_used
    last = result.transcript[-1]
    assert last.verified and last.sampled == 1
    for rec in result.transcript[:-1]:
        assert not rec.verified


def test_solve_hsp_full_pipeline():
    # planted cyclic subgroup through the reduction (trivial H1)
    f = coset_hiding_function(HEIS3, hidden=(1, 2))
    result = solve_hsp(f, HEIS3, 2, trials=60, seed=9)
    assert not result.reduction_final
    assert result.answer.order == 3
    closure = subgroup_closure(result.answer.generators, HEIS3)
    assert GroupElement((1, 2), 1) in closure
    # planted H1-only subgroup (non-normal): reduction answers directly
    f = coset_hiding_function(HEIS3, generators=[GroupElement((1, 0), 0)])
    result = solve_hsp(f, HEIS3, 2, trials=10, seed=9)
    assert result.reduction_final
    assert result.answer.order == 3
    # trivial everywhere
    f = coset_hiding_function(Z7)
    result = solve_hsp(f, Z7, 1, trials=20, seed=9)
    assert result.answer.is_trivial


def test_solve_hsp_mixed_subgroup():
    # H = <(2,0), (0,1)> in Z_8 x| Z_2 (mu=3): H1 = <2>, quotient hides <(0,1)>
    g8 = semidirect_zn(8, 2, 3)
    gens = [GroupElement(2, 0), GroupElement(0, 1)]
    f = coset_hiding_function(g8, generators=gens)
    result = solve_hsp(f, g8, 1, trials=60, seed=21)
    assert result.answer.order == 8
    assert subgroup_closure(result.answer.generators, g8) == subgroup_closure(
        gens, g8
    )


def test_geometric_failure_budget():
    # with the default budget the failure probability is < 1e-6
    import math

    from pgmhsp.pgm import success_probability_formula

    for g, k in [(Z7, 1), (HEIS3, 2)]:
        pr = float(success_probability_formula(k, g))
        trials = math.ceil(40 / pr)
        assert (1 - pr) ** trials < 1e-6


def test_solve_hsp_vector_quotient():
    # A = Z_3^3 with blocks (2,1): quotient by the invariant line span{e2}
    # and recover a mixed planted subgroup of order 9
    g = semidirect_jordan(3, (2, 1))
    gens = [GroupElement((0, 1, 0), 0), GroupElement((1, 0, 0), 1)]
    f = coset_hiding_function(g, generators=gens)
    result = solve_hsp(f, g, 2, trials=200, seed=3)
    assert result.answer.order == 9
    assert subgroup_closure(result.answer.generators, g) == subgroup_closure(gens, g)
    # the quotient map itself is exhaustively well defined
    f2 = coset_hiding_function(g, generators=[GroupElement((0, 1, 0), 0)])
    reduced = reduce_to_cyclic(f2, g).reduced
    assert quotient_well_defined(f2, g, reduced)
