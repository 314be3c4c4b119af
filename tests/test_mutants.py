"""Mutation checks: each test plants one small, plausible fault in a
production function (by monkeypatch) and runs the checks that guard its
layer, in-process on small cases.  The checks must all pass on the real
code and at least one must fail on the fault; a fault that no check
catches marks a check that is missing.
"""

import random

import numpy as np
import pytest

import test_msum
import test_pgm
import test_pipeline
from pgmhsp import eta, msum, pgm, pipeline
from pgmhsp.groups import heisenberg_group, parse_group_spec, semidirect_zn

Z7 = semidirect_zn(7, 3, 2)
HEIS3 = heisenberg_group(3)


def failures(checks) -> list[str]:
    """The names of the checks, (name, thunk) pairs, that raise AssertionError."""
    failed = []
    for name, check in checks:
        try:
            check()
        except AssertionError:
            failed.append(name)
    return failed


def assert_caught(monkeypatch, checks, target, name, mutant):
    assert failures(checks) == []
    monkeypatch.setattr(target, name, mutant)
    assert failures(checks) != []


@pytest.fixture
def fresh_tables():
    """Caches that a fault in the digit arithmetic would fill, emptied
    before and after the test so that no other test reads its tables."""
    caches = (eta._codes_of_a, pgm._minus)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_a_wrong_shift_in_minus_is_caught(monkeypatch):
    # outcome j read at d - j + 1: the element loop and the outcome law
    # averaged over every block, both against oracles that do not call _minus
    minus = pgm._minus
    specs = ("zn N=7 p=3 mu=2", "zpr p=3 jordan=2")
    checks = [
        (f"minus {spec}", lambda spec=spec: test_pgm.test_minus_matches_the_element_loop(spec))
        for spec in specs
    ] + [
        (f"law {spec}", lambda spec=spec: test_pgm.test_orbit_outcome_law_matches_all_x_oracle(
            spec, 1)) for spec in specs
    ]
    assert_caught(monkeypatch, checks, pgm, "_minus", lambda a, d: np.roll(minus(a, d), 1))


@pytest.mark.parametrize("route", ["bruteforce", "scan"])
def test_a_grid_scan_dropping_its_last_block_is_caught(monkeypatch, route):
    # _column_blocks feeds only _grid_scan, so dropping its last block drops
    # the scan's: brute force on Z_N, and the polynomial route's scan of the
    # affine family, the lookup refused, each against pure-Python enumeration
    monkeypatch.setattr(msum, "_CHUNK", 4)  # blocks of p columns
    if route == "bruteforce":
        checks = [("Z7 k=2", lambda: test_msum.check_solvers_against_enumeration(Z7, 2, 12))]
    else:
        monkeypatch.setattr(msum, "_PY_GRID", 0)
        g = parse_group_spec("zpr p=3 jordan=3")
        checks = [(f"jordan=3 k={k}", lambda k=k: test_msum.check_polynomial_against_oracle(
            g, k, random.Random(k), rows=3)) for k in (2, 3)]
    blocks = msum._column_blocks
    assert_caught(monkeypatch, checks, msum, "_column_blocks",
                  lambda codes: iter(list(blocks(codes))[:-1]))


def test_a_shift_table_off_by_one_b_is_caught(monkeypatch):
    # the planted fixture's labels against the eager coset partition
    shifts = pipeline._shifts

    def rotated(g, d):  # shifts[b + 1] where shifts[b] belongs
        table = shifts(g, d)
        return table[1:] + table[:1]

    checks = [
        (name, lambda g=g, d=d: test_pipeline.test_lazy_labels_match_eager_labelling(
            g, {"hidden": d})) for name, g, d in [("Z7", Z7, 2), ("Heisenberg p=3", HEIS3, (1, 2))]
    ]
    assert_caught(monkeypatch, checks, pipeline, "_shifts", rotated)


def test_reversed_digit_significance_is_caught(monkeypatch, fresh_tables):
    # digits least significant first: _minus against the element loop, and
    # the image table (codes of A built from the digits) against enumeration.
    # On Z_N, one digit, the fault is no fault; phase_indices reverses both
    # of its operands, so its dot product stays right.
    digits = eta.index_digits

    def reversed_digits(indices, radix, rank):
        return digits(indices, radix, rank)[..., ::-1]

    g = parse_group_spec("zpr p=3 jordan=2")
    checks = [
        ("minus", lambda: test_pgm.test_minus_matches_the_element_loop("zpr p=3 jordan=2")),
        ("image table", lambda: test_msum.check_table_against_enumeration(g, 2)),
    ]
    assert failures(checks) == []
    for cache in (eta._codes_of_a, pgm._minus):
        cache.cache_clear()
    for module in (eta, pgm):  # pgm binds the name too
        monkeypatch.setattr(module, "index_digits", reversed_digits)
    assert failures(checks) != []
