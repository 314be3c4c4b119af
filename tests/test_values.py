"""The value classes' contract: what a caller can observe of each one.

The six immutable classes (groups' CyclicGroup, VectorGroup,
GroupElement and SemidirectGroup, msum's MSumInstance and SolutionSet)
compare and hash by their fields, refuse assignment and deletion, keep no
``__dict__``, and survive pickle and deepcopy.  The two
run records (pipeline's PGMRunResult, and SimTranscript, the stripped
run's record in the test oracles, built on groups' _Record) compare by
their fields, are mutable and unhashable.  Every repr is the text the
classes printed when they were dataclasses; ``solve-msum --verify``
prints an instance's repr in its brute-force error.
"""

import copy
import pickle

import pytest

from pgmhsp.groups import (
    CyclicGroup,
    GroupElement,
    SemidirectGroup,
    VectorGroup,
    heisenberg_group,
    semidirect_zn,
)
from pgmhsp.msum import MSumInstance, SolutionSet
from pgmhsp.pipeline import PGMRunResult, SubgroupDescription

from oracles import SimTranscript


def z7():
    return semidirect_zn(7, 3, 2)


# class -> (a factory of equal fresh instances, the repr, the fields)
FROZEN = {
    CyclicGroup: (lambda: CyclicGroup(7), "CyclicGroup(n=7)", ("n",)),
    VectorGroup: (lambda: VectorGroup(3, 2), "VectorGroup(p=3, r=2)", ("p", "r")),
    GroupElement: (
        lambda: GroupElement((1, 2), 0), "GroupElement(a=(1, 2), b=0)", ("a", "b")
    ),
    SemidirectGroup: (
        lambda: heisenberg_group(3),
        "SemidirectGroup(a_group=VectorGroup(p=3, r=2), p=3, mu=((1, 1), (0, 1)))",
        ("a_group", "p", "mu"),
    ),
    MSumInstance: (
        lambda: MSumInstance(z7(), (8, 2), 10),
        "MSumInstance(group=SemidirectGroup(a_group=CyclicGroup(n=7), p=3, mu=2), x=(1, 2), w=3)",
        ("group", "x", "w"),
    ),
    SolutionSet: (
        lambda: SolutionSet(((2, 1), (0, 1))),
        "SolutionSet(solutions=((0, 1), (2, 1)))",
        ("solutions",),
    ),
}

MUTABLE = {
    PGMRunResult: (
        lambda: PGMRunResult(SubgroupDescription((GroupElement(3, 1),), 3, cyclic_d=3),
                             group=z7(), seed=1),
        "PGMRunResult(answer=SubgroupDescription(generators=(GroupElement(a=3, b=1),), "
        "order=3, cyclic_d=3), group=SemidirectGroup(a_group=CyclicGroup(n=7), p=3, mu=2), "
        "transcript=[], trials_used=0, prep_queries=0, oracle_queries=0, seed=1)",
        ("answer", "group", "transcript", "trials_used", "prep_queries", "oracle_queries", "seed"),
    ),
    SimTranscript: (
        lambda: SimTranscript(7, 3, 2, 1, 0, measured_x=4),
        "SimTranscript(n=7, p=3, mu=2, d=1, ell=0, steps={}, measured_x=4, accepted=False, "
        "final_distribution=None, measured_outcome=None, success=None)",
        ("n", "p", "mu", "d", "ell", "steps", "measured_x", "accepted", "final_distribution",
         "measured_outcome", "success"),
    ),
}


def check_common(cls, make, text, fields):
    one, two = make(), make()
    assert type(one) is cls and one is not two
    assert one == two and not one != two
    assert repr(one) == text
    assert cls.__match_args__ == fields
    assert not hasattr(one, "__dict__")
    # equal only to an instance of the same class, never to its field tuple
    others = [make() for other, (make, _, _) in {**FROZEN, **MUTABLE}.items() if other is not cls]
    assert all(one != other for other in others)
    assert one != tuple(getattr(one, name) for name in fields)
    return one, two


@pytest.mark.parametrize("cls", list(FROZEN), ids=lambda c: c.__name__)
def test_frozen_value_class_contract(cls):
    one, two = check_common(cls, *FROZEN[cls])
    assert hash(one) == hash(two)
    assert {one: 1}[two] == 1
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(one, name, getattr(one, name))
        with pytest.raises(AttributeError):
            delattr(one, name)
    with pytest.raises(AttributeError):
        one.extra = 1
    assert one == two
    for copied in (pickle.loads(pickle.dumps(one)), copy.deepcopy(one), copy.copy(one)):
        assert type(copied) is cls and copied == one and hash(copied) == hash(one)


@pytest.mark.parametrize("cls", list(MUTABLE), ids=lambda c: c.__name__)
def test_run_record_contract(cls):
    one, two = check_common(cls, *MUTABLE[cls])
    with pytest.raises(TypeError):
        hash(one)
    # each instance gets its own default container
    name = "transcript" if cls is PGMRunResult else "steps"
    assert getattr(one, name) is not getattr(two, name)
    setattr(one, name, getattr(one, name))
    assert one == two
    setattr(one, cls.__match_args__[-1], 2)
    assert one != two
    with pytest.raises(AttributeError):
        one.extra = 1
    assert copy.deepcopy(one) == one
