"""Exact desk-scale simulator for pretty-good-measurement hidden subgroup
algorithms over semidirect products A x| Z_p (A = Z_N or Z_p^r).

``import pgmhsp`` loads ``caps``, ``groups`` and ``eta`` (the eta table, its
statistics and the character phases).  The layers ``msum`` (the
per-instance solvers), ``pgm``, ``pipeline`` and ``metacyclic`` are bound
as lazy modules: each runs on the first access to one of its attributes,
so a command loads only the layers it calls (solve-msum alone executes
msum).
``pgmhsp.X``, ``from pgmhsp import X`` and ``from pgmhsp.pgm import X`` work
as if every layer were imported eagerly.
"""

import importlib.util
import sys

# caps, groups and eta load eagerly: every command reads eta, directly or
# through msum's integer codes or the phases pgm and metacyclic take from it.
from .caps import CapExceeded
from .groups import (
    CyclicGroup,
    GroupElement,
    SemidirectGroup,
    VectorGroup,
    element_mul,
    format_group_spec,
    heisenberg_group,
    matrix_sum,
    parse_group_spec,
    semidirect_jordan,
    semidirect_zn,
    semidirect_zpr,
    subgroup_order,
)
from .eta import EtaStats, eta_statistics

__version__ = "0.1.0"

# Lazy layer -> the names the package exports from it.
_LAZY_EXPORTS = {
    "msum": (
        "MSumInstance",
        "SolutionSet",
        "solve_auto",
        "solve_bruteforce",
        "solve_metacyclic_dlog",
        "solve_polynomial",
    ),
    "pgm": (
        "lemma2_bounds",
        "pgm_report",
        "success_probability_formula",
    ),
    "pipeline": (
        "HidingFunction",
        "SubgroupDescription",
        "abelian_hsp_solve",
        "check_h1_normal",
        "coset_hiding_function",
        "detect_trivial_vs_order_p",
        "reduce_to_cyclic",
        "run_pgm_hsp",
        "solve_hsp",
    ),
    "metacyclic": (
        "estimate_success_rate",
        "exact_success_rate",
    ),
}


def _lazy_layer(name: str):
    """Register ``pgmhsp.<name>`` in sys.modules, to execute on first access.

    A LazyLoader module, unlike a name looked up on demand, is in
    sys.modules from the start, so code that walks the package's loaded
    modules sees every layer, and its first ``getattr`` loads the layer.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


msum = _lazy_layer("msum")
pgm = _lazy_layer("pgm")
pipeline = _lazy_layer("pipeline")
metacyclic = _lazy_layer("metacyclic")

_LAZY_HOME = {name: layer for layer, names in _LAZY_EXPORTS.items() for name in names}

__all__ = [
    "CapExceeded",
    "CyclicGroup",
    "GroupElement",
    "SemidirectGroup",
    "VectorGroup",
    "element_mul",
    "format_group_spec",
    "heisenberg_group",
    "matrix_sum",
    "parse_group_spec",
    "semidirect_jordan",
    "semidirect_zn",
    "semidirect_zpr",
    "subgroup_order",
    "EtaStats",
    "eta_statistics",
    *_LAZY_HOME,
]


def __getattr__(name: str):
    layer = _LAZY_HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_HOME))
