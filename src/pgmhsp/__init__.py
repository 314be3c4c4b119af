"""Exact desk-scale simulator for pretty-good-measurement hidden subgroup
algorithms over semidirect products A x| Z_p (A = Z_N or Z_p^r)."""

from .caps import CapExceeded
from .groups import (
    CyclicGroup,
    GroupElement,
    PhaseValue,
    SemidirectGroup,
    VectorGroup,
    character_eval,
    element_inv,
    element_mul,
    format_group_spec,
    heisenberg_group,
    matrix_sum,
    parse_group_spec,
    phi_sum,
    semidirect_jordan,
    semidirect_zn,
    semidirect_zpr,
    subgroup_order,
)
from .msum import (
    EtaStats,
    MSumInstance,
    SolutionSet,
    discrete_log_bsgs,
    eta_statistics,
    solve_auto,
    solve_bruteforce,
    solve_metacyclic_dlog,
    solve_polynomial,
)
from .pgm import (
    POVM,
    build_neumark,
    build_pgm,
    lemma2_bounds,
    quantum_sample_vector,
    success_probability_formula,
    success_probability_trace,
    verify_optimality,
)
from .pipeline import (
    HidingFunction,
    SubgroupDescription,
    abelian_hsp_solve,
    check_h1_normal,
    coset_hiding_function,
    detect_trivial_vs_order_p,
    reduce_to_cyclic,
    run_pgm_hsp,
    solve_hsp,
)
from .states import (
    coset_state,
    fourier_coset_state,
    state_vectors,
)
from .metacyclic import (
    estimate_success_rate,
    exact_success_rate,
    perfect_state_overlap,
    run_stripped_algorithm,
)

__version__ = "0.1.0"
