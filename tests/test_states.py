import numpy as np
import pytest

from pgmhsp.caps import CapExceeded
from pgmhsp.groups import (
    GroupElement,
    element_mul,
    heisenberg_group,
    parse_group_spec,
    semidirect_zn,
)
from pgmhsp.msum import eta_rows
from pgmhsp.pgm import build_pgm, quantum_sample_vector, verify_optimality
from pgmhsp.states import (
    _phase_roots,
    block_images,
    characters,
    coset_state,
    fft_over_a,
    fourier_coset_state,
)

from oracles import (
    a_tuple_from_index,
    a_tuple_index,
    b_tuple_index,
    coset_mixture_density,
    ensemble_sigma,
    hidden_subgroup_state,
    qft_matrix,
    support_projector,
    tensor_power_grouped,
)

Z7 = semidirect_zn(7, 3, 2)
HEIS3 = heisenberg_group(3)
HEIS5 = heisenberg_group(5)


def test_index_conventions():
    a = HEIS3.a_group
    x = ((1, 2), (0, 1))
    # copy 1 least significant
    assert a_tuple_index(a, x) == a.index((1, 2)) + 9 * a.index((0, 1))
    assert a_tuple_from_index(a, a_tuple_index(a, x), 2) == x
    assert b_tuple_index(3, (1, 2)) == 1 + 3 * 2
    # A-index is lexicographic for vectors
    assert a.index((1, 2)) == 1 * 3 + 2


def test_coset_state_supports():
    # d = 0: support {(ell, b)} over b
    v = coset_state(4, 0, Z7)
    support = {divmod(i, 3) for i in np.flatnonzero(np.abs(v) > 1e-14)}
    assert support == {(4, 0), (4, 1), (4, 2)}
    # Z_7 x| Z_3, d=1, ell=0: support {(0,0), (1,1), (3,2)}
    v = coset_state(0, 1, Z7)
    support = {divmod(i, 3) for i in np.flatnonzero(np.abs(v) > 1e-14)}
    assert support == {(0, 0), (1, 1), (3, 2)}
    amps = v[np.abs(v) > 1e-14]
    assert np.allclose(amps, 1 / np.sqrt(3))
    assert abs(np.linalg.norm(v) - 1) < 1e-12


def test_coset_state_oracle_heisenberg():
    # support equals the coset computed through element_mul
    a = HEIS3.a_group
    d, ell = (1, 1), (0, 0)
    v = coset_state(ell, d, HEIS3)
    support = {
        (a.element(i // 3), i % 3) for i in np.flatnonzero(np.abs(v) > 1e-14)
    }
    gen = GroupElement(d, 1)
    coset = set()
    current = HEIS3.identity
    for _ in range(3):
        shifted = element_mul(GroupElement(ell, 0), current, HEIS3)
        coset.add((shifted.a, shifted.b))
        current = element_mul(current, gen, HEIS3)
    assert support == coset


def test_coset_state_rejects_wrong_order():
    g9 = semidirect_zn(9, 3, 4)
    with pytest.raises(ValueError):
        coset_state(0, 1, g9)  # <(1,1)> has order 9
    with pytest.raises(ValueError):
        fourier_coset_state(0, 1, g9)
    coset_state(0, 3, g9)  # order 3 is fine


def test_coset_orthonormality_exhaustive():
    for g in (Z7, HEIS3, semidirect_zn(13, 3, 3), HEIS5):
        assert g.order <= 125
        a = g.a_group
        for d in a.elements():
            states = {ell: coset_state(ell, d, g) for ell in a.elements()}
            for l1 in a.elements():
                for l2 in a.elements():
                    ip = np.vdot(states[l1], states[l2])
                    same_coset = np.allclose(states[l1], states[l2])
                    assert abs(ip - (1 if same_coset else 0)) < 1e-12


def test_fourier_coset_state_phases():
    # d=0 and x=0: all amplitudes 1/sqrt(p)
    for vec in (fourier_coset_state(3, 0, Z7), fourier_coset_state(0, 5, Z7)):
        amps = vec[np.abs(vec) > 1e-14]
        assert np.allclose(amps, 1 / np.sqrt(3))
    # x=1, d=1: phases omega^{M^(b)} = omega^0, omega^1, omega^3
    v = fourier_coset_state(1, 1, Z7)
    omega = np.exp(2j * np.pi / 7)
    base = 1 * 3
    expected = np.array([omega**0, omega**1, omega**3]) / np.sqrt(3)
    assert np.allclose(v[base : base + 3], expected)


@pytest.mark.parametrize("g", [Z7, HEIS3], ids=["zn7", "heis3"])
def test_fourier_consistency(g):
    f = qft_matrix(g.a_group)
    u = np.kron(f, np.eye(g.p))
    for d in g.a_group.elements():
        rho = coset_mixture_density(d, g)
        rho_tilde = u @ rho @ u.conj().T
        rho_eq, _ = hidden_subgroup_state(d, 1, g)
        assert np.abs(rho_tilde - rho_eq).max() < 1e-12


def test_hidden_subgroup_state_validity():
    for g, k, d in [(Z7, 1, 1), (HEIS3, 1, (1, 2)), (HEIS3, 2, (1, 1))]:
        rho, images = hidden_subgroup_state(d, k, g)
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-9
        # the solution sets of each x partition its p^k b values
        a_order = g.a_group.order
        assert images.shape == (a_order**k, g.p**k)
        assert (eta_rows(images, a_order).sum(axis=1) == g.p**k).all()


def test_non_order_p_label_still_valid_state():
    g9 = semidirect_zn(9, 3, 4)
    rho, _ = hidden_subgroup_state(1, 1, g9)  # order 9 label
    assert abs(np.trace(rho) - 1) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_block_purity():
    # every x-block of the k-copy state is rank one
    rho, _ = hidden_subgroup_state((1, 1), 2, HEIS3)
    pk = 9
    for xi in range(81):
        block = rho[xi * pk : (xi + 1) * pk, xi * pk : (xi + 1) * pk]
        svals = np.linalg.svd(block, compute_uv=False)
        assert svals[1] < 1e-10


def test_tensor_power_consistency():
    for g, d in [(Z7, 1), (Z7, 3), (HEIS3, (1, 1)), (HEIS3, (2, 1))]:
        rho1, _ = hidden_subgroup_state(d, 1, g)
        rho2, _ = hidden_subgroup_state(d, 2, g)
        t2 = tensor_power_grouped(rho1, 2, g.a_group.order, g.p)
        assert np.abs(rho2 - t2).max() < 1e-12


def test_ensemble_sigma():
    for g, k in [(Z7, 1), (HEIS3, 1), (HEIS3, 2)]:
        sigma = ensemble_sigma(k, g)
        assert abs(np.trace(sigma) - g.a_group.order) < 1e-10
        acc = np.zeros_like(sigma)
        for j in g.a_group.elements():
            acc += hidden_subgroup_state(j, k, g)[0]
        assert np.abs(sigma - acc).max() < 1e-12
        # support projector matches the span of the block vectors
        proj = support_projector(k, g)
        rank = int(round(np.trace(proj).real))
        eta = eta_rows(block_images(g, k), g.a_group.order)
        assert rank == np.count_nonzero(eta)
        vals = np.linalg.eigvalsh(proj)
        assert np.allclose(np.sort(vals)[-rank:], 1, atol=1e-10)


def test_sigma_support_vs_state_support():
    # span of Sigma contains every ensemble member's support
    sigma = ensemble_sigma(2, HEIS3)
    proj = support_projector(2, HEIS3)
    for d in [(0, 0), (1, 1), (2, 0)]:
        rho, _ = hidden_subgroup_state(d, 2, HEIS3)
        assert np.abs(proj @ rho - rho).max() < 1e-10
    assert np.abs(sigma @ proj - sigma).max() < 1e-10


def test_dimension_cap():
    with pytest.raises(CapExceeded):
        build_pgm(3, HEIS5, cap=4096)
    with pytest.raises(CapExceeded):
        verify_optimality(3, HEIS5, cap=4096)


def test_qft_unitarity():
    for a in (Z7.a_group, HEIS3.a_group, HEIS5.a_group):
        f = qft_matrix(a)
        assert np.abs(f @ f.conj().T - np.eye(a.order)).max() < 1e-12


CHARACTER_GROUPS = [
    "zn N=7 p=3 mu=2",
    "zn N=9 p=3 mu=4",
    "zn N=31 p=5 mu=2",
    "zpr p=3 jordan=2",
    "zpr p=5 jordan=3",
    "zpr p=2 jordan=2,2,1",
]


@pytest.mark.parametrize("spec", CHARACTER_GROUPS)
def test_characters_match_per_element_loop(spec):
    a = parse_group_spec(spec).a_group
    roots = _phase_roots(a.char_denominator)
    for d in a.elements():
        loop = roots[[a.char_index(w, d) for w in a.elements()]]
        assert np.array_equal(characters(a, d), loop)


@pytest.mark.parametrize("spec", CHARACTER_GROUPS)
def test_fft_over_a_matches_dense_qft(spec):
    a = parse_group_spec(spec).a_group
    rng = np.random.default_rng(5)
    values = rng.normal(size=(3, a.order)) + 1j * rng.normal(size=(3, a.order))
    dense = values @ qft_matrix(a).conj().T
    assert np.abs(fft_over_a(a, values, norm="ortho") - dense).max() < 1e-12
    assert np.abs(fft_over_a(a, values[0]) - np.sqrt(a.order) * dense[0]).max() < 1e-12


def test_solution_vectors_orthonormal_within_block():
    a = HEIS3.a_group
    for xi in (0, 5, 44):
        x = a_tuple_from_index(a, xi, 2)
        samples = [quantum_sample_vector(x, w, 2, HEIS3) for w in a.elements()]
        vectors = [s.vector for s in samples if s.eta]
        assert sum(s.eta for s in samples) == 9
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                ip = np.vdot(u, v)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12
