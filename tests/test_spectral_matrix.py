"""Hill-block eigenpairs against a dense eigensolver of the full block."""

import numpy as np
import pytest

from hill_octant import spectral_matrix as sm
from hill_octant.potential import fourier_potential, translate, zero_potential

from conftest import random_corpus
from oracles import dense_hill_block

MODES = 24
N_GAPS = 4

EVEN = fourier_potential([(1, 4.0, 0.0), (3, -2.0, 0.0)])
POTENTIALS = {
    "asym": fourier_potential([(1, 2.0, 1.5), (2, -1.0, 0.7)]),
    "zero": zero_potential(),
    "cos4pi": fourier_potential([(2, 3.0, 0.0)]),  # odd gaps closed
    "even": EVEN,
    "translated": translate(EVEN, 0.17),
}


def edge_pairs(p, n_gaps=N_GAPS, modes=MODES):
    """(lambda, u, reference values, reference vectors) for every returned edge."""
    lam0, glo, ghi, nbe, info = sm.hill_edges_and_vectors(p, n_gaps, modes=modes)
    blocks = {0.0: dense_hill_block(p, 0.0, modes), 0.5: dense_hill_block(p, 0.5, modes)}
    values = {("lambda0", 0): lam0, ("next", n_gaps + 1): nbe}
    for n in range(1, n_gaps + 1):
        values[("lo", n)] = glo[n - 1]
        values[("hi", n)] = ghi[n - 1]
    return [(values[key], info[key][1], *blocks[info[key][0]]) for key in values]


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hill_edges_match_dense_eigh(name):
    p = POTENTIALS[name]
    lam0, glo, ghi, nbe = sm.hill_band_edges(p, N_GAPS, modes=MODES)
    w_per, _ = dense_hill_block(p, 0.0, MODES)
    w_anti, _ = dense_hill_block(p, 0.5, MODES)
    # edges of gap m are eigenvalues m - 1 and m of the block of m's parity
    want_lo = [(w_anti if m % 2 else w_per)[m - 1] for m in range(1, N_GAPS + 1)]
    want_hi = [(w_anti if m % 2 else w_per)[m] for m in range(1, N_GAPS + 1)]
    want_next = (w_anti if (N_GAPS + 1) % 2 else w_per)[N_GAPS]
    got = np.concatenate(([lam0], glo, ghi, [nbe]))
    want = np.concatenate(([w_per[0]], want_lo, want_hi, [want_next]))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-11)


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hill_eigenvectors_span_dense_eigenspaces(name):
    # double eigenvalues (zero potential, closed gaps) have no unique
    # eigenvector: each returned u must lie in the reference eigenspace
    for lam, u, w, v in edge_pairs(POTENTIALS[name]):
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        space = v[:, np.abs(w - lam) <= 1e-9 * max(1.0, abs(lam))]
        assert 1 <= space.shape[1] <= 2
        assert np.linalg.norm(space.conj().T @ u) == pytest.approx(1.0, abs=1e-12)


def test_simple_eigenvector_overlap():
    for lam, u, w, v in edge_pairs(POTENTIALS["asym"]):
        i = int(np.argmin(np.abs(w - lam)))
        assert abs(np.vdot(v[:, i], u)) == pytest.approx(1.0, abs=1e-12)


def test_cos_only_blocks_stay_real():
    _, _, _, _, info = sm.hill_edges_and_vectors(EVEN, 2, modes=MODES)
    assert all(np.isrealobj(u) for _, u in info.values())
    _, _, _, _, info = sm.hill_edges_and_vectors(POTENTIALS["translated"], 2, modes=MODES)
    assert all(np.iscomplexobj(u) for _, u in info.values())


def test_exp_vector_gradient_matches_finite_difference():
    terms = [(1, 2.0, 1.5), (2, -1.0, 0.7), (3, 0.0, 0.0)]
    keys = [("lo", n) for n in (1, 2, 3)] + [("hi", n) for n in (1, 2, 3)]
    _, _, _, _, info = sm.hill_edges_and_vectors(fourier_potential(terms), 3, modes=MODES)
    grads = [sm.exp_vector_gradient(info[key][1], 3) for key in keys]
    h = 1e-4

    def edges(k, da, db):
        bumped = [(kk, a + da * (kk == k), b + db * (kk == k)) for kk, a, b in terms]
        _, glo, ghi, _ = sm.hill_band_edges(fourier_potential(bumped), 3, modes=MODES)
        return np.concatenate((glo, ghi))

    for k in (1, 2, 3):
        fd_cos = (edges(k, h, 0.0) - edges(k, -h, 0.0)) / (2 * h)
        fd_sin = (edges(k, 0.0, h) - edges(k, 0.0, -h)) / (2 * h)
        assert np.allclose([da[k - 1] for da, _ in grads], fd_cos, rtol=0, atol=1e-6)
        assert np.allclose([db[k - 1] for _, db in grads], fd_sin, rtol=0, atol=1e-6)


def test_repeated_calls_are_bit_identical():
    p = POTENTIALS["translated"]
    first = sm.hill_edges_and_vectors(p, N_GAPS)
    second = sm.hill_edges_and_vectors(p, N_GAPS)
    for a, b in zip(first[:4], second[:4]):
        assert np.array_equal(a, b)
    assert first[4].keys() == second[4].keys()
    for key in first[4]:
        assert np.array_equal(first[4][key][1], second[4][key][1])


@pytest.mark.parametrize("n_gaps, modes", [(1, 0), (2, 1), (4, 2)])
def test_too_few_modes_rejected(n_gaps, modes):
    with pytest.raises(ValueError):
        sm.hill_band_edges(POTENTIALS["asym"], n_gaps, modes=modes)


def test_fewest_modes_accepted():
    # the anti-periodic block of 2 modes holds exactly n_gaps + 1 eigenvalues
    lam0, glo, ghi, nbe = sm.hill_band_edges(POTENTIALS["asym"], 3, modes=2)
    assert lam0 < glo[0] < ghi[0] < glo[1] < ghi[1] < glo[2] < ghi[2] <= nbe


SHIFT_CASES = {
    "asym": POTENTIALS["asym"],
    "mathieu": fourier_potential([(1, 2.0, 0.0)]),
    "zero": zero_potential(),
    **{f"corpus{i}": q for i, q in enumerate(random_corpus(4, seed=31, amplitude=40.0))},
}


@pytest.mark.parametrize("name", sorted(SHIFT_CASES))
def test_shift_lies_below_both_blocks(name, monkeypatch):
    p, shift, seen = SHIFT_CASES[name], sm._hill_shift, []
    monkeypatch.setattr(sm, "_hill_shift", lambda *args: seen.append(shift(*args)) or seen[-1])
    sm.hill_band_edges(p, N_GAPS, modes=MODES)
    sigma_per, sigma_anti = seen  # the periodic block is solved first
    assert sigma_per < dense_hill_block(p, 0.0, MODES)[0][0]
    assert sigma_anti < dense_hill_block(p, 0.5, MODES)[0][0]
