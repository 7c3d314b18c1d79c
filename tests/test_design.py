import math

import numpy as np
import pytest

from hill_octant import bands, design as dz, monodromy as mo
from hill_octant import spectral_matrix as sm
from hill_octant.errors import IllConditioned, RhoNotPositive
from hill_octant.potential import fourier_potential, l2_norm, translate


def test_target_validation():
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=2, gap_lengths=(1.0,))
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=2, gap_lengths=(1.0, 1.0), state_fracs=(0.5, 1.5))
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=3, gap_lengths=(1.0,) * 3, basis_size=2)


def test_gauss_newton_rejects_rank_deficient_jacobian():
    # both residuals depend on x0 + x1 only: the Jacobian has rank 1
    def residual(x):
        return np.array([x[0] + x[1] - 1.0, 2.0 * (x[0] + x[1]) - 3.0])

    with pytest.raises(IllConditioned):
        dz._gauss_newton(residual, [0.0, 0.0], 1e-8, 1.0)


def test_zero_targets_give_zero_potential():
    p = dz.design_gap_lengths(dz.DesignTarget(n_gaps=2, gap_lengths=(0.0, 0.0)))
    assert not p.fourier and p.constant == 0.0


def test_single_mode_first_order_gap():
    # 2c cos(2 pi x): first gap length near 2|c| for small c
    for c in (0.1, 0.5, 1.0):
        bs = bands.band_structure(fourier_potential([(1, 2 * c, 0.0)]), 1)
        assert bs.gap_lengths[0] == pytest.approx(2 * c, rel=2e-3 * max(1, c * 4))


def test_design_gap_lengths_modest():
    target = dz.DesignTarget(n_gaps=2, gap_lengths=(4.0, 7.0), tolerance=1e-5)
    p = dz.design_gap_lengths(target)
    bs = bands.band_structure(p, 2)
    assert np.allclose(bs.gap_lengths, [4.0, 7.0], rtol=1e-4)
    # mean-zero: the designer works in the zero-average space
    assert p.constant == 0.0


def test_place_states_modest():
    target = dz.DesignTarget(
        n_gaps=2,
        gap_lengths=(5.0, 5.0),
        state_fracs=(0.125, 0.3),
        state_signs=(1, 1),
        basis_size=3,
        tolerance=1e-5,
    )
    p0 = dz.design_gap_lengths(
        dz.DesignTarget(n_gaps=2, gap_lengths=(5.0, 5.0), tolerance=1e-5)
    )
    p = dz.place_states(p0, target)
    bs = bands.band_structure(p, 2)
    fr = (bs.dirichlet - bs.gap_lo) / bs.gap_lengths
    assert np.allclose(bs.gap_lengths, 5.0, rtol=2e-4)
    assert fr[0] == pytest.approx(0.125, abs=5e-4)
    assert fr[1] == pytest.approx(0.3, abs=5e-4)
    assert [s.sign for s in bs.states] == [1, 1]


def test_place_states_respects_requested_sheet():
    target = dz.DesignTarget(
        n_gaps=1,
        gap_lengths=(6.0,),
        state_fracs=(0.25,),
        state_signs=(-1,),
        basis_size=2,
        tolerance=1e-5,
    )
    p0 = dz.design_gap_lengths(
        dz.DesignTarget(n_gaps=1, gap_lengths=(6.0,), tolerance=1e-5)
    )
    p = dz.place_states(p0, target)
    bs = bands.band_structure(p, 1)
    assert bs.state(1).sign == -1
    fr = (bs.dirichlet[0] - bs.gap_lo[0]) / bs.gap_lengths[0]
    assert fr == pytest.approx(0.25, abs=5e-4)


def test_place_states_returns_input_when_converged():
    target = dz.DesignTarget(
        n_gaps=1,
        gap_lengths=(6.0,),
        state_fracs=(0.125,),
        state_signs=(1,),
        basis_size=2,
        tolerance=1e-5,
    )
    p0 = dz.design_gap_lengths(
        dz.DesignTarget(n_gaps=1, gap_lengths=(6.0,), tolerance=1e-5)
    )
    p = dz.place_states(p0, target)
    # feeding the solution back in converges immediately with no restarts
    rep = dz.DesignReport(targets={})
    p2 = dz.place_states(p, target, rep)
    assert rep.restarts == 0
    bs2 = bands.band_structure(p2, 1)
    fr = (bs2.dirichlet[0] - bs2.gap_lo[0]) / bs2.gap_lengths[0]
    assert fr == pytest.approx(0.125, abs=5e-4)


def test_norm_estimates_on_designed(small_corpus):
    # both spectral-norm inequalities on random and designed potentials
    pots = list(small_corpus[:4])
    target = dz.DesignTarget(
        n_gaps=2, gap_lengths=(5.0, 5.0), state_fracs=(0.125, 0.125), basis_size=3,
        tolerance=1e-5,
    )
    p0 = dz.design_gap_lengths(
        dz.DesignTarget(n_gaps=2, gap_lengths=(5.0, 5.0), tolerance=1e-5)
    )
    pots.append(dz.place_states(p0, target))
    for p in pots:
        bs = bands.band_structure(p, 8)
        norm_v = l2_norm(p)
        norm_xi = math.sqrt(float(np.sum(bs.xi**2)))
        assert norm_v <= 4 * norm_xi * (1 + norm_xi ** (1.0 / 3.0)) + 1e-9
        assert norm_xi <= norm_v * (1 + norm_v) ** (1.0 / 3.0) + 1e-9


def test_condition_p_construction():
    p = dz.condition_p_potential(delta=0.5, eps=0.06, t=0.03)
    bs = bands.band_structure(p, 1)
    assert abs(bs.lambda0) < 1e-8
    # positive above delta on [0, eps] before the shift
    base = translate(p, -p.shift)
    grid = np.linspace(0, 0.06, 32)
    assert np.all(base.evaluate(grid) > 0.5)
    # even about 1/2 before the shift
    assert np.allclose(base.evaluate(grid), base.evaluate(1.0 - grid), atol=1e-12)
    d = mo.integrate(p, 0.0)
    assert d.a_value / d.phi_1 > 0


def test_condition_p_zero_shift_gives_zero_a():
    p = dz.condition_p_potential(delta=0.5, eps=0.06, t=0.03)
    base = translate(p, -p.shift)
    d = mo.integrate(base, 0.0)
    assert abs(d.a_value) < 1e-9  # even potential at the normalized edge


def test_condition_p_rejects_bad_args():
    with pytest.raises(ValueError):
        dz.condition_p_potential(delta=0.5, eps=0.05, t=0.2)


@pytest.fixture(scope="module")
def deep_n1():
    return dz.construct_model_potential(1, 0.1, 2)


def test_deep_design_lands_on_the_bound_sheet(deep_n1):
    # this build once raised SignUnreachable: the fit chose the mirror-image seed
    p, gamma, bs, rep = deep_n1
    assert rep.converged
    assert [s.sign for s in bs.states] == [1]
    assert bs.gap_lengths[0] == pytest.approx(gamma, rel=1e-4)


def test_reflection_keeps_spectrum_and_flips_sheets(deep_n1):
    p = deep_n1[0]
    q = dz._reflect(p)
    x = np.linspace(0.0, 1.0, 17)
    assert np.allclose(q.evaluate(x), p.evaluate(-x), rtol=0, atol=1e-9 * p.sup_norm_bound)
    edges_p, edges_q = sm.hill_band_edges(p, 1), sm.hill_band_edges(q, 1)
    for ep, eq in zip(edges_p, edges_q):
        assert np.allclose(ep, eq, rtol=1e-9, atol=1e-6)
    mu_p, mu_q = sm.galerkin_dirichlet(p, 1), sm.galerkin_dirichlet(q, 1)
    assert mu_q == pytest.approx(mu_p, rel=1e-9)
    assert mo.integrate_batch(q, mu_q).a_sign[0] == -mo.integrate_batch(p, mu_p).a_sign[0]
