import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hill_octant import bands, design as dz, monodromy as mo
from hill_octant import spectral_matrix as sm
from hill_octant.errors import IllConditioned, PostconditionFail, RhoNotPositive, SignUnreachable
from hill_octant.potential import fourier_potential, l2_norm, translate

from conftest import reflect
from oracles import dense_hill_block


def test_target_validation():
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=2, gap_lengths=(1.0,))
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=2, gap_lengths=(1.0, 1.0), state_fracs=(0.5, 1.5))
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=3, gap_lengths=(1.0,) * 3, basis_size=2)
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=2, gap_lengths=(1.0, 1.0), state_signs=(1,))
    with pytest.raises(ValueError):
        dz.DesignTarget(n_gaps=1, gap_lengths=(1.0,), state_signs=(2,))


def test_gauss_newton_rejects_rank_deficient_jacobian():
    # both residuals depend on x0 + x1 only: the Jacobian has rank 1
    def residual_jac(x):
        r = np.array([x[0] + x[1] - 1.0, 2.0 * (x[0] + x[1]) - 3.0])
        return r, np.array([[1.0, 1.0], [2.0, 2.0]])

    with pytest.raises(IllConditioned):
        dz._gauss_newton(residual_jac, [0.0, 0.0], 1e-8)


def _central_difference(fun, x, h, columns):
    """Columns of the Jacobian of fun at x by central differences of step h."""
    out = []
    for j in columns:
        e = np.zeros_like(x)
        e[j] = h[j]
        out.append((fun(x + e) - fun(x - e)) / (2.0 * h[j]))
    return np.array(out).T


def test_forward_map_gradients_match_central_difference(modest_design):
    # edges and Dirichlet points of criterion 6's design, in (cos_k, sin_k)
    p = modest_design[0]
    N, M = 3, 4
    x = np.concatenate(([t.cos for t in p.fourier], [t.sin for t in p.fourier]))

    def values(x):
        lengths, pos = dz._forward_map(dz._potential_from_coeffs(x[:M], x[M:]), N, M)[:2]
        return np.concatenate((lengths, pos))

    _, _, d_len, d_pos = dz._forward_map(p, N, M)[:4]
    J = np.vstack((d_len, d_pos))
    J_fd = _central_difference(values, x, np.full(2 * M, 1e-3), range(2 * M))
    assert np.max(np.abs(J - J_fd)) < 1e-6 * np.max(np.abs(J))


def test_deep_jacobian_matches_central_difference(deep_n1):
    # translated coordinates z = [A_1..A_M, B_2..B_M, t] of the finished design
    p, gamma = deep_n1[:2]
    M = len(p.fourier)
    fit = dz._DeepFitter(1, gamma, M, hill_modes=160)
    z = np.concatenate(([t.cos for t in p.fourier], [t.sin for t in p.fourier[1:]], [p.shift]))
    f_target = np.array([0.125])
    _, J = fit.residual_jac(z, f_target)
    assert fit.build(z).evaluate(0.3) == pytest.approx(p.evaluate(0.3) - p.constant)
    columns = [0, 1, 5, M, M + 3, 2 * M - 1]
    h = np.concatenate((np.full(2 * M - 1, 0.1), [1e-6]))
    J_fd = _central_difference(lambda z: fit.residual_jac(z, f_target)[0], z, h, columns)
    # edges near 3e4 divided by gamma leave rounding near 1e-13 in r, hence the noise term
    bound = 1e-7 * np.max(np.abs(J), axis=1)[:, None] + 1e-13 / h[columns]
    assert np.all(np.abs(J[:, columns] - J_fd) <= bound)


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


def test_place_states_reaches_mixed_sheets(mixed_sheet_design):
    p, rep = mixed_sheet_design
    bs = bands.band_structure(p, 2)
    fr = (bs.dirichlet - bs.gap_lo) / bs.gap_lengths
    assert np.allclose(bs.gap_lengths, 5.0, rtol=2e-4)
    assert fr == pytest.approx([0.125, 0.3], abs=5e-4)
    assert [s.sign for s in bs.states] == [1, -1]
    assert rep.restarts <= 5  # six translation seeds, no reflected twins


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


def test_condition_p_tries_the_shift_eps(monkeypatch):
    # with m_+(0) never positive, every shift up to and including eps is tried
    shifts = []

    def negative_rho(p, lam):
        shifts.append(p.shift)
        return SimpleNamespace(a_value=-1.0, phi_1=1.0)

    monkeypatch.setattr(dz, "integrate", negative_rho)
    with pytest.raises(RhoNotPositive, match="up to eps"):
        dz.condition_p_potential(delta=0.5, eps=0.06, t=0.03)
    assert shifts == pytest.approx([0.03, 0.045, 0.06])


def test_condition_p_rejects_bad_args():
    with pytest.raises(ValueError):
        dz.condition_p_potential(delta=0.5, eps=0.05, t=0.2)


@pytest.fixture(scope="module")
def deep_n1():
    return dz.construct_model_potential(1, 0.1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_deep_design_lands_on_the_bound_sheet(d, monkeypatch):
    # the translation Newton keeps to the bound side of the well, so the fit
    # needs no mirror repair: one shooting pass checks the sheets, and the
    # gap-length fit and the position fit are the only Gauss-Newton solves
    calls = {"shoot": 0, "solve": 0}
    integrate, solve = dz.integrate_batch, dz._gauss_newton

    def counted_integrate(*args, **kwargs):
        calls["shoot"] += 1
        return integrate(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(dz, "integrate_batch", counted_integrate)
    monkeypatch.setattr(dz, "_gauss_newton", counted_solve)
    p, gamma, bs, rep = dz.construct_model_potential(1, 0.1, d)
    assert rep.converged
    assert [s.sign for s in bs.states] == [1]
    assert bs.gap_lengths[0] == pytest.approx(gamma, rel=1e-4)
    assert calls == {"shoot": 1, "solve": 2}


def test_reflection_keeps_spectrum_and_flips_sheets(deep_n1):
    p = deep_n1[0]
    q = reflect(p)
    x = np.linspace(0.0, 1.0, 17)
    assert np.allclose(q.evaluate(x), p.evaluate(-x), rtol=0, atol=1e-9 * p.sup_norm_bound)
    edges_p, edges_q = sm.hill_band_edges(p, 1), sm.hill_band_edges(q, 1)
    for ep, eq in zip(edges_p, edges_q):
        assert np.allclose(ep, eq, rtol=1e-9, atol=1e-6)
    mu_p, mu_q = sm.galerkin_dirichlet(p, 1), sm.galerkin_dirichlet(q, 1)
    assert mu_q == pytest.approx(mu_p, rel=1e-9)
    assert mo.integrate_batch(q, mu_q).a_sign[0] == -mo.integrate_batch(p, mu_p).a_sign[0]


def _lift_bands(bs, gamma):
    # every band a tenth of gamma higher: gap lengths unchanged, band sums not
    return replace(bs, gap_lo=bs.gap_lo + 0.1 * gamma, gap_hi=bs.gap_hi + 0.1 * gamma)


def _widen_gaps(bs, gamma):
    return replace(bs, gap_hi=bs.gap_hi + 1e-3 * gamma)


@pytest.mark.parametrize("spoil, message", [(_lift_bands, "accumulation"), (_widen_gaps, "miss gamma")])
def test_deep_design_postconditions_raise(spoil, message, monkeypatch):
    gamma = 4.0 * math.pi**2 * 4 / 0.1  # construct_model_potential(1, 0.1, 2)
    assemble = dz._matrix_band_structure
    monkeypatch.setattr(dz, "_matrix_band_structure", lambda *args: spoil(assemble(*args), gamma))
    with pytest.raises(PostconditionFail, match=message):
        dz.construct_model_potential(1, 0.1, 2)


def test_deep_design_zero_count_postcondition_raises(monkeypatch):
    integrate = dz.integrate_batch

    def miscounted(*args, **kwargs):
        mb = integrate(*args, **kwargs)
        mb.phi_zeros = mb.phi_zeros + 2  # no longer n or n - 1 zeros at mu_n
        return mb

    monkeypatch.setattr(dz, "integrate_batch", miscounted)
    with pytest.raises(PostconditionFail, match="oscillation counts"):
        dz.construct_model_potential(1, 0.1, 2)


def _translation_solves(events):
    """Solves between the gap-length fit and the position fit."""
    start = events.index("lengths")
    return events[start + 1 : events.index("solve", start)]


def test_translation_scan_solves_the_hill_blocks_once(deep_n2_d3):
    # translation moves no band edge: one Hill solve, then a bracketed Newton
    # in t makes a few Dirichlet solves
    (_, _, _, rep), events, _, _ = deep_n2_d3
    scan = _translation_solves(events)
    assert scan.count("hill") == 1
    assert scan.count("galerkin") <= 6
    assert rep.iterations <= 6


def test_criterion_5_translation_solves(criterion5_design):
    (_, _, bs, rep), events, *_ = criterion5_design
    scan = _translation_solves(events)
    assert scan.count("hill") == 1
    assert scan.count("galerkin") <= 6
    assert rep.iterations <= 5
    assert [s.sign for s in bs.states] == [1, 1, 1]


def test_deep_fit_starts_each_solve_from_the_last(monkeypatch):
    # the Gauss-Newton hands each Hill solve's blocks to the next: only the
    # position fit's first Hill solve starts cold (the gap-length fit's Hill
    # bases vary).  The Dirichlet solves are dense and take no start.
    seen = []
    solve = sm.hill_edges_and_vectors

    def recorded(*args, **kwargs):
        if kwargs.get("modes") is not None:
            seen.append(kwargs.get("start") is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sm, "hill_edges_and_vectors", recorded)
    dz.construct_model_potential(2, 0.1, 3)
    assert len(seen) > 2 and not seen[0] and all(seen[1:])


def test_wrong_shooting_sheets_raise_sign_unreachable(monkeypatch):
    # the shooting cross-check, not the matrix route, certifies the sheets
    monkeypatch.setattr(dz, "sheet_signs", lambda mb: -np.ones(mb.a_sign.size, dtype=int))
    with pytest.raises(SignUnreachable, match="shooting sheet signs"):
        dz.construct_model_potential(1, 0.1, 2)


def test_deep_model_meets_the_benchmark_checks(deep_n2_d3):
    (p, gamma, bs, rep), _, _, _ = deep_n2_d3
    assert rep.converged
    _, glo, ghi, _ = sm.hill_band_edges(p, 2, modes=400)
    mu = sm.galerkin_dirichlet(p, 2, dim=800)
    assert np.max(np.abs((ghi - glo) - gamma)) < 1e-4 * gamma
    assert np.max(np.abs(mu - (glo + gamma / 12))) < 1e-3 * gamma
    assert [s.sign for s in bs.states] == [1, 1]


def test_deep_design_reports_matrix_routes(deep_n2_d3):
    # the deep band structure is assembled from the Hill matrices, and the
    # normalizing shift keeps its route labels
    (_, _, bs, _), *_ = deep_n2_d3
    assert (bs.lambda0_route, bs.next_band_end_route) == ("matrix", "matrix")
    assert {s.certified_by for s in bs.states} == {"matrix"}


def test_deep_blocks_converge_within_step_budget(deep_n2_d3):
    _, _, blocks, _ = deep_n2_d3
    steps = [n for dim, n, _ in blocks if dim == 541]
    assert steps and max(steps) <= 24


def test_shift_lies_below_a_deep_design_block(deep_n2_d3):
    # the last Hill solve is on the finished design, periodic block first
    _, _, blocks, hill_args = deep_n2_d3
    p = hill_args[-1][0]
    (dim_per, _, sigma_per), (dim_anti, _, sigma_anti) = blocks[-2:]
    assert sigma_per < dense_hill_block(p, 0.0, (dim_per - 1) // 2)[0][0]
    assert sigma_anti < dense_hill_block(p, 0.5, dim_anti // 2)[0][0]
