import math
from dataclasses import replace

import numpy as np
import pytest

from hill_octant import bands, halfsolid as hsm, monodromy as mo
from hill_octant.errors import (
    BracketFailure,
    InsufficientPoints,
    MultipleRoots,
    NotBoundState,
    NotNormalized,
    OutsideGap,
)
from hill_octant.potential import add_constant, fourier_potential, zero_potential
from hill_octant import design as dz


def test_free_potential_single_band():
    hs = hsm.ac_spectrum(zero_potential(), 4.0, 3)
    assert len(hs.ac_bands) == 1
    assert hs.ac_bands[0][0] == pytest.approx(0.0, abs=1e-10)
    assert hs.ac_bands[0][1] == math.inf
    assert hs.gap_list == ()
    hs2 = hsm.ac_spectrum(zero_potential(), -4.0, 3)
    assert hs2.ac_bands[0][0] == pytest.approx(-4.0)
    assert hs2.tau0 == -4.0


def test_free_potential_no_eigenvalues():
    hs = hsm.gap_eigenvalues(zero_potential(), 25.0, 3)
    assert hs.eigenvalues == ()


def test_gaps_survive_for_large_tau(bound_state_potential, bound_state_bands):
    bs = bound_state_bands
    hs = hsm.ac_spectrum(bound_state_potential, 1e4, 2, bs=bs)
    assert len(hs.gap_list) == 2
    g1 = hs.gap_list[0]
    assert not g1.truncated
    assert g1.lo == pytest.approx(bs.gap_lo[0]) and g1.hi == pytest.approx(bs.gap_hi[0])
    # tail band starts at the edge, not at tau
    assert hs.ac_bands[-1][0] < 1e4


def test_tau_inside_gap_truncates_it(bound_state_potential, bound_state_bands):
    bs = bound_state_bands
    tau = 0.5 * (bs.gap_lo[0] + bs.gap_hi[0])
    hs = hsm.ac_spectrum(bound_state_potential, tau, 2, bs=bs)
    assert len(hs.gap_list) == 1
    g = hs.gap_list[0]
    assert g.truncated and g.hi == pytest.approx(tau)
    assert hs.ac_bands[-1] == (pytest.approx(tau), math.inf)


def test_tau_inside_band_keeps_lower_gaps(bound_state_potential, bound_state_bands):
    bs = bound_state_bands
    tau = 0.5 * (bs.gap_hi[0] + bs.gap_lo[1])  # inside band sigma_1
    hs = hsm.ac_spectrum(bound_state_potential, tau, 2, bs=bs)
    assert len(hs.gap_list) == 1
    assert not hs.gap_list[0].truncated
    assert hs.ac_bands[-1][0] == pytest.approx(bs.gap_hi[0])


def test_wronskian_free_case_negative():
    p = zero_potential()
    for lam in (-1.0, -5.0, -20.0):
        w = hsm.wronskian(p, 10.0, lam, 0)
        assert w == pytest.approx(-math.sqrt(-lam) - math.sqrt(10.0 - lam), rel=1e-10)
        assert w < 0


def test_wronskian_requires_lambda_below_tau(zero=zero_potential()):
    with pytest.raises(OutsideGap):
        hsm.wronskian(zero, 5.0, 7.0, 0)


def test_eigenvalue_approaches_bound_state(bound_state_potential, bound_state_bands):
    bs = bound_state_bands
    mu1 = bs.dirichlet[0]
    c = hsm.asymptotic_coefficient(bound_state_potential, 1, bs=bs)
    assert c < 0  # Weyl-function residues are negative
    prev_err = None
    for tau in (1e4, 1e5, 1e6):
        hs = hsm.gap_eigenvalues(bound_state_potential, tau, 2, bs=bs)
        evs = dict(hs.eigenvalues)
        assert 1 in evs
        lam = evs[1]
        assert bs.gap_lo[0] < lam < bs.gap_hi[0]
        assert lam < tau
        err = lam - mu1
        assert err < 0  # approach from below, matching the residue sign
        assert c * err > 0
        if prev_err is not None:
            assert abs(err) < abs(prev_err)  # monotone approach
        # leading-order match to c / sqrt(tau)
        assert err == pytest.approx(c / math.sqrt(tau), rel=0.2)
        prev_err = err


def test_wronskian_residual_at_root(bound_state_potential, bound_state_bands):
    hs = hsm.gap_eigenvalues(bound_state_potential, 1e4, 2, bs=bound_state_bands)
    for j, lam in hs.eigenvalues:
        assert abs(hsm.wronskian(bound_state_potential, 1e4, lam, j)) < 1e-6


def test_residue_matches_numerical_limit(bound_state_potential, bound_state_bands):
    bs = bound_state_bands
    mu1 = float(bs.dirichlet[0])
    c = hsm.asymptotic_coefficient(bound_state_potential, 1, bs=bs)
    # Richardson-style extrapolation of (lam - mu) m_+(lam)
    ests = []
    for d in (1e-3, 1e-4):
        ests.append((-d) * mo.m_plus(bound_state_potential, mu1 - d, 1))
    extrap = ests[1] + (ests[1] - ests[0]) / 9.0
    assert c == pytest.approx(extrap, rel=1e-4)


def test_asymptotic_coefficient_requires_bound_state(mathieu):
    with pytest.raises(NotBoundState):
        hsm.asymptotic_coefficient(mathieu, 1)  # virtual state


def test_rate_fit_slope_and_constant(bound_state_potential, bound_state_bands):
    fit = hsm.verify_sqrt_rate(
        bound_state_potential, 1, [1e3, 1e4, 1e5, 1e6], bs=bound_state_bands
    )
    assert fit.slope == pytest.approx(-0.5, abs=0.06)
    assert fit.constant == pytest.approx(abs(fit.c_direct), rel=0.5)


def test_rate_fit_requires_enough_points(bound_state_potential, bound_state_bands):
    with pytest.raises(InsufficientPoints):
        hsm.verify_sqrt_rate(bound_state_potential, 1, [1e4, 1e5], bs=bound_state_bands)


@pytest.fixture(scope="module")
def condition_p():
    return dz.condition_p_potential(delta=0.5, eps=0.06, t=0.03)


def test_ground_state_criterion(condition_p):
    p = condition_p
    bs = bands.band_structure(p, 1)
    assert abs(bs.lambda0) < 1e-8
    gs_probe = hsm.ground_state_count(p, 1.0, bs=bs)
    rho, nu0 = gs_probe.rho, gs_probe.nu0
    assert rho > 0
    assert nu0 <= 0
    window = rho**2 - nu0
    for frac in (0.15, 0.35, 0.5, 0.7, 0.9):
        tau = nu0 + frac * window
        gs = hsm.ground_state_count(p, tau, bs=bs)
        assert gs.count == 1, f"tau at {frac} of the window"
        assert gs.energy is not None and gs.energy < min(0.0, tau)
        assert abs(hsm.wronskian(p, tau, gs.energy, 0)) < 1e-9
    assert hsm.ground_state_count(p, nu0 - 1.0, bs=bs).count == 0
    assert hsm.ground_state_count(p, rho**2 + 1.0, bs=bs).count == 0


def test_rho_is_a_over_phi_at_lambda0(condition_p):
    # F^2 = 1 at the band edge lambda_0, so rho = m_+(lambda_0) = a / phi(1);
    # a nudge of lambda_0 by rounding size must not move rho past rounding
    p = condition_p
    bs = bands.band_structure(p, 1)
    rho = hsm.ground_state_count(p, 1.0, bs=bs).rho
    mb = mo.integrate_batch(p, [bs.lambda0])
    a = 0.5 * (mb.phi_prime_1[0] - mb.theta_1[0])
    assert rho == pytest.approx(a / mb.phi_1[0], rel=1e-12)
    for nudge in (-1e-13, 1e-13):
        nudged = replace(bs, lambda0=bs.lambda0 + nudge)
        assert hsm.ground_state_count(p, 1.0, bs=nudged).rho == pytest.approx(rho, rel=1e-10)


def test_even_potential_has_no_ground_state():
    # without the translation: a(0) = 0, rho = 0, count 0
    p0 = fourier_potential([(1, 4.0, 0.0)])
    bs0 = bands.band_structure(p0, 1)
    p = add_constant(p0, -bs0.lambda0)
    gs = hsm.ground_state_count(p, 1.0)
    assert gs.count == 0
    assert abs(gs.rho) < 1e-6


def test_ground_state_requires_normalization(mathieu):
    with pytest.raises(NotNormalized):
        hsm.ground_state_count(mathieu, 1.0)


def test_shift_derivative_identity(condition_p):
    # d a(0)/dt against -theta'(1,0) + p(t) phi(1,0), finite differences in t
    from hill_octant.potential import translate

    base = condition_p
    t0 = base.shift
    h = 1e-5
    ap = mo.integrate(translate(base, +h), 0.0).a_value
    am = mo.integrate(translate(base, -h), 0.0).a_value
    fd = (ap - am) / (2 * h)
    d = mo.integrate(base, 0.0)
    p_at_t = base.evaluate(0.0)  # v(0) = p(t) for the shifted potential
    formula = -d.theta_prime_1 + p_at_t * d.phi_1
    assert fd == pytest.approx(formula, rel=1e-4)


def test_gap_eigenvalues_root_budget(bound_state_potential, bound_state_bands, passes):
    # one pass over the piece ends and starts, then Newton on the pieces
    # with a root from its tau-law start
    hs = hsm.gap_eigenvalues(bound_state_potential, 1e4, 2, bs=bound_state_bands)
    assert 1 in dict(hs.eigenvalues)
    assert len(passes) <= 5
    assert sum(q.width for q in passes) <= 100


def test_ground_state_pass_budget(condition_p, passes):
    # the lowest gap is one piece bracketed by the form bound: one pass at
    # lambda_0 for rho and the threshold law, one over the piece ends and the
    # threshold-law start, then the Newton passes in the variable without
    # the square-root branch at tau0 (19 passes when the Newton ran in
    # lambda, 8 when it started at the midpoint after a pass on the ends)
    p = condition_p
    bs = bands.band_structure(p, 1)
    probe = hsm.ground_state_count(p, 1.0, bs=bs)
    tau = probe.nu0 + 0.5 * (probe.rho**2 - probe.nu0)
    passes.clear()
    gs = hsm.ground_state_count(p, tau, bs=bs)
    assert gs.count == 1 and gs.energy is not None
    assert len(passes) <= 4


def test_rate_fit_solves_the_sweep_in_one_batch(modest_design, passes):
    # every tau of the fit goes to one pass over the piece ends and starts
    # and one batched Newton (65 passes when each tau was searched on its
    # own, 6 when the Newton started at the piece midpoints), and each root
    # is the one gap_eigenvalues finds for that tau alone
    p, bs = modest_design
    taus = np.geomspace(1e2, 1e6, 6)
    fit = hsm.verify_sqrt_rate(p, 1, taus, bs=bs)
    assert len(passes) <= 5
    mu1 = bs.dirichlet[0]
    assert fit.taus == tuple(taus)
    for tau, gap in zip(fit.taus, fit.gaps_to_mu):
        lam = dict(hsm.gap_eigenvalues(p, tau, 3, bs=bs).eigenvalues)[1]
        assert abs(abs(lam - mu1) - gap) <= 1e-12 * abs(lam)


def test_tau_law_starts_close_in_on_the_roots(modest_design):
    # below each bound mu_j the Newton starts at mu_j + c_j / sqrt(tau - mu_j)
    # where that lies inside the piece: nearer the root than the midpoint
    # once tau >= 1e3, and with an error that does not grow against
    # |mu_j - root| as tau grows (it is O(1/tau) against O(1/sqrt(tau)); the
    # fitted log-log slope is taken, since second-order terms make it wander
    # at the low taus).  At tau = 631 gap 2's root lies 0.045 from its
    # piece's midpoint and 0.097 from the start.
    p, bs = modest_design
    taus = np.geomspace(1e2, 1e6, 6)
    ratios, outside = {}, []
    for tau in taus:
        sweep = [(tau, hsm.ac_spectrum(p, tau, 3, bs=bs).gap_list)]
        lo, hi, owner, _, _, _, s_hi, pole, start = hsm._pieces(sweep, bs)
        roots = dict(hsm.gap_eigenvalues(p, tau, 3, bs=bs).eigenvalues)
        below = (s_hi == 0.5) & np.isfinite(pole)
        assert set(roots) <= set(owner[below].tolist())  # every root lies below its mu_j
        for a, b, j, mu, x0 in zip(lo[below], hi[below], owner[below], pole[below], start[below]):
            law = mu + bs.state(j).residue / np.sqrt(tau - mu)
            if not a < law < b:
                assert x0 == 0.5 * (a + b)
                outside.append((tau, j))
                continue
            assert x0 == law
            if j in roots:
                root = roots[j]
                assert tau < 1e3 or abs(x0 - root) < abs(0.5 * (a + b) - root)
                ratios.setdefault(j, []).append((tau, abs(x0 - root) / abs(mu - root)))
    # at tau = 100 the law puts gaps 2 and 3 below their gaps, and gap 3 has
    # no root yet
    assert outside == [(taus[0], 2), (taus[0], 3)] and len(ratios[3]) == len(taus) - 1
    for j, pairs in ratios.items():
        t, r = np.log(np.array(pairs)).T
        assert np.polyfit(t, r, 1)[0] < 0 and r[-1] < r[0], (j, pairs)


def test_threshold_start_is_near_the_ground_state(condition_p):
    # below lambda_0, m_+ = rho - beta sqrt(lambda_0 - lambda) to leading
    # order; the start it gives lies within 1e-2 of E, relative, across the
    # window (max(nu_0, 0), rho^2)
    p = condition_p
    bs = bands.band_structure(p, 1)
    rho, beta = hsm._threshold_law(p, bs.lambda0)
    gs = hsm.ground_state_count(p, 1.0, bs=bs)
    assert rho == gs.rho and beta > 0
    for frac in np.linspace(0.02, 0.98, 9):
        tau = max(gs.nu0, 0.0) + frac * (rho**2 - max(gs.nu0, 0.0))
        E = hsm.ground_state_count(p, tau, bs=bs).energy
        start = hsm._threshold_start(rho, beta, bs.lambda0, tau)
        assert abs(start - E) <= 1e-2 * abs(E)


def test_first_pass_holds_the_ends_and_starts(bound_state_potential, bound_state_bands, passes):
    # one pass evaluates both ends and the start of every piece; no later
    # pass evaluates a piece end, so no pass is spent on signs alone, and
    # none evaluates a start again: the first Newton step comes from the
    # first pass
    bs = bound_state_bands
    hs = hsm.gap_eigenvalues(bound_state_potential, 1e4, 2, bs=bs)
    lo, hi, *_, start = hsm._pieces([(1e4, hs.gap_list)], bs)
    first = np.concatenate((lo, hi, start))
    assert np.array_equal(passes[0].lams, first)
    assert not any(np.isin(q.lams, first).any() for q in passes[1:])


def test_sign_changes_on_both_sides_of_mu_raise(bound_state_potential, bound_state_bands, monkeypatch):
    # gap 1 is cut at mu_1 into two pieces; w < 0 at both lower ends and
    # w > 0 at both upper ends would put a root on each side.  The first
    # pass lists the lower piece ends, the upper ones, then the starts.
    def both_sides(p, tau, lams, gap_index):
        w = np.where(np.arange(lams.size) < lams.size // 3, -1.0, 1.0)
        return w, np.ones_like(w)

    monkeypatch.setattr(hsm, "_w_and_slope", both_sides)
    with pytest.raises(MultipleRoots):
        hsm.gap_eigenvalues(bound_state_potential, 1e4, 1, bs=bound_state_bands)


def test_near_edge_antibound_state_has_one_root(asym_potential):
    # the anti-bound mu_3 of asym lies just below lambda_3^+; with m_+ smooth
    # there, w changes sign on one side of mu_3 only
    hs = hsm.gap_eigenvalues(asym_potential, 1e5, 3)
    roots = [lam for j, lam in hs.eigenvalues if j == 3]
    assert len(roots) == 1
    lam = roots[0]
    assert hs.band_data.gap_lo[2] < lam < hs.band_data.gap_hi[2]
    w_below, w_above = (hsm.wronskian(asym_potential, 1e5, lam + h, 3) for h in (-1e-9, 1e-9))
    assert w_below < 0 < w_above


def test_non_finite_w_at_a_piece_end_raises(bound_state_potential, bound_state_bands, monkeypatch):
    # an infinite w has a sign but brackets nothing, so no empty answer
    # comes back
    def overflowing(p, tau, lams, gap_index):
        return np.full(np.size(lams), np.inf), np.ones(np.size(lams))

    monkeypatch.setattr(hsm, "_w_and_slope", overflowing)
    with pytest.raises(BracketFailure, match="not finite"):
        hsm.gap_eigenvalues(bound_state_potential, 1e4, 2, bs=bound_state_bands)


def test_deep_design_has_one_root_per_bound_gap(deep_n2_d3):
    # the designed deep well renormalizes its solutions at gap energies;
    # m_+ from the scale-free components still brackets one root below each
    # bound mu_j
    p, _, bs, _ = deep_n2_d3[0]
    hs = hsm.gap_eigenvalues(p, 1e5, 2, bs=bs)
    assert [j for j, _ in hs.eigenvalues] == [s.index for s in bs.bound_states()] == [1, 2]
    for j, lam in hs.eigenvalues:
        assert bs.gap_lo[j - 1] < lam < bs.dirichlet[j - 1]


def test_deep_design_rate_fit_has_a_finite_residue(deep_n2_d3):
    # the stored a and phi_lam of the deep design saturate at +-inf; the
    # residue 2a/phi_lam from the scaled components is finite, and the
    # fitted constant of the 1/sqrt(tau) law lands on it
    p, _, bs, _ = deep_n2_d3[0]
    fit = hsm.verify_sqrt_rate(p, 1, np.geomspace(1e8, 1e12, 5), bs=bs)
    assert math.isfinite(fit.c_direct) and fit.c_direct < 0
    assert fit.constant == pytest.approx(abs(fit.c_direct), rel=0.05)
    assert fit.slope == pytest.approx(-0.5, abs=0.01)


def test_residue_from_components_matches_the_rescaled_values(modest_design):
    # where nothing is renormalized the scale-free residue is 2a/phi_lam
    p, bs = modest_design
    for s in bs.bound_states():
        c = hsm.asymptotic_coefficient(p, s.index, bs=bs)
        assert c == pytest.approx(2.0 * s.a_value / s.phi_lam, rel=1e-12)
