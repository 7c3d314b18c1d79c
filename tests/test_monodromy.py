import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hill_octant import bands, monodromy as mo
from hill_octant import spectral_matrix as sm
from hill_octant.errors import NonFiniteInput, OutsideGap, PoleAt, StepUnderflow
from hill_octant.potential import (
    constant_potential,
    fourier_potential,
    piecewise_potential,
    zero_potential,
)

from conftest import random_corpus
from oracles import rk4_monodromy


def test_dop853_coefficients_satisfy_the_order_conditions():
    # catches transcription errors in the inlined tableau: the weights
    # integrate x^(k-1) exactly for k = 1..8, each row of A sums to its
    # node, and both error weights annihilate constants
    c, b = mo._C, mo._B
    for k in range(1, 9):
        assert b @ c ** (k - 1) == pytest.approx(1.0 / k, abs=1e-14)
    assert np.max(np.abs(mo._A_MAT.sum(axis=1) - c)) < 1e-14
    assert abs(np.sum(mo._E5)) < 1e-14
    assert abs(np.sum(mo._E3)) < 1e-14


def free_discriminant(lam):
    if lam >= 0:
        return math.cos(math.sqrt(lam))
    return math.cosh(math.sqrt(-lam))


def test_free_potential_closed_forms():
    p = zero_potential()
    d = mo.integrate(p, math.pi**2 / 4)
    assert d.discriminant == pytest.approx(0.0, abs=1e-14)
    assert d.phi_1 == pytest.approx(2.0 / math.pi, abs=1e-14)
    d0 = mo.integrate(p, 0.0)
    assert d0.discriminant == pytest.approx(1.0, abs=1e-14)
    assert d0.a_value == pytest.approx(0.0, abs=1e-15)
    assert d0.phi_1 == pytest.approx(1.0, abs=1e-14)


def test_free_discriminant_across_range():
    p = zero_potential()
    lams = np.linspace(-10.0, 400.0, 83)
    F = mo.integrate_batch(p, lams).discriminant
    ref = np.array([free_discriminant(l) for l in lams])
    assert np.max(np.abs(F - ref)) < 1e-10


def test_constant_potential_is_shifted_free():
    c = 7.5
    p = constant_potential(c)
    for lam in (-3.0, 2.0, 40.0, 111.0):
        assert mo.discriminant(p, lam) == pytest.approx(free_discriminant(lam - c), abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 5.0, 20.0])
def test_fourier_route_matches_fixed_step_oracle(mathieu, lam):
    d = mo.integrate(mathieu, lam)
    u = rk4_monodromy(mathieu, lam, nsteps=8192)
    assert d.theta_1 == pytest.approx(u[0], abs=2e-9)
    assert d.theta_prime_1 == pytest.approx(u[1], abs=2e-9)
    assert d.phi_1 == pytest.approx(u[2], abs=2e-9)
    assert d.phi_prime_1 == pytest.approx(u[3], abs=2e-9)
    assert d.theta_lam == pytest.approx(u[4], abs=2e-9)
    assert d.phi_lam == pytest.approx(u[6], abs=2e-9)


def test_random_fourier_vs_oracle(asym_potential):
    for lam in (-4.0, 13.7, 95.2):
        d = mo.integrate(asym_potential, lam)
        u = rk4_monodromy(asym_potential, lam, nsteps=8192)
        scale = max(1.0, np.max(np.abs(u[:4])))
        assert abs(d.discriminant - 0.5 * (u[3] + u[0])) < 1e-9 * scale
        assert abs(d.phi_1 - u[2]) < 1e-9 * scale


def test_piecewise_transfer_matches_rk_oracle():
    p = piecewise_potential([(0.0, 0.4, 3.0), (0.4, 1.0, -2.0)], constant=0.5)
    for lam in (-6.0, 1.0, 24.0, 130.0):
        d = mo.integrate(p, lam)
        u = rk4_monodromy(p, lam, nsteps=20000)
        assert d.theta_1 == pytest.approx(u[0], rel=1e-9, abs=1e-10)
        assert d.phi_1 == pytest.approx(u[2], rel=1e-9, abs=1e-10)
        assert d.phi_lam == pytest.approx(u[6], rel=1e-8, abs=1e-9)
        assert d.wronskian == pytest.approx(1.0, abs=1e-12)


def test_wronskian_everywhere(asym_potential):
    lams = np.linspace(-8, 300, 40)
    mb = mo.integrate_batch(asym_potential, lams)
    assert np.max(np.abs(mb.wronskian - 1.0)) < 1e-9


def test_identity_a_squared(asym_potential):
    lams = np.linspace(-5, 250, 35)
    mb = mo.integrate_batch(asym_potential, lams)
    lhs = mb.a_value**2 + 1.0 - mb.discriminant**2
    rhs = -mb.phi_1 * mb.theta_prime_1
    scale = np.maximum(1.0, np.abs(lams))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-8


def test_discriminant_derivative_vs_finite_differences(asym_potential):
    for lam in (3.0, 47.0, 160.0):
        step = 1e-5 * max(1.0, abs(lam))
        d = mo.integrate(asym_potential, lam)
        fp = mo.discriminant(asym_potential, lam + step)
        fm = mo.discriminant(asym_potential, lam - step)
        fd = (fp - fm) / (2 * step)
        assert d.discriminant_lam == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_even_potential_a_vanishes_at_lowest_edge(mathieu):
    # the lowest band edge of 2 cos(2 pi x), from the Fourier-matrix route
    lam0 = -0.05060384199840895
    d = mo.integrate(mathieu, lam0)
    assert abs(d.a_value) < 1e-7


def test_branch_b_sign_convention(bound_state_potential, bound_state_bands):
    bs = bound_state_bands
    lam = 0.5 * (bs.gap_lo[0] + bs.gap_hi[0])
    b1 = mo.branch_b(bound_state_potential, lam, 1, sheet=1)
    assert b1 < 0  # (-1)^1 * positive root
    assert mo.branch_b(bound_state_potential, lam, 1, sheet=2) == pytest.approx(-b1)
    lam_edge = bs.gap_lo[0]
    assert abs(mo.branch_b(bound_state_potential, lam_edge, 1)) < 1e-4


def test_branch_b_rejects_band_interior(mathieu):
    with pytest.raises(OutsideGap):
        mo.branch_b(mathieu, 20.0, 2)  # inside band, F^2 < 1


def test_m_plus_free_lowest_gap():
    p = zero_potential()
    for lam in (-0.5, -4.0, -25.0):
        assert mo.m_plus(p, lam, 0) == pytest.approx(-math.sqrt(-lam), rel=1e-10)


def test_m_plus_pole_guard(bound_state_potential, bound_state_bands):
    # polish mu_1 to the phi(1, .) zero at full precision; the Weyl
    # function must then refuse to evaluate on top of its pole
    mu1 = float(bound_state_bands.dirichlet[0])
    for _ in range(3):
        d = mo.integrate(bound_state_potential, mu1)
        mu1 -= d.phi_1 / d.phi_lam
    with pytest.raises(PoleAt):
        mo.m_plus(bound_state_potential, mu1, 1)


def test_non_finite_inputs_rejected(mathieu):
    with pytest.raises(NonFiniteInput):
        mo.integrate(mathieu, math.nan)
    with pytest.raises(NonFiniteInput):
        mo.integrate_batch(mathieu, [1.0, math.inf])


def test_zero_counts_free_potential():
    p = zero_potential()
    mb = mo.integrate_batch(p, [5.0, 95.0, 105.0, 400.0], count_zeros=True)
    assert list(mb.phi_zeros) == [0, 3, 3, 6]
    assert list(mb.theta_zeros) == [1, 3, 3, 6]


def test_zero_count_below_a_dirichlet_point_of_the_free_potential():
    # phi(1) = +5e-14 at pi^2 (1 - 1e-13): the zero at x = 1 is not reached
    mb = mo.integrate_batch(zero_potential(), [math.pi**2 * (1.0 - 1e-13)], count_zeros=True)
    assert mb.phi_1[0] > 0
    assert list(mb.phi_zeros) == [0]


def _roots_of(p, component, lo, hi, count):
    """The first `count` roots of component(integrate_batch(p, lam)) above lo, by sign changes and brentq."""
    grid = np.linspace(lo, hi, 4001)
    vals = component(mo.integrate_batch(p, grid))
    cuts = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[:count]
    assert cuts.size == count
    f = lambda lam: float(component(mo.integrate_batch(p, [lam]))[0])
    return np.array([brentq(f, grid[i], grid[i + 1], xtol=1e-300, rtol=1e-15) for i in cuts])


@pytest.mark.parametrize(
    "p",
    [
        piecewise_potential([(0.0, 0.35, -30.0), (0.35, 1.0, 0.0)]),
        piecewise_potential([(0.0, 0.6, 25.0), (0.6, 1.0, -12.0)], shift=0.15),
    ],
)
def test_zero_counts_are_sturm_counts_within_rounding_of_mu(p):
    # at mu_n (1 -+ 1e-13) phi has n - 1 and n zeros in (0, 1]; theta's zeros
    # count the roots of theta(1, .) below lambda, none of them near a mu_n
    lo = -40.0
    mu = _roots_of(p, lambda mb: mb.phi_1, lo, 450.0, 5)
    nd = _roots_of(p, lambda mb: mb.theta_1, lo, 450.0, 5)
    assert np.min(np.abs(np.subtract.outer(mu, nd))) > 1e-6
    for n, m in enumerate(mu, start=1):
        lams = np.array([m - 1e-13 * abs(m), m + 1e-13 * abs(m)])
        mb = mo.integrate_batch(p, lams, count_zeros=True)
        assert list(mb.phi_zeros) == [n - 1, n]
        assert list(mb.theta_zeros) == [int(np.sum(nd < lam)) for lam in lams]


def test_zero_counts_match_transfer_and_rk(mathieu):
    # same potential through both routes: a piecewise sampling of the
    # cosine converges to it, so counts must agree on safe interior points
    lams = np.array([3.0, 30.0, 77.0, 150.0, 260.0])
    rk = mo.integrate_batch(mathieu, lams, count_zeros=True)
    segs = 400
    edges = np.linspace(0.0, 1.0, segs + 1)
    vals = mathieu.evaluate(0.5 * (edges[:-1] + edges[1:]))
    steps = piecewise_potential(
        [(edges[i], edges[i + 1], float(vals[i])) for i in range(segs)]
    )
    tr = mo.integrate_batch(steps, lams, count_zeros=True)
    assert list(rk.phi_zeros) == list(tr.phi_zeros)
    assert list(rk.theta_zeros) == list(tr.theta_zeros)


@pytest.mark.parametrize("shift", [0.0, 0.15])
@pytest.mark.parametrize("a, v, lam", [(0.5, 1e6, -1e6), (0.3, 4e6, -3e6)])
def test_barriers_far_below_the_spectrum_split_and_renormalize(a, v, lam, shift):
    # q_i = v_i - lambda > 0 on both pieces, so F = C1 C2 + (q1 + q2) S1 S2 / 2
    # with C_i = cosh x_i, S_i = sinh x_i / sqrt(q_i), x_i = sqrt(q_i) L_i:
    # log F = x1 + x2 - log 4 + log(1 + (q1 + q2) / (2 sqrt(q1 q2))) up to
    # e^(-2 x_i).  Each piece grows past e^MAX_BLOCK_GROWTH (the second case's
    # first piece past the float64 range), so it is split, and the state is
    # renormalized on the way
    p = piecewise_potential([(0.0, a, v), (a, 1.0, 0.0)], shift=shift)
    mb = mo.integrate_batch(p, [lam], count_zeros=True)
    q1, q2 = v - lam, -lam
    x1, x2 = math.sqrt(q1) * a, math.sqrt(q2) * (1.0 - a)
    assert min(x1, x2) > mo.MAX_BLOCK_GROWTH
    log_F = x1 + x2 - math.log(4.0) + math.log1p((q1 + q2) / (2.0 * math.sqrt(q1 * q2)))
    F_scaled = 0.5 * (mb.phi_prime_1[0] + mb.theta_1[0])
    assert mb.log_scale[0] > 2 * math.log(1e120)
    assert mb.log_scale[0] + math.log(F_scaled) == pytest.approx(log_F, rel=1e-12)
    # y'' = q y with q > 0 everywhere: theta and phi have no zeros
    assert mb.phi_zeros[0] == mb.theta_zeros[0] == 0
    # the Wronskian 1 is stored as e^(-2 log_scale), zero against its terms
    theta_phi_p = mb.theta_1[0] * mb.phi_prime_1[0]
    w = theta_phi_p - mb.theta_prime_1[0] * mb.phi_1[0]
    assert abs(w - math.exp(-2.0 * mb.log_scale[0])) <= 1e-14 * abs(theta_phi_p)


def test_branch_magnitude_equals_a_at_dirichlet_point(bound_state_potential, bound_state_bands):
    # phi(1, mu) = 0 forces a^2 = F^2 - 1 = b^2 through the Wronskian identity
    s = bound_state_bands.state(1)
    assert abs(s.b_sheet1) == pytest.approx(abs(s.a_value), rel=1e-8)


def _states(mb):
    return np.vstack(
        [mb.theta_1, mb.theta_prime_1, mb.phi_1, mb.phi_prime_1,
         mb.theta_lam, mb.theta_prime_lam, mb.phi_lam, mb.phi_prime_lam]
    )


def test_batch_matches_each_energy_alone(asym_potential):
    # a wide batch takes few steps per block, a single energy hundreds
    lams = np.linspace(-8.0, 420.0, 24)
    mb = mo.integrate_batch(asym_potential, lams, count_zeros=True)
    batch = _states(mb)
    for i, lam in enumerate(lams):
        one = mo.integrate_batch(asym_potential, [lam], count_zeros=True)
        scale = max(1.0, np.max(np.abs(batch[:, i])))
        assert np.max(np.abs(_states(one)[:, 0] - batch[:, i])) < 1e-10 * scale
        assert one.phi_zeros[0] == mb.phi_zeros[i]
        assert one.theta_zeros[0] == mb.theta_zeros[i]


def test_deep_well_renormalized_across_blocks():
    # barrier of height ~2e6: solutions grow past e^560, so the state is
    # renormalized in several blocks, at different places for each grouping
    p = fourier_potential([(1, -1e6, 0.0), (2, 2e5, 1.5e5)], constant=1e6)
    vmin = float(np.min(p.evaluate(np.linspace(0.0, 1.0, 20001))))
    lams = vmin + np.array([-100.0, 2e3, 7e3, 2.1e4, 5e4])
    mb = mo.integrate_batch(p, lams, count_zeros=True)
    assert np.all(mb.log_scale > 2 * math.log(1e120))
    # Sturm: phi(., lambda) has one zero in (0, 1) per Dirichlet point below lambda
    mu = sm.galerkin_dirichlet(p, 8)
    assert list(mb.phi_zeros) == [int(np.sum(mu < lam)) for lam in lams]
    for i, lam in enumerate(lams):
        one = mo.integrate_batch(p, [lam], count_zeros=True)
        assert one.phi_zeros[0] == mb.phi_zeros[i]
        assert one.theta_zeros[0] == mb.theta_zeros[i]
        assert one.a_sign[0] == mb.a_sign[i] != 0
        F_one = one.phi_prime_1[0] + one.theta_1[0]
        F_batch = mb.phi_prime_1[i] + mb.theta_1[i]
        assert np.sign(F_one) == np.sign(F_batch) != 0
        ratio_one = (one.phi_prime_1[0] - one.theta_1[0]) / F_one
        ratio_batch = (mb.phi_prime_1[i] - mb.theta_1[i]) / F_batch
        assert ratio_one == pytest.approx(ratio_batch, rel=1e-9)
        log_F_one = one.log_scale[0] + math.log(abs(F_one))
        log_F_batch = mb.log_scale[i] + math.log(abs(F_batch))
        assert log_F_one == pytest.approx(log_F_batch, rel=1e-10)


def test_unattainable_tolerance_raises_step_underflow(asym_potential):
    with pytest.raises(StepUnderflow):
        mo.integrate_batch(asym_potential, [1.0], rtol=1e-30, atol=1e-300)


@pytest.mark.parametrize("lam, rtol, tol", [(-1e6, mo.RTOL, 1e-6), (-1e8, 1e-6, 1e-2)])
def test_far_below_the_spectrum_stays_finite(mathieu, lam, rtol, tol):
    # v - lambda ~ -lambda: F ~ e^sqrt(-lambda) / 2 (WKB), a growth that no
    # single block may reach, least of all at a loose tolerance's long steps
    mb = mo.integrate_batch(mathieu, [lam], rtol=rtol)
    F_scaled = 0.5 * (mb.phi_prime_1[0] + mb.theta_1[0])
    log_F = mb.log_scale[0] + math.log(F_scaled)
    assert log_F == pytest.approx(math.sqrt(-lam) - math.log(2.0), abs=tol)


def test_m_plus_batch_slope_matches_central_difference(bound_state_potential, bound_state_bands):
    bs = bound_state_bands
    mu, lo, hi = bs.dirichlet[0], bs.gap_lo[0], bs.gap_hi[0]
    # gap 1 on both sides of its pole mu_1, and the lowest gap below lambda_0
    lams = np.array([mu - 0.3 * (mu - lo), mu + 0.3 * (hi - mu), bs.lambda0 - 5.0])
    gaps = np.array([1, 1, 0])
    m, dm = mo.m_plus_batch(bound_state_potential, lams, gaps)
    h = 1e-5
    for lam, g, m_i, dm_i in zip(lams, gaps, m, dm):
        assert m_i == pytest.approx(mo.m_plus(bound_state_potential, lam, g), rel=1e-10)
        fd = (
            mo.m_plus(bound_state_potential, lam + h, g) - mo.m_plus(bound_state_potential, lam - h, g)
        ) / (2 * h)
        assert dm_i == pytest.approx(fd, rel=1e-6)


def test_m_plus_is_smooth_through_an_antibound_dirichlet_point(asym_potential):
    # mu_3 of asym is anti-bound and sits 4.8e-6 below the gap's upper edge:
    # a = b and phi(1) = 0 there, so m_+ has no pole, only a removable 0/0
    bs = bands.band_structure(asym_potential, 3)
    assert bs.state(3).sign == -1
    mu, h = float(bs.dirichlet[2]), 1e-8
    m, dm = mo.m_plus_batch(asym_potential, np.array([mu - h, mu, mu + h]), 3)
    assert (m[2] - m[0]) / (2 * h) == pytest.approx(dm[1], rel=1e-2)
    assert mo.m_plus(asym_potential, mu, 3) == pytest.approx(m[1], rel=1e-12)


def test_zero_counts_match_galerkin_sturm_counts():
    # phi vanishes at x = 1 exactly at the Dirichlet points, so its zeros in
    # (0, 1] count mu_n < lambda.  theta's zeros count the Neumann-Dirichlet
    # problem; the Neumann points nu_n < lambda are those zeros plus one
    # when theta theta' < 0 at x = 1 (Prufer phase past the half turn)
    lams = np.linspace(-30.0, 600.0, 41)
    for p in random_corpus(12, seed=777):
        mb = mo.integrate_batch(p, lams, count_zeros=True)
        mu = sm.galerkin_dirichlet(p, 12)
        nu = sm.galerkin_neumann(p, 13)
        assert mu[-1] > lams[-1] and nu[-1] > lams[-1]
        assert list(mb.phi_zeros) == [int(np.sum(mu < lam)) for lam in lams]
        half_turn = mb.theta_1 * mb.theta_prime_1 < 0
        assert list(mb.theta_zeros + half_turn) == [int(np.sum(nu < lam)) for lam in lams]


def _counted_blocks(monkeypatch):
    """Every trial block of `_rk_segment` as a flag: True where a step failed."""
    log, trial = [], mo._block_trial

    def counted(*args):
        U, ratio = trial(*args)
        log.append(not np.all(ratio <= 1.0))
        return U, ratio

    monkeypatch.setattr(mo, "_block_trial", counted)
    return log


def test_deep_cross_check_pass_takes_few_blocks(deep_n2_d3, monkeypatch):
    # the 48-mode design's two-energy pass: lanes and growth alone cap its
    # blocks (it took 90 blocks of 28 steps under a mode-count cap)
    (p, _, bs, _), *_ = deep_n2_d3
    blocks = _counted_blocks(monkeypatch)
    mb = mo.integrate_batch(p, bs.dirichlet, count_zeros=True)
    assert len(blocks) <= 10
    assert mb.phi_zeros.tolist() == [1, 2]
    assert mb.a_sign.tolist() == [1.0, -1.0]


def test_first_step_rejects_no_block_at_low_energy(modest_design, monkeypatch):
    # criterion 6's design at its Dirichlet points: the first step accounts
    # for the potential's curvature, so no block is thrown away
    p, bs = modest_design
    blocks = _counted_blocks(monkeypatch)
    mo.integrate_batch(p, bs.dirichlet)
    assert blocks and not any(blocks)


def test_repeated_passes_agree_bit_for_bit(asym_potential):
    # nothing carries over from one pass to the next
    lams = np.linspace(-3.0, 120.0, 7)
    first = mo.integrate_batch(asym_potential, lams, count_zeros=True)
    for _ in range(2):
        again = mo.integrate_batch(asym_potential, lams, count_zeros=True)
        assert np.array_equal(again.discriminant, first.discriminant)
        assert np.array_equal(again.phi_lam, first.phi_lam)
        assert np.array_equal(again.phi_zeros, first.phi_zeros)
