import math

import numpy as np
import pytest

from hill_octant import bands, monodromy as mo
from hill_octant import spectral_matrix as sm
from hill_octant.errors import BracketFailure, CountMismatch, NoConvergence
from hill_octant.potential import (
    constant_potential,
    fourier_potential,
    piecewise_potential,
    translate,
    zero_potential,
)

from conftest import random_corpus

FREE = np.array([(math.pi * n) ** 2 for n in range(1, 12)])


def test_free_potential_everything_at_pi_n_squared():
    bs = bands.band_structure(zero_potential(), 10)
    assert bs.lambda0 == pytest.approx(0.0, abs=1e-8)
    assert np.max(np.abs(bs.gap_lo - FREE[:10])) < 1e-8
    assert np.max(np.abs(bs.gap_hi - bs.gap_lo)) == 0.0
    assert np.max(np.abs(bs.dirichlet - FREE[:10])) < 1e-8
    assert abs(bs.neumann[0]) < 1e-8
    assert np.max(np.abs(bs.neumann[1:] - FREE[:10])) < 1e-8
    assert all(s.closed for s in bs.states)
    assert bs.next_band_end == pytest.approx(FREE[10], abs=1e-7)


def test_constant_potential_shifts_everything():
    c = 5.0
    bs = bands.band_structure(constant_potential(c), 3)
    assert bs.lambda0 == pytest.approx(c, abs=1e-9)
    assert np.max(np.abs(bs.gap_lo - (FREE[:3] + c))) < 1e-8
    assert np.max(np.abs(bs.dirichlet - (FREE[:3] + c))) < 1e-8


# Mathieu reference edges for v = 2 cos(2 pi x) (pi^2-scaled characteristic
# values, independently confirmed against scipy.special.mathieu_a/b)
MATHIEU_LO = np.array([8.857098951351016, 39.469974548564295, 88.83261246934947, 157.9170474086239])
MATHIEU_HI = np.array([10.85677820231389, 39.52057748770511, 88.83293321695717, 157.91704831148004])
MATHIEU_LAMBDA0 = -0.050603841998408644


def test_mathieu_band_edges(mathieu):
    bs = bands.band_structure(mathieu, 4)
    assert bs.lambda0 == pytest.approx(MATHIEU_LAMBDA0, abs=1e-8)
    scale = np.maximum(1.0, np.abs(MATHIEU_LO))
    assert np.max(np.abs(bs.gap_lo - MATHIEU_LO) / scale) < 1e-6
    assert np.max(np.abs(bs.gap_hi - MATHIEU_HI) / scale) < 1e-6


def test_mathieu_states_all_virtual(mathieu):
    bs = bands.band_structure(mathieu, 4)
    assert [s.sign for s in bs.states] == [0, 0, 0, 0]
    # even potential: mu and nu sit at opposite gap edges
    assert np.allclose(np.sort([bs.dirichlet[0], bs.neumann[1]]), [bs.gap_lo[0], bs.gap_hi[0]])


def test_shooting_edges_match_hill_matrix(asym_potential):
    bs = bands.band_structure(asym_potential, 5)
    lam0, glo, ghi, nbe = sm.hill_band_edges(asym_potential, 5)
    scale = np.maximum(1.0, np.abs(glo))
    assert abs(bs.lambda0 - lam0) < 1e-6
    assert np.max(np.abs(bs.gap_lo - glo) / scale) < 1e-6
    assert np.max(np.abs(bs.gap_hi - ghi) / scale) < 1e-6
    assert abs(bs.next_band_end - nbe) / max(1.0, abs(nbe)) < 1e-6


def test_shooting_mu_nu_match_galerkin(asym_potential):
    bs = bands.band_structure(asym_potential, 5)
    mu_g = sm.galerkin_dirichlet(asym_potential, 5)
    nu_g = sm.galerkin_neumann(asym_potential, 6)
    scale = np.maximum(1.0, np.abs(mu_g))
    assert np.max(np.abs(bs.dirichlet - mu_g) / scale) < 1e-6
    assert np.max(np.abs(bs.neumann - nu_g) / np.maximum(1.0, np.abs(nu_g))) < 1e-6


def test_piecewise_potential_band_structure():
    p = piecewise_potential([(0.0, 0.5, 8.0), (0.5, 1.0, -8.0)])
    bs = bands.band_structure(p, 4)
    # containments and ordering are the exactly-checkable structure here
    assert bs.lambda0 < bs.gap_lo[0]
    assert np.all(bs.gap_lo <= bs.dirichlet) and np.all(bs.dirichlet <= bs.gap_hi)
    assert np.all(bs.gap_lo <= bs.neumann[1:]) and np.all(bs.neumann[1:] <= bs.gap_hi)
    assert bs.neumann[0] <= bs.lambda0 + 1e-10
    # and the discriminant really is +-1 at the edges
    for n in range(1, 5):
        sgn = (-1.0) ** n
        for lam in (bs.gap_lo[n - 1], bs.gap_hi[n - 1]):
            assert mo.discriminant(p, float(lam)) * sgn == pytest.approx(1.0, abs=1e-7)


def corpus_structure_ok(p, N=6):
    bs = bands.band_structure(p, N)
    tol = 1e-9 * np.maximum(1.0, np.abs(bs.gap_lo))
    checks = {
        "interlacing": bs.lambda0 <= bs.gap_lo[0] + tol[0]
        and np.all(bs.gap_hi[:-1] <= bs.gap_lo[1:] + tol[:-1]),
        "band_bound": all(
            (hi - lo) <= math.pi**2 * (2 * n + 1) + 1e-6
            for n, (lo, hi) in enumerate(bs.bands())
        ),
        "mu_in_gap": np.all(bs.gap_lo - tol <= bs.dirichlet)
        and np.all(bs.dirichlet <= bs.gap_hi + tol),
        "nu_in_gap": np.all(bs.gap_lo - tol <= bs.neumann[1:])
        and np.all(bs.neumann[1:] <= bs.gap_hi + tol),
        "nu0_below": bs.neumann[0] <= bs.lambda0 + 1e-9 * max(1.0, abs(bs.lambda0)),
        "xi_identity": np.max(
            np.abs(bs.xi[:, 0] ** 2 + bs.xi[:, 1] ** 2 - 0.25 * bs.gap_lengths**2)
        )
        < 1e-9,
        "edge_asymptotics": np.all(
            np.abs(0.5 * (bs.gap_lo + bs.gap_hi) - FREE[:N]) < p.sup_norm_bound + math.pi**2
        ),
    }
    return checks, bs


def test_structural_invariants_small_corpus(small_corpus):
    for i, p in enumerate(small_corpus):
        checks, _ = corpus_structure_ok(p)
        bad = [k for k, v in checks.items() if not v]
        assert not bad, f"potential {i}: failed {bad}"


def test_dirichlet_eigs_op(asym_potential):
    mu = bands.dirichlet_eigs(asym_potential, 4)
    bs = bands.band_structure(asym_potential, 4)
    assert np.allclose(mu, bs.dirichlet, rtol=1e-10)


def test_neumann_eigs_op(asym_potential):
    nu = bands.neumann_eigs(asym_potential, 4)
    assert nu.shape == (5,)
    bs = bands.band_structure(asym_potential, 4)
    assert np.allclose(nu, bs.neumann, rtol=1e-10)


def test_classify_and_xi_ops(asym_potential):
    states = bands.classify_states(asym_potential, 4)
    xi = bands.xi_map(asym_potential, 4)
    assert len(states) == 4 and xi.shape == (4, 2)
    bs = bands.band_structure(asym_potential, 4)
    for (mu, sign), s in zip(states, bs.states):
        assert mu == pytest.approx(s.mu) and sign == s.sign
    # sign encoding feeds xi2's sign
    for i, s in enumerate(bs.states):
        if s.sign != 0:
            assert math.copysign(1, xi[i, 1]) == s.sign


def test_bound_state_sign_rule(bound_state_potential, bound_state_bands):
    s = bound_state_bands.state(1)
    assert s.sign == +1
    # bound state in gap n means sign(a) = (-1)^{n+1}
    assert s.a_value > 0
    # its mirror image (x -> -x) carries the anti-bound twin
    mirrored = fourier_potential([(t.k, t.cos, -t.sin) for t in bound_state_potential.fourier])
    bs_m = bands.band_structure(mirrored, 1)
    assert bs_m.state(1).sign == -1
    assert bs_m.dirichlet[0] == pytest.approx(bound_state_bands.dirichlet[0], rel=1e-9)
    # the matrix-route callers apply the same rule through sheet_signs
    for q, bs in ((bound_state_potential, bound_state_bands), (mirrored, bs_m)):
        signs = bands.sheet_signs(mo.integrate_batch(q, bs.dirichlet))
        assert signs.tolist() == [s.sign for s in bs.states]


def _unresolved_gap_matches_matrix_route(p, N, n):
    """Gap n is below F -+ 1 resolution: its length and sheet must still hold."""
    bs = bands.band_structure(p, N)
    _, glo, ghi, nbe = sm.hill_band_edges(p, N)
    assert bs.state(n).certified_by == "matrix"
    assert bs.gap_lengths[n - 1] == pytest.approx(ghi[n - 1] - glo[n - 1], rel=1e-6)
    assert bs.gap_lo[n - 1] <= bs.dirichlet[n - 1] <= bs.gap_hi[n - 1]
    # the sheet follows the sign of a at the Dirichlet point
    a_mu = mo.integrate(p, float(bs.dirichlet[n - 1])).a_value
    assert bs.state(n).sign == (1 if a_mu * (-1.0) ** (n + 1) > 0 else -1)
    resolved = [s.certified_by == "shooting" for s in bs.states]
    assert sum(resolved) == N - 1
    return bs, nbe


def test_asym_gap5_unresolved_reports_matrix_edges(asym_potential):
    # F - 1 inside gap 5 is below the probe noise; the [mu, nu] hull is 18% short
    bs, _ = _unresolved_gap_matches_matrix_route(asym_potential, 5, 5)
    assert bs.state(5).sign == +1


def test_seeded_gap6_unresolved_reports_matrix_edges():
    # numpy.random.default_rng(24).uniform(-5, 5, 6): gap 6 has length
    # 1.2373e-3, but F - 1 at its midpoint is 1.35e-10, under the probe noise
    c = np.random.default_rng(24).uniform(-5.0, 5.0, 6)
    p = fourier_potential([(k + 1, c[2 * k], c[2 * k + 1]) for k in range(3)])
    bs, nbe = _unresolved_gap_matches_matrix_route(p, 6, 6)
    assert bs.gap_lengths[5] == pytest.approx(1.2373e-3, rel=1e-4)
    assert bs.next_band_end == pytest.approx(nbe, rel=1e-9)


def test_piecewise_gaps_certified_by_shooting():
    p = piecewise_potential([(0.0, 0.3, 15.0), (0.3, 1.0, 0.0)])
    bs = bands.band_structure(p, 3)
    assert [s.certified_by for s in bs.states] == ["shooting"] * 3


def test_translation_sweeps_state_through_gap(bound_state_potential):
    # as the potential slides, the gap state wanders; edges stay put and
    # the sign changes only via the virtual state at the edges
    base = bands.band_structure(bound_state_potential, 1)
    prev_sign = base.state(1).sign
    for t in np.linspace(0.05, 0.95, 10):
        bst = bands.band_structure(
            fourier_potential([(1, 30.0, -12.0)], shift=float(t)), 1
        )
        assert bst.gap_lo[0] == pytest.approx(base.gap_lo[0], rel=1e-8)
        assert bst.gap_hi[0] == pytest.approx(base.gap_hi[0], rel=1e-8)
        assert base.gap_lo[0] - 1e-9 <= bst.dirichlet[0] <= base.gap_hi[0] + 1e-9
        prev_sign = bst.state(1).sign


def test_add_constant_normalizes_lowest_edge(asym_potential):
    from hill_octant.potential import add_constant

    bs = bands.band_structure(asym_potential, 1)
    shifted = add_constant(asym_potential, -bs.lambda0)
    bs2 = bands.band_structure(shifted, 1)
    assert abs(bs2.lambda0) < 1e-9


def test_newton_stops_on_a_root_at_the_bracket_end():
    # the second iterate lands on the root and becomes the upper bracket
    # end; its zero Newton step must end the search, not start a bisection
    # crawl toward that end (about 40 passes at tolerance 1e-12)
    passes = []

    def evaluate(x, idx):
        passes.append(x.size)
        return x - 1.0, np.ones_like(x)

    lo, hi = np.array([0.0]), np.array([1.0 + 1e-13])
    root = bands._bracketed_newton(evaluate, lo, hi, np.array([-1.0]), 1e-12)
    assert root[0] == 1.0
    assert len(passes) == 2


def test_newton_cap_raises(asym_potential, monkeypatch):
    monkeypatch.setattr(bands, "MAX_NEWTON", 1)
    with pytest.raises(NoConvergence):
        bands.band_structure(asym_potential, 2)


def test_lambda0_above_the_first_gap_raises(asym_potential, monkeypatch):
    edge_roots = bands._edge_roots

    def misplaced(*args):
        roots = edge_roots(*args)
        roots[0] = roots[1] + 1.0  # lambda_0 above gap 1's lower edge
        return roots

    monkeypatch.setattr(bands, "_edge_roots", misplaced)
    with pytest.raises(BracketFailure):
        bands.band_structure(asym_potential, 2)


def test_phase_bracket_expansion_cap_raises(asym_potential, monkeypatch):
    # phases above every target at every energy: no lower bracket end exists
    def too_high(p, lams, rtol):
        big = np.full(np.size(lams), 1e9)
        return big, np.ones_like(big), big, np.ones_like(big)

    monkeypatch.setattr(bands, "_angles", too_high)
    with pytest.raises(CountMismatch, match="could not bracket"):
        bands.band_structure(asym_potential, 2)


def test_unordered_anchor_points_raise(asym_potential, monkeypatch):
    phase_solve = bands._phase_solve

    def swapped(*args):
        x = phase_solve(*args)
        x[[0, 1]] = x[[1, 0]]  # mu_1 above mu_2
        return x

    monkeypatch.setattr(bands, "_phase_solve", swapped)
    with pytest.raises(CountMismatch, match="ordering"):
        bands.band_structure(asym_potential, 2)


def test_edges_do_not_depend_on_translation():
    # band edges are translation-invariant; a shift changes every anchor
    # and bracket of the search, so it shows how far its result drifts
    p = random_corpus(1, seed=777)[0]
    base = bands.band_structure(p, 6)
    moved = bands.band_structure(translate(p, 0.13), 6)
    for name in ("lambda0", "gap_lo", "gap_hi", "next_band_end"):
        a, b = np.atleast_1d(getattr(base, name)), np.atleast_1d(getattr(moved, name))
        assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) <= 1e-10, name
