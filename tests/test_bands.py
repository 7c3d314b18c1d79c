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
from oracles import kronig_penney_discriminant

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


def test_deep_well_states_keep_their_sheet_when_a_and_f_overflow(criterion5_design):
    # a batch at the (3, 0.05, 2) design's Dirichlet points has log_scale
    # past 709, where a(mu) and F(mu) read inf; the virtual test runs on the
    # stored components, so each bound state keeps its sheet rather than 0
    (p, _, bs, _), *_ = criterion5_design
    mu = bs.dirichlet
    mb = mo.integrate_batch(p, mu)
    assert np.all(mb.log_scale > 709) and np.all(np.isinf(mb.a_value))
    virtual = bands._virtual(mb, np.minimum(mu - bs.gap_lo, bs.gap_hi - mu), bs.gap_lengths)
    assert not np.any(virtual)
    assert list(bands.sheet_signs(mb)) == [1, 1, 1]


def test_shooting_edges_match_hill_matrix(asym_potential):
    bs = bands.band_structure(asym_potential, 5)
    lam0, glo, ghi, nbe = sm.hill_band_edges(asym_potential, 5)
    scale = np.maximum(1.0, np.abs(glo))
    assert abs(bs.lambda0 - lam0) < 1e-6
    assert np.max(np.abs(bs.gap_lo - glo) / scale) < 1e-6
    assert np.max(np.abs(bs.gap_hi - ghi) / scale) < 1e-6
    assert abs(bs.next_band_end - nbe) / max(1.0, abs(nbe)) < 1e-6


def test_default_hill_seeds_lie_within_the_edge_newton_stop():
    # each default Hill edge within the edge Newton's 1e-12 stop of its
    # shooting root, which keeps each edge search at one pass; dense eigh on
    # the same small blocks rounds some edges past it.  A shooting root is
    # known only to the Newton step it would take from itself: on the
    # narrow gap 6 of potential 10 (1 / F' = 1.7e6) that step is 7e-12
    # relative, at every Hill size.
    parity = np.concatenate(([0], np.arange(1, 7), np.arange(1, 7)))
    for p in random_corpus(12, seed=777):
        bs = bands.band_structure(p, 6)
        lam0, glo, ghi, _ = sm.hill_band_edges(p, 6)
        seeds = np.concatenate(([lam0], glo, ghi))
        edges = np.concatenate(([bs.lambda0], bs.gap_lo, bs.gap_hi))
        g, dg = bands._gap_function(mo.integrate_batch(p, edges), parity)
        resolution = np.abs(g / dg)
        assert np.all(np.abs(seeds - edges) <= 1e-12 * np.maximum(1.0, np.abs(edges)) + resolution)


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


def _narrow_gap_matches_matrix_route(p, N, n):
    """Gap n is below F -+ 1 resolution: it must still be shot, with the
    Hill-matrix length and the sheet of a at the Dirichlet point."""
    bs = bands.band_structure(p, N)
    _, glo, ghi, nbe = sm.hill_band_edges(p, N)
    assert bs.gap_lengths[n - 1] == pytest.approx(ghi[n - 1] - glo[n - 1], rel=1e-6)
    assert bs.gap_lo[n - 1] <= bs.dirichlet[n - 1] <= bs.gap_hi[n - 1]
    # the sheet follows the sign of a at the Dirichlet point
    a_mu = mo.integrate(p, float(bs.dirichlet[n - 1])).a_value
    assert bs.state(n).sign == (1 if a_mu * (-1.0) ** (n + 1) > 0 else -1)
    routes = [s.certified_by for s in bs.states] + [bs.next_band_end_route]
    assert routes == ["shooting"] * (N + 1)
    return bs, nbe


def test_asym_narrow_gap5_is_shot(asym_potential):
    # F - 1 inside gap 5 is below the noise of F; the [mu, nu] hull is 18% short
    bs, _ = _narrow_gap_matches_matrix_route(asym_potential, 5, 5)
    assert bs.state(5).sign == +1


# numpy.random.default_rng(24).uniform(-5, 5, 6): gap 6 has length
# 1.2373e-3, but F - 1 at its midpoint is 1.35e-10, under the noise of F
_C24 = np.random.default_rng(24).uniform(-5.0, 5.0, 6)
SEEDED_24 = fourier_potential([(k + 1, _C24[2 * k], _C24[2 * k + 1]) for k in range(3)])


def test_seeded_narrow_gap6_is_shot():
    bs, nbe = _narrow_gap_matches_matrix_route(SEEDED_24, 6, 6)
    assert bs.gap_lengths[5] == pytest.approx(1.2373e-3, rel=1e-4)
    assert bs.next_band_end == pytest.approx(nbe, rel=1e-9)


def test_narrow_next_gap_band_end_is_shot():
    # gap 7 of corpus potential 0 is below F -+ 1 resolution, but not below
    # that of a^2 + phi(1) theta'(1): the end of band 6 is shot too
    p = random_corpus(1, seed=777)[0]
    bs = bands.band_structure(p, 6)
    assert (bs.lambda0_route, bs.next_band_end_route) == ("shooting", "shooting")
    assert bs.next_band_end == pytest.approx(sm.hill_band_edges(p, 6)[3], rel=1e-9)


# even, so mu_n and nu_n sit on the band edges and only hull midpoints anchor
EVEN = fourier_potential([(1, 3.0, 0.0), (2, 1.0, 0.0)])


def test_excess_bar_holds_at_the_hill_edges(asym_potential):
    # a point on a band edge must not pass for one inside its gap: |Delta|
    # stays below its bar at every Hill edge, while asym's narrow gap 5
    # still clears it at mu_5 and nu_5
    cases = [(p, 6) for p in random_corpus(100, seed=777)] + [(asym_potential, 5), (EVEN, 6)]
    for p, N in cases:
        lam0, glo, ghi, nbe = sm.hill_band_edges(p, N)
        delta, _, bar = bands._excess(mo.integrate_batch(p, np.concatenate(([lam0], glo, ghi, [nbe]))))
        assert np.all(np.abs(delta) < bar), p
    mu, nu = bands._anchor_points(asym_potential, 5)[:2]
    delta, _, bar = bands._excess(mo.integrate_batch(asym_potential, [mu[4], nu[5]]))
    assert np.all(delta > bar)


def test_even_potential_gaps_resolve_at_the_hull_midpoint(passes):
    # gap 6 (length 2.84e-6) is resolved at its hull midpoint, where
    # Delta = phi(1) theta'(1); gap 7 (length 2.8e-8) is not, and the end of
    # band 6 is its hull, whose ends mu_7 and nu_7 sit on the Hill edges
    bs = bands.band_structure(EVEN, 6)
    assert [s.certified_by for s in bs.states] == ["shooting"] * 6
    assert bs.gap_lengths[5] == pytest.approx(2.84e-6, rel=1e-2)
    probe = [q for q in passes if not q.zeros][0]  # the midpoints of all 7 gaps
    assert probe.width == 7
    assert bs.next_band_end_route == "hull"
    _, glo, ghi, _ = sm.hill_band_edges(EVEN, 7)
    mu, nu = bands._anchor_points(EVEN, 7)[:2]
    hull = np.sort([mu[6], nu[7]])
    assert hull[1] - hull[0] == pytest.approx(2.8e-8, rel=1e-2)
    assert np.all(np.abs(hull - [glo[6], ghi[6]]) <= 1e-11)
    assert bs.next_band_end == hull[0]


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
    # the Galerkin seeds land inside the phase Newton's stop, which then
    # takes one pass; seeds 1 off their roots need more than the cap allows
    guesses = bands._initial_guesses
    monkeypatch.setattr(bands, "_initial_guesses", lambda p, n: tuple(s + 1.0 for s in guesses(p, n)))
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


def test_phase_root_at_its_bracket_end_raises(asym_potential, monkeypatch):
    # phases above every target at every energy: the bracketed Newton can
    # only shrink each comparison bracket onto its lower end, where no true
    # root lies, so the anchors must raise instead of returning those ends
    def too_high(p, lams):
        big = np.full(np.size(lams), 1e9)
        mb = mo.MonodromyBatch(np.atleast_1d(lams), np.zeros((8, big.size)))
        return big, np.ones_like(big), big, np.ones_like(big), mb

    monkeypatch.setattr(bands, "_angles", too_high)
    with pytest.raises(CountMismatch, match="bracket end"):
        bands.band_structure(asym_potential, 2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_phase_is_continuous_through_a_dirichlet_point(n):
    # within a few ulps of mu_n = (pi n)^2 the transfer route's slack can
    # count the zero of phi before phi(1) changes sign; the phase must still
    # pass n pi continuously, without a jump of pi
    lams = (math.pi * n) ** 2 * (1.0 + np.finfo(float).eps * np.arange(-4, 5))
    ang = bands._angles(zero_potential(), lams)[0]
    assert np.max(np.abs(ang - math.pi * n)) < 1e-12
    assert np.all(np.diff(ang) >= 0.0)


def test_phase_on_a_zero_that_arctan2_rounds(monkeypatch):
    # phi(1) = +1e-17 with phi'(1) = -1 and no zero counted yet: arctan2
    # rounds to pi, and the phase is pi, not 0
    def on_the_zero(p, lams, count_zeros=False):
        state = np.zeros((8, 1))
        state[0], state[2], state[3] = 1.0, 1e-17, -1.0
        return mo.MonodromyBatch(np.atleast_1d(lams), state, np.zeros(1, int), np.zeros(1, int))

    monkeypatch.setattr(mo, "integrate_batch", on_the_zero)
    assert bands._angles(zero_potential(), [math.pi**2])[0][0] == pytest.approx(math.pi, abs=1e-15)


def test_unordered_anchor_points_raise(asym_potential, monkeypatch):
    phase_solve = bands._phase_solve

    def swapped(*args):
        x, mb = phase_solve(*args)
        x[[0, 1]] = x[[1, 0]]  # mu_1 above mu_2
        return x, mb

    monkeypatch.setattr(bands, "_phase_solve", swapped)
    with pytest.raises(CountMismatch, match="ordering"):
        bands.band_structure(asym_potential, 2)


def test_edges_do_not_depend_on_translation():
    # band edges are translation-invariant; a shift changes every anchor
    # and bracket of the search, so it shows how far its result drifts.
    # Sliding the potential sweeps mu_n through its gap, so some hull
    # midpoints sit close to an edge; every gap must still resolve.
    p = random_corpus(1, seed=777)[0]
    base = bands.band_structure(p, 6)
    for shift in (0.13, 0.37, 0.61, 0.89):
        moved = bands.band_structure(translate(p, shift), 6)
        for name in ("lambda0", "gap_lo", "gap_hi", "next_band_end"):
            a, b = np.atleast_1d(getattr(base, name)), np.atleast_1d(getattr(moved, name))
            assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) <= 1e-10, (shift, name)
        assert [s.certified_by for s in moved.states] == ["shooting"] * 6, shift


def test_band_structure_pass_budget(passes):
    # the phases start at their Galerkin seeds inside the comparison
    # brackets: one pass over mu_1..mu_{N+1} and nu_0..nu_{N+1} (2N + 3
    # energies), then at most one over the few unconverged.  The sheets, the
    # residues and the gap anchors come from the phase passes themselves:
    # no later pass evaluates a Dirichlet point again, nor lambda_min, whose
    # F is at least cosh 1 by comparison.  Only the hull midpoints of gaps
    # that mu_n and nu_n leave unresolved get a pass of their own, and the
    # edge passes are narrower still.
    N = 6
    for p in random_corpus(6, seed=777):
        mu = bands.dirichlet_eigs(p, N + 1)  # the same phase solve, so the same bits
        passes.clear()
        bands.band_structure(p, N)
        assert max(q.width for q in passes) <= 2 * N + 3
        assert sum(q.zeros for q in passes) <= 2
        later = np.concatenate([q.lams for q in passes if not q.zeros])
        assert not np.any(np.isin(later, mu))
        assert -p.sup_norm_bound - 1.0 not in later


KRONIG_PENNEY = [piecewise_potential([(0.0, a, v), (a, 1.0, 0.0)]) for a, v in [(0.4, 25.0), (0.6, -30.0)]]


def test_every_gap_a_hull_midpoint_resolves_is_shot(asym_potential):
    # a gap is shot wherever Delta = a^2 + phi(1) theta'(1) beats its bar at
    # mu_n, at nu_n or at the hull midpoint, the last evaluated only where
    # neither of the others does; on these inputs that is every gap and
    # every band-N end
    cases = [(p, 6) for p in random_corpus(100, seed=777)]
    cases += [(asym_potential, 5), (SEEDED_24, 6)] + [(p, 6) for p in KRONIG_PENNEY]
    for p, N in cases:
        bs = bands.band_structure(p, N)
        mu, nu = bands._anchor_points(p, N + 1)[:2]
        resolves = np.zeros(N + 1, dtype=bool)
        for lams in (mu, nu[1:], 0.5 * (mu + nu[1:])):
            delta, _, bar = bands._excess(mo.integrate_batch(p, lams))
            resolves |= delta > bar
        routes = [s.certified_by for s in bs.states] + [bs.next_band_end_route]
        assert np.all(resolves) and routes == ["shooting"] * (N + 1), (p, routes, resolves)


def test_kronig_penney_narrow_gaps_are_shot():
    # draws 3, 11, 15 and 16 have a gap (8.6e-4 to 1.4e-3 long) that
    # (-1)^n F - 1 cannot resolve at mu_n, nu_n or the hull midpoint, but
    # a^2 + phi(1) theta'(1) does: every edge is shot, and the closed-form F
    # is -+1 there
    rng = np.random.default_rng(5)
    for draw in range(17):
        a = rng.uniform(0.2, 0.8)
        v = rng.uniform(1.0, 5.0)
        bs = bands.band_structure(piecewise_potential([(0.0, a, v), (a, 1.0, 0.0)]), 12)
        assert [s.certified_by for s in bs.states] + [bs.next_band_end_route] == ["shooting"] * 13, draw
        edges = [bs.lambda0, *bs.gap_lo, *bs.gap_hi, bs.next_band_end]
        assert max(abs(kronig_penney_discriminant(a, v, lam) ** 2 - 1.0) for lam in edges) <= 1e-9, draw


def test_lambda_min_needs_no_pass(modest_design):
    # v - lambda >= 1 at lambda_min = -sup|v| - 1, so theta(1) and phi'(1),
    # and with them F, are at least cosh 1 there (Sturm comparison with
    # y'' = y): the lower end of lambda_0's bracket has a known sign
    for p in random_corpus(100, seed=777) + KRONIG_PENNEY + [modest_design[0]]:
        F = mo.integrate_batch(p, [-p.sup_norm_bound - 1.0]).discriminant[0]
        assert F >= math.cosh(1.0), p


@pytest.mark.parametrize("a, v", [(0.4, 25.0), (0.6, -30.0)])
def test_kronig_penney_phase_pass_budget(a, v, passes):
    # piecewise phases start at (pi n)^2 + mean inside the comparison
    # brackets: 9 and 11 phase passes (26 each when the brackets were grown
    # from the seeds)
    bands.band_structure(piecewise_potential([(0.0, a, v), (a, 1.0, 0.0)]), 6)
    assert sum(q.zeros for q in passes) <= 12


@pytest.mark.parametrize("seed", ["shifted", "outside", "nan"])
def test_bad_matrix_seed_cannot_change_the_edges(seed, monkeypatch):
    # the Hill-matrix edges only seed the edge Newton; the anchor brackets
    # certify the root, so seeds 0.3 gap lengths off (still inside their
    # brackets), 1000 off (outside every bracket: the midpoint start) or NaN
    # (the midpoint start) must give the same edges.
    p = random_corpus(1, seed=777)[0]
    base = bands.band_structure(p, 6)
    hill = sm.hill_band_edges

    def bad(q, n_gaps, modes=None):
        lam0, glo, ghi, nbe = hill(q, n_gaps, modes)
        if seed == "nan":
            return math.nan, np.full(n_gaps, math.nan), np.full(n_gaps, math.nan), math.nan
        off = 0.3 * (ghi - glo) if seed == "shifted" else np.full(n_gaps, 1e3)
        return lam0 + off[0], glo + off, ghi + off, nbe + off[-1]

    monkeypatch.setattr(sm, "hill_band_edges", bad)
    bs = bands.band_structure(p, 6)
    for name in ("lambda0", "gap_lo", "gap_hi", "next_band_end"):
        a, b = np.atleast_1d(getattr(base, name)), np.atleast_1d(getattr(bs, name))
        assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-11, name
    assert [s.certified_by for s in bs.states] + [bs.next_band_end_route] == ["shooting"] * 7


def test_matrix_seeded_edge_newton_budget(asym_potential, passes, monkeypatch):
    # each edge Newton starts at its Hill-matrix edge, within the 1e-12 stop
    # of its shooting root: one pass after the phase solve for every edge
    # (from the bracket midpoints it took up to 18, and up to 5 when the
    # edges were shot on F -+ 1), and one Hill solve per Fourier call
    hill_calls = []
    hill = sm.hill_band_edges

    def counted_hill(*args, **kwargs):
        hill_calls.append(1)
        return hill(*args, **kwargs)

    monkeypatch.setattr(sm, "hill_band_edges", counted_hill)
    cases = [(p, 6) for p in random_corpus(100, seed=777)] + [(asym_potential, 5)]
    for p, N in cases:
        passes.clear()
        hill_calls.clear()
        bs = bands.band_structure(p, N)
        assert sum(not q.zeros for q in passes) == 1, p
        assert len(hill_calls) == 1
    assert bs.state(5).certified_by == "shooting"  # asym's narrow gap 5
    hill_calls.clear()
    bands.band_structure(piecewise_potential([(0.0, 0.3, 15.0), (0.3, 1.0, 0.0)]), 3)
    assert hill_calls == []
