import math

import numpy as np
import pytest

from hill_octant import bands, cluster, monodromy as mo, spectral_matrix as sm
from hill_octant.cluster import (
    ClusterSpectrum,
    NormalizedSpectrum1D,
    assemble_2d,
    assemble_3d,
    count_in_interval,
    fast_factor_spectrum,
    ground_state_product,
    normalize,
    perturb_and_recount,
    _add_potentials,
)
from hill_octant.errors import CountChanged, NoGroundState, SeparationFail
from hill_octant.halfsolid import GroundState, HalfSolidSpectrum
from hill_octant.intervals import Interval, IntervalSet, minkowski_sum
from hill_octant.potential import fourier_potential, zero_potential

from conftest import separable_perturbations

KAPPA = 0.05
E1 = 0.125  # designed first normalized eigenvalue, 1/(4d) at d = 2


def synthetic_factor(N=3, eps=0.003, e1=E1, band_width=0.004):
    """Idealized normalized factor: bands hugging integers, states at
    n - 1 + e1 (the shape the designed potentials produce)."""
    bands_ = tuple((n + eps, n + eps + band_width) for n in range(N + 2))
    eig = tuple((n, n - 1 + e1 + 0.3 * eps) for n in range(1, N + 1))
    return NormalizedSpectrum1D(1.0, bands_, eig, "half-line")


# --- interval algebra --------------------------------------------------------


def test_interval_sum():
    assert Interval(0, 1) + Interval(2, 3) == Interval(2, 4)


def test_minkowski_point_plus_interval():
    s = minkowski_sum(IntervalSet([(0.125, 0.125)]), IntervalSet([(1.0, 1.05)]))
    assert s.intervals == (Interval(1.125, 1.175),)


def test_minkowski_empty():
    assert minkowski_sum(IntervalSet(), IntervalSet([(0, 1)])).empty


def test_minkowski_merges_overlaps():
    a = IntervalSet([(0, 1), (1.5, 2)])
    b = IntervalSet([(0, 0.75)])
    s = minkowski_sum(a, b)
    assert s.intervals == (Interval(0.0, 2.75),)


def test_interval_set_merging_idempotent():
    raw = [(0, 1), (0.5, 1.5), (3, 4)]
    s1 = IntervalSet(raw)
    s2 = IntervalSet(list(s1))
    assert s1 == s2
    assert len(s1) == 2


def test_interval_distance():
    s = IntervalSet([(0, 1), (5, 6)])
    assert s.distance(Interval(2, 3)) == 1.0
    assert s.distance(Interval(0.5, 0.6)) == 0.0


# --- normalize ---------------------------------------------------------------


def test_normalize_identity_gamma(bound_state_bands):
    ns = normalize(bound_state_bands, 1.0)
    assert ns.bands[0][0] == pytest.approx(bound_state_bands.lambda0)
    assert ns.eigenvalues[0][1] == pytest.approx(bound_state_bands.dirichlet[0])
    assert ns.source == "half-line"


def test_normalize_scales_and_filters(bound_state_bands):
    g = 10.0
    ns = normalize(bound_state_bands, g)
    assert ns.eigenvalues[0] == (1, pytest.approx(bound_state_bands.dirichlet[0] / g))
    assert all(
        val == pytest.approx(bound_state_bands.dirichlet[n - 1] / g)
        for n, val in ns.eigenvalues
    )
    # the mirror image hosts only anti-bound states, which do not enter
    mirrored = fourier_potential([(1, 30.0, 12.0)])
    bs_m = bands.band_structure(mirrored, 2)
    assert normalize(bs_m, g).eigenvalues == ()


def test_normalize_halfsolid_keeps_unbounded_tail():
    hs = HalfSolidSpectrum(
        tau=100.0,
        tau0=0.0,
        ac_bands=((0.0, 0.5), (1.0, math.inf)),
        gap_list=(),
        eigenvalues=((1, 0.6),),
        ground_state=None,
        band_data=None,
    )
    ns = normalize(hs, 2.0)
    assert ns.bands[-1] == (0.5, math.inf)
    assert ns.eigenvalues == ((1, 0.3),)
    assert ns.source == "half-solid"


# --- 2D assembly -------------------------------------------------------------


def test_assemble_2d_counts_and_containment():
    f = synthetic_factor()
    cs = assemble_2d(f, f, KAPPA, 3)
    assert cs.counts() == {1: 1, 2: 2, 3: 3}
    for n in (1, 2, 3):
        iv = cs.separating[n]
        count, found, disjoint = count_in_interval(cs, iv)
        assert count == n
        assert disjoint
        assert all(iv.contains(v) for _, v in found)


def test_assemble_2d_eigenvalue_positions():
    f = synthetic_factor()
    cs = assemble_2d(f, f, KAPPA, 3)
    for n, evs in cs.eigenvalue_clusters.items():
        for multi, val in evs:
            assert sum(multi) == n + 1
            assert val == pytest.approx(n - 1 + 2 * E1, abs=0.5 * KAPPA)


def test_assemble_2d_separation_margin():
    f = synthetic_factor()
    cs = assemble_2d(f, f, KAPPA, 3)
    ac = cs.ac_union()
    for n, iv in cs.separating.items():
        assert ac.distance(iv) >= 2 * KAPPA - 1e-12


def test_assemble_2d_band_cluster_structure():
    f = synthetic_factor()
    cs = assemble_2d(f, f, KAPPA, 3)
    # K_2^0 merges (2,0), (0,2), (1,1); position near 2
    k20 = cs.band_clusters[(0, 2)]
    hull = k20.hull()
    assert hull.distance_point(2.0) <= 0.5 * KAPPA
    # surface clusters: one eigenvalue factor
    k21 = cs.band_clusters[(1, 2)]
    assert k21.hull().distance_point(2.0 + E1) <= 0.5 * KAPPA


def test_containment_miss_is_reported():
    # states hugging the bands: the margined interval exists but misses
    # the eigenvalue cluster, which the validations must flag
    f = synthetic_factor(e1=0.02)
    cs = assemble_2d(f, f, KAPPA, 3)
    failed = [v for v in cs.validations if v.name == "cluster containment" and not v.passed]
    assert failed
    assert not cs.all_valid


def test_separation_failure_raises():
    # bands so fat that no 2-kappa margin fits anywhere
    f = synthetic_factor(e1=0.125, band_width=0.45)
    with pytest.raises(SeparationFail):
        assemble_2d(f, f, KAPPA, 3)


def test_count_in_interval_outside():
    f = synthetic_factor()
    cs = assemble_2d(f, f, KAPPA, 3)
    count, found, disjoint = count_in_interval(cs, (-10.0, -1.0))
    assert count == 0 and found == []
    inside_band, _, disjoint_band = count_in_interval(cs, (0.0, 0.01))
    assert not disjoint_band


# --- 3D assembly -------------------------------------------------------------


def test_assemble_3d_counts():
    f = synthetic_factor(e1=1.0 / 12.0)  # d = 3 design value
    cs = assemble_3d(f, f, f, kappa=KAPPA, N=2)
    # compositions of n+3 into three positive parts: 1, 3, 6
    assert cs.counts()[0] == 1
    assert cs.counts()[1] == 3
    assert cs.counts()[2] == 6
    for n in (0, 1, 2):
        iv = cs.separating[n]
        count, _, _ = count_in_interval(cs, iv)
        assert count == (n + 2) * (n + 1) // 2


def test_assemble_3d_positions():
    e1 = 1.0 / 12.0
    f = synthetic_factor(e1=e1)
    cs = assemble_3d(f, f, f, kappa=KAPPA, N=2)
    for n, evs in cs.eigenvalue_clusters.items():
        for multi, val in evs:
            assert sum(multi) == n + 3
            assert val == pytest.approx(n + 3 * e1, abs=0.5 * KAPPA)
    # surface clusters of both kinds
    assert cs.band_clusters[(1, 1)].hull().distance_point(1 + e1) <= 0.5 * KAPPA
    assert cs.band_clusters[(2, 1)].hull().distance_point(1 + 2 * e1) <= 0.5 * KAPPA


def test_mixed_sources_same_counts():
    h = synthetic_factor()
    t_bands = h.bands[:-1] + ((h.bands[-1][0], math.inf),)
    t = NormalizedSpectrum1D(1.0, t_bands, h.eigenvalues, "half-solid")
    counts_hh = assemble_2d(h, h, KAPPA, 3).counts()
    counts_ht = assemble_2d(h, t, KAPPA, 3).counts()
    counts_tt = assemble_2d(t, t, KAPPA, 3).counts()
    assert counts_hh == counts_ht == counts_tt


# --- perturbation plumbing ---------------------------------------------------


def test_perturb_rejects_large_eps():
    p = zero_potential()
    w = fourier_potential([(1, 0.5, 0.0)])
    with pytest.raises(ValueError):
        perturb_and_recount([p, p], [w, w], 10 * KAPPA, [(0.0, 1.0)], KAPPA, 1.0, 2)


def test_perturb_rejects_large_w():
    p = zero_potential()
    w = fourier_potential([(1, 5.0, 0.0)])
    with pytest.raises(ValueError):
        perturb_and_recount([p, p], [w, w], KAPPA**3, [(0.0, 1.0)], KAPPA, 1.0, 2)


def test_perturbation_moving_a_count_raises(bound_state_potential):
    # w = 1 moves every factor eigenvalue up by eps, so the two-factor sum
    # moves by 2 eps / gamma and leaves an interval ending halfway there
    p, gamma, kappa = bound_state_potential, 10.0, 0.1
    eps = kappa**3
    e = fast_factor_spectrum(p, 1, gamma).eigenvalues[0][1]
    w = fourier_potential([], constant=1.0)
    interval = (2 * e - 0.01, 2 * e + eps / gamma)
    with pytest.raises(CountChanged):
        perturb_and_recount([p, p], [w, w], eps, [interval], kappa, gamma, 1)


def test_fast_factor_spectrum_integrates_nothing(deep_n2_d3, monkeypatch):
    # the sheets come from the Dirichlet eigenvectors, not from a shooting pass
    (p, gamma, _, _), *_ = deep_n2_d3

    def refuse(*args, **kwargs):
        raise AssertionError("fast_factor_spectrum ran an integrator pass")

    monkeypatch.setattr(mo, "integrate_batch", refuse)
    monkeypatch.setattr(cluster, "integrate_batch", refuse)
    ns = fast_factor_spectrum(p, 2, gamma)
    assert [n for n, _ in ns.eigenvalues] == [1, 2]
    mu = np.array([e for _, e in ns.eigenvalues]) * gamma
    # the factor solve keeps mu_3 too: the same count-3 pencil, at its size
    assert mu == pytest.approx(sm.galerkin_dirichlet(p, 3)[:2], rel=1e-12)


RITZ_TOL = 4  # Ritz against same-size solves, in units of eps norm; 0.41 seen at most


def ritz_against_same_size_solves(p, gamma, N, kappa, trials, intervals):
    """Ritz recounts of separable perturbations of p, each checked against full solves.

    Each perturbed factor q gets a full solve at the basis sizes of the Ritz
    step: the dense solves of its Dirichlet, periodic and anti-periodic
    pencils.  Every Ritz value lies within RITZ_TOL eps norm of that solve
    and inside its own enclosure, the Ritz sheets are `dirichlet_sheets` of
    the full-solve vectors, and the counts in `intervals` agree.  norm is
    the rounding scale that the Ritz step itself uses, the size of each
    pencil's products on its vectors.
    """
    eps = kappa**3
    _, basis = cluster._solve_factor(p, N, gamma)
    modes, dim = basis.hill["periodic"][1].shape[0], basis.Y.shape[0]
    ritz_steps = []
    enclosures = sm.ritz_enclosures

    def recorded(HX, X, values, spread, norm):
        out = enclosures(HX, X, values, spread, norm)
        ritz_steps.append((out[0], out[2], norm))
        return out

    for ws in trials:
        ritz_spectra, full_spectra = [], []
        for w in ws:
            q = _add_potentials(p, w, eps)
            ritz_steps.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(sm, "ritz_enclosures", recorded)
                ritz = cluster._ritz_factor(basis, q, eps * w.sup_norm_bound, N, gamma)
            assert ritz is not None  # no fallback on these trials
            *edges, hill = sm._hill_edges(q, N, modes)
            mu, Y = sm.galerkin_dirichlet_vectors(q, N + 1, dim=dim)
            wants = [mu, hill["periodic"][0], hill["antiperiodic"][0]]
            for (theta, radius, norm), want in zip(ritz_steps, wants, strict=True):
                err = np.abs(theta - want)
                assert np.all(err <= RITZ_TOL * np.finfo(float).eps * norm)
                assert np.all(err <= radius)
            full = cluster._normalized(edges, mu, sm.dirichlet_sheets(Y[:, :N]), N, gamma)
            assert [n for n, _ in ritz[0].eigenvalues] == [n for n, _ in full.eigenvalues]
            ritz_spectra.append(ritz[0])
            full_spectra.append(full)
        counts = [
            [count_in_interval(cluster._assemble(spectra, kappa, N), iv)[0] for iv in intervals]
            for spectra in (ritz_spectra, full_spectra)
        ]
        assert counts[0] == counts[1]


def test_ritz_recount_matches_full_solves_on_criterion_9(criterion5_design):
    (p, gamma, _, _), *_ = criterion5_design
    N, kappa = 3, 0.05
    cs = assemble_2d(*[fast_factor_spectrum(p, N, gamma)] * 2, kappa, N)
    intervals = [cs.separating[n] for n in (1, 2, 3)]
    ritz_against_same_size_solves(p, gamma, N, kappa, separable_perturbations(11, 10, 2), intervals)


def test_ritz_recount_matches_full_solves_on_the_benchmark_design(deep_n2_d3):
    (p, gamma, _, _), *_ = deep_n2_d3
    N, kappa = 2, 0.1
    cs = assemble_3d(*[fast_factor_spectrum(p, N, gamma)] * 3, kappa, N)
    intervals = [cs.separating[n] for n in (0, 1, 2)]
    trials = separable_perturbations(3, 3, 3)
    ritz_against_same_size_solves(p, gamma, N, kappa, trials, intervals)
    for ws in trials:
        assert perturb_and_recount([p] * 3, ws, kappa**3, intervals, kappa, gamma, N) == ([1, 3, 3], [1, 3, 3])


def test_recount_solves_each_factor_once_and_integrates_nothing(deep_n2_d3, monkeypatch):
    # three copies of one factor: one Hill solve and one Galerkin solve in
    # all; the three perturbed factors come from Ritz steps
    (p, gamma, _, _), *_ = deep_n2_d3
    N, kappa = 2, 0.1
    cs = assemble_3d(*[fast_factor_spectrum(p, N, gamma)] * 3, kappa, N)
    intervals = [cs.separating[n] for n in (0, 1, 2)]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("perturb_and_recount ran an integrator pass")

    monkeypatch.setattr(mo, "integrate_batch", refuse)
    monkeypatch.setattr(cluster, "integrate_batch", refuse)
    for name in ("_hill_edges", "galerkin_dirichlet_vectors", "galerkin_dirichlet"):
        monkeypatch.setattr(sm, name, counted(name, getattr(sm, name)))
    monkeypatch.setattr(cluster, "fast_factor_spectrum", counted("fast_factor_spectrum", fast_factor_spectrum))
    (ws,) = separable_perturbations(5, 1, 3)
    assert perturb_and_recount([p] * 3, ws, kappa**3, intervals, kappa, gamma, N) == ([1, 3, 3], [1, 3, 3])
    assert sorted(calls) == ["_hill_edges", "galerkin_dirichlet_vectors"]


FALLBACK_CASES = {
    # gap 2 is 1.4e-4 long, under 2 eps sup|w|: by Weyl the perturbed edges
    # may cross, so the Ritz enclosures of the periodic pencil overlap (and
    # mu_2, inside that gap, has an uncertain sheet as well)
    "nearly closed gap": (
        fourier_potential([(1, 30.0, -12.0), (2, -9.575, 9.119)]),
        [fourier_potential([(1, 0.3, -0.2), (2, 0.1, 0.25)]), fourier_potential([(3, -0.4, 0.3)])],
        2,
        [1],
    ),
    # an even potential puts mu_1 on a band edge, |psi'(0)| = |psi'(1)|, and
    # an odd perturbation moves it off by less than the Ritz read-out resolves
    "uncertain sheet": (
        fourier_potential([(1, 30.0, 0.0)]),
        [fourier_potential([(1, 0.0, 0.5)])] * 2,
        1,
        [0],
    ),
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_uncertain_factors_fall_back_to_full_solves(case, monkeypatch):
    p, ws, N, counts = FALLBACK_CASES[case]
    gamma, kappa = 10.0, 0.1
    eps = kappa**3
    _, basis = cluster._solve_factor(p, N, gamma)
    perturbed = list(dict.fromkeys(_add_potentials(p, w, eps) for w in ws))
    assert all(cluster._ritz_factor(basis, q, eps * w.sup_norm_bound, N, gamma) is None for q, w in zip(perturbed, ws))
    e = basis.mu[0] / gamma
    intervals = [(2 * e - 0.1, 2 * e + 0.1)]
    solved = []

    def full_solve(q, *args):
        solved.append(q)
        return fast_factor_spectrum(q, *args)

    monkeypatch.setattr(cluster, "fast_factor_spectrum", full_solve)
    before, after = perturb_and_recount([p, p], ws, eps, intervals, kappa, gamma, N)
    assert solved == perturbed
    cs = assemble_2d(*[fast_factor_spectrum(_add_potentials(p, w, eps), N, gamma) for w in ws], kappa, N)
    assert before == after == [count_in_interval(cs, iv)[0] for iv in intervals] == counts


def test_interval_end_inside_an_enclosure_falls_back_to_full_solves(bound_state_potential, monkeypatch):
    # the interval ends at the Ritz sum itself; mu_1's Ritz value is an upper
    # bound, so the full solves put the sum just inside, as they put the
    # unperturbed one
    p, gamma, kappa, N = bound_state_potential, 10.0, 0.1, 1
    eps = kappa**3
    w = fourier_potential([(1, 0.3, 0.1)], constant=0.5)
    q = _add_potentials(p, w, eps)
    spectrum, basis = cluster._solve_factor(p, N, gamma)
    ritz, radius = cluster._ritz_factor(basis, q, eps * w.sup_norm_bound, N, gamma)
    e_ritz = ritz.eigenvalues[0][1]
    interval = (2 * spectrum.eigenvalues[0][1] - 0.1, 2 * e_ritz)
    solved = []

    def full_solve(q, *args):
        solved.append(q)
        return fast_factor_spectrum(q, *args)

    monkeypatch.setattr(cluster, "fast_factor_spectrum", full_solve)
    before, after = perturb_and_recount([p, p], [w, w], eps, [interval], kappa, gamma, N)
    assert solved == [q]
    e_full = fast_factor_spectrum(q, N, gamma).eigenvalues[0][1]
    assert 0.0 < e_ritz - e_full < radius
    assert before == after == [1]


# --- ground-state products ---------------------------------------------------


def make_hs(tau0, energy):
    return HalfSolidSpectrum(
        tau=tau0,
        tau0=tau0,
        ac_bands=((tau0, math.inf),),
        gap_list=(),
        eigenvalues=(),
        ground_state=GroundState(1, 1.0, -0.5, energy),
        band_data=None,
    )


def test_ground_state_product_two_factors():
    hs = make_hs(0.5, -1.2)
    e_total, bottom = ground_state_product([hs, hs])
    assert e_total == pytest.approx(-2.4)
    assert bottom == pytest.approx(0.5 - 1.2)
    assert e_total < bottom


def test_ground_state_product_three_factors():
    hs = make_hs(0.5, -1.2)
    e_total, bottom = ground_state_product([hs, hs, hs])
    assert e_total == pytest.approx(-3.6)
    assert bottom == pytest.approx(0.5 - 2.4)


def test_ground_state_product_requires_state():
    hs_missing = HalfSolidSpectrum(
        tau=0.5,
        tau0=0.5,
        ac_bands=((0.5, math.inf),),
        gap_list=(),
        eigenvalues=(),
        ground_state=GroundState(0, -1.0, -0.5, None),
        band_data=None,
    )
    with pytest.raises(NoGroundState):
        ground_state_product([hs_missing, hs_missing])


# --- mixed factors from real spectra ------------------------------------------


@pytest.fixture(scope="module")
def modest_designed():
    from hill_octant import design as dz

    g = 5.0
    target = dz.DesignTarget(
        n_gaps=2, gap_lengths=(g, g), state_fracs=(0.125, 0.125),
        state_signs=(1, 1), basis_size=3, tolerance=1e-5,
    )
    p0 = dz.design_gap_lengths(dz.DesignTarget(n_gaps=2, gap_lengths=(g, g), tolerance=1e-5))
    p = dz.place_states(p0, target)
    return p, bands.band_structure(p, 2), g


def test_half_solid_factor_matches_half_line(modest_designed):
    from hill_octant import halfsolid as hsm

    p, bs, g = modest_designed
    tau = 1e6
    hs = hsm.gap_eigenvalues(p, tau, 2, bs=bs)
    f_h = normalize(bs, g)
    f_t = normalize(hs, g)
    kappa = 0.04
    counts_hh = assemble_2d(f_h, f_h, kappa, 2, enforce_separation=False).counts()
    counts_ht = assemble_2d(f_h, f_t, kappa, 2, enforce_separation=False).counts()
    counts_tt = assemble_2d(f_t, f_t, kappa, 2, enforce_separation=False).counts()
    assert counts_hh == counts_ht == counts_tt == {1: 1, 2: 2}
    # junction eigenvalues sit within c/sqrt(tau) of the half-line states
    for (j1, e1), (j2, e2) in zip(f_h.eigenvalues, f_t.eigenvalues):
        assert j1 == j2
        assert abs(e1 - e2) * g < 0.05


def test_minkowski_against_dense_sampling():
    # brute-force oracle: sampled sums of two factor spectra must land in
    # the assembled union, and assembled interval endpoints must be sums
    from oracles import dense_spectrum_samples

    f = synthetic_factor()
    cs = assemble_2d(f, f, KAPPA, 3, enforce_separation=False)
    union = cs.ac_union()
    evs = [v for lst in cs.eigenvalue_clusters.values() for _, v in lst]
    step = KAPPA / 100.0
    pts = dense_spectrum_samples(f.bands[:-1], [e for _, e in f.eigenvalues], step)
    import numpy as np
    import itertools

    fat = step * 1.01
    top = 4.0 - 0.2  # the assembly declares coverage over [0, N+1]
    for x, y in itertools.product(pts[:40], pts):
        s = x + y
        if s > top:
            continue
        ok = any(iv.lo - fat <= s <= iv.hi + fat for iv in union) or any(
            abs(s - e) <= fat for e in evs
        )
        assert ok, f"sampled sum {s} escapes the assembled spectrum"
    # every bounded assembled endpoint is a sum of factor endpoints
    ends1 = {b for lo, hi in f.bands[:-1] for b in (lo, hi)}
    sums = {a + b for a in ends1 for b in ends1}
    sums |= {e + b for _, e in f.eigenvalues for b in ends1}
    for iv in union:
        import math
        for end in (iv.lo, iv.hi):
            if math.isfinite(end):
                assert min(abs(end - s) for s in sums) < 1e-12


def test_assembly_idempotent():
    f = synthetic_factor()
    a1 = assemble_2d(f, f, KAPPA, 3)
    a2 = assemble_2d(f, f, KAPPA, 3)
    assert a1.counts() == a2.counts()
    for key in a1.band_clusters:
        assert a1.band_clusters[key] == a2.band_clusters[key]
