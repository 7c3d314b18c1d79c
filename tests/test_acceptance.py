"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The expensive designed potential is built once per session.
"""

import json
import math
import time

import numpy as np
import pytest

from hill_octant import bands, design as dz, halfsolid as hsm, monodromy as mo
from hill_octant import spectral_matrix as sm
from hill_octant.cli import main as cli_main
from hill_octant.cluster import (
    assemble_2d,
    assemble_3d,
    count_in_interval,
    fast_factor_spectrum,
    ground_state_product,
    normalize,
    perturb_and_recount,
)
from hill_octant.potential import fourier_potential, l2_norm, save_spec, zero_potential

from conftest import random_corpus

KAPPA = 0.05
N_MODEL = 3
GAMMA_MODEL = 4 * math.pi**2 * (N_MODEL + 1) ** 2 / KAPPA


def report(num, ok, text):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def model_design(criterion5_design):
    # construct_model_potential(N_MODEL, KAPPA, 2), built and timed once per session
    (p, gamma, bs, rep), *_, seconds = criterion5_design
    assert gamma == pytest.approx(GAMMA_MODEL)
    return {"p": p, "gamma": gamma, "bs": bs, "report": rep, "seconds": seconds}


@pytest.fixture(scope="module")
def condition_p_factor():
    p = dz.condition_p_potential(delta=0.5, eps=0.06, t=0.03)
    bs = bands.band_structure(p, 1)
    probe = hsm.ground_state_count(p, 1.0, bs=bs)
    tau = probe.nu0 + 0.5 * (probe.rho**2 - probe.nu0)
    gs = hsm.ground_state_count(p, tau, bs=bs)
    hs = hsm.ac_spectrum(p, tau, 1, bs=bs)
    hs = hsm.HalfSolidSpectrum(
        tau=hs.tau,
        tau0=hs.tau0,
        ac_bands=hs.ac_bands,
        gap_list=hs.gap_list,
        eigenvalues=hs.eigenvalues,
        ground_state=gs,
        band_data=bs,
    )
    return p, bs, hs


@pytest.fixture(scope="module")
def corpus_100():
    return random_corpus(100, seed=777)


@pytest.fixture(scope="module")
def corpus_100_bands(corpus_100):
    return [bands.band_structure(p, 6) for p in corpus_100]


def test_criterion_1_free_potential_exact():
    t0 = time.time()
    bs = bands.band_structure(zero_potential(), 10)
    dt = time.time() - t0
    free = np.array([(math.pi * n) ** 2 for n in range(1, 11)])
    ok = (
        abs(bs.lambda0) < 1e-8
        and np.max(np.abs(bs.gap_lo - free)) < 1e-8
        and np.max(np.abs(bs.gap_hi - free)) < 1e-8
        and np.max(np.abs(bs.dirichlet - free)) < 1e-8
        and abs(bs.neumann[0]) < 1e-8
        and np.max(np.abs(bs.neumann[1:] - free)) < 1e-8
        and dt < 1.0
    )
    report(1, ok, f"free potential at (pi n)^2 within 1e-8, runtime {dt:.2f}s < 1s")


def _oracle_gap(p):
    """Worst shooting-vs-matrix relative discrepancy for one potential."""
    N = 4
    bs = bands.band_structure(p, N)
    lam0, glo, ghi, _ = sm.hill_band_edges(p, N)
    mu_g = sm.galerkin_dirichlet(p, N)
    nu_g = sm.galerkin_neumann(p, N + 1)
    scale = np.maximum(1.0, np.abs(glo))
    edge = max(
        float(np.max(np.abs(bs.gap_lo - glo) / scale)),
        float(np.max(np.abs(bs.gap_hi - ghi) / scale)),
        abs(bs.lambda0 - lam0) / max(1.0, abs(lam0)),
    )
    mu = float(np.max(np.abs(bs.dirichlet - mu_g) / np.maximum(1.0, np.abs(mu_g))))
    nu = float(np.max(np.abs(bs.neumann - nu_g) / np.maximum(1.0, np.abs(nu_g))))
    return edge, mu, nu


def test_criterion_2_oracle_equivalence(mathieu):
    t0 = time.time()
    results = [_oracle_gap(p) for p in [mathieu] + random_corpus(20, seed=424242)]
    worst_edge = max(r[0] for r in results)
    worst_mu = max(r[1] for r in results)
    worst_nu = max(r[2] for r in results)
    dt = time.time() - t0
    ok = worst_edge < 1e-6 and worst_mu < 1e-6 and worst_nu < 1e-6 and dt < 30.0
    report(
        2,
        ok,
        f"20 random + Mathieu vs matrix oracles: edges {worst_edge:.2e}, "
        f"mu {worst_mu:.2e}, nu {worst_nu:.2e} (rel, tol 1e-6); runtime {dt:.1f}s < 30s",
    )


def test_criterion_3_structural_invariants(corpus_100, corpus_100_bands):
    violations = []
    for i, (p, bs) in enumerate(zip(corpus_100, corpus_100_bands)):
        tol = 1e-9 * np.maximum(1.0, np.abs(bs.gap_lo))
        if not (bs.lambda0 <= bs.gap_lo[0] + tol[0] and np.all(bs.gap_hi[:-1] <= bs.gap_lo[1:] + tol[:-1])):
            violations.append((i, "interlacing"))
        for n, (lo, hi) in enumerate(bs.bands()):
            if hi - lo > math.pi**2 * (2 * n + 1) + 1e-6:
                violations.append((i, f"band bound {n}"))
        if not (np.all(bs.gap_lo - tol <= bs.dirichlet) and np.all(bs.dirichlet <= bs.gap_hi + tol)):
            violations.append((i, "mu containment"))
        if not (np.all(bs.gap_lo - tol <= bs.neumann[1:]) and np.all(bs.neumann[1:] <= bs.gap_hi + tol)):
            violations.append((i, "nu containment"))
        if bs.neumann[0] > bs.lambda0 + 1e-9 * max(1.0, abs(bs.lambda0)):
            violations.append((i, "nu0 below lambda0"))
        if np.max(np.abs(bs.xi[:, 0] ** 2 + bs.xi[:, 1] ** 2 - 0.25 * bs.gap_lengths**2)) > 1e-9:
            violations.append((i, "xi identity"))
        probe = np.linspace(bs.lambda0 - 1.0, bs.next_band_end, 7)
        mb = mo.integrate_batch(p, probe)
        if np.max(np.abs(mb.wronskian - 1.0)) > 1e-9:
            violations.append((i, "wronskian"))
        lhs = mb.a_value**2 + 1.0 - mb.discriminant**2
        rhs = -mb.phi_1 * mb.theta_prime_1
        if np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(probe))) > 1e-8:
            violations.append((i, "identity a^2+1-F^2"))
    report(3, not violations, f"100-potential property suite, violations: {violations[:5]}")


def _norm_pair(p, bs, tail_gaps=0):
    """(mean-zero potential norm, xi norm).

    The gap-geometry map lives on the zero-average space, so the norm drops
    the constant; ||xi||^2 = sum |gamma_n|^2 / 4, extendable over extra
    tail gaps through the matrix route (one inequality direction only ever
    grows with more gaps; the deep designs have hundreds of macroscopic
    tail gaps that the first-N truncation would unfairly ignore).
    """
    nv = math.sqrt(max(l2_norm(p) ** 2 - p.constant**2, 0.0))
    if tail_gaps > bs.n_gaps:
        _, glo, ghi, _ = sm.hill_band_edges(p, tail_gaps)
        sq = float(np.sum((ghi - glo) ** 2)) / 4.0
    else:
        sq = float(np.sum(bs.gap_lengths**2)) / 4.0
    return nv, math.sqrt(sq)


def test_criterion_4_norm_estimates(corpus_100, corpus_100_bands, model_design, modest_design):
    entries = [(p, bs, 0) for p, bs in zip(corpus_100, corpus_100_bands)]
    entries.append((model_design["p"], model_design["bs"], 24))
    entries.append((*modest_design, 0))
    bad = []
    for i, (p, bs, tail) in enumerate(entries):
        nv, nxi = _norm_pair(p, bs, tail_gaps=tail)
        if not nv <= 4 * nxi * (1 + nxi ** (1 / 3)) + 1e-9:
            bad.append((i, "v <= 4 xi (1 + xi^(1/3))"))
        if not nxi <= nv * (1 + nv) ** (1 / 3) + 1e-9:
            bad.append((i, "xi <= v (1 + v)^(1/3)"))
    report(4, not bad, f"norm estimates on {len(entries)} potentials, violations: {bad[:5]}")


def test_criterion_5_gap_design(model_design):
    gamma = model_design["gamma"]
    bs = model_design["bs"]
    dt = model_design["seconds"]
    gap_rel = float(np.max(np.abs(bs.gap_lengths - gamma) / gamma))
    state_abs = float(np.max(np.abs(bs.dirichlet - (bs.gap_lo + gamma / 8.0))))
    signs = [s.sign for s in bs.states]
    ok = gap_rel < 1e-4 and state_abs < 1e-3 * gamma and signs == [1, 1, 1] and dt < 300.0
    report(
        5,
        ok,
        f"gamma = {gamma:.1f}: gap rel err {gap_rel:.2e} < 1e-4, state offset "
        f"{state_abs:.3g} < {1e-3 * gamma:.3g}, signs {signs}, built in {dt:.0f}s < 300s",
    )


def test_criterion_6_sqrt_rate(modest_design):
    p, bs = modest_design
    fit = hsm.verify_sqrt_rate(p, 1, [1e2, 1e3, 1e4, 1e5, 1e6], bs=bs)
    slope_ok = abs(fit.slope + 0.5) < 0.05
    const_ok = abs(fit.constant / abs(fit.c_direct) - 1.0) < 0.05
    report(
        6,
        slope_ok and const_ok,
        f"fit slope {fit.slope:.4f} (want -0.5 +- 0.05), constant {fit.constant:.4f} vs "
        f"|c(mu_1)| = {abs(fit.c_direct):.4f} ({100 * abs(fit.constant / abs(fit.c_direct) - 1):.1f}% off, tol 5%)",
    )


def test_criterion_7_ground_state_criterion(condition_p_factor):
    p, bs, hs = condition_p_factor
    probe = hsm.ground_state_count(p, 1.0, bs=bs)
    rho, nu0 = probe.rho, probe.nu0
    ok = rho > 0
    for f in (0.1, 0.3, 0.5, 0.7, 0.9):
        tau = nu0 + f * (rho**2 - nu0)
        gs = hsm.ground_state_count(p, tau, bs=bs)
        ok &= gs.count == 1 and gs.energy is not None
        if gs.energy is not None:
            ok &= gs.energy < 0
            ok &= abs(hsm.wronskian(p, tau, gs.energy, 0)) < 1e-9
    ok &= hsm.ground_state_count(p, nu0 - 1.0, bs=bs).count == 0
    ok &= hsm.ground_state_count(p, rho**2 + 1.0, bs=bs).count == 0
    report(7, ok, f"rho = {rho:.4f} > 0; count 1 on (nu0, rho^2) with w(E) = 0, count 0 outside")


def test_criterion_8_cluster_realization(model_design, tmp_path):
    p, gamma = model_design["p"], model_design["gamma"]
    factor = fast_factor_spectrum(p, N_MODEL, gamma)
    cs2 = assemble_2d(factor, factor, KAPPA, N_MODEL)
    ok = True
    details = []
    for n in (1, 2, 3):
        count, _, disjoint = count_in_interval(cs2, cs2.separating[n])
        dist = cs2.ac_union().distance(cs2.separating[n])
        details.append(f"I_{n}: {count} ev, dist {dist:.3f}")
        ok &= count == n and disjoint and dist >= 2 * KAPPA - 1e-12
    cs3 = assemble_3d(factor, factor, factor, kappa=KAPPA, N=2)
    for n, want in ((0, 1), (1, 3), (2, 6)):
        count, _, _ = count_in_interval(cs3, cs3.separating[n])
        details.append(f"3D I_{n}: {count}")
        ok &= count == want
    # exit-0 CLI cluster run on the same potential
    spec = tmp_path / "model.json"
    save_spec(p, spec)
    rc = cli_main(
        ["cluster", "--potential", str(spec), "--N", str(N_MODEL), "--kappa", str(KAPPA),
         "--gamma", str(gamma), "--out", str(tmp_path)]
    )
    ok &= rc == 0
    rep = json.loads((tmp_path / "cluster_report.json").read_text())
    ok &= rep["all_valid"]
    report(8, ok, "; ".join(details) + f"; cluster CLI exit {rc}")


def test_criterion_9_perturbation_stability(model_design):
    p, gamma = model_design["p"], model_design["gamma"]
    factor = fast_factor_spectrum(p, N_MODEL, gamma)
    cs = assemble_2d(factor, factor, KAPPA, N_MODEL)
    intervals = [(cs.separating[n].lo, cs.separating[n].hi) for n in (1, 2, 3)]
    eps = KAPPA**3
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(10):
        ws = []
        for _ in range(2):
            c = rng.uniform(-1.0, 1.0, 6)
            c *= 1.0 / max(1.0, np.sum(np.abs(c)))  # sup|w| <= 1
            ws.append(fourier_potential([(k + 1, c[2 * k], c[2 * k + 1]) for k in range(3)]))
        before, after = perturb_and_recount([p, p], ws, eps, intervals, KAPPA, gamma, N_MODEL)
        ok &= before == after == [1, 2, 3]
    report(9, ok, f"10 random separable perturbations at eps = kappa^3 = {eps:.2e}: counts stable (1,2,3)")


def test_criterion_10_product_ground_state(condition_p_factor):
    p, bs, hs = condition_p_factor
    e_total, bottom = ground_state_product([hs, hs])
    gs = hs.ground_state
    margin = bottom - e_total
    want = 0.9 * (hs.tau0 - gs.energy)
    ok = e_total < bottom and margin >= want
    report(
        10,
        ok,
        f"E_total = {e_total:.5f} < sigma_ac bottom = {bottom:.5f}; margin {margin:.5f} >= {want:.5f}",
    )
