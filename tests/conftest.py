import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hill_octant import bands, design as dz, monodromy as mo, spectral_matrix as sm
from hill_octant.potential import fourier_potential, zero_potential


Pass = namedtuple("Pass", "width rtol zeros lams")


@pytest.fixture
def passes(monkeypatch):
    """Every integrator pass made through `monodromy.integrate_batch`, as a
    Pass(width, rtol, zeros, lams): its number of energies, its tolerance,
    whether it counted zeros (the Prufer phase passes do) and a copy of
    its energies."""
    log = []
    batch = mo.integrate_batch

    def counted(p, lams, rtol=mo.RTOL, **kwargs):
        energies = np.array(lams, dtype=float, ndmin=1)
        log.append(Pass(energies.size, rtol, kwargs.get("count_zeros", False), energies))
        return batch(p, lams, rtol=rtol, **kwargs)

    monkeypatch.setattr(mo, "integrate_batch", counted)
    return log


@pytest.fixture(scope="session")
def mathieu():
    """v = 2 cos(2 pi x): even, so every gap state is virtual."""
    return fourier_potential([(1, 2.0, 0.0)])


@pytest.fixture(scope="session")
def asym_potential():
    """Two-mode potential without symmetry; mixed gap-state sheets."""
    return fourier_potential([(1, 2.0, 1.5), (2, -1.0, 0.7)])


@pytest.fixture(scope="session")
def bound_state_potential():
    """Macroscopic first gap hosting a bound state."""
    return fourier_potential([(1, 30.0, -12.0)])


@pytest.fixture(scope="session")
def bound_state_bands(bound_state_potential):
    return bands.band_structure(bound_state_potential, 2)


def random_corpus(count, n_modes=3, seed=20240813, amplitude=5.0):
    """Deterministic random Fourier potentials for property sweeps."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        c = rng.uniform(-amplitude, amplitude, 2 * n_modes)
        out.append(
            fourier_potential(
                [(k + 1, c[2 * k], c[2 * k + 1]) for k in range(n_modes)]
            )
        )
    return out


@pytest.fixture(scope="session")
def small_corpus():
    return random_corpus(12)


@pytest.fixture(scope="session")
def modest_design():
    """Desk-scale N=3 design with mid-gap bound states, for the tau-sweep
    asymptotics.

    The tau grid 1e2..1e6 must sit far above the spectrum range, which
    forces modest gap lengths here (the full-size model potential has
    gamma ~ 1.3e4, burying the low tau values inside gap 1).  Mid-gap
    states make the regular part of m_+ at mu nearly vanish, so the
    1/sqrt(tau) law is clean from tau = 100 onward; edge-proximal states
    bias the fitted constant by ~15-20% at this grid regardless of the
    gap size.
    """
    g = 6.0
    target = dz.DesignTarget(
        n_gaps=3,
        gap_lengths=(g,) * 3,
        state_fracs=(0.5,) * 3,
        state_signs=(1,) * 3,
        basis_size=4,
        tolerance=1e-5,
    )
    p0 = dz.design_gap_lengths(
        dz.DesignTarget(n_gaps=3, gap_lengths=(g,) * 3, tolerance=1e-5)
    )
    p = dz.place_states(p0, target)
    return p, bands.band_structure(p, 3)


@pytest.fixture(scope="session")
def mixed_sheet_design():
    """(p, report): two gaps of length 5, a bound state 1/8 into gap 1 and an
    anti-bound one 3/10 into gap 2."""
    target = dz.DesignTarget(
        n_gaps=2,
        gap_lengths=(5.0, 5.0),
        state_fracs=(0.125, 0.3),
        state_signs=(1, -1),
        basis_size=3,
        tolerance=1e-5,
    )
    p0 = dz.design_gap_lengths(
        dz.DesignTarget(n_gaps=2, gap_lengths=(5.0, 5.0), tolerance=1e-5)
    )
    rep = dz.DesignReport(targets={})
    return dz.place_states(p0, target, rep), rep


def separable_perturbations(seed, trials, d):
    """`trials` lists of d random w with modes 1..3 and sup|w| <= 1.

    At seed 11, 10 trials and d = 2 these are criterion 9's perturbations.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        ws = []
        for _ in range(d):
            c = rng.uniform(-1.0, 1.0, 6)
            c *= 1.0 / max(1.0, np.sum(np.abs(c)))  # sup|w| <= 1
            ws.append(fourier_potential([(k + 1, c[2 * k], c[2 * k + 1]) for k in range(3)]))
        out.append(ws)
    return out


def reflect(p):
    """v(x) -> v(-x): the sine terms and the shift change sign."""
    return fourier_potential(
        [(t.k, t.cos, -t.sin) for t in p.fourier], constant=p.constant, shift=-p.shift
    )


def logged_model_design(N, kappa, d):
    """construct_model_potential(N, kappa, d) with its solves logged.

    Returns (result, events, blocks, hill_args, seconds).  `events` orders
    the end of the gap-length fit, each Hill solve, each Dirichlet Galerkin
    solve (values or vectors) and each Gauss-Newton solve; `blocks` holds
    (dimension, Lanczos steps, shift) per Hill block, `hill_args` the
    arguments of each Hill solve and `seconds` the build time.
    """
    events, blocks, hill_args, widths, shifts = [], [], [], set(), []
    lengths, solve = dz.design_gap_lengths, dz._gauss_newton
    hill_edges, block, shift, orth = sm._hill_edges, sm._hill_lanczos, sm._shift, sm._orthonormal_block

    def logged_lengths(*args):
        out = lengths(*args)
        events.append("lengths")
        return out

    def logged_solve(*args, **kwargs):
        events.append("solve")
        return solve(*args, **kwargs)

    def logged_edges(*args, **kwargs):
        events.append("hill")
        hill_args.append(args)
        return hill_edges(*args, **kwargs)

    def logged_galerkin(galerkin):
        def logged(*args, **kwargs):
            events.append("galerkin")
            return galerkin(*args, **kwargs)

        return logged

    def logged_shift(*args):
        shifts.append(shift(*args))
        return shifts[-1]

    def logged_block(a, b, offset, K, *args, **kwargs):
        widths.clear()
        out = block(a, b, offset, K, *args, **kwargs)
        # one basis width per Lanczos step; the block's shift is the last one taken
        blocks.append([2 * K + (1 if offset == 0.0 else 0), len(widths), shifts[-1]])
        return out

    def logged_orth(V, Q, rng):
        widths.add(V.shape[1])
        return orth(V, Q, rng)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dz, "design_gap_lengths", logged_lengths)
        m.setattr(dz, "_gauss_newton", logged_solve)
        for name, fn in [("_hill_edges", logged_edges), ("_shift", logged_shift),
                         ("_hill_lanczos", logged_block), ("_orthonormal_block", logged_orth),
                         ("galerkin_dirichlet", logged_galerkin(sm.galerkin_dirichlet)),
                         ("galerkin_dirichlet_vectors", logged_galerkin(sm.galerkin_dirichlet_vectors))]:
            m.setattr(sm, name, fn)
        t0 = time.time()
        result = dz.construct_model_potential(N, kappa, d)
        seconds = time.time() - t0
    return result, events, blocks, hill_args, seconds


@pytest.fixture(scope="session")
def deep_n2_d3():
    """construct_model_potential(2, 0.1, 3), the benchmark's design, logged
    as (result, events, blocks, hill_args): see `logged_model_design`."""
    return logged_model_design(2, 0.1, 3)[:4]


@pytest.fixture(scope="session")
def criterion5_design():
    """construct_model_potential(3, 0.05, 2), criterion 5's design, logged
    as (result, events, blocks, hill_args, seconds): see `logged_model_design`."""
    return logged_model_design(3, 0.05, 2)
