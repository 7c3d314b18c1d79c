import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hill_octant import bands, design as dz
from hill_octant.potential import fourier_potential, zero_potential


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
