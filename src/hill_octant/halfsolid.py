"""Spectrum of the junction operator: constant tau on the left half-line,
1-periodic v on the right.

The a.c. spectrum is the union of the periodic bands with [tau, infinity);
eigenvalues live in the surviving gaps and are the zeros of the Wronskian

    w(lambda) = m_+(lambda) - sqrt(tau - lambda),

with the positive square-root branch below tau and m_+ on the physical
sheet.  On every pole-free stretch of a gap below tau both terms increase
in lambda, so w is strictly monotone there and each sub-scan sees at most
one sign change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import monodromy as mo
from .bands import BandStructure, band_structure
from .errors import (
    InsufficientPoints,
    MultipleRoots,
    NotBoundState,
    NotNormalized,
    OutsideGap,
)
from .potential import Potential

__all__ = [
    "GapInterval",
    "GroundState",
    "HalfSolidSpectrum",
    "RateFit",
    "ac_spectrum",
    "wronskian",
    "gap_eigenvalues",
    "asymptotic_coefficient",
    "verify_sqrt_rate",
    "ground_state_count",
]

SCAN_POINTS = 512
POLE_SPLIT_REL = 1e-8


@dataclass(frozen=True)
class GapInterval:
    index: int
    lo: float
    hi: float
    truncated: bool  # right end cut at tau


@dataclass(frozen=True)
class GroundState:
    count: int
    rho: float
    nu0: float
    energy: float | None


@dataclass(frozen=True)
class HalfSolidSpectrum:
    tau: float
    tau0: float  # bottom of the a.c. spectrum
    ac_bands: tuple[tuple[float, float], ...]  # last one reaches +inf
    gap_list: tuple[GapInterval, ...]
    eigenvalues: tuple[tuple[int, float], ...]
    ground_state: GroundState | None
    band_data: BandStructure


def ac_spectrum(p: Potential, tau: float, N: int, bs: BandStructure | None = None) -> HalfSolidSpectrum:
    """Bands and surviving gaps of the junction operator, resolved to gap N."""
    if bs is None:
        bs = band_structure(p, N)
    lam0 = bs.lambda0
    tau0 = min(lam0, tau)
    if tau <= bs.gap_lo[0]:
        return HalfSolidSpectrum(
            tau=tau,
            tau0=tau0,
            ac_bands=((tau0, math.inf),),
            gap_list=(),
            eigenvalues=(),
            ground_state=None,
            band_data=bs,
        )
    bands = bs.bands()  # sigma_0 .. sigma_N
    gaps = []
    j_tau = int(np.sum(bs.gap_lo < tau))  # tau lies above the opening of gap j_tau
    for j in range(1, j_tau):
        lo, hi = bs.gap_lo[j - 1], bs.gap_hi[j - 1]
        if hi > lo:
            gaps.append(GapInterval(j, lo, hi, False))
    # gap j_tau survives up to min(lambda_j^+, tau)
    lo = bs.gap_lo[j_tau - 1]
    hi = min(bs.gap_hi[j_tau - 1], tau)
    if hi > lo:
        gaps.append(GapInterval(j_tau, lo, hi, hi < bs.gap_hi[j_tau - 1]))
    ac = list(bands[:j_tau])
    ac.append((min(bs.gap_hi[j_tau - 1], tau), math.inf))
    return HalfSolidSpectrum(
        tau=tau,
        tau0=tau0,
        ac_bands=tuple(ac),
        gap_list=tuple(gaps),
        eigenvalues=(),
        ground_state=None,
        band_data=bs,
    )


def wronskian(p: Potential, tau: float, lam: float, gap_index: int) -> float:
    """w(lambda) = m_+(lambda) - sqrt(tau - lambda), for lambda < tau."""
    if lam >= tau:
        raise OutsideGap(f"lambda = {lam} must lie strictly below tau = {tau}")
    return mo.m_plus(p, lam, gap_index) - math.sqrt(tau - lam)


def _wronskian_batch(p, tau, lams, gap_index):
    return mo.m_plus_batch(p, lams, gap_index) - np.sqrt(tau - lams)


def _scan_interval(p, tau, lo, hi, gap_index, tol_abs):
    """At most one sign change of the (monotone) w on [lo, hi]."""
    if hi <= lo:
        return []
    grid = np.linspace(lo, hi, SCAN_POINTS)
    w = _wronskian_batch(p, tau, grid, gap_index)
    sign = np.sign(w)
    nz = (sign != 0) & ~np.isnan(w)
    idx = np.nonzero(np.diff(sign[nz]) != 0)[0]
    pos = np.nonzero(nz)[0]
    roots = []
    for i in idx:
        a, b = grid[pos[i]], grid[pos[i + 1]]
        wa = w[pos[i]]
        # monotone refinement: batched subdivision, then secant
        for _ in range(60):
            if b - a <= tol_abs:
                break
            inner = np.linspace(a, b, 18)[1:-1]
            wi = _wronskian_batch(p, tau, inner, gap_index)
            flips = np.nonzero(np.sign(wi) != np.sign(wa))[0]
            if flips.size:
                k = flips[0]
                b = inner[k]
                a = inner[k - 1] if k > 0 else a
            else:
                a = inner[-1]
        roots.append(0.5 * (a + b))
    return roots


def _gap_root(p, tau, gap: GapInterval, bs: BandStructure):
    """The junction eigenvalue in one surviving gap, or None.

    Scans the gap on both sides of the Dirichlet pole mu_j of m_+, where w
    is monotone; more than one sign change raises MultipleRoots.
    """
    j = gap.index
    width_full = bs.gap_hi[j - 1] - bs.gap_lo[j - 1]
    pad = 1e-12 * max(1.0, abs(gap.lo))
    lo = gap.lo + pad
    hi = gap.hi - (1e-9 * max(1.0, abs(tau)) if gap.truncated else pad)
    if hi <= lo:
        return None
    mu_j = bs.dirichlet[j - 1]
    split = POLE_SPLIT_REL * width_full
    tol_abs = 1e-10 * max(1.0, abs(gap.hi))
    if lo < mu_j - split and mu_j + split < hi:
        pieces = [(lo, mu_j - split), (mu_j + split, hi)]
    else:
        pieces = [(lo, hi)]
    roots = []
    for a, b in pieces:
        roots.extend(_scan_interval(p, tau, a, b, j, tol_abs))
    if len(roots) > 1:
        raise MultipleRoots(f"gap {j}: found {len(roots)} Wronskian sign changes")
    return float(roots[0]) if roots else None


def gap_eigenvalues(
    p: Potential, tau: float, N: int, bs: BandStructure | None = None
) -> HalfSolidSpectrum:
    """Locate the (at most one per gap) junction eigenvalues in gaps 1..N."""
    hs = ac_spectrum(p, tau, N, bs=bs)
    found = []
    for gap in hs.gap_list:
        lam = _gap_root(p, tau, gap, hs.band_data)
        if lam is not None:
            found.append((gap.index, lam))
    return replace(hs, eigenvalues=tuple(found))


def asymptotic_coefficient(p: Potential, gap_index: int, bs: BandStructure | None = None) -> float:
    """Residue of m_+ at the bound state mu_n: (a - b) / phi_lam at mu_n.

    Equal to 2 a(mu_n) / phi_lam(1, mu_n) since a = -b there; its magnitude
    is 2|b| / |phi_lam| and its sign makes mu_j(tau) approach mu_j from
    below as tau grows.
    """
    if bs is None:
        bs = band_structure(p, gap_index)
    s = bs.state(gap_index)
    if s.sign != +1:
        raise NotBoundState(f"gap {gap_index} hosts sign {s.sign}, need a bound state (+1)")
    return 2.0 * s.a_value / s.phi_lam


def _eigenvalue_near_mu(p, tau, gap_index, bs):
    hs = ac_spectrum(p, tau, gap_index, bs=bs)
    for gap in hs.gap_list:
        if gap.index == gap_index:
            return _gap_root(p, tau, gap, bs)
    return None


@dataclass(frozen=True)
class RateFit:
    slope: float
    constant: float
    c_direct: float
    taus: tuple[float, ...]
    gaps_to_mu: tuple[float, ...]


def verify_sqrt_rate(
    p: Potential, gap_index: int, tau_grid, bs: BandStructure | None = None
) -> RateFit:
    """Fit log|mu_j(tau) - mu_j| against log tau; slope should be -1/2.

    The fitted constant estimates |c(mu_j)|, cross-checked against the
    residue formula.
    """
    if bs is None:
        bs = band_structure(p, max(gap_index, 1))
    c_direct = asymptotic_coefficient(p, gap_index, bs=bs)
    mu_j = bs.dirichlet[gap_index - 1]
    taus, gaps = [], []
    for tau in tau_grid:
        if tau <= mu_j:
            continue  # the bound-state stretch of the gap is not yet open
        lam = _eigenvalue_near_mu(p, float(tau), gap_index, bs)
        if lam is None:
            continue
        diff = abs(lam - mu_j)
        if diff <= 1e-12 * max(1.0, abs(mu_j)):
            continue
        taus.append(float(tau))
        gaps.append(diff)
    if len(taus) < 4:
        raise InsufficientPoints(
            f"only {len(taus)} usable tau values for the rate fit (need >= 4)"
        )
    slope, intercept = np.polyfit(np.log(taus), np.log(gaps), 1)
    return RateFit(float(slope), float(math.exp(intercept)), c_direct, tuple(taus), tuple(gaps))


def ground_state_count(
    p: Potential, tau: float, bs: BandStructure | None = None
) -> GroundState:
    """Eigenvalue count in the lowest gap of the junction operator.

    Requires the potential normalized so the lowest band edge is 0; then
    rho = m_+(0) decides: one eigenvalue E < 0 exists exactly for
    nu_0 < tau < rho^2 (when rho > 0), none otherwise.
    """
    if bs is None:
        bs = band_structure(p, 1)
    if abs(bs.lambda0) > 1e-8:
        raise NotNormalized(f"lambda_0^+ = {bs.lambda0:.3e}; shift the potential to 0 first")
    nu0 = float(bs.neumann[0])
    d0 = mo.integrate(p, bs.lambda0)
    excess = max(d0.discriminant**2 - 1.0, 0.0)
    rho = (d0.a_value - math.sqrt(excess)) / d0.phi_1
    if rho <= 0 or not (nu0 < tau < rho**2):
        return GroundState(0, float(rho), nu0, None)
    # locate E: w is strictly increasing on the lowest gap
    tau0 = min(0.0, tau)
    hi = tau0 - 1e-9 * max(1.0, abs(tau0), tau - tau0)
    lo = min(nu0, -p.sup_norm_bound, tau) - 5.0
    w_lo = wronskian(p, tau, lo, 0)
    w_hi = wronskian(p, tau, hi, 0)
    for _ in range(60):
        if w_lo < 0 < w_hi:
            break
        lo -= 2.0 * (hi - lo)
        w_lo = wronskian(p, tau, lo, 0)
    energy = None
    if w_lo < 0 < w_hi:
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if b - a <= 1e-12 * max(1.0, abs(mid)):
                break
            if wronskian(p, tau, mid, 0) < 0:
                a = mid
            else:
                b = mid
        energy = 0.5 * (a + b)
    return GroundState(1, float(rho), nu0, energy)
