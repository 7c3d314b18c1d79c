"""Spectrum of the junction operator: constant tau on the left half-line,
1-periodic v on the right.

The a.c. spectrum is the union of the periodic bands with [tau, infinity);
eigenvalues live in the surviving gaps and are the zeros of the Wronskian

    w(lambda) = m_+(lambda) - sqrt(tau - lambda),

with the positive square-root branch below tau and m_+ on the physical
sheet.  On every pole-free stretch of a gap below tau both terms increase
in lambda, so w is strictly monotone there.  Each surviving gap is cut at
its Dirichlet point mu_j, the only possible pole of m_+; a piece holds a
root exactly when w < 0 at its lower end and w > 0 at its upper end, and
every such piece goes to one batched bracketed Newton iteration, with
dw/dlambda from the variational system, in a variable and on a multiple of
w that remove its square-root branches at band edges and its pole at
mu_j.  A whole tau sweep is one solve, each piece at its own tau.  The
lowest gap is one more piece, uncut: the junction form is at least
min(tau, min v), so w < 0 below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import monodromy as mo
from .bands import BandStructure, _bracketed_newton, band_structure
from .errors import (
    BracketFailure,
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


def _w_and_slope(p, tau, lams, gap_index):
    """w and dw/dlambda at energies below tau, one tau and gap index per energy or one for all."""
    m, dm = mo.m_plus_batch(p, lams, gap_index)
    root = np.sqrt(tau - lams)
    return m - root, dm + 0.5 / root


def _gap_roots(p, sweep, bs: BandStructure):
    """The junction eigenvalues of a sweep: one tuple of (index, lambda) per tau.

    `sweep` lists (tau, surviving gaps to search) pairs.  Each gap is cut at
    its Dirichlet point mu_j, where m_+ may have its pole (gap 0, the lowest
    one, has no mu and no cut); w is strictly increasing on each piece, so
    the signs of w at the piece ends decide which pieces hold a root, and
    one batched Newton iteration solves them all, each piece at its own
    tau.  Roots on both sides of mu_j for one tau raise MultipleRoots, and
    a w that is not finite at a piece end (m_+ beyond float64) raises
    BracketFailure.

    Newton runs on g = w |lambda - mu_j| on a cut piece, which has no pole,
    and on w elsewhere, in the variable u of

        lambda = lo + (hi - lo) (sin^2 u - s_lo) / (s_hi - s_lo),

    with s = 0 (lower end) or 1 (upper end) at a band edge or at tau, where
    w has a square-root branch that u removes, and s = 1/2 at a cut or at
    the lowest gap's lower end.  Bracket and stopping rule stay in lambda.
    """
    # (lower end, upper end, gap index, position in the sweep, s_lo, s_hi,
    # mu_j at a cut piece or nan)
    pieces = []
    for k, (tau, gaps) in enumerate(sweep):
        for gap in gaps:
            j = gap.index
            pad = 1e-12 * max(1.0, abs(gap.lo))
            a = gap.lo + pad
            b = gap.hi - (1e-9 * max(1.0, abs(tau)) if gap.truncated else pad)
            if b <= a:
                continue
            if j:  # gap 0, the lowest, has no Dirichlet point to cut at
                mu_j = bs.dirichlet[j - 1]
                split = POLE_SPLIT_REL * (bs.gap_hi[j - 1] - bs.gap_lo[j - 1])
                if a < mu_j - split and mu_j + split < b:
                    pieces.append((a, mu_j - split, j, k, 0.0, 0.5, mu_j))
                    pieces.append((mu_j + split, b, j, k, 0.5, 1.0, mu_j))
                    continue
            pieces.append((a, b, j, k, 0.0 if j else 0.5, 1.0, math.nan))
    if not pieces:
        return [()] * len(sweep)
    lo, hi, owner, at, s_lo, s_hi, pole = (np.array(v) for v in zip(*pieces))
    tau = np.array([t for t, _ in sweep], dtype=float)[at]
    w, _ = _w_and_slope(p, np.tile(tau, 2), np.concatenate((lo, hi)), np.tile(owner, 2))
    w_lo, w_hi = np.split(w, 2)
    bad = ~(np.isfinite(w_lo) & np.isfinite(w_hi))
    if np.any(bad):
        raise BracketFailure(f"gap {owner[bad][0]}: w is not finite at a piece end, so no sign brackets a root")
    has = (w_lo < 0) & (w_hi > 0)
    if not np.any(has):
        return [()] * len(sweep)
    owner, at, tau, pole, s_lo = owner[has], at[has], tau[has], pole[has], s_lo[has]
    hit, count = np.unique(np.column_stack((at, owner)), axis=0, return_counts=True)
    if np.any(count > 1):
        raise MultipleRoots(f"gap {hit[count > 1][0, 1]}: a Wronskian root on both sides of mu_j")
    lo, hi = lo[has], hi[has]
    lam_per_s = (hi - lo) / (s_hi[has] - s_lo)

    def evaluate(x, idx):
        w, dw = _w_and_slope(p, tau[idx], x, owner[idx])
        d = x - pole[idx]
        cut = np.isfinite(d)
        dist = np.where(cut, np.abs(d), 1.0)
        return w * dist, dw * dist + np.where(cut, np.sign(d) * w, 0.0)

    def newton_in_u(x, g, dg, idx):
        u = np.arcsin(np.sqrt(np.clip(s_lo[idx] + (x - lo[idx]) / lam_per_s[idx], 0.0, 1.0)))
        u_next = u - g / (dg * lam_per_s[idx] * np.sin(2.0 * u))
        return lo[idx] + lam_per_s[idx] * (np.sin(u_next) ** 2 - s_lo[idx])

    x = _bracketed_newton(
        evaluate, lo.copy(), hi.copy(), -np.ones(owner.size), 1e-12, iterate=newton_in_u
    )
    roots = [[] for _ in sweep]
    for k, j, lam in zip(at.tolist(), owner.tolist(), x.tolist()):
        roots[k].append((j, lam))
    return [tuple(r) for r in roots]


def gap_eigenvalues(
    p: Potential, tau: float, N: int, bs: BandStructure | None = None
) -> HalfSolidSpectrum:
    """Locate the (at most one per gap) junction eigenvalues in gaps 1..N."""
    hs = ac_spectrum(p, tau, N, bs=bs)
    (roots,) = _gap_roots(p, [(tau, hs.gap_list)], hs.band_data)
    return replace(hs, eigenvalues=roots)


def asymptotic_coefficient(p: Potential, gap_index: int, bs: BandStructure | None = None) -> float:
    """Residue of m_+ at the bound state mu_n: (a - b) / phi_lam at mu_n.

    Equal to 2 a(mu_n) / phi_lam(1, mu_n) since a = -b there; its magnitude
    is 2|b| / |phi_lam| and its sign makes mu_j(tau) approach mu_j from
    below as tau grows.  `GapState.residue` holds it, formed from the
    scaled components, so it is finite on deep wells too.
    """
    if bs is None:
        bs = band_structure(p, gap_index)
    s = bs.state(gap_index)
    if s.sign != +1:
        raise NotBoundState(f"gap {gap_index} hosts sign {s.sign}, need a bound state (+1)")
    return s.residue


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
    taus = [tau for tau in map(float, tau_grid) if tau > mu_j]  # _rate_fit skips the rest
    sweep = [
        (tau, [g for g in ac_spectrum(p, tau, gap_index, bs=bs).gap_list if g.index == gap_index])
        for tau in taus
    ]
    pairs = [(tau, r[0][1] if r else None) for tau, r in zip(taus, _gap_roots(p, sweep, bs))]
    return _rate_fit(pairs, mu_j, c_direct)


def _rate_fit(pairs, mu_j: float, c_direct: float) -> RateFit:
    """The fit of verify_sqrt_rate over (tau, mu_j(tau)) pairs, None where gap j has no root."""
    taus, gaps = [], []
    for tau, lam in pairs:
        if tau <= mu_j or lam is None:
            continue  # the bound-state stretch of the gap is not yet open, or holds no root
        diff = abs(lam - mu_j)
        if diff <= 1e-12 * max(1.0, abs(mu_j)):
            continue
        taus.append(tau)
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
    # rho = m_+(lambda_0) = (a - sqrt(F^2 - 1)) / phi(1), and F^2 = 1 at the
    # band edge lambda_0, where the computed F^2 - 1 is rounding noise of
    # either sign: so rho = a / phi(1), from the stored components (both
    # carry e^(-log_scale), so the ratio is scale-free)
    mb = mo.integrate_batch(p, [bs.lambda0])
    rho = float(0.5 * (mb.phi_prime_1[0] - mb.theta_1[0]) / mb.phi_1[0])
    if rho <= 0 or not (nu0 < tau < rho**2):
        return GroundState(0, float(rho), nu0, None)
    # the lowest gap (-inf, tau0) as a piece, its top kept as far from tau0
    # as a truncated gap's
    tau0 = min(0.0, tau)
    lowest = GapInterval(0, min(nu0, -p.sup_norm_bound, tau) - 5.0, tau0, True)
    (roots,) = _gap_roots(p, [(tau, [lowest])], bs)
    return GroundState(1, float(rho), nu0, roots[0][1] if roots else None)
