"""Band edges, Dirichlet/Neumann spectra, gap states and the xi map.

Strategy: the Prufer phase of the shooting solutions at x = 1 is strictly
increasing in lambda, so Dirichlet points mu_n (phase of phi through n pi)
and Neumann points nu_n (phase of theta through pi/2 + n pi) are found by a
globally safe bracketed Newton iteration.  Its brackets come from min-max
comparison with the free operator, |mu_n - (pi n)^2| and |nu_n - (pi n)^2|
at most sup|v|, so they need no search; the Galerkin eigenvalues (Fourier
potentials) or (pi n)^2 plus the mean (piecewise ones) only seed it, and a
root that ends at a bracket end raises.  The solve hands back each root's
last Newton evaluation, moved to the root by one first-order step in
lambda: the sheets, a(mu_n), F, phi_lambda and the residues, and the gap
anchors below, come from it without another pass.

Both mu_n and nu_n lie in the closure of gap n, where (-1)^n F >= 1, and
(-1)^n F - 1 is positive only inside the open gap.  Near the edges that
difference cancels, so gaps are read from the Wronskian form
Delta = F^2 - 1 = a^2 + phi(1) theta'(1), whose terms err in proportion
to themselves (Poschel and Trubowitz, Inverse Spectral Theory, 1987).
At mu_n and at nu_n (theta'(1) = 0) Delta = a^2; where it beats its error
bar at either, that point anchors the gap strictly inside it.  Where it
beats it at neither, both sit on the gap's edges (an even potential, or a
closed gap), and the hull midpoint is evaluated instead, in one pass for
just those gaps.  At lambda_min = -sup|v| - 1, v - lambda >= 1, so by
Sturm comparison theta(1) and phi'(1), and with them F, are at least
cosh 1: lambda_min needs no evaluation.  Consecutive anchors, lambda_min
first, bracket exactly one sign change of (-1)^n F - 1 for every band
edge, of a sign known at each end, and the same bracketed Newton
iteration resolves it, on Delta / ((-1)^n F + 1) where (-1)^n F > 0 and
on (-1)^n F - 1 elsewhere, all at the integrator's default tolerance.
For Fourier potentials each edge search starts at its Hill-matrix edge
(the bracket midpoint when that falls outside): the bracket certifies the
shooting root, and the seed only cuts the passes it takes.

A gap whose hull midpoint is unresolved too has mu_n and nu_n on opposite
edges within the bar, and the hull [min(mu, nu), max(mu, nu)] gives its
edges.  Each gap state records the route of its edges, "shooting" or
"hull", and `BandStructure.next_band_end_route` that of `next_band_end`.
Gaps below the merge tolerance collapse to a point.  Each Newton pass
integrates the energies still unconverged (2N + 3 at most) at once, and a
search that reaches its cap raises.

Gap state n is bound (+1) exactly when a(mu_n) has sign (-1)^(n+1), else
anti-bound (-1), or virtual (0) when a(mu_n) is below the integration
noise.  `sheet_signs` holds that rule for every route, and `BandStructure.xi`
derives the xi map from the edges and the states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import monodromy as mo
from . import spectral_matrix as sm
from .errors import BracketFailure, CountMismatch, NoConvergence
from .potential import Potential

__all__ = [
    "GapState",
    "BandStructure",
    "band_structure",
    "dirichlet_eigs",
    "neumann_eigs",
    "classify_states",
    "xi_map",
    "sheet_signs",
]

EDGE_MERGE_REL = 1e-9
VIRTUAL_EDGE_REL = 1e-7
VIRTUAL_A_TOL = 1e-9
MAX_NEWTON = 60


@dataclass(frozen=True)
class GapState:
    """State attached to gap n: the Dirichlet point plus its sheet."""

    index: int
    mu: float
    sign: int  # +1 bound, -1 anti-bound, 0 virtual (or closed gap)
    closed: bool
    a_value: float
    discriminant: float
    phi_lam: float
    residue: float  # 2 a / phi_lam at mu, scale-free: the residue of m_+ when bound
    certified_by: str  # "shooting" or "hull"; "matrix" only from design._matrix_band_structure

    @property
    def b_sheet1(self) -> float:
        excess = max(self.discriminant**2 - 1.0, 0.0)
        return (-1) ** self.index * math.sqrt(excess)


@dataclass(frozen=True)
class BandStructure:
    potential: Potential
    n_gaps: int
    lambda0: float
    gap_lo: np.ndarray
    gap_hi: np.ndarray
    next_band_end: float
    dirichlet: np.ndarray
    neumann: np.ndarray
    states: tuple[GapState, ...] = ()
    # routes of lambda0 and of next_band_end, as in GapState.certified_by
    lambda0_route: str = "shooting"
    next_band_end_route: str = "shooting"

    def bands(self) -> list[tuple[float, float]]:
        """sigma_0 .. sigma_N as closed intervals (N+1 of them)."""
        lo = np.concatenate(([self.lambda0], self.gap_hi))
        hi = np.concatenate((self.gap_lo, [self.next_band_end]))
        return list(zip(lo.tolist(), hi.tolist()))

    def gaps(self) -> list[tuple[float, float]]:
        """gamma_1 .. gamma_N (closed ones have zero length)."""
        return list(zip(self.gap_lo.tolist(), self.gap_hi.tolist()))

    @property
    def gap_lengths(self) -> np.ndarray:
        return self.gap_hi - self.gap_lo

    def state(self, n: int) -> GapState:
        return self.states[n - 1]

    def bound_states(self) -> list[GapState]:
        return [s for s in self.states if s.sign == +1 and not s.closed]

    @property
    def xi(self) -> np.ndarray:
        """Rows (xi_1n, xi_2n): gap centre minus mu_n, and the half-chord
        sqrt(|gamma_n|^2 / 4 - xi_1n^2) signed by the sheet (0 when virtual)."""
        mu = np.array([s.mu for s in self.states])
        sign = np.array([s.sign for s in self.states])
        xi1 = 0.5 * (self.gap_lo + self.gap_hi) - mu
        xi2 = np.sqrt(np.abs(0.25 * self.gap_lengths**2 - xi1**2)) * sign
        return np.column_stack((xi1, xi2))


def sheet_signs(mb: mo.MonodromyBatch) -> np.ndarray:
    """Sheets of the Dirichlet points from a batch evaluated at mu_1 .. mu_N in order.

    +1 (bound) exactly where a(mu_n) has sign (-1)^(n+1), -1 otherwise.  It
    reads `a_sign`, which is scale-free, so the rule holds in deep wells.
    """
    n = np.arange(1, mb.a_sign.size + 1)
    return np.where(mb.a_sign * (-1.0) ** (n + 1) > 0, 1, -1)


def _virtual(mb: mo.MonodromyBatch, edge_dist, gap_len) -> np.ndarray:
    """Whether each Dirichlet point of a batch at mu_1 .. mu_N is virtual: |a(mu)| ~ 0.

    |a| <= VIRTUAL_A_TOL max(1, |F|), or |a| <= 1e-6 max(1, |F|) within
    VIRTUAL_EDGE_REL of the gap length from an edge.  It reads the stored
    components, where the 1 is e^(-log_scale), so it holds where a and F
    overflow (deep wells).
    """
    a = 0.5 * np.abs(mb.phi_prime_1 - mb.theta_1)
    floor = np.maximum(np.exp(-mb.log_scale), 0.5 * np.abs(mb.phi_prime_1 + mb.theta_1))
    return (a <= VIRTUAL_A_TOL * floor) | ((edge_dist < VIRTUAL_EDGE_REL * gap_len) & (a <= 1e-6 * floor))


# --- Prufer angles ---------------------------------------------------------


def _prufer_phase(zeros, y, y_prime):
    """Prufer phase of (y, y') at x = 1 from the zeros of y counted in (0, 1].

    arctan2 gives the phase mod 2 pi, and the count puts it in
    (zeros pi, (zeros + 1) pi) up to rounding at a zero.  The branch nearest
    the middle of that interval is the phase, continuous in lambda even
    where arctan2 rounds to +-pi on a zero or a count runs one past it.
    """
    angle = np.arctan2(y, y_prime)
    return angle + 2.0 * np.pi * np.round((np.pi * (zeros + 0.5) - angle) / (2.0 * np.pi))


def _angles(p, lams):
    """Dirichlet and Neumann Prufer phases at x = 1 plus lambda-derivatives,
    and the batch they were read from."""
    mb = mo.integrate_batch(p, lams, count_zeros=True)
    angD = _prufer_phase(mb.phi_zeros, mb.phi_1, mb.phi_prime_1)
    angN = _prufer_phase(mb.theta_zeros, mb.theta_1, mb.theta_prime_1)
    dD = (mb.phi_prime_1 * mb.phi_lam - mb.phi_1 * mb.phi_prime_lam) / (
        mb.phi_1**2 + mb.phi_prime_1**2
    )
    dN = (mb.theta_prime_1 * mb.theta_lam - mb.theta_1 * mb.theta_prime_lam) / (
        mb.theta_1**2 + mb.theta_prime_1**2
    )
    return angD, dD, angN, dN, mb


def _initial_guesses(p: Potential, n_need: int):
    """Eigenvalue guesses to seed the shooting solver.

    For a Fourier potential, the Galerkin eigenvalues: on the shallow
    potentials they land inside the phase Newton's stop.
    """
    if p.fourier:
        return sm.galerkin_dirichlet(p, n_need), sm.galerkin_neumann(p, n_need + 1)
    mean = p.constant
    if p.piecewise:
        mean += sum(s.value * (s.hi - s.lo) for s in p.piecewise)
    n = np.arange(1, n_need + 1)
    mu = (np.pi * n) ** 2 + mean
    nu = np.concatenate(([mean], mu))
    return mu, nu


def _bracketed_newton(evaluate, lo, hi, s_lo, tol, x0=None, iterate=None, first=None):
    """Bracketed Newton on a batch of roots, evaluating the active entries only.

    `evaluate(x, idx)` returns (g, g') at the points x of entries idx, and
    `s_lo` is the sign of g at `lo`.  Each entry starts at its `x0` where
    that lies strictly inside (lo, hi), else (NaN, or no x0) at the
    midpoint.  `first`, when given, is (g, g') at the starts already, made
    by the caller's own pass, and takes the place of the first evaluation.
    `iterate(x, g, g', idx)`, when given, replaces the Newton
    iterate x - g/g' (a Newton step taken in another variable).  An iterate
    that leaves the bracket is replaced by bisection.  An entry stops when
    its step to the next iterate is at most tol * max(1, |x|), when its
    iterate moves by at most that, or when its bracket is below four times
    that.  Raises NoConvergence after
    MAX_NEWTON passes.
    """
    x = 0.5 * (lo + hi)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        x = np.where((x0 > lo) & (x0 < hi), x0, x)  # false for NaN and +-inf
    active = np.ones(x.size, dtype=bool)
    for _ in range(MAX_NEWTON):
        idx = np.nonzero(active)[0]
        xa = x[idx]
        g, dg = evaluate(xa, idx) if first is None else first
        first = None
        left = np.sign(g) == s_lo[idx]
        lo[idx] = np.where(left, xa, lo[idx])
        hi[idx] = np.where(~left, xa, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = xa - g / dg if iterate is None else iterate(xa, g, dg, idx)
        step = xa - x_new
        scale = tol * np.maximum(1.0, np.abs(xa))
        # a tiny step that leaves the bracket means a bracket end already
        # sits on the root: stop at x instead of bisecting toward it
        tiny = np.abs(step) <= scale
        inside = (x_new > lo[idx]) & (x_new < hi[idx]) & np.isfinite(x_new)
        x_new = np.where(inside, x_new, np.where(tiny, xa, 0.5 * (lo[idx] + hi[idx])))
        conv = tiny | (np.abs(x_new - xa) <= scale) | ((hi[idx] - lo[idx]) <= 4.0 * scale)
        x[idx] = x_new
        active[idx[conv]] = False
        if not np.any(active):
            return x
    raise NoConvergence(f"{int(np.sum(active))} Newton roots unconverged after {MAX_NEWTON} passes")


def _phase_solve(p, targets, kinds, lo, hi, tol_rel, x0):
    """Dirichlet (kinds False) and Neumann (True) phases equal to their targets.

    Returns (roots, batch): the batch holds each root's last Newton
    evaluation, moved to the root by one first-order step in lambda.  That
    step is within the Newton stop, so the move errs by its square: a batch
    at the roots without another integrator pass.
    """
    state, at, log_scale = np.empty((8, lo.size)), np.empty(lo.size), np.empty(lo.size)

    def evaluate(x, idx):
        angD, dD, angN, dN, mb = _angles(p, x)
        state[:, idx] = mb.state
        at[idx], log_scale[idx] = x, mb.log_scale
        k = kinds[idx]
        return np.where(k, angN, angD) - targets[idx], np.where(k, dN, dD)

    x = _bracketed_newton(evaluate, lo, hi, -np.ones(lo.size), tol_rel, x0)
    # the derivatives carry the same e^(-log_scale) as the values
    state[:4] += state[4:] * (x - at)
    return x, mo.MonodromyBatch(x, state, log_scale=log_scale)


def _anchor_points(p: Potential, n_need: int):
    """mu_1..mu_{n_need} and nu_0..nu_{n_need} via the monotone phases, each
    bracketed by (pi n)^2 -+ (sup|v| + 1) and seeded by the cheap guesses.

    Returns (mu, nu, batch), the batch at mu then nu from `_phase_solve`.
    """
    n = np.concatenate((np.arange(1, n_need + 1), np.arange(n_need + 1)))
    kinds = np.arange(n.size) >= n_need  # False for mu, True for nu
    targets = np.pi * n + np.where(kinds, np.pi / 2, 0.0)
    reach = p.sup_norm_bound + 1.0
    lo, hi = (np.pi * n) ** 2 - reach, (np.pi * n) ** 2 + reach
    seeds = np.concatenate(_initial_guesses(p, n_need))
    x, mb = _phase_solve(p, targets, kinds, lo.copy(), hi.copy(), 3e-12, seeds)
    mu, nu = x[:n_need], x[n_need:]
    if np.any(np.diff(mu) <= 0) or np.any(np.diff(nu) <= 0):
        raise CountMismatch("eigenvalue ordering violated: bracketing failed")
    # every true root sits at least 1 inside its bracket, so one that ends
    # near a bracket end means the phases are wrong
    if np.any((x - lo < 0.5) | (hi - x < 0.5)):
        raise CountMismatch("a Dirichlet/Neumann phase root sits at its bracket end")
    return mu, nu, mb


# --- band edges ------------------------------------------------------------


def _excess(mb):
    """(Delta, dDelta/dlambda, bar) of a batch: F^2 - 1 = a^2 + phi(1) theta'(1)
    and its error bar.

    The bar is 200 RTOL times each product's first-order error, each factor
    erring by RTOL of its own size: max(|theta|, |phi'|) for a, and the
    amplitudes hypot(phi, phi'/k) for phi and hypot(k theta, theta') for
    theta', k = sqrt(max(|lambda|, 1)).  All three come from the stored
    components and carry e^(-2 log_scale), so they stay finite in deep wells.
    """
    a = 0.5 * (mb.phi_prime_1 - mb.theta_1)
    a_lam = 0.5 * (mb.phi_prime_lam - mb.theta_lam)
    delta = a * a + mb.phi_1 * mb.theta_prime_1
    delta_lam = 2.0 * a * a_lam + mb.phi_lam * mb.theta_prime_1 + mb.phi_1 * mb.theta_prime_lam
    k = np.sqrt(np.maximum(np.abs(mb.lams), 1.0))
    bar = 200.0 * mo.RTOL * (
        2.0 * np.abs(a) * np.maximum(np.abs(mb.theta_1), np.abs(mb.phi_prime_1))
        + np.abs(mb.theta_prime_1) * np.hypot(mb.phi_1, mb.phi_prime_1 / k)
        + np.abs(mb.phi_1) * np.hypot(k * mb.theta_1, mb.theta_prime_1)
    )
    return delta, delta_lam, bar


def _gap_function(mb, parities):
    """g = (-1)^parity F - 1 and dg/dlambda, in the batch's stored units.

    Where (-1)^parity F > 0, g = Delta / ((-1)^parity F + 1), which keeps its
    digits at the band edges, where (-1)^parity F - 1 cancels.
    """
    sgn = (-1.0) ** np.asarray(parities)
    one = np.exp(-mb.log_scale)  # 1 in the stored units
    F = sgn * 0.5 * (mb.phi_prime_1 + mb.theta_1)
    F_lam = sgn * 0.5 * (mb.phi_prime_lam + mb.theta_lam)
    delta, delta_lam, _ = _excess(mb)
    near = F > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(near, delta / (F + one), F - one)
        dg = np.where(near, (delta_lam - g * F_lam) / (F + one), F_lam)
    return g, dg


def _edge_roots(p, lo, hi, s_lo, parities, x0):
    """Roots of (-1)^parity F(lambda) = 1, one sign change per bracket, with
    (-1)^parity F - 1 of sign s_lo at the lower end; each search starts at
    its seed x0 where that lies inside the bracket."""

    def evaluate(x, idx):
        return _gap_function(mo.integrate_batch(p, x), parities[idx])

    return _bracketed_newton(evaluate, lo, hi, s_lo, 1e-12, x0)


def _gap_anchors(p, mu, nu, mb_mu, mb_nu):
    """(anchors, resolved): one point of each closed gap n = 1..len(mu), and
    whether Delta there beats its error bar, which puts it inside the open gap.

    The anchor is mu_n where Delta beats its bar there, else nu_n.  Where
    neither beats it, both sit on the gap's edges, and the hull midpoint
    replaces them; those midpoints take one pass.  An unresolved anchor
    still has F within the bar of (-1)^n, so it anchors the sign of the
    neighbouring parities.
    """
    d_mu, _, bar_mu = _excess(mb_mu)
    d_nu, _, bar_nu = _excess(mb_nu)
    ok_mu = d_mu > bar_mu
    anchor = np.where(ok_mu, mu, nu)
    resolved = ok_mu | (d_nu > bar_nu)
    probe = ~resolved
    if np.any(probe):
        anchor[probe] = 0.5 * (mu[probe] + nu[probe])
        d_mid, _, bar_mid = _excess(mo.integrate_batch(p, anchor[probe]))
        resolved[probe] = d_mid > bar_mid
    return anchor, resolved


# --- main computation ------------------------------------------------------


def band_structure(p: Potential, N: int) -> BandStructure:
    """Spectral data for gaps 1..N plus the band ending at lambda_{N+1}^-."""
    if N < 1:
        raise ValueError("N must be >= 1")
    n_need = N + 1
    mu, nu, mb = _anchor_points(p, n_need)
    mb_mu, mb_nu = mb.take(slice(n_need)), mb.take(slice(n_need + 1, None))

    hull_lo = np.minimum(mu, nu[1:])
    hull_hi = np.maximum(mu, nu[1:])
    merge_tol = EDGE_MERGE_REL * np.maximum(1.0, np.abs(hull_lo))
    anchor, resolved = _gap_anchors(p, mu, nu[1:], mb_mu, mb_nu)
    # below every potential v - lambda >= 1, so by Sturm comparison theta(1)
    # and phi'(1) are at least cosh 1 there, and so is F: no pass needed
    x_anchor = np.concatenate(([-p.sup_norm_bound - 1.0], anchor))

    # the Hill matrices seed the Newton search of every edge of a Fourier
    # potential; the bracket alone certifies the root, so a poor seed costs
    # only passes
    if p.fourier:
        m_lam0, m_lo, m_hi, m_next = sm.hill_band_edges(p, N)
    else:
        m_lam0, m_lo, m_hi, m_next = math.nan, np.full(N, math.nan), np.full(N, math.nan), math.nan

    # one bracket per edge between consecutive anchors: lambda_0, the lower
    # edges of the resolved gaps 1..N+1 (the last is the band-N end) and
    # their upper edges.  (-1)^(n-1) F is at least 1 less its error at
    # anchor n - 1, so (-1)^n F - 1 is negative there.
    lo_idx = np.nonzero(resolved)[0]
    hi_idx = np.nonzero(resolved[:N])[0]
    roots = _edge_roots(
        p,
        np.concatenate(([x_anchor[0]], x_anchor[lo_idx], x_anchor[hi_idx + 1])),
        np.concatenate(([x_anchor[1]], x_anchor[lo_idx + 1], x_anchor[hi_idx + 2])),
        np.concatenate(([1.0], -np.ones(lo_idx.size), np.ones(hi_idx.size))),
        np.concatenate(([0], lo_idx + 1, hi_idx + 1)),
        np.concatenate(([m_lam0], np.append(m_lo, m_next)[lo_idx], m_hi[hi_idx])),
    )
    lambda0 = roots[0]
    gap_lo, gap_hi = hull_lo.copy(), hull_hi.copy()
    gap_lo[lo_idx] = roots[1 : 1 + lo_idx.size]
    gap_hi[hi_idx] = roots[1 + lo_idx.size :]
    next_band_end = gap_lo[N]
    routes = np.where(resolved, "shooting", "hull").tolist()

    # containment guarantees: mu_n, nu_n in [lambda_n^-, lambda_n^+].  The
    # anchors are simple well-conditioned roots, so they win over edge noise.
    gap_lo = np.minimum(gap_lo[:N], hull_lo[:N])
    gap_hi = np.maximum(gap_hi[:N], hull_hi[:N])

    # collapse point-like gaps and anything below the merge tolerance
    closed_flags = np.zeros(N, dtype=bool)
    for i in range(N):
        if (gap_hi[i] - gap_lo[i]) < merge_tol[i] and (hull_hi[i] - hull_lo[i]) < merge_tol[i]:
            mid = 0.5 * (hull_lo[i] + hull_hi[i])
            gap_lo[i] = gap_hi[i] = mid
            closed_flags[i] = True
    # exponentially thin bands can make consecutive edges collide at double
    # precision; clamp to a monotone sequence
    if lambda0 > gap_lo[0]:
        if lambda0 - gap_lo[0] > 1e-8 * max(1.0, abs(lambda0)):
            raise BracketFailure("lambda_0^+ is not below the first gap")
        lambda0 = gap_lo[0]
    for i in range(N - 1):
        if gap_hi[i] > gap_lo[i + 1]:
            if gap_hi[i] - gap_lo[i + 1] > 1e-8 * max(1.0, abs(gap_hi[i])):
                raise BracketFailure("band edges out of order")
            gap_lo[i + 1] = gap_hi[i]
    next_band_end = max(next_band_end, gap_hi[N - 1])

    sheets = sheet_signs(mb_mu)
    virtual = _virtual(mb_mu.take(slice(N)), np.minimum(mu[:N] - gap_lo, gap_hi - mu[:N]), gap_hi - gap_lo)
    residue = mb_mu.residue.tolist()
    states = []
    for n in range(1, N + 1):
        i = n - 1
        mu_n = float(mu[i])
        a_n = float(mb_mu.a_value[i])
        F_n = float(mb_mu.discriminant[i])
        phl_n = float(mb_mu.phi_lam[i])
        if closed_flags[i]:
            sign = 0
            mu_n = gap_lo[i]
        else:
            sign = 0 if virtual[i] else int(sheets[i])
        states.append(
            GapState(n, mu_n, sign, bool(closed_flags[i]), a_n, F_n, phl_n, residue[i], routes[i])
        )

    return BandStructure(
        potential=p,
        n_gaps=N,
        lambda0=float(lambda0),
        gap_lo=gap_lo,
        gap_hi=gap_hi,
        next_band_end=float(next_band_end),
        dirichlet=mu[:N].copy(),
        neumann=nu[: N + 1].copy(),
        states=tuple(states),
        next_band_end_route=routes[N],
    )


def dirichlet_eigs(p: Potential, N: int) -> np.ndarray:
    """mu_1 .. mu_N."""
    return _anchor_points(p, N)[0]


def neumann_eigs(p: Potential, N: int) -> np.ndarray:
    """nu_0 .. nu_N (N+1 values)."""
    return _anchor_points(p, N)[1]


def classify_states(p: Potential, N: int) -> list[tuple[float, int]]:
    """Per gap: (mu_n, sign_n); closed gaps report sign 0."""
    bs = band_structure(p, N)
    return [(s.mu, s.sign) for s in bs.states]


def xi_map(p: Potential, N: int) -> np.ndarray:
    """Rows (xi_1n, xi_2n) for n = 1..N."""
    bs = band_structure(p, N)
    return bs.xi
