"""Construct periodic potentials with prescribed gap lengths and gap states.

The forward map (Fourier coefficients -> gap edges, Dirichlet points) is
evaluated through the fast matrix route.  Each edge and Dirichlet point is
a simple eigenvalue, so its gradient in the Fourier coefficients follows
from its eigenvector (first-order perturbation theory; the (mu_n, sheet)
coordinates of Poeschel and Trubowitz, Inverse Spectral Theory, 1987), and
one forward map gives both the residual and its Jacobian.  Every fit runs
the same damped Gauss-Newton on that pair.  Final classification and all
verification go through the shooting band structure, so the optimizer's
surrogate never certifies itself.

Seeding: a single cos mode of size t opens gap k to length about t, and
translating the potential sweeps every Dirichlet point through its gap
while the edges stay put; on the bound side of a deep well every mu_n
rises with it, so one bracketed Newton in t seeds the deep designs.
Reflection v(x) -> v(-x) keeps edges and Dirichlet points and flips every
sheet, so one fit covers a mirror pair and no seed is reflected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral_matrix as sm
from .bands import BandStructure, GapState, _bracketed_newton, band_structure, sheet_signs
from .errors import (
    IllConditioned,
    NoConvergence,
    PostconditionFail,
    RhoNotPositive,
    SignUnreachable,
)
from .monodromy import integrate, integrate_batch
from .potential import Potential, add_constant, fourier_potential, translate

__all__ = [
    "DesignTarget",
    "DesignReport",
    "design_gap_lengths",
    "place_states",
    "construct_model_potential",
    "condition_p_potential",
]

MAX_ITERATIONS = 200
COND_LIMIT = 1e10
SINGLE_WELL_LENGTH = 60.0  # longer uniform gap targets seed from one deep well
POSITION_WEIGHT = 0.4  # deep fits: logit position residuals against gap lengths / gamma


@dataclass(frozen=True)
class DesignTarget:
    n_gaps: int
    gap_lengths: tuple[float, ...]
    state_fracs: tuple[float, ...] | None = None  # position in (0,1) across each gap
    state_signs: tuple[int, ...] | None = None
    basis_size: int | None = None
    tolerance: float = 1e-4

    def __post_init__(self):
        N = self.n_gaps
        if N < 1 or len(self.gap_lengths) != N:
            raise ValueError("need one target length per gap")
        if any(g < 0 for g in self.gap_lengths):
            raise ValueError("gap lengths must be >= 0")
        if self.state_fracs is not None:
            if len(self.state_fracs) != N:
                raise ValueError("need one state position per gap")
            if any(not 0.0 < f < 1.0 for f in self.state_fracs):
                raise ValueError("state positions must lie strictly inside (0, 1)")
        if self.state_signs is not None:
            if len(self.state_signs) != N:
                raise ValueError("need one state sign per gap")
            if any(s not in (-1, 1) for s in self.state_signs):
                raise ValueError("state signs must be -1 or +1")
        M = self.basis_size if self.basis_size is not None else N
        if M < N:
            raise ValueError(f"basis size {M} must cover the {N} targets")

    @property
    def modes(self) -> int:
        return self.basis_size if self.basis_size is not None else self.n_gaps


@dataclass
class DesignReport:
    targets: dict
    achieved: dict = field(default_factory=dict)
    residual: float = math.nan
    iterations: int = 0
    restarts: int = 0
    converged: bool = False


# --- Gauss-Newton engine ---------------------------------------------------


def _gauss_newton(residual_jac, x0, tol, max_iter=MAX_ITERATIONS):
    """Damped Gauss-Newton for ||r(x)|| -> 0, where residual_jac(x) = (r, dr/dx).

    Each step is the minimum-norm least-squares solution of J s = -r (the
    fits have at least as many parameters as residuals), shortened by
    Armijo backtracking.  Returns (x, ||r||, iterations); the last call of
    residual_jac was at the returned x.
    """
    x = np.asarray(x0, dtype=float).copy()
    r, J = residual_jac(x)
    for n_iter in range(max_iter + 1):
        rn = float(np.linalg.norm(r))
        if rn < tol:
            return x, rn, n_iter
        if n_iter == max_iter:
            break
        cond = np.linalg.cond(J)
        if cond > COND_LIMIT:
            raise IllConditioned(f"Jacobian condition {cond:.2e} exceeds {COND_LIMIT:.0e}")
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        alpha = 1.0
        for _ in range(12):
            r_try, J_try = residual_jac(x + alpha * step)
            if np.linalg.norm(r_try) < rn * (1.0 - 1e-4 * alpha):
                x, r, J = x + alpha * step, r_try, J_try
                break
            alpha *= 0.5
        else:
            break
    raise NoConvergence(
        f"residual {rn:.3e} after {n_iter} iterations (tol {tol:.1e})",
        best_residual=rn,
        potential=None,
    )


# --- forward map -------------------------------------------------------------


def _potential_from_coeffs(cos_coeffs, sin_coeffs=None):
    terms = []
    for k, a in enumerate(cos_coeffs, start=1):
        b = 0.0 if sin_coeffs is None else sin_coeffs[k - 1]
        terms.append((k, a, b))
    return fourier_potential(terms)


def _forward_map(p: Potential, N: int, M: int, positions=True):
    """Gap lengths, Dirichlet offsets mu_n - lambda_n^- and their gradients.

    Returns (lengths, offsets, d_lengths, d_offsets, solved) for gaps
    1..N, where solved = (lambda0, gap_lo, gap_hi, next_band_end, mu) are
    the eigenvalues behind them (mu None without `positions`).  Row n of a
    gradient holds the derivatives in the coefficients of cos(2 pi k x),
    then of sin(2 pi k x), k = 1..M: each edge and Dirichlet point is a
    simple eigenvalue, so its derivative comes from its Hill or Dirichlet
    eigenvector.  Without `positions` the offsets are None and no Galerkin
    pencil is solved.
    """
    lam0, lo, hi, nbe, info, _ = sm.hill_edges_and_vectors(p, N)

    def edge_gradients(edge):
        return np.array([np.concatenate(sm.exp_vector_gradient(info[(edge, n)][1], M))
                         for n in range(1, N + 1)])

    d_lo = edge_gradients("lo")
    d_len = edge_gradients("hi") - d_lo
    if not positions:
        return hi - lo, None, d_len, None, (lam0, lo, hi, nbe, None)
    mu, Y = sm.galerkin_dirichlet_vectors(p, N)
    d_mu = np.hstack(sm.dirichlet_vector_gradient(Y, M))
    return hi - lo, mu - lo, d_len, d_mu - d_lo, (lam0, lo, hi, nbe, mu)


# --- public operations -------------------------------------------------------


def _length_seed(goal: np.ndarray, M: int) -> np.ndarray:
    """Initial cos coefficients for the gap-length fit.

    Small targets: gap k opens to about the size of cos mode k.  Large
    uniform targets live in the deep single-well regime, where the level
    spacing of v = c cos(2 pi x) is close to 2 pi sqrt(2 c); seed mode 1
    accordingly.
    """
    x0 = np.zeros(M)
    if float(np.max(goal)) <= SINGLE_WELL_LENGTH:
        x0[: goal.size] = goal
    else:
        x0[0] = (np.mean(goal) / (2.0 * math.pi)) ** 2 / 2.0
    return x0


def design_gap_lengths(target: DesignTarget, report: DesignReport | None = None) -> Potential:
    """Mean-zero cos-polynomial whose first N gap lengths match the targets."""
    N = target.n_gaps
    M = target.modes
    goal = np.asarray(target.gap_lengths, dtype=float)
    if np.all(goal == 0):
        return fourier_potential([])
    scale = max(1.0, float(np.max(goal)))
    x0 = _length_seed(goal, M)

    def residual_jac(x):
        lengths, _, d_len, _, _ = _forward_map(_potential_from_coeffs(x), N, M, positions=False)
        return (lengths - goal) / scale, d_len[:, :M] / scale

    x, rn, its = _gauss_newton(residual_jac, x0, target.tolerance)
    if report is not None:
        report.iterations += its
        report.residual = rn
    return _potential_from_coeffs(x)


def _state_targets(target: DesignTarget):
    fr = target.state_fracs
    if fr is None:
        fr = tuple(0.5 for _ in range(target.n_gaps))
    sg = target.state_signs
    if sg is None:
        sg = tuple(+1 for _ in range(target.n_gaps))
    return np.asarray(fr), np.asarray(sg, dtype=int)


def place_states(p0: Potential, target: DesignTarget, report: DesignReport | None = None) -> Potential:
    """Joint fit of gap lengths and in-gap Dirichlet positions, then verify signs.

    Seeds are a grid of translations of p0 (translation sweeps every
    Dirichlet point through its gap).  The fit is reflection-equivariant:
    a fit whose sheets all come out opposite is reflected instead.
    """
    N = target.n_gaps
    M = target.modes
    goal_len = np.asarray(target.gap_lengths, dtype=float)
    fracs, signs = _state_targets(target)
    scale = max(1.0, float(np.max(goal_len)))

    def residual_jac(x):
        p = _potential_from_coeffs(x[:M], x[M:])
        lengths, pos, d_len, d_pos, _ = _forward_map(p, N, M)
        r = np.concatenate((lengths - goal_len, pos - fracs * goal_len))
        return r / scale, np.vstack((d_len, d_pos)) / scale

    def translation_seed(t):
        _, ks, a, b = translate(p0, t).effective_fourier()
        x0 = np.zeros(2 * M)
        x0[ks - 1], x0[M + ks - 1] = a, b
        return x0

    seeds = [translation_seed(t) for t in (0.02, 0.05, 0.1, 0.15, 0.25, 0.35)]

    last_exc = None
    for trial, x0 in enumerate(seeds):
        try:
            x, rn, its = _gauss_newton(residual_jac, x0, target.tolerance)
        except (NoConvergence, IllConditioned) as exc:
            last_exc = exc
            continue
        if report is not None:
            report.iterations += its
            report.restarts = trial
            report.residual = rn
        p = _potential_from_coeffs(x[:M], x[M:])
        got = sheet_signs(integrate_batch(p, sm.galerkin_dirichlet(p, N)))
        if np.array_equal(got, signs):
            return p
        # a global reflection flips every sheet at once
        if np.array_equal(-got, signs):
            return _potential_from_coeffs(x[:M], -x[M:])
        last_exc = SignUnreachable(f"got signs {got.tolist()}, want {signs.tolist()}")
    if isinstance(last_exc, SignUnreachable):
        raise last_exc
    raise SignUnreachable(f"no seed met the target signs ({last_exc})")


# --- deep designs: a Newton in t, then one Gauss-Newton ---------------------


def _logit(f):
    f = np.clip(f, 1e-12, 1.0 - 1e-12)
    return np.log(f / (1.0 - f))


class _DeepFitter:
    """Residuals and Jacobians of gap lengths + in-gap positions for deep wells.

    Parameters z = [A_1..A_M, B_2..B_M, t] describe
    v(x) = sum_k A_k cos(2 pi k (x+t)) + B_k sin(2 pi k (x+t)): the
    translation t carries the dominant correlated direction of the state
    positions, the mode amplitudes are pure shape knobs.  The forward map's
    gradients in the untranslated coefficients reach z by the chain rule.
    `solved` holds the last z evaluated and the forward map's eigenvalues.
    """

    def __init__(self, n_gaps, gamma, modes_M):
        self.N = n_gaps
        self.gamma = gamma
        self.M = modes_M
        self.goal = np.full(n_gaps, gamma)
        self.solved = None

    def build(self, z):
        M = self.M
        A = z[:M]
        B = np.concatenate(([0.0], z[M : 2 * M - 1]))
        return fourier_potential([(k + 1, A[k], B[k]) for k in range(M)], shift=z[-1])

    def residual_jac(self, z, f_target):
        M = self.M
        p = self.build(z)
        lengths, pos, d_len, d_pos, solved = _forward_map(p, self.N, M)
        self.solved = (z.copy(), solved)
        fr = pos / lengths

        _, ks, a_eff, b_eff = p.effective_fourier()
        th = 2.0 * np.pi * np.arange(1, M + 1) * z[-1]
        cth, sth = np.cos(th), np.sin(th)
        atil, btil = np.zeros(M), np.zeros(M)
        atil[ks - 1], btil[ks - 1] = a_eff, b_eff
        kfreq = 2.0 * np.pi * np.arange(1, M + 1)

        def grad_z(g):  # rows of d/d(cos_k, sin_k) -> rows of d/dz
            ga, gb = g[:, :M], g[:, M:]
            gA = cth * ga - sth * gb
            gB = sth * ga + cth * gb
            gt = (btil * ga - atil * gb) @ kfreq
            return np.hstack((gA, gB[:, 1:], gt[:, None]))

        r = np.concatenate(
            (
                (lengths - self.goal) / self.gamma,
                POSITION_WEIGHT * (_logit(fr) - _logit(f_target)),
            )
        )
        d_fr = (d_pos - fr[:, None] * d_len) / lengths[:, None]
        J = np.vstack(
            (
                grad_z(d_len) / self.gamma,
                POSITION_WEIGHT * grad_z(d_fr) / (fr * (1.0 - fr))[:, None],
            )
        )
        return r, J


def _deep_design(N, gamma, frac, tolerance, report):
    """Equal gaps of length gamma with states at the given fraction.

    Returns (potential, solved): solved = (lambda0, gap_lo, gap_hi,
    next_band_end, mu) of the potential, from the fit's last forward map.
    """
    # 1) cos-only gap lengths from the harmonic single-well seed
    p_len = design_gap_lengths(
        DesignTarget(n_gaps=N, gap_lengths=tuple(gamma for _ in range(N)), basis_size=N,
                     tolerance=tolerance),
        report,
    )
    x_len = np.array([t.cos for t in p_len.fourier])

    fit = _DeepFitter(N, gamma, max(48, 24 * N))

    # 2) translation seed.  Translation moves only mu: the band edges are
    # those of p_len itself.  For t <= xmin, v(x + t) has its minimum just
    # right of the wall at x = 0, so each state is bound and its mu rises
    # with t (the shifts t > xmin give the mirror images): the logit cost
    # rises across the window, and one bracketed Newton finds its root.
    xs = np.linspace(0.0, 1.0, 4001)
    xmin = xs[np.argmin(p_len.evaluate(xs))]
    v2 = (p_len.evaluate(xmin + 1e-4) - 2.0 * p_len.evaluate(xmin) + p_len.evaluate(xmin - 1e-4)) / 1e-8
    ell = max(v2, 1.0) ** -0.25
    f_goal = np.full(N, frac)
    z = np.zeros(2 * fit.M)
    z[:N] = x_len
    _, glo, ghi, _ = sm.hill_band_edges(fit.build(z), N)

    def cost_and_slope(t, _):
        z[-1] = t[0]
        mu, Y = sm.galerkin_dirichlet_vectors(fit.build(z), N)
        fr = (mu - glo) / (ghi - glo)
        d_fr = sm.dirichlet_translation_slopes(Y) / (ghi - glo)
        # _logit clips fr to [1e-12, 1 - 1e-12]: flat outside, so no slope there
        d_logit = np.where((fr > 1e-12) & (fr < 1.0 - 1e-12), 1.0 / (fr * (1.0 - fr)), 0.0)
        return np.array([np.sum(_logit(fr) - _logit(f_goal))]), np.array([d_logit @ d_fr])

    window = (np.array([xmin - 4.5 * ell]), np.array([xmin]))  # the bound side
    z[-1] = _bracketed_newton(cost_and_slope, *window, -np.ones(1), 1e-6)[0]

    # 3) one Gauss-Newton straight to the target positions
    tol = max(tolerance / 3.0, 1e-6)
    z, _, iters = _gauss_newton(lambda x: fit.residual_jac(x, f_goal), z, tol, max_iter=30)
    report.iterations += iters
    z_solved, solved = fit.solved
    assert np.array_equal(z_solved, z)  # the Gauss-Newton ends on an evaluated point
    return fit.build(z), solved


def _matrix_band_structure(p: Potential, N: int, mb_mu, edges, mu, nu) -> BandStructure:
    """BandStructure assembled from the matrix route plus shooting signs.

    Used in the deep regime where the discriminant trace is beyond float64;
    a/F/phi_lam saturate at +-inf with the correct signs, and the residue
    2a/phi_lam, formed from the scaled components, stays finite.  `edges`
    is (lambda0, gap_lo, gap_hi, next_band_end).
    """
    lam0, glo, ghi, nbe = edges
    signs = sheet_signs(mb_mu)
    residue = mb_mu.residue.tolist()
    states = tuple(
        GapState(n, float(mu[n - 1]), int(signs[n - 1]), False,
                 math.inf * mb_mu.a_sign[n - 1], math.inf, math.inf, residue[n - 1], "matrix")
        for n in range(1, N + 1)
    )
    return BandStructure(
        potential=p,
        n_gaps=N,
        lambda0=min(lam0, float(glo[0])),
        gap_lo=glo,
        gap_hi=ghi,
        next_band_end=max(nbe, float(ghi[-1])),
        dirichlet=np.asarray(mu, dtype=float),
        neumann=np.asarray(nu, dtype=float),
        states=states,
        lambda0_route="matrix",
        next_band_end_route="matrix",
    )


def construct_model_potential(N: int, kappa: float, d: int, tolerance: float = 1e-5):
    """Equal-gap potential with bound states 1/(4d) of the way into each gap.

    Returns (potential, gamma, band_structure, report); the potential is
    normalized so its lowest band edge sits at 0.  gamma = 4 pi^2 (N+1)^2 / kappa
    is at least 16 pi^2 / 0.1 ~ 1579, deep in the single-well regime, where
    edges and states are certified through the matrix route and
    cross-checked against the shooting route (oscillation counts, sheet
    signs).
    """
    if not 0 < kappa <= 0.1:
        raise ValueError("kappa must lie in (0, 0.1]")
    if N < 1 or d < 2:
        raise ValueError("need N >= 1 and d >= 2")
    gamma = 4.0 * math.pi**2 * (N + 1) ** 2 / kappa
    frac = 1.0 / (4 * d)
    report = DesignReport(
        targets={"N": N, "kappa": kappa, "d": d, "gamma": gamma, "frac": frac}
    )

    p, (*edges, mu) = _deep_design(N, gamma, frac, tolerance, report)
    # shooting cross-checks: Dirichlet anchors and sheet signs
    nu = sm.galerkin_neumann(p, N + 1)
    mb_mu = integrate_batch(p, mu, count_zeros=True)
    signs = sheet_signs(mb_mu)
    expected = np.arange(1, N + 1)
    counts_ok = (mb_mu.phi_zeros == expected) | (mb_mu.phi_zeros == expected - 1)
    if not np.all(counts_ok):
        raise PostconditionFail(
            f"shooting oscillation counts {mb_mu.phi_zeros} do not bracket the states"
        )
    if not np.all(signs == 1):
        raise SignUnreachable(
            f"shooting sheet signs {signs.tolist()} disagree with bound-state targets"
        )
    lam0, glo, ghi, nbe = edges
    # normalize to lambda_0 = 0: a constant added to v moves every level by it
    shift = -min(lam0, float(glo[0]))
    p_norm = add_constant(p, shift)
    bs_norm = _matrix_band_structure(
        p_norm, N, mb_mu, (lam0 + shift, glo + shift, ghi + shift, nbe + shift), mu + shift, nu + shift
    )

    if np.max(np.abs(bs_norm.gap_lengths - gamma)) > 10 * tolerance * gamma:
        raise PostconditionFail(
            f"gap lengths {bs_norm.gap_lengths} miss gamma = {gamma} beyond tolerance"
        )
    # band-sum bound: A_n = lambda_n^- - gamma (n - 1) stays below kappa gamma / 4
    a_n = bs_norm.gap_lo - gamma * np.arange(N)
    a_n_hi = bs_norm.gap_hi - gamma * np.arange(1, N + 1)
    if np.max(np.abs(np.concatenate((a_n, a_n_hi)))) > 0.25 * kappa * gamma:
        raise PostconditionFail("band accumulation exceeds kappa gamma / 4")

    lengths = ghi - glo  # before the shift rounds them
    report.achieved = {
        "gap_lengths": lengths.tolist(),
        "state_positions": ((bs_norm.dirichlet - bs_norm.gap_lo) / lengths).tolist(),
        "signs": [s.sign for s in bs_norm.states],
        "lambda0_shift": shift,
    }
    report.converged = True
    return p_norm, gamma, bs_norm, report


def condition_p_potential(delta: float = 0.5, eps: float = 0.05, t: float = 0.02) -> Potential:
    """Even potential, positive near 0, normalized to lambda_0^+ = 0, then
    translated by t so that m_+(0) > 0.
    """
    if delta <= 0 or eps <= 0 or not 0 < t <= eps:
        raise ValueError("need delta, eps > 0 and 0 < t <= eps")
    amp = max(2.0 * delta, 2.0)
    for _ in range(40):
        p0 = fourier_potential([(1, amp, 0.0)])
        bs = band_structure(p0, 1)
        p_norm = add_constant(p0, -bs.lambda0)
        grid = np.linspace(0.0, eps, 64)
        if np.all(p_norm.evaluate(grid) > delta):
            break
        amp *= 2.0
    else:
        raise RhoNotPositive("could not build a potential positive near the origin")

    t_try = t
    while True:
        p_t = translate(p_norm, t_try)
        d0 = integrate(p_t, 0.0)
        rho = d0.a_value / d0.phi_1
        if rho > 0:
            return p_t
        if t_try >= eps:
            break
        t_try = min(eps, t_try * 1.5)
    raise RhoNotPositive(f"m_+(0) = {rho:.3e} <= 0 for all shifts tried up to eps")
