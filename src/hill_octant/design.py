"""Construct periodic potentials with prescribed gap lengths and gap states.

The forward map (Fourier coefficients -> gap lengths, Dirichlet positions)
is evaluated through the fast matrix route; a damped Gauss-Newton with
finite-difference Jacobians inverts it.  Final classification and all
verification go through the shooting band structure, so the optimizer's
surrogate never certifies itself.

First-order seeding: a single cos mode of size t opens gap k to length
about t, and rotating the mode's phase sweeps the Dirichlet point through
the gap (the translation argument), which fixes the initial sin/cos split.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral_matrix as sm
from .bands import BandStructure, GapState, band_structure, sheet_signs
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
SEED_ENV = "HILL_OCTANT_SEED"


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


def _gauss_newton(fun, x0, tol, scale, max_iter=MAX_ITERATIONS):
    """Damped Gauss-Newton for ||fun(x)|| -> 0 with FD Jacobian.

    `scale` normalizes both parameters and residuals so the large-gamma
    designs stay well conditioned.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x) / scale
    best_x, best_norm = x.copy(), float(np.linalg.norm(r))
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        rn = float(np.linalg.norm(r))
        if rn < tol:
            return x, rn, n_iter - 1
        J = np.empty((r.size, x.size))
        h = np.maximum(1e-7 * np.abs(x), 1e-7 * scale)
        for j in range(x.size):
            xp = x.copy()
            xp[j] += h[j]
            xm = x.copy()
            xm[j] -= h[j]
            J[:, j] = (fun(xp) - fun(xm)) / (2.0 * h[j] * scale)
        cond = np.linalg.cond(J)
        if cond > COND_LIMIT:
            raise IllConditioned(f"Jacobian condition {cond:.2e} exceeds {COND_LIMIT:.0e}")
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        alpha = 1.0
        improved = False
        for _ in range(12):
            x_try = x + alpha * step
            r_try = fun(x_try) / scale
            if np.linalg.norm(r_try) < rn * (1.0 - 1e-4 * alpha):
                x, r = x_try, r_try
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
        if np.linalg.norm(r) < best_norm:
            best_x, best_norm = x.copy(), float(np.linalg.norm(r))
    if best_norm < tol:
        return best_x, best_norm, n_iter
    raise NoConvergence(
        f"residual {best_norm:.3e} after {n_iter} iterations (tol {tol:.1e})",
        best_residual=best_norm,
        potential=None,
    )


# --- forward maps ----------------------------------------------------------


def _potential_from_coeffs(cos_coeffs, sin_coeffs=None):
    terms = []
    for k, a in enumerate(cos_coeffs, start=1):
        b = 0.0 if sin_coeffs is None else sin_coeffs[k - 1]
        terms.append((k, a, b))
    return fourier_potential(terms)


def _gap_lengths_fast(p: Potential, N: int) -> np.ndarray:
    _, glo, ghi, _ = sm.hill_band_edges(p, N)
    return ghi - glo


def _gaps_and_positions_fast(p: Potential, N: int):
    _, glo, ghi, _ = sm.hill_band_edges(p, N)
    mu = sm.galerkin_dirichlet(p, N)
    return ghi - glo, mu - glo, glo, ghi


# --- public operations -------------------------------------------------------


def _length_seed(goal: np.ndarray, M: int) -> np.ndarray:
    """Initial cos coefficients for the gap-length fit.

    Small targets: gap k opens to about the size of cos mode k.  Large
    uniform targets live in the deep single-well regime, where the level
    spacing of v = c cos(2 pi x) is close to 2 pi sqrt(2 c); seed mode 1
    accordingly.
    """
    x0 = np.zeros(M)
    g_max = float(np.max(goal))
    if g_max <= 60.0:
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

    def residual(x):
        return _gap_lengths_fast(_potential_from_coeffs(x), N) - goal

    x, rn, its = _gauss_newton(residual, x0, target.tolerance, scale)
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

    Seeds come from phase splits of the starting coefficients and from a
    coarse grid of translations of p0 (translation sweeps every Dirichlet
    point through its gap); reflection (sin -> -sin) flips every sheet.
    """
    N = target.n_gaps
    M = target.modes
    goal_len = np.asarray(target.gap_lengths, dtype=float)
    fracs, signs = _state_targets(target)
    scale = max(1.0, float(np.max(goal_len)))
    cos0 = np.array([t.cos for t in p0.fourier] + [0.0] * M)[:M]

    def residual(x):
        p = _potential_from_coeffs(x[:M], x[M:])
        lengths, pos, _, _ = _gaps_and_positions_fast(p, N)
        return np.concatenate((lengths - goal_len, pos - fracs * goal_len))

    def phase_seed(theta_signs):
        # split each cos mode into (cos, sin) at phase theta_n; the phase
        # moves mu_n across gap n, its sign picks the sheet
        theta = np.arccos(np.clip(1.0 - 2.0 * fracs, -1.0, 1.0))
        x0 = np.zeros(2 * M)
        th = np.zeros(M)
        th[:N] = theta_signs * theta
        x0[:M] = np.abs(cos0) * np.cos(th)
        x0[M:] = np.abs(cos0) * np.sin(th)
        return x0

    def translation_seed(t, reflect):
        _, ks, a, b = translate(p0, t).effective_fourier()
        x0 = np.zeros(2 * M)
        for k, ak, bk in zip(ks, a, b):
            x0[k - 1] = ak
            x0[M + k - 1] = -bk if reflect else bk
        return x0

    seeds = []
    deep = float(np.max(goal_len)) > 60.0
    if not deep:
        seeds.append(phase_seed(np.ones(N)))
        seeds.append(phase_seed(-np.ones(N)))
    for t in (0.02, 0.05, 0.1, 0.15, 0.25, 0.35):
        seeds.append(translation_seed(t, False))
        seeds.append(translation_seed(t, True))
    if not deep:
        for n in range(N):
            pat = np.ones(N)
            pat[n] = -1.0
            seeds.append(phase_seed(pat))
    rng = np.random.default_rng(int(os.environ.get(SEED_ENV, "0")))
    for _ in range(3):
        seeds.append(
            translation_seed(rng.uniform(0.0, 0.5), rng.random() < 0.5)
            + rng.normal(scale=1e-3 * scale, size=2 * M)
        )

    last_exc = None
    for trial, x0 in enumerate(seeds):
        try:
            x, rn, its = _gauss_newton(residual, x0, target.tolerance, scale)
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


# --- deep designs: eigenvector-gradient continuation -------------------------

DEEP_GAP_THRESHOLD = 60.0


def _logit(f):
    f = np.clip(f, 1e-12, 1.0 - 1e-12)
    return np.log(f / (1.0 - f))


class _DeepFitter:
    """Fits gap lengths + in-gap positions with analytic spectral Jacobians.

    Parameters z = [A_1..A_M, B_2..B_M, t] describe
    v(x) = sum_k A_k cos(2 pi k (x+t)) + B_k sin(2 pi k (x+t)): the
    translation t carries the dominant correlated direction of the state
    positions, the mode amplitudes are pure shape knobs.  Eigenvalue
    derivatives come from the Hill/Galerkin eigenvectors (one forward map
    per iteration, any basis size).
    """

    def __init__(self, n_gaps, gamma, modes_M, hill_modes, galerkin_dim, pos_weight=0.4):
        self.N = n_gaps
        self.gamma = gamma
        self.M = modes_M
        self.hill_modes = hill_modes
        self.gdim = galerkin_dim
        self.w = pos_weight
        self.goal = np.full(n_gaps, gamma)

    def build(self, z):
        M = self.M
        A = z[:M]
        B = np.concatenate(([0.0], z[M : 2 * M - 1]))
        return fourier_potential([(k + 1, A[k], B[k]) for k in range(M)], shift=z[-1])

    def forward(self, z):
        p = self.build(z)
        _, glo, ghi, _ = sm.hill_band_edges(p, self.N, modes=self.hill_modes)
        mu = sm.galerkin_dirichlet(p, self.N, dim=self.gdim)
        return ghi - glo, (mu - glo) / (ghi - glo)

    def forward_jac(self, z):
        M, N = self.M, self.N
        p = self.build(z)
        _, glo, ghi, _, info = sm.hill_edges_and_vectors(p, N, modes=self.hill_modes)
        mu, Y = sm.galerkin_dirichlet_vectors(p, N, dim=self.gdim)
        lengths = ghi - glo
        fr = (mu - glo) / lengths

        _, ks, a_eff, b_eff = p.effective_fourier()
        th = 2.0 * np.pi * np.arange(1, M + 1) * z[-1]
        cth, sth = np.cos(th), np.sin(th)
        atil = np.zeros(M)
        btil = np.zeros(M)
        for k, av, bv in zip(ks, a_eff, b_eff):
            atil[k - 1] = av
            btil[k - 1] = bv
        kfreq = 2.0 * np.pi * np.arange(1, M + 1)

        def grad_z(ga, gb):
            gA = cth * ga - sth * gb
            gB = sth * ga + cth * gb
            gt = float(np.sum(kfreq * (btil * ga - atil * gb)))
            return np.concatenate((gA, gB[1:], [gt]))

        g_lo, g_hi, g_mu = [], [], []
        for n in range(1, N + 1):
            g_lo.append(grad_z(*sm.exp_vector_gradient(info[("lo", n)][1], M)))
            g_hi.append(grad_z(*sm.exp_vector_gradient(info[("hi", n)][1], M)))
            g_mu.append(grad_z(*sm.sine_vector_gradient(Y[:, n - 1], M)))
        return lengths, fr, np.array(g_lo), np.array(g_hi), np.array(g_mu)

    def residual_jac(self, z, f_target):
        lengths, fr, g_lo, g_hi, g_mu = self.forward_jac(z)
        r = np.concatenate(
            (
                (lengths - self.goal) / self.gamma,
                self.w * (_logit(fr) - _logit(f_target)),
            )
        )
        J = np.empty((2 * self.N, 2 * self.M))
        for n in range(self.N):
            J[n] = (g_hi[n] - g_lo[n]) / self.gamma
            dfr = (g_mu[n] - g_lo[n] - fr[n] * (g_hi[n] - g_lo[n])) / lengths[n]
            J[self.N + n] = self.w * dfr / (fr[n] * (1.0 - fr[n]))
        return r, J, lengths, fr

    def solve(self, z, f_target, tol_len, tol_pos, max_iter=30):
        r, J, lengths, fr = self.residual_jac(z, f_target)
        lm = 1e-6
        for it in range(max_iter):
            if np.all(np.abs(lengths - self.goal) / self.gamma < tol_len) and np.all(
                np.abs(fr - f_target) < tol_pos
            ):
                return z, it, True
            D = np.diag(np.maximum(np.sum(J * J, axis=0), 1e-30))
            rn = np.linalg.norm(r)
            ok = False
            for _ in range(25):
                s = np.linalg.solve(J.T @ J + lm * D, -J.T @ r)
                r_try, J_try, l_try, f_try = self.residual_jac(z + s, f_target)
                if np.linalg.norm(r_try) < rn:
                    z, r, J, lengths, fr = z + s, r_try, J_try, l_try, f_try
                    lm = max(lm / 4.0, 1e-14)
                    ok = True
                    break
                lm *= 8.0
            if not ok:
                return z, it, False
        return z, max_iter, False


def _deep_design(N, gamma, frac, tolerance, report):
    """Equal gaps of length gamma with states at the given fraction."""
    # 1) cos-only gap lengths from the harmonic single-well seed
    p_len = design_gap_lengths(
        DesignTarget(n_gaps=N, gap_lengths=tuple(gamma for _ in range(N)), basis_size=N,
                     tolerance=tolerance),
        report,
    )
    x_len = np.array([t.cos for t in p_len.fourier])

    M = max(48, 24 * N)
    sup = p_len.sup_norm_bound
    hill_modes = int(1.2 * math.sqrt(4.0 * sup) / (2.0 * math.pi)) + 40 + M
    gdim = int(1.2 * math.sqrt(4.0 * sup) / math.pi) + 60 + M
    fit = _DeepFitter(N, gamma, M, hill_modes, gdim)

    # 2) translation seed: slide the well toward the Dirichlet wall until
    # every state sits inside its gap
    xs = np.linspace(0.0, 1.0, 4001)
    vx = p_len.evaluate(xs)
    xmin = xs[np.argmin(vx)]
    v2 = (p_len.evaluate(xmin + 1e-4) - 2.0 * p_len.evaluate(xmin) + p_len.evaluate(xmin - 1e-4)) / 1e-8
    ell = max(v2, 1.0) ** -0.25
    f_goal = np.full(N, frac)
    best = None
    for t in xmin + ell * np.linspace(-4.5, 4.5, 49):
        z = np.zeros(2 * M)
        z[:N] = x_len
        z[-1] = t % 1.0
        _, fr = fit.forward(z)
        if not np.all((fr > 0.005) & (fr < 0.95)):
            continue
        cost = float(np.linalg.norm(_logit(fr) - _logit(f_goal)))
        if best is None or cost < best[0]:
            best = (cost, z[-1], fr.copy())
    if best is None:
        raise NoConvergence("no translation seed puts every state inside its gap")
    z = np.zeros(2 * M)
    z[:N] = x_len
    z[-1] = best[1]
    f_seed = best[2]

    # 3) continuation in the position targets (logit geodesic)
    tol_len = max(tolerance / 3.0, 1e-6)
    tol_pos = 2e-4
    s_path, step, fails = 0.0, 0.34, 0
    while s_path < 1.0 - 1e-9:
        s_next = min(1.0, s_path + step)
        ft = 1.0 / (1.0 + np.exp(-((1.0 - s_next) * _logit(f_seed) + s_next * _logit(f_goal))))
        z_try, iters, ok = fit.solve(z.copy(), ft, tol_len, tol_pos)
        report.iterations += iters
        if ok:
            z, s_path = z_try, s_next
            step = min(0.4, step * 1.5)
        else:
            step /= 2.0
            fails += 1
            if step < 0.002 or fails > 14:
                raise NoConvergence(
                    f"position continuation stalled at s = {s_path:.3f}",
                    best_residual=float(np.linalg.norm(fit.residual_jac(z, f_goal)[0])),
                )
    return fit.build(z), fit


def _reflect(p: Potential) -> Potential:
    """The Fourier potential evaluating as v(-x): sine terms flip, so does the shift."""
    return fourier_potential(
        [(t.k, t.cos, -t.sin) for t in p.fourier], constant=p.constant, shift=-p.shift
    )


def _matrix_band_structure(p: Potential, N: int, mb_mu, mu, nu) -> BandStructure:
    """BandStructure assembled from the matrix route plus shooting signs.

    Used in the deep regime where the discriminant trace is beyond float64;
    a/F/phi_lam saturate at +-inf with the correct signs.
    """
    lam0, glo, ghi, nbe = sm.hill_band_edges(p, N)
    signs = sheet_signs(mb_mu)
    states = tuple(
        GapState(n, float(mu[n - 1]), int(signs[n - 1]), False,
                 math.inf * mb_mu.a_sign[n - 1], math.inf, math.inf, "matrix")
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
    )


def construct_model_potential(
    N: int, kappa: float, d: int, basis_extra: int = 1, tolerance: float = 1e-5
):
    """Equal-gap potential with bound states 1/(4d) of the way into each gap.

    Returns (potential, gamma, band_structure, report); the potential is
    normalized so its lowest band edge sits at 0.  Large gamma lands in the
    deep single-well regime, where edges and states are certified through
    the matrix route and cross-checked against the (rescaled) shooting
    anchors; moderate gamma is verified end to end by shooting.
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

    if gamma <= DEEP_GAP_THRESHOLD:
        target = DesignTarget(
            n_gaps=N,
            gap_lengths=tuple(gamma for _ in range(N)),
            state_fracs=tuple(frac for _ in range(N)),
            state_signs=tuple(+1 for _ in range(N)),
            basis_size=N + basis_extra,
            tolerance=tolerance,
        )
        p_len = design_gap_lengths(
            DesignTarget(n_gaps=N, gap_lengths=target.gap_lengths, basis_size=N,
                         tolerance=tolerance),
            report,
        )
        p = place_states(p_len, target, report)
        bs = band_structure(p, N)
    else:
        p, fit = _deep_design(N, gamma, frac, tolerance, report)
        # shooting cross-checks: Dirichlet anchors and sheet signs
        mu = sm.galerkin_dirichlet(p, N, dim=fit.gdim)
        nu = sm.galerkin_neumann(p, N + 1, dim=fit.gdim)
        mb_mu = integrate_batch(p, mu, count_zeros=True)
        signs = sheet_signs(mb_mu)
        if np.all(signs == -1):
            # the translation seeds are symmetric about the well, so the fit
            # can land on the mirror image: same edges and mu, every sheet
            # flipped.  Its reflection v(-x) has the target sheets.
            p = _reflect(p)
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
        bs = _matrix_band_structure(p, N, mb_mu, mu, nu)

    lengths = bs.gap_lengths
    if np.max(np.abs(lengths - gamma)) > 10 * tolerance * gamma:
        raise PostconditionFail(
            f"gap lengths {lengths} miss gamma = {gamma} beyond tolerance"
        )
    # band-sum bound: A_n = lambda_n^- - gamma (n - 1) stays below kappa gamma / 4
    shift = -bs.lambda0
    a_n = (bs.gap_lo + shift) - gamma * np.arange(N)
    a_n_hi = (bs.gap_hi + shift) - gamma * np.arange(1, N + 1)
    if np.max(np.abs(np.concatenate((a_n, a_n_hi)))) > 0.25 * kappa * gamma:
        raise PostconditionFail("band accumulation exceeds kappa gamma / 4")

    p_norm = add_constant(p, shift)
    bs_norm = _shift_band_structure(bs, shift, p_norm)
    report.achieved = {
        "gap_lengths": lengths.tolist(),
        "state_positions": ((bs_norm.dirichlet - bs_norm.gap_lo) / lengths).tolist(),
        "signs": [s.sign for s in bs_norm.states],
        "lambda0_shift": shift,
    }
    report.converged = True
    return p_norm, gamma, bs_norm, report


def _shift_band_structure(bs: BandStructure, c: float, p_new: Potential) -> BandStructure:
    """Spectral data of the potential shifted by a constant: everything moves by c."""
    states = tuple(replace(s, mu=s.mu + c) for s in bs.states)
    return BandStructure(
        potential=p_new,
        n_gaps=bs.n_gaps,
        lambda0=bs.lambda0 + c,
        gap_lo=bs.gap_lo + c,
        gap_hi=bs.gap_hi + c,
        next_band_end=bs.next_band_end + c,
        dirichlet=bs.dirichlet + c,
        neumann=bs.neumann + c,
        states=states,
    )


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
    for _ in range(30):
        p_t = translate(p_norm, t_try)
        d0 = integrate(p_t, 0.0)
        rho = d0.a_value / d0.phi_1
        if rho > 0:
            return p_t
        t_try = min(eps, t_try * 1.5) if t_try < eps else eps
        if t_try >= eps and rho <= 0:
            break
    raise RhoNotPositive(f"m_+(0) = {rho:.3e} <= 0 for all shifts tried up to eps")
