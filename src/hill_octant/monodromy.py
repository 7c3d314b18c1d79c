"""Monodromy of -y'' + v y = lambda y over one period.

Integrates the canonical fundamental pair theta, phi (theta(0)=1,
theta'(0)=0, phi(0)=0, phi'(0)=1) together with their lambda-derivatives
(which satisfy the same equation forced by -y) and exposes the Lyapunov
function F = (phi'(1) + theta(1))/2, the auxiliary a = (phi'(1) -
theta(1))/2, the gap branch b and the Weyl function m_+.

Two evaluation routes:
  * Fourier-form potentials: Gauss-Legendre collocation on pieces of
    [0, 1], NODES = 20 Gauss nodes per piece (the 20-stage Gauss method,
    order 40 at piece ends: Hairer, Norsett and Wanner, Solving ODEs I,
    sec. II.7).  The system is linear, so a piece is a map: one 20 x 20
    solve per (piece, lambda) lane gives the basis theta, phi at the nodes
    and the piece's end values, and a second solve with the same matrix
    their lambda-derivatives.  Pieces go in blocks of equal length, whose
    maps one vectorized pass computes; prefix products give the state at
    every piece end.  A piece passes when the last two Legendre
    coefficients of its basis are at most 0.1 sqrt(rtol) of the largest
    (the end error is about the square of that), the rule the matrix
    route's eigenvectors meet; a block keeps the pieces before its first
    failure, and the next block's length comes from the worst tail with
    exponent 1/20.  The first pieces are 5 / sqrt(sup|v| + max|lambda| + 1)
    long.  A block holds at most LANE_BUDGET lanes, and its exact solution
    grows by at most e^MAX_BLOCK_GROWTH.  The potential is evaluated by
    Horner's rule in e^{2 pi i x}.
  * Piecewise-constant (and constant) potentials: the exact transfer
    matrix [[C, S], [q S, C]] of each constant piece, q = v - lambda, with
    its lambda-derivative, packed as a collocation piece's map is and
    composed by the same product.  C and S of every (piece, lambda)
    come from one vectorized call, and a piece whose solution could grow
    past e^MAX_BLOCK_GROWTH is cut into equal parts.

Both routes carry the packed 8-row state and renormalize it in one place.

The batch integrator can also count the zeros of phi and theta along
[0, 1], which gives Sturm oscillation counts for Dirichlet and Neumann
eigenvalue bracketing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .errors import NonFiniteInput, OutsideGap, PoleAt, StepUnderflow
from .potential import Potential

__all__ = [
    "MonodromyData",
    "MonodromyBatch",
    "integrate",
    "integrate_batch",
    "discriminant",
    "branch_b",
    "m_plus",
    "m_plus_batch",
]

RTOL = 1e-12

# Gauss-Legendre collocation nodes per piece: a piece is the NODES-stage
# Gauss method, order 2 NODES at its end
NODES = 20
_T, _G = legendre.leggauss(NODES)
# Legendre coefficients of the interpolant through NODES node values: _LEG @ values
_LEG = (legendre.legvander(_T, NODES - 1) * _G[:, None]).T * (np.arange(NODES) + 0.5)[:, None]
# node values of int_{-1}^t (t - s) f(s) ds, f the interpolant through node values
_J2 = legendre.legvander(_T, NODES + 1) @ legendre.legint(_LEG, m=2, lbnd=-1)
# weights of int_{-1}^1 (1 - s) f(s) ds and of int_{-1}^1 f(s) ds at the nodes
_END = np.stack((_G * (1.0 - _T), _G))
# a tail this small is rounding noise: shorter pieces cannot make it smaller
_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class MonodromyData:
    """Values and lambda-derivatives of the fundamental pair at x = 1."""

    lam: float
    theta_1: float
    theta_prime_1: float
    phi_1: float
    phi_prime_1: float
    theta_lam: float
    theta_prime_lam: float
    phi_lam: float
    phi_prime_lam: float

    @property
    def discriminant(self) -> float:
        return 0.5 * (self.phi_prime_1 + self.theta_1)

    @property
    def a_value(self) -> float:
        return 0.5 * (self.phi_prime_1 - self.theta_1)

    @property
    def discriminant_lam(self) -> float:
        return 0.5 * (self.phi_prime_lam + self.theta_lam)

    @property
    def wronskian(self) -> float:
        return self.theta_1 * self.phi_prime_1 - self.theta_prime_1 * self.phi_1


class MonodromyBatch:
    """Structure-of-arrays monodromy data for a vector of energies.

    Deep potentials can push the fundamental solutions past the float64
    range; the integrator then renormalizes the state and accumulates
    `log_scale`, so the stored components are the true values times
    e^{-log_scale}.  Scale-free consumers (Prufer angles, sheet signs,
    ratios like the m_+ residue) use the components directly; absolute
    quantities re-apply the factor and saturate at +-inf when it cannot
    be represented.  `state` is the (8, n) array of the components, in the
    order theta, theta', phi, phi' at x = 1 and then their lambda-derivatives;
    the named rows are views of it.
    """

    def __init__(self, lams, state, phi_zeros=None, theta_zeros=None, log_scale=None):
        self.lams = lams
        self.state = state
        (self.theta_1, self.theta_prime_1, self.phi_1, self.phi_prime_1,
         self.theta_lam, self.theta_prime_lam, self.phi_lam, self.phi_prime_lam) = state
        self.phi_zeros = phi_zeros
        self.theta_zeros = theta_zeros
        self.log_scale = np.zeros(np.atleast_1d(lams).size) if log_scale is None else log_scale

    def _rescale(self, values):
        with np.errstate(over="ignore"):
            return values * np.exp(np.minimum(self.log_scale, 710.0))

    @property
    def discriminant(self):
        return self._rescale(0.5 * (self.phi_prime_1 + self.theta_1))

    @property
    def log_abs_discriminant(self):
        """log|F| from the stored components plus log_scale: finite where F reads +-inf."""
        with np.errstate(divide="ignore"):
            return self.log_scale + np.log(0.5 * np.abs(self.phi_prime_1 + self.theta_1))

    @property
    def a_value(self):
        return self._rescale(0.5 * (self.phi_prime_1 - self.theta_1))

    @property
    def a_sign(self):
        """Sign of a = (phi'(1) - theta(1))/2, valid at any scale."""
        return np.sign(self.phi_prime_1 - self.theta_1)

    @property
    def residue(self):
        """2a / phi_lam, the residue of m_+ at a bound Dirichlet point.

        Both terms come from the stored components, so it is scale-free.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.phi_prime_1 - self.theta_1) / self.phi_lam

    @property
    def wronskian(self):
        return self._rescale(
            self._rescale(self.theta_1 * self.phi_prime_1 - self.theta_prime_1 * self.phi_1)
        )

    def item(self, i: int) -> MonodromyData:
        s = math.exp(min(float(self.log_scale[i]), 710.0))
        return MonodromyData(
            float(self.lams[i]),
            float(self.theta_1[i]) * s,
            float(self.theta_prime_1[i]) * s,
            float(self.phi_1[i]) * s,
            float(self.phi_prime_1[i]) * s,
            float(self.theta_lam[i]) * s,
            float(self.theta_prime_lam[i]) * s,
            float(self.phi_lam[i]) * s,
            float(self.phi_prime_lam[i]) * s,
        )

    def take(self, idx) -> MonodromyBatch:
        """The entries idx (a slice or index array) as a batch of their own."""
        zeros = [None if z is None else z[idx] for z in (self.phi_zeros, self.theta_zeros)]
        return MonodromyBatch(self.lams[idx], self.state[:, idx], *zeros, self.log_scale[idx])


def _initial_state(n: int) -> np.ndarray:
    u = np.zeros((8, n))
    u[0] = 1.0  # theta(0)
    u[3] = 1.0  # phi'(0)
    return u


# a block of collocation pieces or a transfer piece grows its exact solution
# at most e^MAX_BLOCK_GROWTH, so states that start below the 1e120
# renormalization threshold stay finite inside it
MAX_BLOCK_GROWTH = 200.0


def _compose(X2, X1):
    """The map X2 after X1; both have the form [[P, 0], [Q, P]].

    Arrays are the packed 8-row states reshaped to (2, 2, 2, ...), indexed
    [P or Q, column, row]: a state (theta, theta', phi, phi' and their
    lambda-derivatives) is itself such a map, the fundamental matrix M with
    its lambda-derivative D.  The product is (P2 P1, Q2 P1 + P2 Q1).
    """
    out = X2[:, None, 0] * X1[0, :, 0:1] + X2[:, None, 1] * X1[0, :, 1:2]
    out[1] += X2[0, None, 0] * X1[1, :, 0:1] + X2[0, None, 1] * X1[1, :, 1:2]
    return out


def _renormalize(S, log_scale):
    """Divide each column of the packed state S (2, 2, 2, n) whose largest
    entry passes 1e120 by that entry, in place, and add its log to log_scale
    (deep potentials grow like e^{sqrt(v - lambda)})."""
    m = np.max(np.abs(S), axis=(0, 1, 2))
    big = m > 1e120
    if np.any(big):
        f = np.where(big, m, 1.0)
        S /= f
        log_scale += np.log(f)


# --- Gauss-Legendre collocation route (Fourier potentials) ----------------

# (piece, lambda) lanes per block; each lane solves one NODES x NODES system
LANE_BUDGET = 512


def _piece_maps(p, lams, x, h, pieces):
    """Maps, node bases and tails of `pieces` equal collocation pieces of length h from x.

    On a piece [a, a + h], with x = a + h (1 + t) / 2 and w = v - lambda,
    the solution with given y(a), y'(a) satisfies

        y(t) = y(a) + y'(a) h (1 + t) / 2 + (h/2)^2 int_{-1}^t (t - s) w y ds.

    Collocation at the Gauss nodes makes this the system
    (I - (h/2)^2 J2 W) Y = R of one (piece, lambda) lane, W = diag(w); its
    two right-hand sides (1 for theta, h (1 + t) / 2 for phi) give the
    piece's basis at the nodes.  The end values are quadratures of w Y, and
    the lambda-derivative of the basis solves the same system with the
    right-hand side -(h/2)^2 J2 Y (w_lambda = -1).

    Returns the packed maps [[T, 0], [dT/dlambda, T]] of every lane as a
    (2, 2, 2, pieces, n) array, the bases as a (pieces, n, NODES, 2) array,
    and each piece's tail: the last two Legendre coefficients of a basis
    over its largest one, the worst over the piece's lanes.
    """
    c = 0.25 * h * h
    xs = x + h * (np.arange(pieces)[:, None] + 0.5 * (1.0 + _T))
    w = p.evaluate(xs)[:, None, :] - lams[:, None]  # (pieces, n, NODES)
    M = np.multiply(_J2, w[..., None, :])
    M *= -c
    diag = np.arange(NODES)
    M[..., diag, diag] += 1.0
    R = np.stack((np.ones(NODES), 0.5 * h * (1.0 + _T)), axis=1)
    Y = np.linalg.solve(M, np.broadcast_to(R, w.shape + (2,)))
    Y_lam = np.linalg.solve(M, -c * (_J2 @ Y))
    quad = _END * np.array([[c], [0.5 * h]])
    ends = np.stack((quad @ (w[..., None] * Y), quad @ (w[..., None] * Y_lam - Y)))
    maps = ends.transpose(0, 4, 3, 1, 2)  # [T or dT/dlambda, column, row, piece, lambda]
    maps[0] += np.array([[1.0, 0.0], [h, 1.0]])[..., None, None]
    coef = np.abs(_LEG @ Y)
    tail = np.max(coef[..., -2:, :], axis=-2) / np.max(coef, axis=-2)
    return maps, Y, np.max(tail, axis=(1, 2))


def _advance(S, maps, Y, trackers):
    """The state at the end of the pieces `maps` from the state S.

    Prefix products (doubling) of the maps give the state at every piece
    end.  With trackers, the node values of theta and phi, each piece's
    basis Y times the state at its start, and the piece-end values count
    their zeros.
    """
    d = 1
    while d < maps.shape[-2]:  # T_k <- T_k ... T_1
        maps[..., d:, :] = _compose(maps[..., d:, :], maps[..., :-d, :])
        d *= 2
    U = _compose(maps, S[..., None, :])
    if trackers is not None:
        start = np.concatenate((S[..., None, :], U[..., :-1, :]), axis=-2)[0, ..., None]
        nodes = start[:, 0] * Y[..., 0] + start[:, 1] * Y[..., 1]  # (column, piece, lambda, node)
        values = np.concatenate((nodes, U[0, :, 0, ..., None]), axis=-1).transpose(0, 1, 3, 2)
        theta, phi = values.reshape(2, -1, S.shape[-1])
        trackers.update(theta, phi)
    return U[..., -1, :].copy()


def _collocation_pass(p, lams, rtol, trackers, log_scale):
    """The state at x = 1, from blocks of equal collocation pieces over [0, 1].

    A piece passes when its tail is at most 0.1 sqrt(rtol); the error of its
    end values is about the square of that.  Each block keeps its pieces
    before the first that fails and renormalizes the state at its end.  The
    next block's piece length comes from the worst tail of the rejected
    pieces, or of the whole block when every piece passes, with exponent
    1 / NODES.  The first pieces are 5 / sqrt(sup|v| + max|lambda| + 1)
    long.  A block holds at most LANE_BUDGET lanes, and its exact solution
    grows by at most e^MAX_BLOCK_GROWTH.
    """
    n = lams.size
    bar = 0.1 * math.sqrt(rtol)
    max_pieces = max(1, LANE_BUDGET // n)
    q_max = p.sup_norm_bound - float(np.min(lams))
    h = min(1.0, 5.0 / math.sqrt(p.sup_norm_bound + float(np.max(np.abs(lams))) + 1.0))
    x = 0.0
    S = _initial_state(n).reshape(2, 2, 2, n)
    while x < 1.0 - 1e-15:
        rest = 1.0 - x
        pieces = min(max_pieces, math.ceil(rest / h))
        if q_max > 0.0:
            pieces = max(1, min(pieces, int(MAX_BLOCK_GROWTH / (h * math.sqrt(q_max)))))
        last = pieces * h >= rest
        if last:
            h = rest / pieces
        maps, Y, tail = _piece_maps(p, lams, x, h, pieces)
        fail = np.flatnonzero(~(tail <= bar))  # a nan tail fails
        accepted = int(fail[0]) if fail.size else pieces
        if accepted < pieces and tail[accepted] <= _ROUNDING:
            raise StepUnderflow(
                f"piece tail {tail[accepted]:.1e} at x={x:.6g} is rounding, above 0.1 sqrt(rtol) = {bar:.1e}"
            )
        if accepted:
            x = 1.0 if accepted == pieces and last else x + accepted * h
            S = _advance(S, maps[..., :accepted, :], Y[:accepted], trackers)
            _renormalize(S, log_scale)
        r = float(np.max(tail[accepted:] if accepted < pieces else tail)) / bar
        # a nan r (a nan tail) shrinks by the largest step, as r = inf does
        h *= min(5.0, max(0.2, 0.9 * r ** (-1.0 / NODES) if r > 0.0 else 5.0))
        if h < 1e-14:
            raise StepUnderflow(f"piece length underflow at x={x:.6g}")
    return S.reshape(8, n)


class _SignTrackers:
    """Counts sign changes of phi and theta along the samples of a pass.

    Solutions of a second-order ODE have simple zeros, and the Prufer phase
    crosses multiples of pi strictly upward, so sign changes at the nodes
    and piece ends count zeros exactly as long as no two zeros fall between
    neighbouring samples.  The tail test guarantees that: a piece's basis
    is resolved by a degree-19 polynomial, so it turns through far fewer
    half periods than the piece has nodes.
    """

    def __init__(self, n: int):
        # phi leaves 0 with slope phi'(0) = 1, theta starts at theta(0) = 1
        self.phi_sign = np.ones(n)
        self.phi_count = np.zeros(n, dtype=int)
        self.theta_sign = np.ones(n)
        self.theta_count = np.zeros(n, dtype=int)

    def update(self, theta, phi) -> None:
        """Add the sign changes along values of shape (samples, n)."""
        self.theta_sign = self._count(self.theta_sign, theta, self.theta_count)
        self.phi_sign = self._count(self.phi_sign, phi, self.phi_count)

    @staticmethod
    def _count(sign, values, count):
        s = np.concatenate((sign[None], np.sign(values)))
        # an exact zero carries the sign before it
        last = np.where(s != 0, np.arange(s.shape[0])[:, None], 0)
        s = np.take_along_axis(s, np.maximum.accumulate(last, axis=0), axis=0)
        count += np.sum(s[1:] * s[:-1] < 0, axis=0)
        return s[-1]


# --- exact transfer-matrix route (piecewise-constant potentials) ----------


def _cs_functions(q, L):
    """C, S, dC/dq, dS/dq for y'' = q y over intervals of lengths L.

    C and S are the cos/cosh- and sin/sinh-type entries of the transfer
    matrix [[C, S], [q S, C]]; formulas are branch-uniform in q.  L
    broadcasts against q.
    """
    L = np.broadcast_to(L, q.shape)
    out_c = np.empty_like(q)
    out_s = np.empty_like(q)
    pos = q > 0
    neg = q < 0
    zer = ~(pos | neg)
    if np.any(pos):
        s = np.sqrt(q[pos])
        out_c[pos] = np.cosh(s * L[pos])
        out_s[pos] = np.sinh(s * L[pos]) / s
    if np.any(neg):
        w = np.sqrt(-q[neg])
        out_c[neg] = np.cos(w * L[neg])
        out_s[neg] = np.sin(w * L[neg]) / w
    if np.any(zer):
        out_c[zer] = 1.0
        out_s[zer] = L[zer]
    dc = 0.5 * L * out_s
    with np.errstate(divide="ignore", invalid="ignore"):
        ds = np.where(zer, L**3 / 6.0, (L * out_c - out_s) / (2.0 * np.where(zer, 1.0, q)))
    return out_c, out_s, dc, ds


def _transfer_route(p, lams, count_zeros):
    """Exact monodromy for piecewise-constant potentials.

    Each constant piece is the packed map [[T, 0], [dT/dlambda, T]] with
    T = [[C, S], [q S, C]], q = v - lambda, and dT/dlambda = -dT/dq.  The
    pieces compose from the identity state, renormalizing after each.
    """
    n = lams.size
    # shift moves the sampling window; cut [0, 1] at the shifted breakpoints
    cuts = np.array(sorted({(s.lo - p.shift) % 1.0 for s in p.piecewise} | {0.0, 1.0}))
    lo, hi = cuts[:-1], cuts[1:]
    keep = hi - lo >= 1e-15
    lo, hi = lo[keep], hi[keep]
    v = p.evaluate(0.5 * (lo + hi))
    # long forbidden stretches overflow cosh: cut them into equal parts
    growth = np.sqrt(np.maximum(v - np.min(lams), 0.0)) * (hi - lo)
    parts = np.maximum(1, np.ceil(growth / MAX_BLOCK_GROWTH)).astype(int)
    L = np.repeat((hi - lo) / parts, parts)
    q = np.repeat(v, parts)[:, None] - lams
    C, S, dC, dS = _cs_functions(q, L[:, None])
    maps = np.stack((C, q * S, S, C, -dC, -(S + q * dS), -dS, -dC), axis=1)
    U = _initial_state(n).reshape(2, 2, 2, n)
    log_scale = np.zeros(n)
    counts = (np.zeros(n, dtype=int), np.zeros(n, dtype=int)) if count_zeros else (None, None)
    for X, q_piece, L_piece in zip(maps.reshape(-1, 2, 2, 2, n), q, L):
        U_end = _compose(X, U)
        if count_zeros:
            _count_piece_zeros(q_piece, L_piece, U, U_end, *counts)
        U = U_end
        _renormalize(U, log_scale)
    return U.reshape(8, n), *counts, log_scale


def _half_turns(y, yp):
    """floor(angle / pi) for the angle of (y, y') in (-pi, pi], read from the signs."""
    return np.where(y > 0, 0, np.where(y < 0, -1, np.where(yp > 0, 0, 1)))


def _count_piece_zeros(q, L, U, U_end, phi_count, theta_count):
    """Add the zeros of phi and theta in one constant piece (start, end].

    U and U_end are the packed states at both ends.  The count follows their
    signs, so a zero that rounding puts a hair past a piece end is counted
    once, in the piece that reaches it.
    """
    osc = q < 0
    for col, cnt in ((1, phi_count), (0, theta_count)):
        (y0, yp0), (y1, yp1) = U[0, col], U_end[0, col]
        if np.any(osc):
            # y = R sin(w xi + delta): zeros where the phase crosses k pi.  The
            # phase turns by w L; its whole turns come from the angles, the
            # half turns at both ends from the signs, which rounding keeps
            w = np.sqrt(-q[osc])
            lo = np.arctan2(y0[osc], yp0[osc] / w)
            hi = np.arctan2(y1[osc], yp1[osc] / w)
            turns = np.round((lo + w * L - hi) / (2.0 * np.pi)).astype(int)
            cnt[osc] += 2 * turns + _half_turns(y1[osc], yp1[osc]) - _half_turns(y0[osc], yp0[osc])
        fb = ~osc  # at most one zero
        cnt[fb] += (y0[fb] * y1[fb] < 0) | ((y1[fb] == 0) & (y0[fb] != 0))


# --- public API -----------------------------------------------------------


def integrate_batch(
    p: Potential,
    lams,
    rtol: float = RTOL,
    count_zeros: bool = False,
) -> MonodromyBatch:
    """Monodromy data for a vector of energies in one pass."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(np.isfinite(lams)):
        raise NonFiniteInput("lambda values must be finite")
    if p.piecewise or not p.fourier:
        state, pc, tc, log_scale = _transfer_route(p, lams, count_zeros)
        return MonodromyBatch(lams, state, pc, tc, log_scale)
    log_scale = np.zeros(lams.size)
    trackers = _SignTrackers(lams.size) if count_zeros else None
    u = _collocation_pass(p, lams, rtol, trackers, log_scale)
    pc = trackers.phi_count if trackers else None
    tc = trackers.theta_count if trackers else None
    return MonodromyBatch(lams, u, pc, tc, log_scale)


def integrate(p: Potential, lam: float, rtol: float = RTOL) -> MonodromyData:
    """Monodromy data for a single energy."""
    if not math.isfinite(lam):
        raise NonFiniteInput(f"lambda must be finite, got {lam}")
    return integrate_batch(p, [lam], rtol=rtol).item(0)


def discriminant(p: Potential, lam: float) -> float:
    """Lyapunov function F(lambda) = (phi'(1) + theta(1)) / 2."""
    return integrate(p, lam).discriminant


def branch_b(p: Potential, lam: float, gap_index: int, sheet: int = 1) -> float:
    """Gap branch b = (-1)^n sqrt(F^2 - 1) on sheet 1, its negative on sheet 2.

    Requires lambda in the closure of gap n, i.e. F^2 >= 1.
    """
    data = integrate(p, lam)
    return _branch_from_disc(data.discriminant, gap_index, sheet, lam)


def _branch_from_disc(F, gap_index: int, sheet: int, lam) -> float:
    excess = F * F - 1.0
    if excess < -1e-12:
        raise OutsideGap(f"F^2 - 1 = {excess:.3e} < 0 at lambda = {lam}: not in a gap")
    val = math.sqrt(max(excess, 0.0))
    b = (-1) ** gap_index * val
    return b if sheet == 1 else -b


def _weyl_m(mb: MonodromyBatch, gap_index):
    """m_+, dm_+/dlambda, and whether phi(1) is the denominator, for a batch.

    a^2 + 1 - F^2 = -phi(1) theta'(1) gives (a - b)(a + b) = -phi(1) theta'(1),
    so m_+ = (a - b)/phi(1) = -theta'(1)/(a + b).  At an anti-bound
    Dirichlet point a = b and phi(1) = 0, and the first form is a 0/0 made
    of cancellations; at a bound one a = -b, and the pole sits in phi(1).
    Each energy takes the form whose sum a -/+ b is the larger, and the
    slope of num/den is (num_lam - m den_lam)/den, with

        b_lam = (-1)^n F F_lam / sqrt(F^2 - 1).

    Every term comes from the stored components and so carries e^(-log_scale)
    (the 1 of F^2 - 1 becomes e^(-2 log_scale)): m_+ is scale-free.
    """
    s = np.exp(-mb.log_scale)  # 1 exactly where nothing was renormalized
    F = 0.5 * (mb.phi_prime_1 + mb.theta_1)
    F_lam = 0.5 * (mb.phi_prime_lam + mb.theta_lam)
    root = np.sqrt(np.maximum(F * F - s * s, 0.0))
    parity = (-1.0) ** np.asarray(gap_index)
    a, b = 0.5 * (mb.phi_prime_1 - mb.theta_1), parity * root
    a_lam = 0.5 * (mb.phi_prime_lam - mb.theta_lam)
    on_phi = np.abs(a - b) >= np.abs(a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        b_lam = parity * F * F_lam / root
        num = np.where(on_phi, a - b, -mb.theta_prime_1)
        den = np.where(on_phi, mb.phi_1, a + b)
        num_lam = np.where(on_phi, a_lam - b_lam, -mb.theta_prime_lam)
        den_lam = np.where(on_phi, mb.phi_lam, a_lam + b_lam)
        m = num / den
        dm = (num_lam - m * den_lam) / den
    return m, dm, on_phi & (np.abs(den) < 1e-13 * np.maximum(s, np.abs(num)))


def m_plus(p: Potential, lam: float, gap_index: int) -> float:
    """Weyl function m_+ = (a - b) / phi(1, .) with b on the physical sheet."""
    mb = integrate_batch(p, [lam])
    _branch_from_disc(float(mb.discriminant[0]), gap_index, 1, lam)  # OutsideGap in a band
    m, _, pole = _weyl_m(mb, gap_index)
    if pole[0]:
        raise PoleAt(f"phi(1, {lam}) = {mb.item(0).phi_1:.3e}: too close to a Dirichlet point", lam=lam)
    return float(m[0])


def m_plus_batch(p: Potential, lams, gap_index) -> tuple[np.ndarray, np.ndarray]:
    """m_+ and dm_+/dlambda at energies inside gaps; no pole guard.

    `gap_index` is one gap index for all energies or one per energy.  Near
    a bound Dirichlet point both come out huge but correctly signed, which
    is what bracketed root finders need.
    """
    m, dm, _ = _weyl_m(integrate_batch(p, lams), gap_index)
    return m, dm
