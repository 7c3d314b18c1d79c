"""Monodromy of -y'' + v y = lambda y over one period.

Integrates the canonical fundamental pair theta, phi (theta(0)=1,
theta'(0)=0, phi(0)=0, phi'(0)=1) together with their lambda-derivatives
(which satisfy the same equation forced by -y) and exposes the Lyapunov
function F = (phi'(1) + theta(1))/2, the auxiliary a = (phi'(1) -
theta(1))/2, the gap branch b and the Weyl function m_+.

Two evaluation routes:
  * Fourier-form potentials: the explicit Runge-Kutta pair 8(5,3) of
    Dormand and Prince (Hairer, Norsett and Wanner, Solving ODEs I, sec.
    II.10; the DOP853 code) on the coupled 8-dimensional system, per-step
    tolerance 1e-12 relative / 1e-13 absolute.  Steps go in blocks of equal
    trial steps: the system is linear, so each step is a map that one
    vectorized pass computes for every (step, lambda) lane of the block,
    prefix products give the state at every node, and each step then meets
    DOP853's error test, its 5th-order estimate damped by the 3rd-order
    one.  A block keeps the steps before its first failure, and the next
    block's step comes from the worst error ratio of the rejected tail.
    The first trial step is 0.065 / sqrt(sup|v| + sqrt(sum (2 pi k)^2 |c_k|)
    + max|lambda| / 2): it resolves the wavelength and the curvature of v.
    A block holds at most LANE_BUDGET lanes, and its exact solution grows
    by at most e^MAX_BLOCK_GROWTH; nothing else caps it.  The potential is
    evaluated by Horner's rule in e^{2 pi i x}.
  * Piecewise-constant (and constant) potentials: exact per-segment
    transfer matrices with derivatives by the product rule.

The batch integrator can also count sign changes of phi and theta' along
[0, 1], which gives Sturm oscillation counts for Dirichlet and Neumann
eigenvalue bracketing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
ATOL = 1e-13

# Dormand and Prince's explicit 8(5,3) pair, with the coefficients of the
# DOP853 code of Hairer, Norsett and Wanner (Solving Ordinary Differential
# Equations I, 2nd ed., Springer 1993, sec. II.10).  Twelve stages, the
# last at x + h.  The 8th-order weights _B advance the step; the weights
# _E5 and _E3 give its embedded 5th- and 3rd-order error estimates.
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A = [
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
]
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
# _B minus the weights of the 3rd-order solution
_E3 = _B - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
])
_ORDER_EXP = 1.0 / 8.0


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
    def a_lam(self) -> float:
        return 0.5 * (self.phi_prime_lam - self.theta_lam)

    @property
    def wronskian(self) -> float:
        return self.theta_1 * self.phi_prime_1 - self.theta_prime_1 * self.phi_1


# the rows of a batch's state, in order
STATE_ROWS = (
    "theta_1", "theta_prime_1", "phi_1", "phi_prime_1",
    "theta_lam", "theta_prime_lam", "phi_lam", "phi_prime_lam",
)


class MonodromyBatch:
    """Structure-of-arrays monodromy data for a vector of energies.

    Deep potentials can push the fundamental solutions past the float64
    range; the integrator then renormalizes the state and accumulates
    `log_scale`, so the stored components are the true values times
    e^{-log_scale}.  Scale-free consumers (Prufer angles, sheet signs,
    ratios like the m_+ residue) use the components directly; absolute
    quantities re-apply the factor and saturate at +-inf when it cannot
    be represented.
    """

    def __init__(self, lams, state, phi_zeros=None, theta_zeros=None, log_scale=None):
        self.lams = lams
        self.theta_1 = state[0]
        self.theta_prime_1 = state[1]
        self.phi_1 = state[2]
        self.phi_prime_1 = state[3]
        self.theta_lam = state[4]
        self.theta_prime_lam = state[5]
        self.phi_lam = state[6]
        self.phi_prime_lam = state[7]
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
    def discriminant_lam(self):
        return self._rescale(0.5 * (self.phi_prime_lam + self.theta_lam))

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
        state = [getattr(self, name)[idx] for name in STATE_ROWS]
        zeros = [None if z is None else z[idx] for z in (self.phi_zeros, self.theta_zeros)]
        return MonodromyBatch(self.lams[idx], state, *zeros, self.log_scale[idx])


def _initial_state(n: int) -> np.ndarray:
    u = np.zeros((8, n))
    u[0] = 1.0  # theta(0)
    u[3] = 1.0  # phi'(0)
    return u


# --- block-stepped Runge-Kutta route (Fourier potentials) ---------------

_STAGES = _C.size
_A_MAT = np.zeros((_STAGES, _STAGES))
for _i, _row in enumerate(_A):
    _A_MAT[_i, : len(_row)] = _row
_ERR = np.stack((_E5, _E3))

# (step, lambda) lanes per block
LANE_BUDGET = 2048
# a block's exact solution grows at most e^MAX_BLOCK_GROWTH, so states that
# start below the 1e120 renormalization threshold stay finite inside it
MAX_BLOCK_GROWTH = 200.0


def _rhs_into(out, u, w):
    """du for the coupled fundamental + variational system, in place."""
    out[0::2] = u[1::2]
    np.multiply(w, u[0::2], out=out[1::2])
    out[5] -= u[0]
    out[7] -= u[2]


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


def _step_maps(p, lams, x, h, steps):
    """Step and error maps of `steps` equal RK steps of size h from x.

    The system is linear, so one step is a map of the form [[P, 0], [Q, P]],
    and the RK step applied to the identity state (theta = 1, phi' = 1,
    derivatives 0) gives its packed 8 rows.  Every (step, lambda) lane is
    evaluated at once.  Returns the step maps, a (2, 2, 2, steps, n) array,
    and the two error maps (5th- then 3rd-order estimate) stacked in front
    of the same shape.
    """
    n = lams.size
    lanes = steps * n
    xs = x + h * np.arange(steps)
    vs = p.evaluate(np.add.outer(xs, _C * h))  # (steps, stages)
    k = np.empty((_STAGES, 8, lanes))
    kf = k.reshape(_STAGES, 8 * lanes)
    u0 = _initial_state(lanes)
    for i in range(_STAGES):
        w = (vs[:, i, None] - lams).ravel()
        ui = u0 + ((h * _A_MAT[i, :i]) @ kf[:i]).reshape(8, lanes) if i else u0
        _rhs_into(k[i], ui, w)
    R = u0 + ((h * _B) @ kf).reshape(8, lanes)
    E = (h * _ERR) @ kf
    return R.reshape(2, 2, 2, steps, n), E.reshape(2, 2, 2, 2, steps, n)


def _error_ratio(r5, r3):
    """DOP853's error |e5| / sqrt(1 + 0.01 (e3/e5)^2), from the two embedded
    estimates over their tolerance, in a form that squares nothing: the
    squared ratios overflow in deep wells."""
    return r5 * (r5 / np.maximum(np.hypot(r5, 0.1 * r3), 1e-300))


def _block_trial(p, lams, S, x, h, steps, rtol, atol):
    """Node states u_1 .. u_steps of `steps` equal trial steps of size h from
    the state S at x, and the error ratio of each step (at most 1 passes).

    Prefix products (doubling) of the step maps give the state at every
    node.  The embedded errors of step k are E_k u_{k-1} against
    atol + rtol max(|u_{k-1}|, |u_k|), as for one step at a time.
    """
    R, E = _step_maps(p, lams, x, h, steps)
    d = 1
    while d < steps:  # R_k <- R_k ... R_1
        R[..., d:, :] = _compose(R[..., d:, :], R[..., :-d, :])
        d *= 2
    U = _compose(R, S[..., None, :])
    prev = np.concatenate((S[..., None, :], U[..., :-1, :]), axis=-2)
    tol = atol + rtol * np.maximum(np.abs(prev), np.abs(U))
    r5, r3 = (np.abs(_compose(Ek, prev)) / tol for Ek in E)
    return U, np.max(_error_ratio(r5, r3), axis=(0, 1, 2, 4))


def _first_step(p, lams):
    """The first trial step of a pass, from the potential and the energies.

    A step must resolve the local wavelength, which sup|v| + max|lambda|
    bounds, and the scale on which v itself bends, which sup|v''| <=
    sum (2 pi k)^2 |c_k| sets.  With the energies at full weight, the first
    block of a high-energy pass on the test fixtures passes at about twice
    the constant that a low-energy pass allows; at half weight both start
    near their largest passing step, and at a quarter high-energy blocks
    begin to fail.
    """
    scale = p.sup_norm_bound + math.sqrt(p.curvature_bound) + 0.5 * float(np.max(np.abs(lams)))
    return 0.065 / math.sqrt(max(1.0, scale))


def _rk_segment(p, lams, u, x0, x1, rtol, atol, trackers, log_scale):
    """Advance the batch state from x0 to x1 in blocks of equal RK steps.

    Each block keeps its steps before the first that fails the error test.
    The controller sets the next step size from the largest error ratio of
    the rejected tail, or of the whole block when every step passes.
    Columns whose magnitude passes 1e120 are renormalized at the end of a
    block, with the factor recorded in log_scale (deep potentials grow like
    e^{sqrt(v - lambda)}).
    """
    n = lams.size
    max_steps = max(1, LANE_BUDGET // n)
    q_max = p.sup_norm_bound - float(np.min(lams))
    h = min(x1 - x0, _first_step(p, lams))
    x = x0
    S = u.reshape(2, 2, 2, n)
    while x < x1 - 1e-15:
        rest = x1 - x
        steps = min(max_steps, math.ceil(rest / h))
        if q_max > 0.0:
            steps = max(1, min(steps, int(MAX_BLOCK_GROWTH / (h * math.sqrt(q_max)))))
        last = steps * h >= rest
        if last:
            h = rest / steps
        U, ratio = _block_trial(p, lams, S, x, h, steps, rtol, atol)
        fail = np.nonzero(~(ratio <= 1.0))[0]
        accepted = int(fail[0]) if fail.size else steps
        if accepted < steps and not math.isfinite(ratio[accepted]):
            raise StepUnderflow(f"non-finite state during integration near x={x + accepted * h:.6g}")
        if accepted:
            x = x1 if accepted == steps and last else x + accepted * h
            if trackers is not None:
                trackers.update(U[0, 0, 0, :accepted], U[0, 1, 0, :accepted])
            S = U[..., accepted - 1, :].copy()
            m = np.max(np.abs(S), axis=(0, 1, 2))
            big = m > 1e120
            if np.any(big):
                f = np.where(big, m, 1.0)
                S /= f
                log_scale += np.log(f)
        # past the first failure a state may have overflowed: its nan ratio
        # is left out (the first failure is finite)
        r = float(np.nanmax(ratio[accepted:] if accepted < steps else ratio))
        factor = 0.9 * r**-_ORDER_EXP if r > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if h < 1e-14:
            raise StepUnderflow(f"step size underflow at x={x:.6g}")
    return S.reshape(8, n)


class _SignTrackers:
    """Counts sign changes of phi (row 2) and theta (row 0) between steps.

    Solutions of a second-order ODE have simple zeros, and the Prufer phase
    crosses multiples of pi strictly upward, so sign changes at the accepted
    step endpoints count zeros exactly as long as steps stay well below one
    oscillation period (guaranteed by the per-step tolerance).
    """

    def __init__(self, n: int):
        # phi leaves 0 with slope phi'(0) = 1, theta starts at theta(0) = 1
        self.phi_sign = np.ones(n)
        self.phi_count = np.zeros(n, dtype=int)
        self.theta_sign = np.ones(n)
        self.theta_count = np.zeros(n, dtype=int)

    def update(self, theta, phi) -> None:
        """Add the sign changes along node values of shape (steps, n)."""
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


def _cs_functions(q, length):
    """C, S, dC/dq, dS/dq for y'' = q y over an interval of given length.

    C and S are the cos/cosh- and sin/sinh-type entries of the transfer
    matrix [[C, S], [q S, C]]; formulas are branch-uniform in q.
    """
    q = np.asarray(q, dtype=float)
    L = length
    out_c = np.empty_like(q)
    out_s = np.empty_like(q)
    pos = q > 0
    neg = q < 0
    zer = ~(pos | neg)
    if np.any(pos):
        s = np.sqrt(q[pos])
        out_c[pos] = np.cosh(s * L)
        out_s[pos] = np.sinh(s * L) / s
    if np.any(neg):
        w = np.sqrt(-q[neg])
        out_c[neg] = np.cos(w * L)
        out_s[neg] = np.sin(w * L) / w
    if np.any(zer):
        out_c[zer] = 1.0
        out_s[zer] = L
    dc = 0.5 * L * out_s
    with np.errstate(divide="ignore", invalid="ignore"):
        ds = np.where(zer, L**3 / 6.0, (L * out_c - out_s) / (2.0 * np.where(zer, 1.0, q)))
    return out_c, out_s, dc, ds


def _transfer_route(p, lams, count_zeros):
    """Exact monodromy for piecewise-constant potentials."""
    lams = np.asarray(lams, dtype=float)
    n = lams.size
    segments = p.piecewise or ()
    if not segments:
        pieces = [(0.0, 1.0, p.constant)]
    else:
        # shift moves the sampling window; cut [0,1] at the shifted breakpoints
        t = p.shift
        cuts = sorted({(s.lo - t) % 1.0 for s in segments} | {0.0, 1.0})
        if cuts[-1] < 1.0:
            cuts.append(1.0)
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            if hi - lo < 1e-15:
                continue
            pieces.append((lo, hi, p.evaluate(0.5 * (lo + hi))))

    M = np.zeros((2, 2, n))
    M[0, 0] = 1.0
    M[1, 1] = 1.0
    D = np.zeros((2, 2, n))
    log_scale = np.zeros(n)
    phi_count = np.zeros(n, dtype=int) if count_zeros else None
    thp_count = np.zeros(n, dtype=int) if count_zeros else None

    for lo, hi, v in pieces:
        # long forbidden stretches overflow cosh; split so each sub-piece
        # grows at most e^200 and renormalize in between
        q_max = float(np.max(v - lams))
        growth = math.sqrt(max(q_max, 0.0)) * (hi - lo)
        parts = max(1, int(math.ceil(growth / 200.0)))
        sub = np.linspace(lo, hi, parts + 1)
        for a_pt, b_pt in zip(sub, sub[1:]):
            L = b_pt - a_pt
            q = v - lams
            C, S, dC, dS = _cs_functions(q, L)
            qS = q * S
            dqS = S + q * dS
            # T = [[C, S], [qS, C]]; dT/dlam = -dT/dq
            M00, M01, M10, M11 = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
            D00, D01, D10, D11 = D[0, 0], D[0, 1], D[1, 0], D[1, 1]
            nM = np.empty_like(M)
            nM[0, 0] = C * M00 + S * M10
            nM[0, 1] = C * M01 + S * M11
            nM[1, 0] = qS * M00 + C * M10
            nM[1, 1] = qS * M01 + C * M11
            nD = np.empty_like(D)
            nD[0, 0] = C * D00 + S * D10 - (dC * M00 + dS * M10)
            nD[0, 1] = C * D01 + S * D11 - (dC * M01 + dS * M11)
            nD[1, 0] = qS * D00 + C * D10 - (dqS * M00 + dC * M10)
            nD[1, 1] = qS * D01 + C * D11 - (dqS * M01 + dC * M11)
            if count_zeros:
                _count_piece_zeros(q, L, M, nM, phi_count, thp_count)
            M, D = nM, nD
            m_abs = np.maximum(np.max(np.abs(M), axis=(0, 1)), np.max(np.abs(D), axis=(0, 1)))
            big = m_abs > 1e120
            if np.any(big):
                f = np.where(big, m_abs, 1.0)
                M = M / f
                D = D / f
                log_scale += np.log(f)

    return _pack_state(M, D), phi_count, thp_count, log_scale


def _pack_state(M, D):
    # columns of M are (theta, theta') and (phi, phi')
    state = np.empty((8, M.shape[2]))
    state[0] = M[0, 0]
    state[1] = M[1, 0]
    state[2] = M[0, 1]
    state[3] = M[1, 1]
    state[4] = D[0, 0]
    state[5] = D[1, 0]
    state[6] = D[0, 1]
    state[7] = D[1, 1]
    return state


def _half_turns(y, yp):
    """floor(angle / pi) for the angle of (y, y') in (-pi, pi], read from the signs."""
    return np.where(y > 0, 0, np.where(y < 0, -1, np.where(yp > 0, 0, 1)))


def _count_piece_zeros(q, L, M, M_end, phi_count, theta_count):
    """Add the zeros of phi and theta in one constant piece (start, end].

    M and M_end hold the states at both ends.  The count follows their signs,
    so a zero that rounding puts a hair past a piece end is counted once, in
    the piece that reaches it.
    """
    osc = q < 0
    for col, cnt in ((1, phi_count), (0, theta_count)):
        y0, yp0, y1, yp1 = M[0, col], M[1, col], M_end[0, col], M_end[1, col]
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
    atol: float = ATOL,
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
    u = _rk_segment(p, lams, _initial_state(lams.size), 0.0, 1.0, rtol, atol, trackers, log_scale)
    pc = trackers.phi_count if trackers else None
    tc = trackers.theta_count if trackers else None
    return MonodromyBatch(lams, u, pc, tc, log_scale)


def integrate(p: Potential, lam: float, rtol: float = RTOL, atol: float = ATOL) -> MonodromyData:
    """Monodromy data for a single energy."""
    if not math.isfinite(lam):
        raise NonFiniteInput(f"lambda must be finite, got {lam}")
    return integrate_batch(p, [lam], rtol=rtol, atol=atol).item(0)


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
