"""Matrix eigensolvers for the same spectral data the shooting route computes.

These are an independent route: truncated Fourier (Hill) matrices for the
periodic / anti-periodic eigenvalues (band edges), and sine / cosine
Galerkin matrices on [0, 1] for the Dirichlet / Neumann spectra.  The
designer iterates against this fast forward map; the shooting route in
``bands`` stays the authoritative public implementation, and tests compare
the two.

Basis sizes auto-scale with the potential so that deep-well designs (whose
low eigenvalues involve Fourier modes up to the classical turning index)
stay resolved.  The Hill blocks are banded Hermitian and only their lowest
few eigenpairs are wanted.  Shifted just below the spectrum, by a lower
bound from the minimum of the potential, they are positive definite, so one
banded LU factor applies (H - sigma)^-1, and block Lanczos on that inverse
finds the lowest eigenpairs first: the spectral transformation of Ericsson
and Ruhe (Math. Comp. 35, 1980) with the block iteration of Golub and
Underwood (1977).
The Galerkin matrices are dense and go to LAPACK through
`scipy.linalg.eigh`.

Only Fourier-form potentials are supported here.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

from .errors import NoConvergence
from .potential import Potential

__all__ = [
    "hill_band_edges",
    "galerkin_dirichlet",
    "galerkin_neumann",
    "hill_edges_and_vectors",
    "galerkin_dirichlet_vectors",
    "exp_vector_gradient",
    "sine_vector_gradient",
]

DEFAULT_MODES = 64
DEFAULT_GALERKIN = 256
LANCZOS_BLOCK = 2  # Hill eigenvalues have multiplicity at most 2
LANCZOS_TOL = 1e-12  # Ritz residual bound, relative to the largest Ritz value
RITZ_EVERY = 4  # Lanczos steps between Rayleigh-Ritz checks
SYMBOL_GRID = 4096  # points on which the minimum of the Toeplitz symbol is sampled


def _turning_index(p: Potential, count: int, spacing: float) -> int:
    """Smallest basis index safely past the classical turning point."""
    sup = p.sup_norm_bound
    k_turn = math.sqrt(max(2.0 * sup, 1.0)) / spacing
    return int(1.3 * k_turn) + 8 * (count + 2)


def _orthonormal_block(V, Q, rng):
    """Q orthonormalized against the orthonormal columns of V, then by QR.

    Two passes of block Gram-Schmidt keep the basis orthogonal to working
    precision.  A direction that cancels (the Krylov space became invariant)
    is replaced by a random one, so the basis keeps growing.
    """
    gemm = sla.get_blas_funcs("gemm", (Q,))
    geqrf, orgqr = sla.get_lapack_funcs(
        ("geqrf", "ungqr" if np.iscomplexobj(Q) else "orgqr"), (Q,)
    )
    scale = np.linalg.norm(Q, axis=0)
    for _ in range(2):
        Q = gemm(-1.0, V, gemm(1.0, V, Q, trans_a=2), beta=1.0, c=Q)  # Q - V V^H Q
    qr, tau = geqrf(Q)[:2]  # LAPACK directly: scipy.linalg.qr costs 3x as much here
    Q = orgqr(qr, tau)[0]
    lost = ~(np.abs(np.diag(qr)) > 1e-8 * scale)
    if np.any(lost):
        Q[:, lost] = rng.standard_normal((Q.shape[0], int(lost.sum())))
        return _orthonormal_block(V, Q, rng)
    return Q


def _hill_shift(vhat, wavenumbers, constant):
    """A shift sigma at least 1 below every eigenvalue of the Hill block.

    The Toeplitz part is a compression of multiplication by its symbol
    f(x) = sum_j vhat_j e^{2 pi i j x}, so it is bounded below by min f, and
    the diagonal by min w^2.  min f is sampled on SYMBOL_GRID points by one
    FFT; the grid point nearest the minimizer lies within h/2, where f
    exceeds its minimum by at most h^2/8 max|f''| <= h^2/8 sum (2 pi j)^2 |vhat_j|.
    The Gershgorin shift constant - sum|vhat| - 1 is the floor.
    """
    bw = (vhat.size - 1) // 2
    j = np.arange(-bw, bw + 1)
    grid = max(SYMBOL_GRID, vhat.size)
    coeffs = np.zeros(grid, dtype=complex)
    coeffs[j % grid] = vhat
    f_min = float(np.fft.fft(coeffs).real.min())  # f at -x on the grid: the same minimum
    slack = float(np.sum((2.0 * np.pi * j) ** 2 * np.abs(vhat))) / (8.0 * grid**2)
    gershgorin = constant - float(np.sum(np.abs(vhat)))
    return max(gershgorin, constant + f_min - slack + float(np.min(wavenumbers**2))) - 1.0


def _hill_block(vhat, wavenumbers, constant, n_lowest):
    """Lowest eigenpairs of the Fourier block diag(w^2 + constant) + Toeplitz(vhat).

    Returns (values ascending, vectors as columns).  The shift sigma from
    `_hill_shift` gives H - sigma >= 1, so it is nonsingular; in a deep well
    it sits about half a gap spacing below the lowest eigenvalue, so the
    wanted end of the spectrum of (H - sigma)^-1 stands well apart from the
    rest and Lanczos reaches it in few steps.  Block
    Lanczos on (H - sigma)^-1 with full reorthogonalization converges to the
    largest theta first, and lambda = sigma + 1/theta.  Rayleigh-Ritz on
    V^H (H - sigma)^-1 V runs every RITZ_EVERY steps once the basis holds
    2 k vectors.  The start block is seeded, so repeated calls agree bit for
    bit.
    """
    dim = wavenumbers.size
    k = min(n_lowest, dim)
    bw = (vhat.size - 1) // 2  # largest coupled mode offset
    sigma = _hill_shift(vhat, wavenumbers, constant)
    # Every BLAS/LAPACK call below goes through scipy, so all of them share one
    # OpenBLAS thread pool: numpy's products would use numpy's own pool, and
    # the idle workers of two pools spin for the same cores.  H - sigma is
    # positive definite, but banded Cholesky (pbtrf) makes a rank-1 update per
    # row that OpenBLAS threads once the band is wider than 16, and on a busy
    # machine each update waits for a core.  The band LU (gbtrf) keeps its
    # updates on one thread.  H - sigma need not be diagonally dominant, so
    # the LU may exchange rows; the bw extra rows on top of the band hold
    # the fill that the exchanges bring.
    band = np.zeros((3 * bw + 1, dim), dtype=vhat.dtype)  # A[i, j] at [2 bw + i - j, j]
    for off in range(-bw, bw + 1):
        band[2 * bw + off, max(0, -off) : dim - max(0, off)] = vhat[bw + off]
    band[2 * bw] += wavenumbers**2 + constant - sigma
    gbtrf, gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
    lu, piv, _ = gbtrf(band, bw, bw)
    gemm = sla.get_blas_funcs("gemm", (band,))

    rng = np.random.default_rng(0)
    # column-major, so only the columns written so far are ever touched
    V = np.empty((dim, dim), dtype=vhat.dtype, order="F")  # orthonormal basis
    W = np.empty_like(V)  # (H - sigma)^-1 V
    G = np.empty_like(V)  # Rayleigh quotient V^H W, lower triangle
    block = rng.standard_normal((dim, LANCZOS_BLOCK)).astype(vhat.dtype)
    m, check = 0, 2 * k
    while True:
        Q = _orthonormal_block(V[:, :m], block[:, : dim - m], rng)
        new = slice(m, m + Q.shape[1])
        V[:, new] = Q
        W[:, new] = block = gbtrs(lu, bw, bw, Q, piv)[0]
        G[new, : new.stop] = gemm(1.0, Q, W[:, : new.stop], trans_a=2)
        m = new.stop
        if m < min(check, dim):
            continue
        check = m + RITZ_EVERY * LANCZOS_BLOCK
        # V^H W is dense, but a band routine given all its diagonals reduces it
        # by plane rotations, where a dense eigh would make threaded BLAS calls
        i, j = np.tril_indices(m)
        ritz = np.zeros((m, m), dtype=vhat.dtype)
        ritz[i - j, j] = G[i, j]
        theta, Y = sla.eig_banded(
            ritz, lower=True, select="i", select_range=(m - k, m - 1), check_finite=False
        )
        theta, Y = theta[::-1], Y[:, ::-1]
        X = gemm(1.0, V[:, :m], Y)
        resid = np.linalg.norm(gemm(1.0, W[:, :m], Y) - X * theta, axis=0) / theta[0]
        if np.all(resid <= LANCZOS_TOL):
            return sigma + 1.0 / theta, X
        if m == dim:
            raise NoConvergence(
                f"Hill block of dimension {dim}: Ritz residual {resid.max():.2e} "
                f"above {LANCZOS_TOL:.0e} on the full basis",
                best_residual=float(resid.max()),
            )


def _mode_coeffs(p: Potential):
    const, ks, a, b = p.effective_fourier()
    if len(ks) == 0:
        return const, np.zeros(0, dtype=int), a, b
    return const, np.asarray(ks, dtype=int), a, b


def _hill_edges(p: Potential, n_gaps: int, modes: int | None):
    """What hill_edges_and_vectors returns, from one solve of each Hill block.

    The periodic block (wavenumbers 2 pi k) carries the even-index edges,
    the anti-periodic block (2 pi (k + 1/2)) the odd-index ones; the edges of
    gap m are eigenvalues m - 1 and m of their block.  A potential without
    sine terms gives real blocks.  Both public entry points call this helper
    rather than each other, so a wrapper around either name (the perfbench
    tracer) sees only its own callers.
    """
    const, ks, a, b = _mode_coeffs(p)
    if modes is None:
        modes = max(DEFAULT_MODES, _turning_index(p, n_gaps, 2.0 * math.pi))
    if 2 * modes < n_gaps + 1:  # the anti-periodic block has dimension 2 modes
        raise ValueError(f"modes={modes} is too few for {n_gaps} gaps: need at least {(n_gaps + 2) // 2}")
    K = modes
    kmax = int(ks.max()) if ks.size else 0
    vhat = np.zeros(2 * kmax + 1, dtype=complex if np.any(b) else float)
    vhat[kmax + ks] = 0.5 * (a - 1j * b) if np.any(b) else 0.5 * a
    vhat[kmax - ks] = vhat[kmax + ks].conj()

    per = _hill_block(vhat, 2.0 * np.pi * np.arange(-K, K + 1), const, n_gaps + 1)
    anti = _hill_block(vhat, 2.0 * np.pi * (np.arange(-K, K) + 0.5), const, n_gaps + 1)

    def block(m):  # (values, vectors, offset) of the block carrying index m
        return (*anti, 0.5) if m % 2 else (*per, 0.0)

    info = {("lambda0", 0): (0.0, per[1][:, 0])}
    lo, hi = [], []
    for m in range(1, n_gaps + 1):
        ev, vec, offset = block(m)
        lo.append(ev[m - 1])
        hi.append(ev[m])
        info[("lo", m)] = (offset, vec[:, m - 1])
        info[("hi", m)] = (offset, vec[:, m])
    ev, vec, offset = block(n_gaps + 1)
    info[("next", n_gaps + 1)] = (offset, vec[:, n_gaps])
    return float(per[0][0]), np.array(lo), np.array(hi), float(ev[n_gaps]), info


def hill_band_edges(p: Potential, n_gaps: int, modes: int | None = None):
    """Band edges from truncated Fourier matrices.

    Returns (lambda0, gap_lo, gap_hi, next_band_end) for gaps 1..n_gaps:
    the periodic block (wavenumbers 2 pi k) carries the even-index edges,
    the anti-periodic block (2 pi (k + 1/2)) the odd-index ones.
    """
    return _hill_edges(p, n_gaps, modes)[:4]


def hill_edges_and_vectors(p: Potential, n_gaps: int, modes: int | None = None):
    """Band edges as in hill_band_edges, plus the edge eigenvectors.

    Returns (lambda0, gap_lo, gap_hi, next_band_end, info) where
    info[(which, n)] = (offset, u) gives the eigenvector u over exponential
    wavenumbers 2 pi (j + offset), offset 0 for periodic edges and 1/2 for
    anti-periodic ones.  Keys: ("lo", n), ("hi", n) for n = 1..n_gaps,
    ("lambda0", 0) and ("next", n_gaps + 1).
    """
    return _hill_edges(p, n_gaps, modes)


def _cosine_moments(p: Potential, jmax: int) -> np.ndarray:
    """C[j] = integral_0^1 v(x) cos(pi j x) dx for j = 0..jmax."""
    const, ks, a, b = _mode_coeffs(p)
    C = np.zeros(jmax + 1)
    C[0] = const
    j = np.arange(jmax + 1)
    odd = j % 2 == 1
    for k, ak, bk in zip(ks, a, b):
        if 2 * k <= jmax:
            C[2 * k] += 0.5 * ak
        if bk != 0.0 and np.any(odd):
            C[odd] += bk * (4.0 * k / np.pi) / (4.0 * k**2 - j[odd] ** 2)
    return C


def _sine_matrix(p: Potential, count: int, dim: int | None) -> np.ndarray:
    """The Dirichlet operator in the sine basis sqrt(2) sin(pi m x), m = 1..dim."""
    if dim is None:
        dim = max(DEFAULT_GALERKIN, _turning_index(p, count, math.pi))
    m = np.arange(1, dim + 1)
    C = _cosine_moments(p, 2 * dim)
    H = C[np.abs(m[:, None] - m[None, :])] - C[m[:, None] + m[None, :]]
    H[m - 1, m - 1] += (np.pi * m) ** 2
    return H


def galerkin_dirichlet(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Dirichlet eigenvalues on [0, 1] via a sine basis."""
    H = _sine_matrix(p, count, dim)
    return sla.eigh(H, eigvals_only=True, subset_by_index=(0, count - 1))


def galerkin_dirichlet_vectors(p: Potential, count: int, dim: int | None = None):
    """(mu, Y): Dirichlet eigenvalues and eigenvectors in the sine basis."""
    return sla.eigh(_sine_matrix(p, count, dim), subset_by_index=(0, count - 1))


def galerkin_neumann(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Neumann eigenvalues on [0, 1] via a cosine basis.

    Basis: 1, sqrt(2) cos(pi m x); indices 0..dim-1, eigenvalues nu_0..
    """
    if dim is None:
        dim = max(DEFAULT_GALERKIN, _turning_index(p, count, math.pi))
    m = np.arange(dim)
    C = _cosine_moments(p, 2 * dim)
    H = C[np.abs(m[:, None] - m[None, :])] + C[m[:, None] + m[None, :]]
    H[0, :] /= np.sqrt(2.0)
    H[:, 0] /= np.sqrt(2.0)
    H[m, m] += (np.pi * m) ** 2
    ev = sla.eigh(H, eigvals_only=True, subset_by_index=(0, count - 1))
    return ev


# --- eigenvector gradients for analytic design Jacobians ---------------------


def exp_vector_gradient(u: np.ndarray, max_mode: int):
    """d lambda / d (cos_k, sin_k) for an exponential-basis eigenvector.

    The eigenvalue derivative with respect to the coefficient of
    cos(2 pi k x) is Re sum_j conj(u_{j+k}) u_j, and Im of the same
    correlation for sin(2 pi k x); the derivative in the constant is 1.
    """
    dim = u.size
    da = np.empty(max_mode)
    db = np.empty(max_mode)
    for k in range(1, max_mode + 1):
        corr = np.vdot(u[k:], u[: dim - k])
        da[k - 1] = corr.real
        db[k - 1] = corr.imag
    return da, db


def sine_vector_gradient(y: np.ndarray, max_mode: int):
    """d mu / d (cos_k, sin_k) for a sine-Galerkin eigenvector.

    Uses the autocorrelation rho(delta) = sum_m y_m y_{m+delta} and the
    convolution sigma(s) = sum_{m+m'=s} y_m y_{m'} of the coefficient
    vector (indices m start at 1).
    """
    dim = y.size
    da = np.empty(max_mode)
    db = np.empty(max_mode)
    rho = np.correlate(y, y, mode="full")[dim - 1 :]  # rho[delta], delta=0..dim-1
    sigma_full = np.convolve(y, y)  # index i -> s = i + 2
    jmax = 2 * dim
    sigma = np.zeros(jmax + 1)
    sigma[2 : 2 * dim + 1] = sigma_full
    w = np.zeros(jmax + 1)
    w[: dim] += 2.0 * rho
    w -= sigma
    j = np.arange(jmax + 1)
    odd = j % 2 == 1
    for k in range(1, max_mode + 1):
        da[k - 1] = w[2 * k] / 2.0 if 2 * k <= jmax else 0.0
        g = (4.0 * k / np.pi) / (4.0 * k**2 - j[odd] ** 2)
        db[k - 1] = float(np.sum(g * w[odd]))
    return da, db
