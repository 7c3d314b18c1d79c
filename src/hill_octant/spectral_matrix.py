"""Matrix eigensolvers for the same spectral data the shooting route computes.

These are an independent route: truncated Fourier (Hill) matrices for the
periodic / anti-periodic eigenvalues (band edges), and Legendre-Galerkin
pencils on [0, 1] for the Dirichlet / Neumann spectra.  The designer
iterates against this fast forward map; the shooting route in ``bands``
stays the authoritative public implementation, and tests compare the two.

Basis sizes auto-scale with the potential so that deep-well designs (whose
low eigenvalues involve Fourier modes up to the classical turning index)
stay resolved.  Each Hill block is the Galerkin matrix of -d^2 + v in the
real trigonometric basis 1, sqrt(2) cos 2 pi q x, sqrt(2) sin 2 pi q x
(`_hill_band`), so it is real symmetric and banded, and no eigensolve uses
complex arithmetic; the edge eigenvectors are handed out over exponential
wavenumbers.  Only the lowest few eigenpairs are wanted, and the block
dimension picks the solver: LAPACK's band eigensolver up to
BAND_SOLVER_DIM (`_hill_banded`), shift-invert block Lanczos above it, in
the deep wells (`_hill_lanczos`).  A fit passes each iterate's Hill
eigenvectors to the next solve as `start`, where they begin the Lanczos
basis: each result stays a function of the arguments of its call.

The Dirichlet and Neumann spectra come from one dense shift-inverted
`eigh` of a pencil in Shen's Legendre bases (`_galerkin_solve`), whose
coefficients decay exponentially, where sine and cosine bases converge
only algebraically.  The Dirichlet eigenvectors carry exact wall
derivatives: the sheet of each Dirichlet point (`dirichlet_sheets`), so a
matrix-route factor spectrum integrates nothing, and its slope under
translation (`dirichlet_translation_slopes`), along which the deep design
solves.  For a matrix close to one already solved, `ritz_enclosures`
projects it onto the known eigenvectors (Rayleigh-Ritz) and bounds each
Ritz value's error (Kato-Temple), with no new eigensolve.

Only Fourier-form potentials are supported here.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg as sla

from .errors import NoConvergence
from .potential import Potential

__all__ = [
    "hill_band_edges",
    "galerkin_dirichlet",
    "dirichlet_sheets",
    "dirichlet_translation_slopes",
    "galerkin_neumann",
    "hill_edges_and_vectors",
    "galerkin_dirichlet_vectors",
    "exp_vector_gradient",
    "dirichlet_vector_gradient",
    "ritz_enclosures",
]

BAND_SOLVER_DIM = 160  # Hill blocks up to this dimension go to LAPACK's band solver, larger ones to Lanczos
GALERKIN_TAIL = 1e-6  # most the last coefficients of a default-size Galerkin eigenvector hold, relative
LANCZOS_BLOCK = 2  # Hill eigenvalues have multiplicity at most 2
LANCZOS_TOL = 1e-12  # Ritz residual bound, relative to the largest Ritz value
RITZ_EVERY = 4  # Rayleigh-Ritz checks come RITZ_EVERY LANCZOS_BLOCK basis vectors apart
QR_GROWTH = 512.0  # most a Lanczos block's QR may amplify the rounding left along the basis
SYMBOL_GRID = 4096  # points on which the minimum of the Toeplitz symbol is sampled
RITZ_ROUNDING = 16  # rounding allowance of a Ritz value or residual, in units of eps times its scale


def _turning_index(p: Potential, count: int) -> int:
    """Smallest Hill mode index safely past the classical turning point.

    The margin is 4 (count + 2) modes, 8 (count + 2) basis functions.  The
    turning wavenumber leaves out the constant, which moves no eigenvector:
    on the normalized (2, 0.1, 3) design (constant 2.0e5) K is 157 rather
    than 208, with edges within 3.2e-12 relative of 900 modes.
    """
    sup = p.sup_norm_bound - abs(p.constant)
    k_turn = math.sqrt(max(2.0 * sup, 1.0)) / (2.0 * math.pi)
    return int(1.3 * k_turn) + 4 * (count + 2)


def _orthonormal_block(V, Q, rng):
    """Q orthonormalized against the orthonormal columns of V, then by QR.

    Two passes of block Gram-Schmidt against V, then a QR of the block.  A
    direction that cancels (the Krylov space became invariant, or a start
    vector is an eigenvector already in V) is replaced by a random one
    before the QR is redone: the rest of the block keeps its directions,
    which a QR with the cancelled column's rounding noise in front would
    partly project away, and the basis keeps growing.

    The passes leave each column orthogonal to V up to rounding, about eps
    times its norm ||R e_i|| after them.  The QR divides column i by what
    is left of it after the block's earlier columns, |R_ii|, and so
    amplifies that rounding by ||R e_i|| / |R_ii|.  Where that exceeds
    QR_GROWTH, the block takes a third pass against V and a second QR: the
    test of Daniel, Gragg, Kaufman and Stewart (Math. Comp. 30, 1976), read
    off the R the QR has made, with its bound set by the Lanczos stop
    rather than at 1/sqrt(2).  512 eps = 1.1e-13 is a tenth of LANCZOS_TOL,
    and a loss of orthogonality that size cannot hold a Ritz residual above
    the stop.  ||R e_i|| is at most the column's norm before the passes, so
    the norms of R are needed only where a column kept less than
    1/QR_GROWTH of that.
    """
    gemm = sla.blas.dgemm
    scale = np.linalg.norm(Q, axis=0)
    for _ in range(2):
        Q = gemm(-1.0, V, gemm(1.0, V, Q, trans_a=1), beta=1.0, c=Q)  # Q - V V^T Q
    qr, tau = sla.lapack.dgeqrf(Q)[:2]  # LAPACK directly: scipy.linalg.qr costs 3x as much here
    kept = np.abs(np.diag(qr))
    amplified = False
    if not np.all(QR_GROWTH * kept >= scale):  # false for NaN too
        lost = ~(kept > 1e-8 * scale)
        if np.any(lost):
            Q[:, lost] = rng.standard_normal((Q.shape[0], int(lost.sum())))
            return _orthonormal_block(V, Q, rng)
        amplified = np.any(QR_GROWTH * kept < np.linalg.norm(np.triu(qr[: kept.size]), axis=0))
    Q = sla.lapack.dorgqr(qr, tau)[0]
    if amplified:
        Q = gemm(-1.0, V, gemm(1.0, V, Q, trans_a=1), beta=1.0, c=Q)
        qr, tau = sla.lapack.dgeqrf(Q)[:2]
        Q = sla.lapack.dorgqr(qr, tau)[0]
    return Q


def _symbol_bounds(a, b):
    """What `_shift` needs of the Toeplitz symbol, for every matrix of one potential.

    The Toeplitz part of a Hill block is a compression of multiplication by
    its symbol f(x) = sum_j vhat_j e^{2 pi i j x} (vhat the exponential
    coefficients of modes -kmax..kmax), so it is bounded below by min f;
    f is v less its constant, so the same bound holds for the potential
    part of the Dirichlet and Neumann pencils, whose Rayleigh quotients
    are averages of f over psi^2 on [0, 1].  min f is sampled on
    SYMBOL_GRID points by one FFT; the grid point nearest the minimizer
    lies within h/2, where f exceeds its minimum by at most
    h^2/8 max|f''| <= h^2/8 sum (2 pi j)^2 |vhat_j|.  Returns (sum |vhat|,
    the sampled min f, that slack).
    """
    vhat = 0.5 * np.concatenate(((a + 1j * b)[:0:-1], a - 1j * b))
    bw = (vhat.size - 1) // 2
    j = np.arange(-bw, bw + 1)
    grid = max(SYMBOL_GRID, vhat.size)
    coeffs = np.zeros(grid, dtype=complex)
    coeffs[j % grid] = vhat
    f_min = float(np.fft.fft(coeffs).real.min())  # f at -x on the grid: the same minimum
    slack = float(np.sum((2.0 * np.pi * j) ** 2 * np.abs(vhat))) / (8.0 * grid**2)
    return float(np.sum(np.abs(vhat))), f_min, slack


def _shift(symbol, kinetic, constant):
    """A shift sigma at least 1 below every eigenvalue of a Hill block or Galerkin pencil.

    `symbol` is `_symbol_bounds` of the potential, and `kinetic` a lower
    bound of -d^2 on the basis: the least squared wavenumber, 0 or pi^2 for
    the Hill blocks, pi^2 (Friedrichs) for the Dirichlet basis and 0 for the
    Neumann one.
    The potential part is at least the constant plus the sampled min f less
    its slack; the Gershgorin shift constant - sum|vhat| - 1 is the floor.
    """
    sum_abs, f_min, slack = symbol
    gershgorin = constant - sum_abs
    return max(gershgorin, constant + f_min - slack + kinetic) - 1.0


def _mode_arrays(p: Potential):
    """(constant, a, b): a[m], b[m] the cos / sin coefficients of mode m = 0..kmax.

    a[0] = b[0] = 0, and kmax is the highest mode with a nonzero coefficient.
    """
    const, ks, a_k, b_k = p.effective_fourier()
    live = (a_k != 0.0) | (b_k != 0.0)
    kmax = int(ks[live].max()) if np.any(live) else 0
    a, b = np.zeros(kmax + 1), np.zeros(kmax + 1)
    np.add.at(a, ks[live], a_k[live])
    np.add.at(b, ks[live], b_k[live])
    return const, a, b


def _trig_basis(offset, idx):
    """Frequencies q and kinds (+1 cos, -1 sin) of basis functions idx.

    The periodic block (offset 0) has 1, sqrt(2) cos 2 pi q x and
    sqrt(2) sin 2 pi q x for q = 1..K; the anti-periodic one (offset 1/2)
    has the same pairs for q = 1/2..K - 1/2.  The pairs are interleaved
    (c_q, s_q) after the constant, so a potential with modes up to kmax
    couples only basis indices at most 2 kmax + 1 apart.  Any integer idx
    maps by the same rule; the periodic idx 0 gets q = 0.
    """
    u = idx - (1 if offset == 0.0 else 0)
    return u // 2 + 1.0 - offset, 1.0 - 2.0 * (u % 2)


def _hill_band(a, b, offset, K, constant):
    """The Hill block of -d^2 + v in the real basis of `_trig_basis`, banded.

    a, b as from `_mode_arrays`.  With c_q = sqrt(2) cos 2 pi q x and
    s_q = sqrt(2) sin 2 pi q x,
    <c_q, v c_r> = (a_|q-r| + a_(q+r)) / 2, <s_q, v s_r> = (a_|q-r| - a_(q+r)) / 2
    and <c_q, v s_r> = (b_(q+r) - sgn(q - r) b_|q-r|) / 2, each times 1/sqrt(2)
    for the constant function; the diagonal adds (2 pi q)^2 + constant.
    Returns (band, bw, q): H[i, j] at band[2 bw + i - j, j], in LAPACK's
    general band layout, with bw zero rows on top for the fill of an LU.
    """
    dim, kmax = 2 * K + (1 if offset == 0.0 else 0), a.size - 1
    bw = min(2 * kmax + 1, dim - 1) if kmax else 0  # c_q and s_(q+kmax) lie 2 kmax + 1 apart
    A, B = np.zeros(2 * kmax + 3), np.zeros(2 * kmax + 3)  # a_m, b_m = 0 for m > kmax
    A[: kmax + 1], B[: kmax + 1] = a, b
    # The a_|q-r|, b_|q-r| terms depend on i - j and the parity of j alone:
    # one column of each parity, placed past the constant, fills the band.
    ref = 2 + np.arange(2)
    qi, ki = _trig_basis(offset, ref + np.arange(-bw, bw + 1)[:, None])
    qj, kj = _trig_basis(offset, ref)
    diff = np.abs(qi - qj).astype(int)
    toeplitz = 0.5 * np.where(ki == kj, A[diff], -ki * np.sign(qi - qj) * B[diff])
    columns = np.zeros((dim + dim % 2, 3 * bw + 1))  # columns of the band, so the band is Fortran-ordered
    columns.reshape(-1, 2, 3 * bw + 1)[:, :, bw:] = toeplitz.T
    band = columns[:dim].T
    # the a_(q+r), b_(q+r) terms, nonzero only for the first pairs, where q + r <= kmax
    s0, first = round(2.0 - 2.0 * offset), (1 if offset == 0.0 else 0)  # q + r of the first pair; its index
    P = min(K, kmax - s0 + 1)
    if P > 0:
        def pairs(coeffs):  # coeffs[q + r] over the first P pairs
            return 0.5 * sla.hankel(coeffs[s0 : s0 + P], coeffs[s0 + P - 1 : s0 + 2 * P - 1])

        hankel = np.empty((2 * P, 2 * P))
        hankel[0::2, 0::2] = pairs(A)
        hankel[1::2, 1::2] = -hankel[0::2, 0::2]
        hankel[0::2, 1::2] = hankel[1::2, 0::2] = pairs(B)
        i, j = np.indices(hankel.shape) + first
        band[2 * bw + i - j, j] += hankel
    if offset == 0.0:  # the constant function 1 = c_0 / sqrt(2): a_r / sqrt(2), b_r / sqrt(2)
        row = np.zeros(bw + 1)
        row[1::2], row[2::2] = A[1 : (bw + 1) // 2 + 1], B[1 : bw // 2 + 1]
        j = np.arange(bw + 1)
        band[2 * bw - j, j] = band[2 * bw + j, 0] = row * math.sqrt(0.5)
    # band storage outside the matrix: above its first rows, below its last
    corner = band[bw : 2 * bw, :bw][:, ::-1]
    corner[:] = np.tril(corner, -1)
    corner = band[2 * bw + 1 :, dim - bw :][:, ::-1]
    corner[:] = np.triu(corner, 1)
    q = _trig_basis(offset, np.arange(dim))[0]
    band[2 * bw] += (2.0 * np.pi * q) ** 2 + constant
    return band, bw, q


def _hill_block(a, b, offset, K, constant, n_lowest, symbol, vectors=True, start=None):
    """Lowest `n_lowest` eigenpairs of the real Hill block `_hill_band`.

    Returns (values ascending, real vectors as columns, or None without
    `vectors`).  A block of dimension up to BAND_SOLVER_DIM goes to
    `_hill_banded`, a larger one to `_hill_lanczos`, which needs `symbol`,
    `_symbol_bounds(a, b)` (None when no block of the call is that large),
    and starts from the columns of `start` when given.
    """
    if 2 * K + (1 if offset == 0.0 else 0) <= BAND_SOLVER_DIM:
        return _hill_banded(a, b, offset, K, constant, n_lowest, vectors)
    return _hill_lanczos(a, b, offset, K, constant, n_lowest, symbol, start)


def _hill_banded(a, b, offset, K, constant, n_lowest, vectors=True):
    """What `_hill_block` returns, from LAPACK's band eigensolver.

    `eig_banded` (dsbevx) reduces the lower band to tridiagonal form by
    plane rotations and computes only the wanted eigenpairs.  Its cost
    grows as dim^2 times the bandwidth, against Lanczos's nearly flat cost
    per block, so it is the faster of the two up to BAND_SOLVER_DIM: on
    3-mode potentials (2 cores, one BLAS thread) it takes 0.27 ms at
    dimension 67 against 0.97 ms, and the two meet between dimension 130
    (10 modes) and 190 (2 modes).  Dense `eigh` would cost about as much,
    but it rounds each value by about eps ||H||, at K = 33 enough to move an
    edge seed past the 1e-12 stop of the edge Newton in `bands`; the band
    reduction's rounding of the low eigenvalues stays below it.  Without
    `vectors` it skips the reduction's rotations of the basis and the
    inverse iteration; the values come from the same bisection of the same
    tridiagonal matrix, so they are the same to the bit.
    """
    band, bw, _ = _hill_band(a, b, offset, K, constant)
    out = sla.eig_banded(
        band[2 * bw :], lower=True, eigvals_only=not vectors, select="i",
        select_range=(0, n_lowest - 1), check_finite=False,
    )
    return out if vectors else (out, None)


def _hill_lanczos(a, b, offset, K, constant, n_lowest, symbol, start=None):
    """What `_hill_block` returns, from shift-invert Lanczos (`_lanczos`).

    The shift sigma from `_shift` gives H - sigma >= 1, so it is
    nonsingular; in a deep well it sits about half a gap spacing below the
    lowest eigenvalue, so the wanted end of the spectrum of (H - sigma)^-1
    stands well apart from the rest and Lanczos reaches it in few steps.
    """
    band, bw, q = _hill_band(a, b, offset, K, constant)
    sigma = _shift(symbol, float(np.min((2.0 * np.pi * q) ** 2)), constant)
    # H - sigma is positive definite, but banded Cholesky (pbtrf) makes a
    # rank-1 update per row that OpenBLAS threads once the band is wider
    # than 16, and on a busy machine each update waits for a core.  The band
    # LU (gbtrf) keeps its updates on one thread.  H - sigma need not be
    # diagonally dominant, so the LU may exchange rows; the bw extra rows on
    # top of the band hold the fill that the exchanges bring.
    band[2 * bw] -= sigma
    lu, piv, _ = sla.lapack.dgbtrf(band, bw, bw, overwrite_ab=True)
    gbtrs = sla.lapack.dgbtrs
    theta, X = _lanczos(lambda Q: gbtrs(lu, bw, bw, Q, piv)[0], q.size, n_lowest, start)
    return sigma + 1.0 / theta, X


def _lanczos(solve, dim, k, start=None):
    """The largest k eigenpairs of (H - sigma)^-1, for a symmetric H - sigma > 0.

    `solve(Q)` returns (H - sigma)^-1 Q for a block of columns Q.  Block
    Lanczos with full reorthogonalization converges to the largest theta
    first, which are the lowest lambda = sigma + 1/theta: the spectral
    transformation of Ericsson and Ruhe (Math. Comp. 35, 1980) with the
    block iteration of Golub and Underwood (1977).  Returns (theta
    descending, vectors as columns) once the Ritz residual
    ||(H - sigma)^-1 x - theta x|| is at most LANCZOS_TOL theta_1 for every
    wanted pair.  Once the basis is the whole space the Ritz pairs are
    exact but for rounding, and they are returned at whatever residual that
    rounding leaves, which may lie above LANCZOS_TOL.  Only a non-finite
    residual there raises `NoConvergence`.

    The start block is LANCZOS_BLOCK seeded random columns, after the
    columns of `start` when given (eigenvectors of a nearby matrix, such as
    the last iterate of a fit): the random columns keep within reach a wanted
    vector that `start` lacks, say one whose value crossed a neighbour's.
    Rayleigh-Ritz on V^T (H - sigma)^-1 V runs once the basis holds 2 k
    vectors, then after every RITZ_EVERY LANCZOS_BLOCK more.  Seeded,
    repeated calls agree bit for bit.
    """
    k = min(k, dim)
    rng = np.random.default_rng(0)
    block = rng.standard_normal((dim, LANCZOS_BLOCK))
    if start is not None:
        if start.shape[0] != dim:
            raise ValueError(f"start vectors of dimension {start.shape[0]} for a matrix of dimension {dim}")
        block = np.hstack((start, block))
    # Every BLAS/LAPACK call below goes through scipy, so all of them share one
    # OpenBLAS thread pool: numpy's products would use numpy's own pool, and
    # the idle workers of two pools spin for the same cores.
    gemm = sla.blas.dgemm
    # column-major, so only the columns written so far are ever touched
    V = np.empty((dim, dim), order="F")  # orthonormal basis
    W = np.empty_like(V)  # (H - sigma)^-1 V
    G = np.empty_like(V)  # Rayleigh quotient V^T W, lower triangle
    m, check = 0, 2 * k
    while True:
        Q = _orthonormal_block(V[:, :m], block[:, : dim - m], rng)
        new = slice(m, m + Q.shape[1])
        V[:, new] = Q
        W[:, new] = block = solve(Q)
        G[new, : new.stop] = gemm(1.0, Q, W[:, : new.stop], trans_a=1)
        m = new.stop
        if m < min(check, dim):
            continue
        check = m + RITZ_EVERY * LANCZOS_BLOCK
        # V^T W is dense, but a band routine given all its diagonals reduces it
        # by plane rotations, where a dense eigh would make threaded BLAS calls
        i, j = np.tril_indices(m)
        ritz = np.zeros((m, m))
        ritz[i - j, j] = G[i, j]
        theta, Y = sla.eig_banded(
            ritz, lower=True, select="i", select_range=(m - k, m - 1), check_finite=False
        )
        theta, Y = theta[::-1], Y[:, ::-1]
        X = gemm(1.0, V[:, :m], Y)
        resid = np.linalg.norm(gemm(1.0, W[:, :m], Y) - X * theta, axis=0) / theta[0]
        if np.all(resid <= LANCZOS_TOL):
            return theta, X
        if m == dim:
            if np.all(np.isfinite(resid)):
                return theta, X
            raise NoConvergence(f"Lanczos at dimension {dim}: non-finite Ritz residual on the full basis")


def _exponential_vector(x, offset, K):
    """A real-basis eigenvector over exponential wavenumbers 2 pi (j + offset).

    c_q x_c + s_q x_s = e_q (x_c - i x_s) / sqrt(2) + e_-q (x_c + i x_s) / sqrt(2),
    with e_q = exp(2 pi i q x); j runs over -K..K (periodic) or -K..K-1.
    """
    pairs = (x[1:] if offset == 0.0 else x).reshape(K, 2)
    plus = (pairs[:, 0] - 1j * pairs[:, 1]) * math.sqrt(0.5)  # q = 1 - offset .. K - offset
    if offset == 0.0:
        return np.concatenate((plus[::-1].conj(), [x[0]], plus))
    return np.concatenate((plus[::-1].conj(), plus))


def _block_edges(values, n_gaps: int):
    """(lambda0, gap_lo, gap_hi, next_band_end) from the ascending eigenvalues of each Hill block.

    `values` maps offset 0 (the periodic block, wavenumbers 2 pi k) and 1/2
    (the anti-periodic block, 2 pi (k + 1/2)) to the block's lowest
    n_gaps + 1 eigenvalues.  The periodic block carries the even-index
    edges, the anti-periodic one the odd-index ones; the edges of gap m are
    eigenvalues m - 1 and m of block m mod 2.
    """
    def block(m):
        return values[0.5 if m % 2 else 0.0]

    lo = np.array([block(m)[m - 1] for m in range(1, n_gaps + 1)])
    hi = np.array([block(m)[m] for m in range(1, n_gaps + 1)])
    return float(values[0.0][0]), lo, hi, float(block(n_gaps + 1)[n_gaps])


def _hill_edges(p: Potential, n_gaps: int, modes: int | None, start=None, vectors=True):
    """What hill_edges_and_vectors returns, from one solve of each Hill block.

    The last item maps each block's offset to its lowest n_gaps + 1
    eigenpairs, (values ascending, real vectors as columns), in the basis
    of `_hill_band`; without `vectors` the band solver computes no vectors,
    so its blocks carry None for them, and `info` is None.  `start`, the
    last item of an earlier call at the same `modes`, seeds the Lanczos
    blocks.  Both public entry points call this helper rather than each
    other, so a wrapper around either name (the perfbench tracer) sees only
    its own callers.
    """
    const, a, b = _mode_arrays(p)
    if modes is None:
        modes = _turning_index(p, n_gaps)
    if 2 * modes < n_gaps + 1:  # the anti-periodic block has dimension 2 modes
        raise ValueError(f"modes={modes} is too few for {n_gaps} gaps: need at least {(n_gaps + 2) // 2}")
    K = modes
    # one FFT of the symbol serves both blocks, and only Lanczos needs it
    symbol = _symbol_bounds(a, b) if 2 * K + 1 > BAND_SOLVER_DIM else None
    blocks = {
        offset: _hill_block(a, b, offset, K, const, n_gaps + 1, symbol, vectors,
                            None if start is None else start[offset][1])
        for offset in (0.0, 0.5)
    }
    lam0, lo, hi, nbe = _block_edges({offset: ev for offset, (ev, _) in blocks.items()}, n_gaps)
    if not vectors:
        return lam0, lo, hi, nbe, None, blocks

    def vector(m, index):  # (offset, exponential vector) of eigenpair `index` of m's block
        offset = 0.5 if m % 2 else 0.0
        return offset, _exponential_vector(blocks[offset][1][:, index], offset, K)

    info = {("lambda0", 0): vector(0, 0), ("next", n_gaps + 1): vector(n_gaps + 1, n_gaps)}
    for m in range(1, n_gaps + 1):
        info[("lo", m)], info[("hi", m)] = vector(m, m - 1), vector(m, m)
    return lam0, lo, hi, nbe, info, blocks


def hill_band_edges(p: Potential, n_gaps: int, modes: int | None = None):
    """Band edges from truncated Fourier matrices.

    Returns (lambda0, gap_lo, gap_hi, next_band_end) for gaps 1..n_gaps:
    the periodic block (wavenumbers 2 pi k) carries the even-index edges,
    the anti-periodic block (2 pi (k + 1/2)) the odd-index ones.  No
    eigenvectors are computed where the solver can skip them.
    """
    return _hill_edges(p, n_gaps, modes, vectors=False)[:4]


def hill_edges_and_vectors(p: Potential, n_gaps: int, modes: int | None = None, start=None):
    """Band edges as in hill_band_edges, plus the edge eigenvectors.

    Returns (lambda0, gap_lo, gap_hi, next_band_end, info, blocks) where
    info[(which, n)] = (offset, u) gives the eigenvector u over exponential
    wavenumbers 2 pi (j + offset), offset 0 for periodic edges and 1/2 for
    anti-periodic ones.  Keys: ("lo", n), ("hi", n) for n = 1..n_gaps,
    ("lambda0", 0) and ("next", n_gaps + 1).  blocks[offset] = (values,
    vectors) holds each block's lowest n_gaps + 1 eigenpairs in the real
    basis.  Passed back as `start` for a nearby potential at the same
    `modes` (the next iterate of a fit), the blocks seed its Lanczos solves.
    """
    return _hill_edges(p, n_gaps, modes, start)


@functools.lru_cache(maxsize=32)
def _legendre_table(nodes: int, degree: int):
    """Gauss-Legendre nodes t and weights w on [-1, 1], and L_k(t) for k = 0..degree < nodes.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence (Golub and Welsch, Math. Comp. 23, 1969): O(n^2), where
    numpy's `leggauss` is O(n^3).  The recurrence fills the table and runs
    on to L_n for the weights 2 / ((1 - t^2) L_n'^2); the moments int L_i L_j
    come out exact to a few eps.  Its loop is about half of a shallow solve
    and depends on the sizes alone: the last 32 of up to 2^17 entries are kept.
    """
    k = np.arange(1.0, nodes)
    t = sla.eigvalsh_tridiagonal(np.zeros(nodes), k / np.sqrt(4.0 * k * k - 1.0),
                                 lapack_driver="sterf", check_finite=False)
    table = np.empty((degree + 1, nodes))
    prev, cur = np.ones(nodes), t
    table[0], table[1] = prev, cur
    for j in range(1, nodes):
        prev, cur = cur, ((2 * j + 1) * t * cur - j * prev) / (j + 1)
        if j < degree:
            table[j + 1] = cur
    slope = nodes * (t * cur - prev) / (t * t - 1.0)
    out = t, 2.0 / ((1.0 - t * t) * slope * slope), table
    for array in out:
        array.flags.writeable = False
    return out


def _shen_basis(dim: int, kmax: int, neumann: bool):
    """Shen's basis at Gauss-Legendre nodes: (Phi, x, w, s, c).

    Basis function k = 0..dim-1 is s_k (L_k(t) - c_k L_(k+2)(t)) on
    t = 2x - 1 (Shen, SIAM J. Sci. Comput. 15, 1994): s_k = 1 / sqrt(4k + 6)
    and c_k = 1 vanish at both ends (Dirichlet), s_k = 1 and c_k = k (k + 1)
    / ((k + 2)(k + 3)) have zero slope there (Neumann).  Phi[k, i] is
    function k at node x_i in [0, 1], where the weights w sum to 1.  The
    nodes integrate two basis functions times modes up to kmax exactly but
    for the Legendre series of cos(pi kmax t) past degree pi kmax + 32.
    """
    nodes = dim + 2 + 16 + math.ceil(math.pi * kmax / 2.0)
    t, w, L = (_legendre_table if nodes * (dim + 2) <= 1 << 17 else _legendre_table.__wrapped__)(nodes, dim + 1)
    k = np.arange(dim)
    s = np.ones(dim) if neumann else 1.0 / np.sqrt(4.0 * k + 6.0)
    c = k * (k + 1) / ((k + 2.0) * (k + 3.0)) if neumann else np.ones(dim)
    Phi = s[:, None] * (L[:dim] - c[:, None] * L[2:])
    return Phi, 0.5 * (t + 1.0), 0.5 * w, s, c


def _galerkin_pencil(p: Potential, dim: int, neumann: bool = False):
    """The Dirichlet or Neumann pencil (A, M) of -d^2 + v - p.constant on [0, 1].

    In the basis of `_shen_basis` the stiffness is diagonal, 2 s_k^2 c_k
    (4k + 6): 2I for Dirichlet.  M couples k with k and k +- 2 only, from
    int_0^1 L_i L_j dx = delta_ij / (2i + 1).  A adds Phi diag(w v) Phi^T,
    with v from `p.evaluate` at the nodes, less the constant.
    """
    const, a, _ = _mode_arrays(p)
    Phi, x, w, s, c = _shen_basis(dim, a.size - 1, neumann)
    k = np.arange(dim)
    A = (Phi * (w * (p.evaluate(x) - const))) @ Phi.T
    A[k, k] += 2.0 * s * s * c * (4.0 * k + 6.0)
    M = np.zeros((dim, dim))
    M[k, k] = s * s * (1.0 / (2.0 * k + 1.0) + c * c / (2.0 * k + 5.0))
    M[k[:-2], k[2:]] = M[k[2:], k[:-2]] = -s[:-2] * s[2:] * c[:-2] / (2.0 * k[:-2] + 5.0)
    return A, M


def _galerkin_solve(p: Potential, count: int, dim: int | None, neumann: bool = False):
    """Lowest `count` eigenpairs of the Dirichlet or Neumann pencil of p.

    Returns (values ascending, M-orthonormal coefficient vectors as
    columns).  One dense `eigh` solves M y = theta (A - sigma M) y, sigma
    from `_shift`, for its largest theta: lambda = sigma + 1 / theta.  This
    form stays well conditioned, where eigh(A, M) loses digits as the top of
    the pencil grows like dim^4.  A shift not below the spectrum raises
    `NoConvergence`.  An explicit `dim` is solved as given.  The default
    size 16 + 2 count + 6 (sum |a_k| + |b_k|)^(1/4) leaves out the constant
    and is checked after the solve: where the last 8 coefficients of a
    vector exceed GALERKIN_TAIL of its largest one (the eigenvalue error is
    about the square of that ratio), the basis grows by half.
    """
    const, a, b = _mode_arrays(p)
    sigma = _shift(_symbol_bounds(a, b), 0.0 if neumann else np.pi**2, 0.0)
    sized = dim is None
    if sized:
        dim = 16 + 2 * count + int(6.0 * (p.sup_norm_bound - abs(const)) ** 0.25)
    while True:
        A, M = _galerkin_pencil(p, dim, neumann)
        A -= sigma * M
        try:
            theta, Y = sla.eigh(M, A, subset_by_index=(dim - count, dim - 1), overwrite_b=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"Galerkin pencil of dimension {dim}: A - sigma M is not positive "
                                f"definite for sigma = {sigma:.6g} ({exc})") from None
        theta, Y = theta[::-1], Y[:, ::-1] / np.sqrt(theta[::-1])  # y^T M y = theta y^T (A - sigma M) y = theta
        if not sized or np.all(np.abs(Y[-8:]).max(axis=0) <= GALERKIN_TAIL * np.abs(Y).max(axis=0)):
            return const + sigma + 1.0 / theta, Y
        dim = int(1.5 * dim)


def galerkin_dirichlet(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Dirichlet eigenvalues on [0, 1] via a Legendre-Galerkin basis."""
    return _galerkin_solve(p, count, dim)[0]


def galerkin_dirichlet_vectors(p: Potential, count: int, dim: int | None = None):
    """(mu, Y): Dirichlet eigenvalues and their M-orthonormal coefficient vectors (columns)."""
    return _galerkin_solve(p, count, dim)


def galerkin_neumann(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Neumann eigenvalues nu_0.. on [0, 1] via a Legendre-Galerkin basis."""
    return _galerkin_solve(p, count, dim, neumann=True)[0]


# --- Rayleigh-Ritz on known eigenvectors ---------------------------------------


def ritz_enclosures(HX: np.ndarray, X: np.ndarray, values: np.ndarray, spread: float, norm: float):
    """Rayleigh-Ritz of a symmetric H on the columns of X, with an enclosure of each eigenvalue.

    X holds orthonormal eigenvectors of a symmetric H0 for its lowest
    eigenvalues `values` (ascending), HX = H X, and H is symmetric of the
    same size with ||H - H0|| <= spread.  `norm` scales the rounding of the
    products H x: ||H|| for a Hill block, and for the Dirichlet pencil the
    size of its products on the vectors themselves (`_dirichlet_ritz`).
    Returns (theta, V, radius, angle): the Ritz values theta ascending, the
    Ritz vectors V (columns), a radius such that eigenvalue i of H lies
    within radius[i] of theta[i], and angle[i] >= sin of the angle between
    V[:, i] and eigenvector i of H.

    Each residual norm r_i = ||H v_i - theta_i v_i|| is raised by a
    rounding allowance of RITZ_ROUNDING eps norm.  By Weyl, eigenvalue
    i - 1 of H lies at most spread above values[i - 1] and eigenvalue i + 1
    at least spread below values[i + 1] (both padded by the same allowance);
    delta_i is the distance from theta_i to the nearer of these bounds.  If
    r_i < delta_i, eigenvalue i is the only one in between, and Kato-Temple
    (Kato, J. Phys. Soc. Japan 4, 1949; Parlett, The Symmetric Eigenvalue
    Problem, ch. 10-11) bounds |lambda_i - theta_i| by r_i^2 / delta_i;
    Davis-Kahan bounds the angle by r_i / delta_i.  The lowest eigenvalue
    has no neighbour below.  The highest has no computed neighbour above,
    so it gets the Weinstein radius r_i (an eigenvalue lies within it) and
    no angle.  Where r_i >= delta_i both are infinite.

    `values` and X come from a dense `eigh` (the Dirichlet pencil) or, for
    a deep well's Hill block, from `_lanczos`: on the Hill blocks of the
    (2, 0.1, 3) and (3, 0.05, 2) designs (315 and 1075) its values lie
    within 0.51 eps ||H|| of `scipy.linalg.eigh`'s, well inside RITZ_ROUNDING.
    """
    rounding = RITZ_ROUNDING * np.finfo(float).eps * norm
    G = X.T @ HX
    theta, S = np.linalg.eigh(0.5 * (G + G.T))
    V = X @ S
    r = np.linalg.norm(HX @ S - V * theta, axis=0) + rounding
    below = np.concatenate(([-np.inf], values[:-1] + spread + rounding))
    above = np.concatenate((values[1:] - spread - rounding, [np.inf]))
    delta = np.minimum(theta - below, above - theta)
    separated = r < delta
    safe = np.where(separated, delta, 1.0)
    angle = np.where(separated, r / safe, np.inf)
    radius = np.where(separated, r * r / safe, np.inf)
    angle[-1], radius[-1] = np.inf, r[-1]
    return theta, V, radius + rounding, angle


def _dirichlet_ritz(q: Potential, Y: np.ndarray, mu: np.ndarray, spread: float):
    """`ritz_enclosures` for q's Dirichlet pencil on the eigenpairs (mu, Y) of a potential within spread.

    The step runs on the standard form L^-1 A L^-T (L L^T = M), HX = L^-1 A Y
    on X = L^T Y.  Its norm grows like dim^4 (6.2e8 on (3, 0.05, 2)), but Y's
    coefficients decay, so the rounding scale is the largest |y|^T |A| |y|
    (1.0e8).  Returns (theta, Ritz vectors, radius, readout), readout the
    most |psi'(0)| or |psi'(1)| of each may be off.
    """
    A, M = _galerkin_pencil(q, Y.shape[0])
    A += q.constant * M
    L = sla.cholesky(M, lower=True)
    norm = float(np.max(np.sum(np.abs(Y) * (np.abs(A) @ np.abs(Y)), axis=0)))
    HX = sla.solve_triangular(L, A @ Y, lower=True)
    theta, V, radius, angle = ritz_enclosures(HX, L.T @ Y, mu, spread, norm)
    # r . y = (L^-1 r) . x moves by at most ||L^-1 r|| sqrt(2) sin(angle); one norm
    # serves both walls, as M does not couple odd k (where they differ) to even k
    r = sla.solve_triangular(L, _wall_functionals(Y.shape[0])[1], lower=True)
    ritz_Y = sla.solve_triangular(L, V, lower=True, trans="T")
    return theta, ritz_Y, radius, math.sqrt(2.0) * float(np.linalg.norm(r)) * angle


# --- eigenvector read-outs: design Jacobians and sheets ----------------------


def exp_vector_gradient(u: np.ndarray, max_mode: int):
    """d lambda / d (cos_k, sin_k) for an exponential-basis eigenvector.

    The eigenvalue derivative with respect to the coefficient of
    cos(2 pi k x) is Re sum_j conj(u_{j+k}) u_j, and Im of the same
    correlation for sin(2 pi k x); the derivative in the constant is 1.
    """
    corr = np.array([np.vdot(u[k:], u[: u.size - k]) for k in range(1, max_mode + 1)])
    return corr.real, corr.imag


def dirichlet_vector_gradient(Y: np.ndarray, max_mode: int):
    """d mu / d (cos_k, sin_k), k = 1..max_mode, for Dirichlet eigenvectors (columns of Y).

    Hellmann-Feynman: int_0^1 cos(2 pi k x) psi^2 and int_0^1 sin(2 pi k x)
    psi^2 for psi normalized in L^2 (y^T M y = 1), as one product at the
    nodes of `_shen_basis`.  Returns (da, db), each (columns of Y, max_mode).
    """
    Phi, x, w, _, _ = _shen_basis(Y.shape[0], max_mode, neumann=False)
    weighted = w * (Y.T @ Phi) ** 2
    phase = (2.0 * np.pi * x)[:, None] * np.arange(1, max_mode + 1)
    return weighted @ np.cos(phase), weighted @ np.sin(phase)


def _wall_functionals(dim: int):
    """(r0, r1) with psi'(0) = r0 . y and psi'(1) = r1 . y in the Dirichlet basis of `_shen_basis`.

    (L_k - L_(k+2))' is (-1)^k (2k + 3) at t = -1 and -(2k + 3) at t = 1,
    and d/dx = 2 d/dt: exact sums, with no basis tail to truncate.
    """
    r = np.sqrt(4.0 * np.arange(dim) + 6.0)
    return r * (-1.0) ** np.arange(dim), -r


def _wall_derivatives(Y: np.ndarray):
    """|psi'(0)| and |psi'(1)| of the Dirichlet eigenfunction of each column of Y."""
    r0, r1 = _wall_functionals(Y.shape[0])
    return np.abs(r0 @ Y), np.abs(r1 @ Y)


def dirichlet_translation_slopes(Y: np.ndarray) -> np.ndarray:
    """d mu_n / dt under v(x) -> v(x + t), from the Dirichlet eigenvectors (columns of Y).

    Hellmann-Feynman gives d mu / dt = int v'(x + t) psi^2, and one
    integration by parts with psi'' = (v - mu) psi turns that into
    psi'(0)^2 - psi'(1)^2 (`_wall_derivatives`).  Written as
    (|psi'(0)| - |psi'(1)|)(|psi'(0)| + |psi'(1)|), its sign is exact.
    """
    d0, d1 = _wall_derivatives(Y)
    return (d0 - d1) * (d0 + d1)


def dirichlet_sheets(Y: np.ndarray) -> np.ndarray:
    """Sheets of mu_1 .. mu_N from their Dirichlet eigenvectors (columns of Y).

    With phi = psi / psi'(0) the Wronskian at mu_n gives theta(1) phi'(1) = 1,
    so a(mu_n) = (phi'(1)^2 - 1) / (2 phi'(1)), and phi'(1) has sign (-1)^n
    (Sturm: n - 1 interior zeros).  So a(mu_n) has the bound sign (-1)^(n+1)
    exactly when |psi'(1)| < |psi'(0)|, that is, exactly when mu_n rises as
    the potential is translated (`dirichlet_translation_slopes` > 0): +1
    there, -1 otherwise.  A tie is -1, as for `bands.sheet_signs` at
    a_sign = 0: a Dirichlet point on a band edge (mu_1 of an even
    potential), where rounding leaves |psi'(0)| and |psi'(1)| up to 30 eps
    of their sum apart (2.5e-7 for the closest state of the seed-777
    corpus), so a difference up to 1e-10 of their sum is a tie.
    """
    d0, d1 = _wall_derivatives(Y)
    return np.where(d0 - d1 > 1e-10 * (d0 + d1), 1, -1)
