"""Matrix eigensolvers for the same spectral data the shooting route computes.

These are an independent route: truncated Fourier (Hill) matrices for the
periodic / anti-periodic eigenvalues (band edges), and sine / cosine
Galerkin matrices on [0, 1] for the Dirichlet / Neumann spectra.  The
designer iterates against this fast forward map; the shooting route in
``bands`` stays the authoritative public implementation, and tests compare
the two.

Basis sizes auto-scale with the potential so that deep-well designs (whose
low eigenvalues involve Fourier modes up to the classical turning index)
stay resolved.  Each Hill block is the Galerkin matrix of -d^2 + v in the
real trigonometric basis 1, sqrt(2) cos 2 pi q x, sqrt(2) sin 2 pi q x
(`_hill_band`), so it is real symmetric and banded, and no eigensolve uses
complex arithmetic; the edge eigenvectors are handed out over exponential
wavenumbers.  Only the lowest few eigenpairs are wanted, and the block
dimension picks the solver.  A block of dimension up to BAND_SOLVER_DIM (the
shallow potentials: 67 for the 3-mode test corpus at 6 gaps) goes to
LAPACK's band eigensolver, which is faster there and rounds the low
eigenvalues far below eps ||H||, as the 1e-12 stop of the edge Newton in
`bands` needs; dense `eigh` would not.  A larger block (the deep wells) is
shifted just below the spectrum, by a lower bound from the minimum of the
potential, so that it is positive definite; one banded LU factor applies
(H - sigma)^-1, and block Lanczos on that inverse finds the lowest
eigenpairs first: the spectral transformation of Ericsson and Ruhe (Math.
Comp. 35, 1980) with the block iteration of Golub and Underwood (1977).
The Galerkin matrices are dense Toeplitz plus (or minus) Hankel matrices of
the cosine moments of v.  Up to GALERKIN_LANCZOS_DIM (the shallow
potentials' bases) they go to `scipy.linalg.eigh`; a larger one (the deep
wells) is shifted below its spectrum by the same bound, factored by dense
Cholesky, and solved by the same Lanczos loop (`_galerkin_solve`).  A fit
passes each iterate's eigenvectors to the next solve as `start`, where
they begin the Lanczos basis: each result stays a function of the
arguments of its call.  The Dirichlet eigenvectors also carry the sheet of each Dirichlet point
(`dirichlet_sheets`), so a matrix-route factor spectrum needs no integrator
pass; the shooting rule `bands.sheet_signs` stays the independent check.
The same wall read-out gives the slope of each Dirichlet point under
translation (`dirichlet_translation_slopes`), which the deep design solves
along.  For a matrix close to one already solved, `ritz_enclosures`
projects it onto the known eigenvectors (Rayleigh-Ritz) and bounds the
error of each Ritz value (Kato-Temple), with no new eigensolve.

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
    "dirichlet_sheets",
    "dirichlet_translation_slopes",
    "galerkin_neumann",
    "hill_edges_and_vectors",
    "galerkin_dirichlet_vectors",
    "exp_vector_gradient",
    "sine_vector_gradient",
    "ritz_enclosures",
]

DEFAULT_GALERKIN = 256
BAND_SOLVER_DIM = 160  # Hill blocks up to this dimension go to LAPACK's band solver, larger ones to Lanczos
GALERKIN_LANCZOS_DIM = 300  # Galerkin matrices up to this dimension go to eigh, larger ones to Lanczos
LANCZOS_BLOCK = 2  # Hill eigenvalues have multiplicity at most 2
LANCZOS_TOL = 1e-12  # Ritz residual bound, relative to the largest Ritz value
RITZ_EVERY = 4  # Rayleigh-Ritz checks come RITZ_EVERY LANCZOS_BLOCK basis vectors apart
SYMBOL_GRID = 4096  # points on which the minimum of the Toeplitz symbol is sampled
RITZ_ROUNDING = 16  # rounding allowance of a Ritz value or residual, in units of eps ||H||


def _turning_index(p: Potential, count: int, spacing: float) -> int:
    """Smallest basis index safely past the classical turning point.

    Index k has wavenumber `spacing` k: pi m for the sine and cosine
    bases, 2 pi q for a Hill block.  Both hold one basis function per pi
    of wavenumber (a Hill block has a cos-sin pair per mode), so the margin
    of 8 (count + 2) functions past the turning wavenumber is
    8 (count + 2) pi / spacing indices: 4 (count + 2) Hill modes.

    The turning wavenumber counts |constant| through `p.sup_norm_bound`,
    though a constant shift leaves every eigenvector unchanged.  It stays
    in, as margin the Galerkin bases need: on the normalized (2, 0.1, 3)
    design (constant 2.0e5) the sizes without it (Hill K 157, Galerkin 314,
    against 208 and 416) keep the Hill edges within 4e-12 of a 900-mode
    reference, but raise the error of mu_1 (about 296) against an
    1800-function sine basis from 1.1e-7 to 7.7e-7.
    """
    sup = p.sup_norm_bound
    k_turn = math.sqrt(max(2.0 * sup, 1.0)) / spacing
    return int(1.3 * k_turn) + round(8 * (count + 2) * math.pi / spacing)


def _orthonormal_block(V, Q, rng):
    """Q orthonormalized against the orthonormal columns of V, then by QR.

    Two passes of block Gram-Schmidt keep the basis orthogonal to working
    precision.  A direction that cancels (the Krylov space became
    invariant, or a start vector is an eigenvector already in V) is
    replaced by a random one before the QR is redone: the rest of the block
    keeps its directions, which a QR with the cancelled column's rounding
    noise in front would partly project away, and the basis keeps growing.
    """
    gemm = sla.blas.dgemm
    scale = np.linalg.norm(Q, axis=0)
    for _ in range(2):
        Q = gemm(-1.0, V, gemm(1.0, V, Q, trans_a=1), beta=1.0, c=Q)  # Q - V V^T Q
    qr, tau = sla.lapack.dgeqrf(Q)[:2]  # LAPACK directly: scipy.linalg.qr costs 3x as much here
    lost = ~(np.abs(np.diag(qr)) > 1e-8 * scale)
    if np.any(lost):
        Q[:, lost] = rng.standard_normal((Q.shape[0], int(lost.sum())))
        return _orthonormal_block(V, Q, rng)
    return sla.lapack.dorgqr(qr, tau)[0]


def _symbol_bounds(a, b):
    """What `_shift` needs of the Toeplitz symbol, for every matrix of one potential.

    The Toeplitz part of a Hill block is a compression of multiplication by
    its symbol f(x) = sum_j vhat_j e^{2 pi i j x} (vhat the exponential
    coefficients of modes -kmax..kmax), so it is bounded below by min f;
    f is v less its constant, so the same bound holds for the potential
    part of the sine and cosine Galerkin matrices, compressions of
    multiplication by v to functions on [0, 1].  min f is sampled on
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
    """A shift sigma at least 1 below every eigenvalue of a Hill block or Galerkin matrix.

    `symbol` is `_symbol_bounds` of the potential, and `kinetic` a lower
    bound of -d^2 on the basis: the least squared wavenumber, 0 or pi^2 for
    the Hill blocks, pi^2 for the sine basis and 0 for the cosine basis.
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
    descending, vectors as columns); the only exit is a Ritz residual
    ||(H - sigma)^-1 x - theta x|| of at most LANCZOS_TOL theta_1 for every
    wanted pair, and a solve that fails it on the full basis raises
    `NoConvergence`.

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
            raise NoConvergence(
                f"Lanczos at dimension {dim}: Ritz residual {resid.max():.2e} "
                f"above {LANCZOS_TOL:.0e} on the full basis",
                best_residual=float(resid.max()),
            )


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
        modes = _turning_index(p, n_gaps, 2.0 * math.pi)
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


def _cosine_moments(p: Potential, jmax: int) -> np.ndarray:
    """C[j] = integral_0^1 v(x) cos(pi j x) dx for j = 0..jmax."""
    const, ks, a, b = p.effective_fourier()
    C = np.zeros(jmax + 1)
    C[0] = const
    fits = 2 * ks <= jmax
    np.add.at(C, 2 * ks[fits], 0.5 * a[fits])
    j = np.arange(1, jmax + 1, 2)  # sin(2 pi k x) against cos(pi j x): odd j only
    C[j] += b @ ((4.0 / np.pi) * ks[:, None] / (4.0 * ks[:, None] ** 2 - j**2))
    return C


def _galerkin_dim(p: Potential, count: int) -> int:
    """Default size of the sine and cosine bases for the lowest `count` eigenvalues."""
    return max(DEFAULT_GALERKIN, _turning_index(p, count, math.pi))


def _sine_matrix(p: Potential, count: int, dim: int | None) -> np.ndarray:
    """The Dirichlet operator in the sine basis sqrt(2) sin(pi m x), m = 1..dim."""
    if dim is None:
        dim = _galerkin_dim(p, count)
    C = _cosine_moments(p, 2 * dim)
    # <m| v |m'> = C[|m - m'|] - C[m + m']: Toeplitz minus Hankel, subtracted
    # in place so that only two dim x dim arrays are ever alive
    H = sla.toeplitz(C[:dim])
    H -= sla.hankel(C[2 : dim + 2], C[dim + 1 : 2 * dim + 1])
    H[np.diag_indices(dim)] += (np.pi * np.arange(1, dim + 1)) ** 2
    return H


def _galerkin_solve(H: np.ndarray, p: Potential, count: int, kinetic: float, vectors=True, start=None):
    """Lowest `count` eigenpairs of the sine or cosine Galerkin matrix H of p.

    Returns (values ascending, vectors as columns or None).  `kinetic` is
    pi^2 for the sine basis and 0 for the cosine basis (`_shift`).  A
    matrix of dimension up to GALERKIN_LANCZOS_DIM goes to
    `scipy.linalg.eigh` (values only without `vectors`), as the shallow
    potentials' seed bases (at most 256) always have.  A larger one is
    shifted to H - sigma >= 1 by `_shift`, factored by dense Cholesky in
    place (H is symmetric and C-ordered, so H.T is the same matrix in
    Fortran order and LAPACK needs no copy; H is overwritten), and solved
    by `_lanczos`, from the columns of `start` when given.  A Cholesky that
    fails (a shift not below the spectrum) raises `NoConvergence`.

    Measured cold on the sine matrices of the (2, 0.1, 3) design (2 cores,
    one BLAS thread, the build included), `eigh` against Lanczos: 1.49
    against 1.62 ms at 256, 2.34 against 2.06 ms at 320, 5.5 against
    3.8 ms at 472 and 168 against 38 ms at 1443.  On a 3-mode corpus
    potential Lanczos already wins at 256 (1.27 against 1.47 ms), but eigh
    keeps the shallow seeds as they were.
    """
    dim = H.shape[0]
    if dim <= GALERKIN_LANCZOS_DIM:
        if vectors:
            return sla.eigh(H, subset_by_index=(0, count - 1))
        return sla.eigh(H, eigvals_only=True, subset_by_index=(0, count - 1)), None
    const, a, b = _mode_arrays(p)
    sigma = _shift(_symbol_bounds(a, b), kinetic, const)
    H[np.diag_indices(dim)] -= sigma
    chol, info = sla.lapack.dpotrf(H.T, lower=1, overwrite_a=1)
    if info != 0:
        raise NoConvergence(
            f"Galerkin matrix of dimension {dim}: H - sigma is not positive definite "
            f"(Cholesky stopped at column {info}) for sigma = {sigma:.6g}"
        )
    potrs = sla.lapack.dpotrs
    theta, X = _lanczos(lambda Q: potrs(chol, Q, lower=1)[0], dim, count, start)
    return sigma + 1.0 / theta, X


def galerkin_dirichlet(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Dirichlet eigenvalues on [0, 1] via a sine basis."""
    return _galerkin_solve(_sine_matrix(p, count, dim), p, count, np.pi**2, vectors=False)[0]


def galerkin_dirichlet_vectors(p: Potential, count: int, dim: int | None = None, start=None):
    """(mu, Y): Dirichlet eigenvalues and eigenvectors in the sine basis.

    `start`, the Y of an earlier call at the same `dim` (a nearby
    potential: the last iterate of a fit), seeds the eigensolve.
    """
    return _galerkin_solve(_sine_matrix(p, count, dim), p, count, np.pi**2, start=start)


def _cosine_matrix(p: Potential, count: int, dim: int | None) -> np.ndarray:
    """The Neumann operator in the cosine basis 1, sqrt(2) cos(pi m x), m = 1..dim-1."""
    if dim is None:
        dim = _galerkin_dim(p, count)
    C = _cosine_moments(p, 2 * dim)
    # <m| v |m'> = C[|m - m'|] + C[m + m'], with 1/sqrt(2) for the constant
    H = sla.toeplitz(C[:dim])
    H += sla.hankel(C[:dim], C[dim - 1 : 2 * dim - 1])
    H[0, :] /= np.sqrt(2.0)
    H[:, 0] /= np.sqrt(2.0)
    H[np.diag_indices(dim)] += (np.pi * np.arange(dim)) ** 2
    return H


def galerkin_neumann(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Neumann eigenvalues nu_0.. on [0, 1] via a cosine basis."""
    return _galerkin_solve(_cosine_matrix(p, count, dim), p, count, 0.0, vectors=False)[0]


# --- Rayleigh-Ritz on known eigenvectors ---------------------------------------


def ritz_enclosures(HX: np.ndarray, X: np.ndarray, values: np.ndarray, spread: float, norm: float):
    """Rayleigh-Ritz of a symmetric H on the columns of X, with an enclosure of each eigenvalue.

    X holds orthonormal eigenvectors of a symmetric H0 for its lowest
    eigenvalues `values` (ascending), HX = H X, and H is symmetric of the
    same size with ||H - H0|| <= spread and ||H|| <= norm.  Returns
    (theta, V, radius, angle): the Ritz values theta ascending, the Ritz
    vectors V (columns), a radius such that eigenvalue i of H lies within
    radius[i] of theta[i], and angle[i] >= sin of the angle between V[:, i]
    and eigenvector i of H.

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

    `values` and X come from `_lanczos` where the unperturbed matrix is
    large (the Hill blocks of a deep well, Galerkin matrices above
    GALERKIN_LANCZOS_DIM), not from a dense solver.  The same rounding
    allowance covers them: the error of a value is quadratic in the
    residual r at which Lanczos stopped, r^2 / gap, and that residual is
    small.  On the normalized (2, 0.1, 3) and (3, 0.05, 2) designs (sine
    bases of 416 and 1443) r is at most 260 eps ||H|| and r^2 / gap at
    most 5e-14 eps ||H||, and the values lie within 0.96 eps ||H|| of
    `scipy.linalg.eigh`'s: the rounding of any solver, well inside
    RITZ_ROUNDING.
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


# --- eigenvector read-outs: design Jacobians and sheets ----------------------


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

    mu = y^T H y with H[m, m'] = C[|m - m'|] - C[m + m'] (`_sine_matrix`),
    so d mu / d C[j] = w[j] = 2 rho(j) - sigma(j) for j >= 1, from the
    autocorrelation rho(delta) = sum_m y_m y_{m+delta} and the convolution
    sigma(s) = sum_{m+m'=s} y_m y_{m'} of the coefficient vector (indices m
    start at 1).  cos(2 pi k x) adds 1/2 to C[2k], and sin(2 pi k x) adds
    (4k/pi) / (4k^2 - j^2) to every odd C[j] (`_cosine_moments`): one
    product with that max_mode x (odd j) kernel gives every sine derivative.
    """
    dim = y.size
    rho = np.correlate(y, y, mode="full")[dim - 1 :]  # rho[delta], delta=0..dim-1
    jmax = 2 * dim
    w = np.zeros(jmax + 1)
    w[:dim] += 2.0 * rho
    w[2 : 2 * dim + 1] -= np.convolve(y, y)  # index i -> s = i + 2
    k = np.arange(1, max_mode + 1)
    da = np.where(2 * k <= jmax, 0.5 * w[np.minimum(2 * k, jmax)], 0.0)
    j = np.arange(1, jmax + 1, 2)
    kernel = (4.0 * k[:, None] / np.pi) / (4.0 * k[:, None] ** 2 - j**2)
    return da, kernel @ w[1::2]


def _wall_derivatives(Y: np.ndarray):
    """|psi'(0)| and |psi'(1)| / (sqrt(2) pi) of psi = sum_m y_m sqrt(2) sin(pi m x), per column of Y.

    psi'(0) = sqrt(2) pi sum_m m y_m and psi'(1) = sqrt(2) pi sum_m m (-1)^m y_m.
    """
    m = np.arange(1, Y.shape[0] + 1)
    return np.abs(m @ Y), np.abs((m * (-1.0) ** m) @ Y)


def dirichlet_translation_slopes(Y: np.ndarray) -> np.ndarray:
    """d mu_n / dt under v(x) -> v(x + t), from the sine-Galerkin eigenvectors (columns of Y).

    Hellmann-Feynman gives d mu / dt = int v'(x + t) psi^2, and one
    integration by parts with psi'' = (v - mu) psi turns that into
    psi'(0)^2 - psi'(1)^2 (`_wall_derivatives`).  Written as
    (|psi'(0)| - |psi'(1)|)(|psi'(0)| + |psi'(1)|), its sign is exact.
    """
    d0, d1 = _wall_derivatives(Y)
    return 2.0 * np.pi**2 * (d0 - d1) * (d0 + d1)


def dirichlet_sheets(Y: np.ndarray) -> np.ndarray:
    """Sheets of mu_1 .. mu_N from their sine-Galerkin eigenvectors (columns of Y).

    With phi = psi / psi'(0) the Wronskian at mu_n gives theta(1) phi'(1) = 1,
    so a(mu_n) = (phi'(1)^2 - 1) / (2 phi'(1)), and phi'(1) has sign (-1)^n
    (Sturm: n - 1 interior zeros).  So a(mu_n) has the bound sign (-1)^(n+1)
    exactly when |psi'(1)| < |psi'(0)|, that is, exactly when mu_n rises as
    the potential is translated (`dirichlet_translation_slopes` > 0): +1
    there, -1 otherwise (a tie is -1, as for `bands.sheet_signs` at
    a_sign = 0).
    """
    return np.where(dirichlet_translation_slopes(Y) > 0, 1, -1)
