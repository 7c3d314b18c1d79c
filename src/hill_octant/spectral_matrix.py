"""Matrix eigensolvers for the same spectral data the shooting route computes.

These are an independent route: Legendre-Galerkin pencils on [0, 1] in
Shen's bases (Shen, SIAM J. Sci. Comput. 15, 1994), whose coefficients
decay exponentially, for the Dirichlet and Neumann spectra and for the
periodic and anti-periodic eigenvalues (the band edges).  The designer
iterates against this fast forward map; the shooting route in ``bands``
stays the authoritative public implementation, and tests compare the two.

Every pencil is solved by one dense shift-inverted `eigh`
(`_pencil_eigh`).  The periodic and anti-periodic pencils are the
Dirichlet basis bordered by L_0 = 1 or L_1 = t (`_hill_edges`): with the
Dirichlet functions these span the form domains of the two problems,
whose derivative conditions are natural, so no wall condition is imposed
on them.  Every solve sizes its basis by one rule (`_sized_solve`): a
default size that grows with the potential, checked on every eigenvector
the solve returns, and grown by half where a vector's tail exceeds
TAIL_BAR.  An explicit size is solved as given.

The Dirichlet eigenvectors carry exact wall derivatives: the sheet of each
Dirichlet point (`dirichlet_sheets`), so a matrix-route factor spectrum
integrates nothing, and its slope under translation
(`dirichlet_translation_slopes`), along which the deep design solves.  For
a pencil close to one already solved, `ritz_enclosures` projects it onto
the known eigenvectors (Rayleigh-Ritz) and bounds each Ritz value's error
(Kato-Temple), with no new eigensolve.

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
    "dirichlet_vector_gradient",
    "ritz_enclosures",
]

TAIL_BAR = 1e-6  # most the last coefficients of a default-size eigenvector hold, relative to its largest
SYMBOL_GRID = 4096  # points on which the minimum of the potential less its constant is sampled
RITZ_ROUNDING = 16  # rounding allowance of a Ritz value or residual, in units of eps times its scale


def _sized_solve(solve, size: int, rows: int):
    """The result of `solve(size)`, size grown by half until every vector meets TAIL_BAR.

    `solve` returns (result, vector blocks as columns).  A vector meets the
    bar when its last `rows` coefficients are at most TAIL_BAR of its
    largest one; the eigenvalue error is about the square of that ratio.
    """
    while True:
        out, vectors = solve(size)
        if all(np.all(np.abs(X[-rows:]).max(axis=0) <= TAIL_BAR * np.abs(X).max(axis=0)) for X in vectors):
            return out
        size = int(1.5 * size)


def _default_size(p: Potential, count: int) -> int:
    """The first size `_sized_solve` tries for `count` eigenpairs: 16 + 2 count + 6 (sum |a_k| + |b_k|)^(1/4)."""
    return 16 + 2 * count + int(6.0 * (p.sup_norm_bound - abs(p.constant)) ** 0.25)


def _symbol_bounds(a, b):
    """What `_shift` needs of the potential's symbol, for every pencil of one potential.

    f(x) = sum_j vhat_j e^{2 pi i j x} (vhat the exponential coefficients
    of modes -kmax..kmax) is v less its constant, and the Rayleigh quotient
    of the potential part of every pencil is an average of f over psi^2 on
    [0, 1], so it is bounded below by min f.  min f is sampled on
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
    """A shift sigma at least 1 below every eigenvalue of a pencil.

    `symbol` is `_symbol_bounds` of the potential, and `kinetic` a lower
    bound of -d^2 on the basis: pi^2 (Friedrichs) for the Dirichlet basis,
    0 for the Neumann one and for the periodic and anti-periodic pair.
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


def _shen_basis(dim: int, kmax: int, kind: str):
    """The basis of a pencil of `kind` at Gauss-Legendre nodes: (Phi, x, w, s, c, borders).

    Shen's function k is s_k (L_k(t) - c_k L_(k+2)(t)) on t = 2x - 1:
    s_k = 1 / sqrt(4k + 6) and c_k = 1 vanish at both ends ("dirichlet"),
    s_k = 1 and c_k = k (k + 1) / ((k + 2)(k + 3)) have zero slope there
    ("neumann").  "periodic", "antiperiodic" and "hill" put L_0, L_1 or
    both (`borders`, their degrees) before the Dirichlet functions, dim in
    all.  Phi[k, i] is function k at node x_i in [0, 1], where the weights
    w sum to 1.  The nodes integrate two basis functions times modes up to
    kmax exactly but for the Legendre series of cos(pi kmax t) past degree
    pi kmax + 32.
    """
    borders = {"periodic": (0,), "antiperiodic": (1,), "hill": (0, 1)}.get(kind, ())
    dim -= len(borders)
    nodes = dim + 2 + 16 + math.ceil(math.pi * kmax / 2.0)
    t, w, L = (_legendre_table if nodes * (dim + 2) <= 1 << 17 else _legendre_table.__wrapped__)(nodes, dim + 1)
    k = np.arange(dim)
    neumann = kind == "neumann"
    s = np.ones(dim) if neumann else 1.0 / np.sqrt(4.0 * k + 6.0)
    c = k * (k + 1) / ((k + 2.0) * (k + 3.0)) if neumann else np.ones(dim)
    Phi = s[:, None] * (L[:dim] - c[:, None] * L[2:])
    if borders:
        Phi = np.vstack((L[list(borders)], Phi))
    return Phi, 0.5 * (t + 1.0), 0.5 * w, s, c, borders


def _galerkin_pencil(p: Potential, dim: int, kind: str):
    """The pencil (A, M) of -d^2 + v - p.constant on [0, 1] in the basis of `kind` (`_shen_basis`).

    On Shen's functions the stiffness is diagonal, 2 s_k^2 c_k (4k + 6):
    2I for Dirichlet.  M couples k with k and k +- 2 only, from
    int_0^1 L_i L_j dx = delta_ij / (2i + 1).  A border L_j has stiffness
    4j (its slope in x is 2j) and none against the Dirichlet functions,
    which vanish at both walls, and in M it meets only Dirichlet function j,
    by s_j / (2j + 1).  A adds Phi diag(w v) Phi^T, with v from `p.evaluate`
    at the nodes, less the constant.
    """
    const, a, _ = _mode_arrays(p)
    Phi, x, w, s, c, borders = _shen_basis(dim, a.size - 1, kind)
    A = (Phi * (w * (p.evaluate(x) - const))) @ Phi.T
    k = np.arange(s.size)
    i = k + len(borders)
    A[i, i] += 2.0 * s * s * c * (4.0 * k + 6.0)
    M = np.zeros((dim, dim))
    M[i, i] = s * s * (1.0 / (2.0 * k + 1.0) + c * c / (2.0 * k + 5.0))
    M[i[:-2], i[2:]] = M[i[2:], i[:-2]] = -s[:-2] * s[2:] * c[:-2] / (2.0 * k[:-2] + 5.0)
    for row, j in enumerate(borders):
        A[row, row] += 4.0 * j
        M[row, row] = 1.0 / (2.0 * j + 1.0)
        if j < s.size:
            M[row, i[j]] = M[i[j], row] = s[j] / (2.0 * j + 1.0)
    return A, M


def _pencil_eigh(A, M, sigma: float, count: int):
    """Lowest `count` eigenpairs of the pencil (A, M), for a shift sigma below all of them.

    Returns (values ascending, M-orthonormal vectors as columns).  One
    dense `eigh` solves M y = theta (A - sigma M) y for its largest theta:
    lambda = sigma + 1 / theta.  This form stays well conditioned, where
    eigh(A, M) loses digits as the top of the pencil grows like dim^4.  A
    shift not below the spectrum raises `NoConvergence`.  A is overwritten.
    """
    dim = M.shape[0]
    A -= sigma * M
    try:
        theta, Y = sla.eigh(M, A, subset_by_index=(dim - count, dim - 1), overwrite_b=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Galerkin pencil of dimension {dim}: A - sigma M is not positive "
                            f"definite for sigma = {sigma:.6g} ({exc})") from None
    theta, Y = theta[::-1], Y[:, ::-1] / np.sqrt(theta[::-1])  # y^T M y = theta y^T (A - sigma M) y = theta
    return sigma + 1.0 / theta, Y


def _galerkin_solve(p: Potential, count: int, dim: int | None, neumann: bool = False):
    """Lowest `count` eigenpairs of the Dirichlet or Neumann pencil of p (`_pencil_eigh`).

    Returns (values ascending, M-orthonormal coefficient vectors as
    columns), sigma from `_shift`.  The default size `_default_size` is
    checked on the last 8 coefficients (`_sized_solve`).
    """
    const, a, b = _mode_arrays(p)
    sigma = _shift(_symbol_bounds(a, b), 0.0 if neumann else np.pi**2, 0.0)

    def solve(dim):
        values, Y = _pencil_eigh(*_galerkin_pencil(p, dim, "neumann" if neumann else "dirichlet"), sigma, count)
        return (const + values, Y), [Y]

    if dim is not None:
        return solve(dim)[0]
    return _sized_solve(solve, _default_size(p, count), 8)


def galerkin_dirichlet(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Dirichlet eigenvalues on [0, 1] via a Legendre-Galerkin basis."""
    return _galerkin_solve(p, count, dim)[0]


def galerkin_dirichlet_vectors(p: Potential, count: int, dim: int | None = None):
    """(mu, Y): Dirichlet eigenvalues and their M-orthonormal coefficient vectors (columns)."""
    return _galerkin_solve(p, count, dim)


def galerkin_neumann(p: Potential, count: int, dim: int | None = None) -> np.ndarray:
    """First `count` Neumann eigenvalues nu_0.. on [0, 1] via a Legendre-Galerkin basis."""
    return _galerkin_solve(p, count, dim, neumann=True)[0]


def _block_edges(values, n_gaps: int):
    """(lambda0, gap_lo, gap_hi, next_band_end) from the ascending eigenvalues of each Hill pencil.

    `values` maps "periodic" and "antiperiodic" to the pencil's lowest
    n_gaps + 1 eigenvalues.  The periodic pencil carries the even-index
    edges, the anti-periodic one the odd-index ones; the edges of gap m are
    eigenvalues m - 1 and m of the pencil of m's parity.  Arrays whose rows
    follow the eigenvalues (the edge gradients) map the same way.
    """
    def block(m):
        return values["antiperiodic" if m % 2 else "periodic"]

    lo = np.array([block(m)[m - 1] for m in range(1, n_gaps + 1)])
    hi = np.array([block(m)[m] for m in range(1, n_gaps + 1)])
    return values["periodic"][0], lo, hi, block(n_gaps + 1)[n_gaps]


def _hill_edges(p: Potential, n_gaps: int, modes: int | None):
    """What hill_edges_and_vectors returns, from one solve of each Hill pencil.

    The periodic eigenfunctions on [0, 1] lie in H^1_0 plus the constants,
    the anti-periodic ones in H^1_0 plus t = 2x - 1, and y' takes the same
    (opposite) value at both walls as the natural condition of that form.
    So the Dirichlet basis bordered by L_0 or L_1 gives them
    (`_galerkin_pencil`): both pencils are principal submatrices of one
    "hill" pencil, one potential quadrature, and one shift serves the pair,
    as -d^2 is at least 0 on each.  `modes` is the dimension of each
    pencil; the default `_default_size` for n_gaps + 1 eigenpairs is
    checked on the last 8 coefficients of every vector (`_sized_solve`).
    Both public entry points call this helper rather than each other, so
    a wrapper around either name (the perfbench tracer) sees only its own
    callers.
    """
    if modes is not None and modes < n_gaps + 1:
        raise ValueError(f"modes={modes} is too few for {n_gaps} gaps: need at least {n_gaps + 1}")
    const, a, b = _mode_arrays(p)
    sigma = _shift(_symbol_bounds(a, b), 0.0, 0.0)

    def solve(dim):
        A, M = _galerkin_pencil(p, dim + 1, "hill")
        blocks = {}
        for border, kind in enumerate(("periodic", "antiperiodic")):
            i = np.r_[border, 2 : dim + 1]
            values, Y = _pencil_eigh(A[np.ix_(i, i)], M[np.ix_(i, i)], sigma, n_gaps + 1)
            blocks[kind] = (const + values, Y)
        return blocks, [Y for _, Y in blocks.values()]

    blocks = solve(modes)[0] if modes is not None else _sized_solve(solve, _default_size(p, n_gaps + 1), 8)
    return (*_block_edges({kind: values for kind, (values, _) in blocks.items()}, n_gaps), blocks)


def hill_band_edges(p: Potential, n_gaps: int, modes: int | None = None):
    """Band edges from the periodic and anti-periodic Legendre-Galerkin pencils.

    Returns (lambda0, gap_lo, gap_hi, next_band_end) for gaps 1..n_gaps:
    the periodic pencil carries the even-index edges, the anti-periodic one
    the odd-index ones.  `modes` is the dimension of each pencil.
    """
    return _hill_edges(p, n_gaps, modes)[:4]


def hill_edges_and_vectors(p: Potential, n_gaps: int, modes: int | None = None):
    """Band edges as in hill_band_edges, plus the edge eigenvectors.

    Returns (lambda0, gap_lo, gap_hi, next_band_end, blocks), where
    blocks["periodic"] and blocks["antiperiodic"] = (values, Y) hold each
    pencil's lowest n_gaps + 1 eigenvalues and their M-orthonormal
    coefficient vectors (columns): on L_0 or L_1 first, then on the
    Dirichlet functions of `_shen_basis`.
    """
    return _hill_edges(p, n_gaps, modes)


# --- Rayleigh-Ritz on known eigenvectors ---------------------------------------


def ritz_enclosures(HX: np.ndarray, X: np.ndarray, values: np.ndarray, spread: float, norm: float):
    """Rayleigh-Ritz of a symmetric H on the columns of X, with an enclosure of each eigenvalue.

    X holds orthonormal eigenvectors of a symmetric H0 for its lowest
    eigenvalues `values` (ascending), HX = H X, and H is symmetric of the
    same size with ||H - H0|| <= spread.  `norm` scales the rounding of the
    products H x: for a pencil, the size of its products on the vectors
    themselves (`_pencil_ritz`).
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

    `values` and X come from a dense `eigh` of a pencil in its standard
    form (`_pencil_ritz`).
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


def _pencil_ritz(q: Potential, Y: np.ndarray, values: np.ndarray, spread: float, kind: str = "dirichlet"):
    """`ritz_enclosures` for q's pencil of `kind` on the eigenpairs (values, Y) of a potential within spread.

    The step runs on the standard form L^-1 A L^-T (L L^T = M), HX = L^-1 A Y
    on X = L^T Y.  Its norm grows like dim^4 (6.2e8 on the Dirichlet pencil
    of (3, 0.05, 2)), but Y's coefficients decay, so the rounding scale is
    the largest |y|^T |A| |y| (1.0e8).  Returns (theta, Ritz vectors,
    radius, readout): for the Dirichlet pencil readout is the most
    |psi'(0)| or |psi'(1)| of each may be off, for the others None.
    """
    A, M = _galerkin_pencil(q, Y.shape[0], kind)
    A += q.constant * M
    L = sla.cholesky(M, lower=True)
    norm = float(np.max(np.sum(np.abs(Y) * (np.abs(A) @ np.abs(Y)), axis=0)))
    HX = sla.solve_triangular(L, A @ Y, lower=True)
    theta, V, radius, angle = ritz_enclosures(HX, L.T @ Y, values, spread, norm)
    ritz_Y = sla.solve_triangular(L, V, lower=True, trans="T")
    if kind != "dirichlet":
        return theta, ritz_Y, radius, None
    # r . y = (L^-1 r) . x moves by at most ||L^-1 r|| sqrt(2) sin(angle); one norm
    # serves both walls, as M does not couple odd k (where they differ) to even k
    r = sla.solve_triangular(L, _wall_functionals(Y.shape[0])[1], lower=True)
    return theta, ritz_Y, radius, math.sqrt(2.0) * float(np.linalg.norm(r)) * angle


# --- eigenvector read-outs: design Jacobians and sheets ----------------------


def _vector_gradient(Y: np.ndarray, max_mode: int, kind: str):
    """d lambda / d (cos_k, sin_k), k = 1..max_mode, for eigenvectors (columns of Y) of a pencil of `kind`.

    Hellmann-Feynman: int_0^1 cos(2 pi k x) psi^2 and int_0^1 sin(2 pi k x)
    psi^2 for psi normalized in L^2 (y^T M y = 1), as one product at the
    nodes of `_shen_basis` with e^(2 pi i k x), k = 1..max_mode, formed as
    powers of e^(2 pi i x).  Returns (da, db), each (columns of Y, max_mode).
    """
    Phi, x, w, *_ = _shen_basis(Y.shape[0], max_mode, kind)
    waves = np.cumprod(np.repeat(np.exp(2j * np.pi * x)[:, None], max_mode, axis=1), axis=1)
    moments = (w * (Y.T @ Phi) ** 2) @ waves
    return moments.real, moments.imag


def dirichlet_vector_gradient(Y: np.ndarray, max_mode: int):
    """d mu / d (cos_k, sin_k), k = 1..max_mode, for Dirichlet eigenvectors (columns of Y): `_vector_gradient`."""
    return _vector_gradient(Y, max_mode, "dirichlet")


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
