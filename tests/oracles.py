"""Independent reference computations used only by the tests.

The fixed-step fourth-order integrator below shares no code with the
adaptive engine in the package; it is the oracle the monodromy outputs are
checked against.  The dense Hill block below, over exponentials and turned
into the real cos / sin basis, is the reference for the banded eigensolver.
"""

import numpy as np
import scipy.linalg as sla


def rk4_monodromy(p, lam, nsteps=8192):
    """Fundamental pair + lambda-derivatives at x = 1, classical RK4.

    For piecewise-constant potentials each piece is integrated separately
    (otherwise the stage evaluations straddling a jump degrade the order).
    """
    u = np.zeros(8)
    u[0] = 1.0  # theta(0)
    u[3] = 1.0  # phi'(0)

    if p.piecewise:
        cuts = sorted({(s.lo - p.shift) % 1.0 for s in p.piecewise} | {0.0, 1.0})
        if cuts[-1] < 1.0:
            cuts.append(1.0)
        segments = [
            (a, b, p.evaluate(0.5 * (a + b)))
            for a, b in zip(cuts, cuts[1:])
            if b - a > 1e-15
        ]
    else:
        segments = [(0.0, 1.0, None)]

    for a, b, v_const in segments:
        n = max(8, int(round(nsteps * (b - a))))
        h = (b - a) / n

        def f(x, u):
            w = (v_const if v_const is not None else p.evaluate(x)) - lam
            return np.array(
                [
                    u[1],
                    w * u[0],
                    u[3],
                    w * u[2],
                    u[5],
                    w * u[4] - u[0],
                    u[7],
                    w * u[6] - u[2],
                ]
            )

        x = a
        for _ in range(n):
            k1 = f(x, u)
            k2 = f(x + h / 2, u + h / 2 * k1)
            k3 = f(x + h / 2, u + h / 2 * k2)
            k4 = f(x + h, u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h
    return u


def dense_spectrum_samples(bands, eigenvalues, step):
    """Point samples of a 1D spectrum: band grids plus eigenvalues."""
    pts = []
    for lo, hi in bands:
        if not np.isfinite(hi):
            hi = lo + 3.0
        n = max(2, int(np.ceil((hi - lo) / step)) + 1)
        pts.extend(np.linspace(lo, hi, n))
    pts.extend(eigenvalues)
    return np.asarray(pts)


def dense_hill_matrix(p, offset, modes):
    """The full Hermitian Fourier block, coefficients sampled from v itself.

    H[i, j] = (2 pi (j_i + offset))^2 delta_ij + vhat(j_i - j_j), with vhat
    the exponential Fourier coefficients of v on 4 modes + 2 points: no
    alias of a mode of v reaches an offset |j_i - j_j| <= 2 modes while v has
    fewer than 2 modes + 2 of them, so the sampled coefficients are exact.
    Rows run over j = -modes..modes (offset 0) or -modes..modes-1 (offset 1/2).
    """
    grid = np.arange(4 * modes + 2) / (4 * modes + 2)
    vhat = np.fft.fft(p.evaluate(grid)) / grid.size
    js = np.arange(-modes, modes + 1) if offset == 0.0 else np.arange(-modes, modes)
    H = vhat[np.subtract.outer(js, js) % grid.size]
    H[np.diag_indices_from(H)] += (2.0 * np.pi * (js + offset)) ** 2
    return H


def dense_hill_block(p, offset, modes):
    """Eigenpairs of `dense_hill_matrix`."""
    return sla.eigh(dense_hill_matrix(p, offset, modes))


def real_hill_matrix(p, offset, modes):
    """U^H H U of `dense_hill_matrix`, U the real basis over the exponentials.

    The columns of U are the constant 1 (offset 0 only), then for each
    q = 1 - offset, 2 - offset, .. the pair sqrt(2) cos 2 pi q x =
    (e_q + e_-q) / sqrt(2) and sqrt(2) sin 2 pi q x = -i (e_q - e_-q) / sqrt(2),
    with e_q = exp(2 pi i q x).
    """
    H = dense_hill_matrix(p, offset, modes)
    n = H.shape[0]
    U = np.zeros((n, n), dtype=complex)
    first = 1 if offset == 0.0 else 0
    if first:
        U[modes, 0] = 1.0
    for pair in range(modes):
        plus = modes + pair + first  # row of e_q, q = pair + 1 - offset
        minus = modes - pair - 1  # row of e_-q
        U[[plus, minus], first + 2 * pair] = np.sqrt(0.5)
        U[[plus, minus], first + 2 * pair + 1] = np.array([-1j, 1j]) * np.sqrt(0.5)
    return U.conj().T @ H @ U
