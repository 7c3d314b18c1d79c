"""Hill and Galerkin pencils against dense eigensolvers of the full matrices."""

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.polynomial import legendre

from hill_octant import bands, monodromy as mo, spectral_matrix as sm
from hill_octant.cluster import _add_potentials
from hill_octant.errors import NoConvergence
from hill_octant.potential import fourier_potential, translate, zero_potential

from conftest import random_corpus, reflect
from oracles import dense_hill_block, dense_hill_edges, dense_hill_matrix

MODES = 24
N_GAPS = 4

EVEN = fourier_potential([(1, 4.0, 0.0), (3, -2.0, 0.0)])
POTENTIALS = {
    "asym": fourier_potential([(1, 2.0, 1.5), (2, -1.0, 0.7)]),
    "zero": zero_potential(),
    "cos4pi": fourier_potential([(2, 3.0, 0.0)]),  # odd gaps closed
    "even": EVEN,
    "translated": translate(EVEN, 0.17),
}


def legendre_series(y, kind):
    """Legendre coefficients of the function with coefficients y in the basis of a `kind` pencil."""
    border = {"periodic": (0,), "antiperiodic": (1,)}.get(kind, ())
    inner = y[len(border):]
    k = np.arange(inner.size)
    s = 1.0 / np.sqrt(4.0 * k + 6.0)
    c = np.zeros(inner.size + 2)
    c[list(border)] = y[: len(border)]
    c[:-2] += s * inner
    c[2:] -= s * inner
    return c


def exponential_vector(y, kind, modes):
    """A pencil eigenvector over the exponentials of `dense_hill_matrix`: its coefficients on
    exp(2 pi i (j + offset) x), j = -modes..modes (periodic) or -modes..modes-1 (anti-periodic)."""
    offset = 0.0 if kind == "periodic" else 0.5
    js = np.arange(-modes, modes + 1) if offset == 0.0 else np.arange(-modes, modes)
    x = np.arange(8 * modes) / (8 * modes)
    psi = legendre.legval(2.0 * x - 1.0, legendre_series(y, kind))
    return np.exp(-2j * np.pi * np.outer(js + offset, x)) @ psi / x.size


def edge_pairs(p, n_gaps=N_GAPS, modes=MODES):
    """(lambda, u, reference values, reference vectors) for every pencil eigenpair, u over exponentials."""
    blocks = sm.hill_edges_and_vectors(p, n_gaps)[4]
    out = []
    for kind, offset in (("periodic", 0.0), ("antiperiodic", 0.5)):
        w, v = dense_hill_block(p, offset, modes)
        values, Y = blocks[kind]
        out += [(lam, exponential_vector(y, kind, modes), w, v) for lam, y in zip(values, Y.T)]
    return out


def assert_edges_match_dense_eigh(p):
    got = np.hstack(sm.hill_band_edges(p, N_GAPS))
    want = np.hstack(dense_hill_edges(p, N_GAPS, MODES))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-11)


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hill_edges_match_dense_eigh(name):
    # the pencils at their default sizes against the dense Fourier blocks
    assert_edges_match_dense_eigh(POTENTIALS[name])


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hill_eigenvectors_span_dense_eigenspaces(name):
    # double eigenvalues (zero potential, closed gaps) have no unique
    # eigenvector: each pencil eigenfunction, over exponentials, must lie
    # in the reference eigenspace
    for lam, u, w, v in edge_pairs(POTENTIALS[name]):
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        space = v[:, np.abs(w - lam) <= 1e-9 * max(1.0, abs(lam))]
        assert 1 <= space.shape[1] <= 2
        assert np.linalg.norm(space.conj().T @ u) == pytest.approx(1.0, abs=1e-12)


def test_simple_eigenvector_overlap():
    for lam, u, w, v in edge_pairs(POTENTIALS["asym"]):
        i = int(np.argmin(np.abs(w - lam)))
        assert abs(np.vdot(v[:, i], u)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["asym", "translated"])
def test_real_blocks_match_the_rotated_exponential_blocks(name):
    # the real pencil eigenpairs, rotated to exponentials, satisfy the dense
    # Fourier block: each eigenfunction errs by about its tail, so the
    # residual lies within TAIL_BAR of max(1, |lambda|) (4.7e-8 seen)
    p = POTENTIALS[name]
    for kind, offset in (("periodic", 0.0), ("antiperiodic", 0.5)):
        H = dense_hill_matrix(p, offset, MODES)
        values, Y = sm.hill_edges_and_vectors(p, N_GAPS)[4][kind]
        for lam, y in zip(values, Y.T):
            u = exponential_vector(y, kind, MODES)
            assert np.linalg.norm(H @ u - lam * u) <= sm.TAIL_BAR * max(1.0, abs(lam))


def pencil_by_quadrature(p, dim, kind):
    """(A, M) of `kind` from the basis functions as Legendre series, by 400-point Gauss-Legendre quadrature."""
    t, w = legendre.leggauss(400)
    x, w = 0.5 * (t + 1.0), 0.5 * w
    identity = np.eye(dim)
    series = [legendre_series(identity[i], kind) for i in range(dim)]
    f = np.array([legendre.legval(t, c) for c in series])
    df = np.array([2.0 * legendre.legval(t, legendre.legder(c)) for c in series])  # d/dx = 2 d/dt
    A = (df * w) @ df.T + (f * (w * (p.evaluate(x) - p.constant))) @ f.T
    return A, (f * w) @ f.T


@pytest.mark.parametrize("kind", ["dirichlet", "periodic", "antiperiodic"])
def test_pencils_match_a_quadrature_reference(kind):
    # the analytic stiffness and mass and the border couplings, against
    # plain quadrature of the basis functions and their derivatives, whose
    # Legendre series round by up to 2.2e-12 (A) and 1.8e-14 (M)
    p = POTENTIALS["translated"]
    A, M = sm._galerkin_pencil(p, 20, kind)
    want_A, want_M = pencil_by_quadrature(p, 20, kind)
    assert np.abs(A - want_A).max() <= 1e-11
    assert np.abs(M - want_M).max() <= 1e-13


def test_hill_pencils_are_principal_submatrices_of_the_bordered_pair():
    # one quadrature for both pencils: the "hill" pencil holds L_0, L_1, then
    # the Dirichlet functions, and each single pencil drops one border
    p = POTENTIALS["asym"]
    A, M = sm._galerkin_pencil(p, 21, "hill")
    for border, kind in enumerate(("periodic", "antiperiodic")):
        i = np.r_[border, 2:21]
        A_k, M_k = sm._galerkin_pencil(p, 20, kind)
        assert np.allclose(A[np.ix_(i, i)], A_k, rtol=0, atol=1e-13) and np.array_equal(M[np.ix_(i, i)], M_k)


def test_every_block_is_solved_in_real_arithmetic(monkeypatch):
    # with and without sine terms, both pencils reach the eigensolver real
    solve, dims = sm._pencil_eigh, []

    def real_only(A, M, sigma, count):
        assert np.isrealobj(A) and np.isrealobj(M)
        dims.append(M.shape[0])
        return solve(A, M, sigma, count)

    monkeypatch.setattr(sm, "_pencil_eigh", real_only)
    for name in ("even", "translated"):
        dims.clear()
        sm.hill_band_edges(POTENTIALS[name], N_GAPS, modes=MODES)
        assert dims == [MODES, MODES]  # the periodic and the anti-periodic pencil


def gathered_galerkin_matrices(p, dim):
    """Sine and cosine Galerkin matrices by a loop over modes and index gathers.

    In the bases sqrt(2) sin(pi m x), m = 1..dim, and 1, sqrt(2) cos(pi m x),
    m = 1..dim-1, the potential parts are C[|m - m'|] -+ C[m + m'] from the
    cosine moments C[j] = int_0^1 v cos(pi j x): an independent dense
    reference, which converges only algebraically, and whose eigh rounds by
    eps ||H|| with ||H|| near (pi dim)^2.
    """
    const, ks, a, b = p.effective_fourier()
    j = np.arange(2 * dim + 1)
    C = np.zeros(2 * dim + 1)
    C[0] = const
    for k, ak, bk in zip(ks, a, b):
        if 2 * k <= 2 * dim:
            C[2 * k] += 0.5 * ak
        odd = j % 2 == 1
        C[odd] += bk * (4.0 * k / np.pi) / (4.0 * k**2 - j[odd] ** 2)
    m = np.arange(1, dim + 1)
    sine = C[np.abs(m[:, None] - m[None, :])] - C[m[:, None] + m[None, :]]
    sine[m - 1, m - 1] += (np.pi * m) ** 2
    m = np.arange(dim)
    cosine = C[np.abs(m[:, None] - m[None, :])] + C[m[:, None] + m[None, :]]
    cosine[0, :] /= np.sqrt(2.0)
    cosine[:, 0] /= np.sqrt(2.0)
    cosine[m, m] += (np.pi * m) ** 2
    return C, sine, cosine


@pytest.mark.parametrize("name", ["asym", "translated", "deep"])
def test_galerkin_matrices_match_the_gathered_reference(name, deep_n2_d3):
    # the Legendre pencils at their default sizes against dense sine and
    # cosine matrices of 1024 (1800 on the deep design) functions: within
    # 16 eps ||H|| of that reference, the rounding of its own eigh
    p, dim = (POTENTIALS[name], 1024) if name != "deep" else (deep_n2_d3[0][0], 1800)
    _, sine, cosine = gathered_galerkin_matrices(p, dim)
    bound = 16 * np.finfo(float).eps * ((np.pi * dim) ** 2 + 2.0 * p.sup_norm_bound)
    want_mu = sla.eigh(sine, eigvals_only=True, subset_by_index=(0, 4))
    want_nu = sla.eigh(cosine, eigvals_only=True, subset_by_index=(0, 5))
    assert np.all(np.abs(sm.galerkin_dirichlet(p, 5) - want_mu) <= bound)
    assert np.all(np.abs(sm.galerkin_neumann(p, 6) - want_nu) <= bound)


def test_edge_vector_gradient_matches_finite_difference():
    # the design's edge gradients: Hellmann-Feynman on each pencil's
    # eigenvectors, mapped to the edges as the eigenvalues are
    terms = [(1, 2.0, 1.5), (2, -1.0, 0.7), (3, 0.0, 0.0)]
    blocks = sm.hill_edges_and_vectors(fourier_potential(terms), 3)[4]
    dim = blocks["periodic"][1].shape[0]
    grads = {kind: sm._vector_gradient(Y, 3, kind) for kind, (_, Y) in blocks.items()}
    _, da_lo, da_hi, _ = sm._block_edges({kind: da for kind, (da, _) in grads.items()}, 3)
    _, db_lo, db_hi, _ = sm._block_edges({kind: db for kind, (_, db) in grads.items()}, 3)
    h = 1e-4

    def edges(k, da, db):
        bumped = [(kk, a + da * (kk == k), b + db * (kk == k)) for kk, a, b in terms]
        _, glo, ghi, _ = sm.hill_band_edges(fourier_potential(bumped), 3, modes=dim)
        return np.concatenate((glo, ghi))

    for k in (1, 2, 3):
        fd_cos = (edges(k, h, 0.0) - edges(k, -h, 0.0)) / (2 * h)
        fd_sin = (edges(k, 0.0, h) - edges(k, 0.0, -h)) / (2 * h)
        assert np.allclose(np.concatenate((da_lo, da_hi))[:, k - 1], fd_cos, rtol=0, atol=1e-6)
        assert np.allclose(np.concatenate((db_lo, db_hi))[:, k - 1], fd_sin, rtol=0, atol=1e-6)


def test_dirichlet_vector_gradient_matches_finite_difference():
    terms = [(1, 2.0, 1.5), (2, -1.0, 0.7), (3, 0.0, 0.0)]
    h = 1e-4
    _, Y = sm.galerkin_dirichlet_vectors(fourier_potential(terms), 3)
    da, db = sm.dirichlet_vector_gradient(Y, 3)

    def mu(k, da, db):
        bumped = [(kk, a + da * (kk == k), b + db * (kk == k)) for kk, a, b in terms]
        return sm.galerkin_dirichlet(fourier_potential(bumped), 3, dim=Y.shape[0])

    for k in (1, 2, 3):
        fd_cos = (mu(k, h, 0.0) - mu(k, -h, 0.0)) / (2 * h)
        fd_sin = (mu(k, 0.0, h) - mu(k, 0.0, -h)) / (2 * h)
        assert np.allclose(da[:, k - 1], fd_cos, rtol=0, atol=1e-6)
        assert np.allclose(db[:, k - 1], fd_sin, rtol=0, atol=1e-6)


def test_repeated_calls_are_bit_identical():
    p = POTENTIALS["translated"]
    first = sm.hill_edges_and_vectors(p, N_GAPS)
    second = sm.hill_edges_and_vectors(p, N_GAPS)
    for a, b in zip(first[:4], second[:4]):
        assert np.array_equal(a, b)
    assert first[4].keys() == second[4].keys()
    for kind in first[4]:
        assert np.array_equal(first[4][kind][1], second[4][kind][1])


def test_only_small_legendre_tables_are_kept(asym_potential):
    # a table past 2^17 entries (1 MB) serves its call and is dropped; the
    # same sizes give the same bits either way
    sm._legendre_table.cache_clear()
    big = sm.galerkin_dirichlet(asym_potential, 3, dim=400)
    assert sm._legendre_table.cache_info().currsize == 0
    assert np.array_equal(sm.galerkin_dirichlet(asym_potential, 3, dim=400), big)
    small = sm.galerkin_dirichlet(asym_potential, 3)
    assert sm._legendre_table.cache_info().currsize == 1
    assert np.array_equal(sm.galerkin_dirichlet(asym_potential, 3), small)


def test_values_only_edges_match_the_vector_solve_bit_for_bit():
    # both entry points make the same solve; the edge seeds of `bands`
    # cannot move by a bit
    for p in random_corpus(100, seed=777):
        values_only = sm.hill_band_edges(p, 6)
        with_vectors = sm.hill_edges_and_vectors(p, 6)[:4]
        for a, b in zip(values_only, with_vectors, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n_gaps, modes", [(1, 0), (2, 1), (4, 2)])
def test_too_few_modes_rejected(n_gaps, modes):
    with pytest.raises(ValueError):
        sm.hill_band_edges(POTENTIALS["asym"], n_gaps, modes=modes)


def test_fewest_modes_accepted():
    # pencils of n_gaps + 1 functions hold exactly n_gaps + 1 eigenvalues
    lam0, glo, ghi, nbe = sm.hill_band_edges(POTENTIALS["asym"], 3, modes=4)
    assert lam0 < glo[0] < ghi[0] < glo[1] < ghi[1] < glo[2] < ghi[2] <= nbe


SHIFT_CASES = {
    "asym": POTENTIALS["asym"],
    "mathieu": fourier_potential([(1, 2.0, 0.0)]),
    "zero": zero_potential(),
    **{f"corpus{i}": q for i, q in enumerate(random_corpus(4, seed=31, amplitude=40.0))},
}


@pytest.mark.parametrize("name", sorted(SHIFT_CASES))
def test_shift_lies_below_both_blocks(name, monkeypatch):
    # one shift for the periodic and the anti-periodic pencil, below the
    # lowest eigenvalue of each dense Fourier block
    p, shift, seen = SHIFT_CASES[name], sm._shift, []
    monkeypatch.setattr(sm, "_shift", lambda *args: seen.append(shift(*args)) or seen[-1])
    sm.hill_band_edges(p, N_GAPS)
    (sigma,) = seen
    assert p.constant + sigma < dense_hill_block(p, 0.0, MODES)[0][0]
    assert p.constant + sigma < dense_hill_block(p, 0.5, MODES)[0][0]


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_translation_slopes_match_central_differences(asym_potential, t):
    # d mu / dt of v(x + t) read off the eigenvectors at the walls, against
    # the Galerkin mu itself; a state is bound exactly where mu rises
    dim, h = 512, 1e-4
    _, Y = sm.galerkin_dirichlet_vectors(translate(asym_potential, t), 4, dim=dim)
    slopes = sm.dirichlet_translation_slopes(Y)
    mu_plus, mu_minus = (sm.galerkin_dirichlet(translate(asym_potential, t + s), 4, dim=dim) for s in (h, -h))
    fd = (mu_plus - mu_minus) / (2.0 * h)
    assert np.all(np.abs(slopes - fd) <= 1e-3 * np.abs(fd))
    assert list(np.sign(slopes)) == list(np.sign(fd)) == list(sm.dirichlet_sheets(Y))


def sheets_by_both_routes(p, N):
    """Eigenvector sheets, shooting sheets at the same mu, and
    log10(|psi'(1)| / |psi'(0)|) per state."""
    mu, Y = sm.galerkin_dirichlet_vectors(p, N)
    d0, d1 = sm._wall_derivatives(Y)
    return sm.dirichlet_sheets(Y), bands.sheet_signs(mo.integrate_batch(p, mu)), np.log10(d1 / d0)


def test_dirichlet_sheets_match_shooting_on_shallow_potentials(asym_potential):
    cases = [(p, 6) for p in random_corpus(100, seed=777)] + [(asym_potential, 5)]
    for p, N in cases:
        matrix, shooting, _ = sheets_by_both_routes(p, N)
        assert list(matrix) == list(shooting)


def test_dirichlet_sheets_match_shooting_in_a_deep_well(deep_n2_d3):
    # the designed states are bound, their mirror images anti-bound, and an
    # eps = kappa^3 perturbation keeps them bound; all far from the tie
    p = deep_n2_d3[0][0]
    rng = np.random.default_rng(5)
    perturbed = []
    for _ in range(2):
        c = rng.uniform(-1.0, 1.0, 6)
        c /= max(1.0, np.sum(np.abs(c)))  # sup|w| <= 1
        w = fourier_potential([(k + 1, c[2 * k], c[2 * k + 1]) for k in range(3)])
        perturbed.append(_add_potentials(p, w, 0.1**3))
    for q, sheet in [(p, 1), (reflect(p), -1)] + [(q, 1) for q in perturbed]:
        matrix, shooting, log_ratio = sheets_by_both_routes(q, 2)
        assert list(matrix) == list(shooting) == [sheet, sheet]
        assert np.all(np.abs(log_ratio) >= 3)


def test_ritz_enclosures_hold_for_a_perturbed_matrix():
    # H = H0 + E with ||E|| = spread: Kato-Temple radii of order spread^2
    # for the two lowest values, a Weinstein radius for the highest computed
    # one, and Davis-Kahan angles that bound the true ones
    rng = np.random.default_rng(4)
    Q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    values, spread = np.arange(1.0, 9.0), 0.05
    E = rng.standard_normal((8, 8))
    E = (E + E.T) * (spread / np.linalg.norm(E + E.T, 2))
    H = (Q * values) @ Q.T + E
    X = Q[:, :3]
    theta, V, radius, angle = sm.ritz_enclosures(H @ X, X, values[:3], spread, np.abs(H).sum(axis=1).max())
    lam, U = np.linalg.eigh(H)
    assert np.all(np.abs(theta - lam[:3]) <= radius)
    assert np.all(radius[:2] <= spread**2)
    assert radius[2] == pytest.approx(np.linalg.norm(H @ V[:, 2] - theta[2] * V[:, 2]), rel=1e-6)
    sines = np.sqrt(np.maximum(0.0, 1.0 - np.sum(U[:, :2] * V[:, :2], axis=0) ** 2))
    assert np.all(sines <= angle[:2]) and np.isinf(angle[2])
    # neighbours closer than 2 spread: the Weyl bounds cannot tell them apart
    values[1] = 1.0 + spread
    H = (Q * values) @ Q.T + E
    _, _, radius, angle = sm.ritz_enclosures(H @ X, X, values[:3], spread, np.abs(H).sum(axis=1).max())
    assert np.all(np.isinf(radius[:2])) and np.all(np.isinf(angle[:2]))


# --- the Legendre-Galerkin pencils: sizes, conditioning, failures --------------

CORPUS_POTENTIAL = random_corpus(1, seed=777)[0]


def tail_ratio(Y):
    """Largest of each vector's last 8 coefficients, relative to its largest one."""
    return np.abs(Y[-8:]).max(axis=0) / np.abs(Y).max(axis=0)


def solves_at_default_sizes(p, count, monkeypatch):
    """Dirichlet and Neumann vectors at the default sizes, and the dimensions of every pencil built."""
    dims, build = [], sm._galerkin_pencil

    def recorded(q, dim, *args):
        dims.append(dim)
        return build(q, dim, *args)

    monkeypatch.setattr(sm, "_galerkin_pencil", recorded)
    Y = sm._galerkin_solve(p, count, None)[1]
    Z = sm._galerkin_solve(p, count + 1, None, neumann=True)[1]
    return Y, Z, dims


TAIL_CASES = {
    "corpus N=6": (random_corpus(100, seed=777), 6),
    "corpus N=12": (random_corpus(100, seed=777), 12),
    "asym": ([POTENTIALS["asym"]], 5),
    "mathieu": ([fourier_potential([(1, 2.0, 0.0)])], 10),
    "amplitude 40": (random_corpus(4, seed=31, amplitude=40.0), 6),
}


@pytest.mark.parametrize("case", sorted(TAIL_CASES) + ["bound state", "design (2, 0.1, 3)", "design (3, 0.05, 2)"])
def test_default_sizes_meet_the_tail_bar(case, bound_state_potential, deep_n2_d3, criterion5_design, monkeypatch):
    # the first size the rule picks is the last: one pencil per solve, and
    # every returned vector's tail below TAIL_BAR
    potentials, count = TAIL_CASES.get(case, (None, None))
    if case == "bound state":
        potentials, count = [bound_state_potential], 2
    elif case.startswith("design"):
        (p, _, bs, _), *_ = deep_n2_d3 if "(2" in case else criterion5_design
        potentials, count = [p], bs.n_gaps
    for p in potentials:
        Y, Z, dims = solves_at_default_sizes(p, count, monkeypatch)
        assert dims == [Y.shape[0], Z.shape[0]]
        assert np.all(tail_ratio(Y) <= sm.TAIL_BAR) and np.all(tail_ratio(Z) <= sm.TAIL_BAR)


def test_basis_grows_by_half_until_the_tail_meets_the_bar(monkeypatch):
    # under a stricter bar the asym solve grows its basis 1.5x at a time,
    # and ends where the bar holds, at the same eigenvalues
    p = POTENTIALS["asym"]
    want_mu, want_nu = sm.galerkin_dirichlet(p, 5), sm.galerkin_neumann(p, 6)
    monkeypatch.setattr(sm, "TAIL_BAR", 1e-15)
    Y, Z, dims = solves_at_default_sizes(p, 5, monkeypatch)
    mu_dims, nu_dims = dims[: dims.index(Y.shape[0]) + 1], dims[dims.index(Y.shape[0]) + 1 :]
    for grown in (mu_dims, nu_dims):
        assert len(grown) >= 2 and grown[1:] == [int(1.5 * d) for d in grown[:-1]]
    assert np.all(tail_ratio(Y) <= 1e-15) and np.all(tail_ratio(Z) <= 1e-15)
    assert np.allclose(sm.galerkin_dirichlet(p, 5), want_mu, rtol=1e-13, atol=0)
    assert np.allclose(sm.galerkin_neumann(p, 6), want_nu, rtol=1e-13, atol=0)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
@pytest.mark.parametrize("name", ["corpus", "deep"])
def test_large_bases_keep_the_digits_of_the_default_size(name, kind, deep_n2_d3):
    # an explicit dim is solved as given, and the shift-inverted form stays
    # well conditioned as it grows: a generalized eigh(A, M) lost 6e-7 at
    # 500 on the deep design, where the top of the pencil is near 1e10
    p = CORPUS_POTENTIAL if name == "corpus" else deep_n2_d3[0][0]
    solve = sm.galerkin_dirichlet if kind == "dirichlet" else sm.galerkin_neumann
    want = solve(p, 4)
    for dim in (320, 600):
        got = solve(p, 4, dim=dim)
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_indefinite_shift_raises_no_convergence(kind, monkeypatch):
    # a shift above the lowest eigenvalue: A - sigma M has no Cholesky factor
    monkeypatch.setattr(sm, "_shift", lambda *args: 1e4)
    solve = sm.galerkin_dirichlet if kind == "dirichlet" else sm.galerkin_neumann
    with pytest.raises(NoConvergence, match="not positive definite"):
        solve(CORPUS_POTENTIAL, 3)


# --- the Hill pencils: the size rule and the dense Fourier reference ----------


def default_hill_solve(p, count, monkeypatch):
    """`_hill_edges` at the default size, and the dimension of every bordered pencil built, in order."""
    dims, build = [], sm._galerkin_pencil

    def recorded(q, dim, kind):
        dims.append(dim - 1)  # the "hill" pencil holds both borders: each pencil is one smaller
        return build(q, dim, kind)

    monkeypatch.setattr(sm, "_galerkin_pencil", recorded)
    out = sm._hill_edges(p, count, None)
    monkeypatch.setattr(sm, "_galerkin_pencil", build)
    return out, dims


@pytest.mark.parametrize("case", sorted(TAIL_CASES) + ["bound state", "design (2, 0.1, 3)", "design (3, 0.05, 2)"])
def test_default_hill_sizes_meet_the_tail_bar(case, bound_state_potential, deep_n2_d3, criterion5_design, monkeypatch):
    # the first size the rule picks is the last: one bordered pencil per
    # solve, every returned vector's tail below TAIL_BAR, and every edge
    # within 1e-12 of the top edge from the pencils at twice the size, or
    # on the designs within the Legendre rounding of
    # `test_large_bases_keep_the_digits_of_the_default_size`, 1e-11 (a
    # normalized design's lambda_0 is 0 to the rounding of its constant)
    potentials, count = TAIL_CASES.get(case, (None, None))
    if case == "bound state":
        potentials, count = [bound_state_potential], 2
    elif case.startswith("design"):
        (p, _, bs, _), *_ = deep_n2_d3 if "(2" in case else criterion5_design
        potentials, count = [p], bs.n_gaps
    bar = 1e-11 if case.startswith("design") else 1e-12
    for p in potentials:
        (*edges, blocks), dims = default_hill_solve(p, count, monkeypatch)
        assert dims == [blocks["periodic"][1].shape[0]]
        assert np.all(np.hstack([tail_ratio(Y) for _, Y in blocks.values()]) <= sm.TAIL_BAR)
        got, want = (np.hstack(e) for e in (edges, sm.hill_band_edges(p, count, modes=2 * dims[0])))
        assert np.all(np.abs(got - want) <= bar * np.abs(want).max())


def test_hill_basis_grows_by_half_until_the_tail_meets_the_bar(bound_state_potential, monkeypatch):
    # under a stricter bar the bound-state potential's pencils grow 1.5x at
    # a time, and end where the bar holds, at the same edges
    p = bound_state_potential
    want = np.hstack(sm.hill_band_edges(p, 2))
    monkeypatch.setattr(sm, "TAIL_BAR", 1e-15)
    (*edges, blocks), dims = default_hill_solve(p, 2, monkeypatch)
    assert len(dims) >= 2 and dims[1:] == [int(1.5 * d) for d in dims[:-1]]
    assert np.all(np.hstack([tail_ratio(Y) for _, Y in blocks.values()]) <= 1e-15)
    assert np.allclose(np.hstack(edges), want, rtol=1e-13, atol=0)


DENSE_CASES = {
    "corpus": ([(p, 6) for p in random_corpus(100, seed=777)], 32),
    "asym": ([(POTENTIALS["asym"], 5)], 28),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES) + ["bound state"])
def test_default_hill_edges_match_the_dense_fourier_reference(case, bound_state_potential):
    # within 1e-12 relative of the dense Fourier blocks at about the modes
    # the Fourier route used to take by default (32 or 33 on the corpus)
    cases, modes = DENSE_CASES.get(case, ([(bound_state_potential, 2)], 17))
    for p, n in cases:
        got, want = (np.hstack(e) for e in (sm.hill_band_edges(p, n), dense_hill_edges(p, n, modes)))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_real_blocks_of_the_deep_design_match_the_oracle(deep_n2_d3, criterion5_design):
    # both designs' edges at the default pencil size, within 1e-11 of the top
    # edge of the dense Fourier blocks at 102 and 338 modes, the sizes the
    # Fourier route used to take: the Legendre rounding the Dirichlet and
    # Neumann points carry as well
    for ((p, _, bs, _), *_), modes in ((deep_n2_d3, 102), (criterion5_design, 338)):
        got = np.hstack(sm.hill_band_edges(p, bs.n_gaps))
        want = np.hstack(dense_hill_edges(p, bs.n_gaps, modes))
        assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want).max())
