"""Hill-block and Galerkin eigenpairs against dense eigensolvers of the full matrices."""

import numpy as np
import pytest
import scipy.linalg as sla

from hill_octant import bands, monodromy as mo, spectral_matrix as sm
from hill_octant.cluster import _add_potentials
from hill_octant.errors import NoConvergence
from hill_octant.potential import fourier_potential, translate, zero_potential

from conftest import random_corpus, reflect
from oracles import dense_hill_block, real_hill_matrix

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


def edge_pairs(p, n_gaps=N_GAPS, modes=MODES):
    """(lambda, u, reference values, reference vectors) for every returned edge."""
    lam0, glo, ghi, nbe, info, _ = sm.hill_edges_and_vectors(p, n_gaps, modes=modes)
    blocks = {0.0: dense_hill_block(p, 0.0, modes), 0.5: dense_hill_block(p, 0.5, modes)}
    values = {("lambda0", 0): lam0, ("next", n_gaps + 1): nbe}
    for n in range(1, n_gaps + 1):
        values[("lo", n)] = glo[n - 1]
        values[("hi", n)] = ghi[n - 1]
    return [(values[key], info[key][1], *blocks[info[key][0]]) for key in values]


def assert_edges_match_dense_eigh(p):
    lam0, glo, ghi, nbe = sm.hill_band_edges(p, N_GAPS, modes=MODES)
    w_per, _ = dense_hill_block(p, 0.0, MODES)
    w_anti, _ = dense_hill_block(p, 0.5, MODES)
    # edges of gap m are eigenvalues m - 1 and m of the block of m's parity
    want_lo = [(w_anti if m % 2 else w_per)[m - 1] for m in range(1, N_GAPS + 1)]
    want_hi = [(w_anti if m % 2 else w_per)[m] for m in range(1, N_GAPS + 1)]
    want_next = (w_anti if (N_GAPS + 1) % 2 else w_per)[N_GAPS]
    got = np.concatenate(([lam0], glo, ghi, [nbe]))
    want = np.concatenate(([w_per[0]], want_lo, want_hi, [want_next]))
    assert np.allclose(got, want, rtol=1e-12, atol=1e-11)


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hill_edges_match_dense_eigh(name):
    assert 2 * MODES + 1 <= sm.BAND_SOLVER_DIM  # both blocks go to the band solver
    assert_edges_match_dense_eigh(POTENTIALS[name])


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hill_lanczos_matches_dense_eigh(name, monkeypatch):
    # the same blocks through the solver of the blocks above BAND_SOLVER_DIM
    monkeypatch.setattr(sm, "BAND_SOLVER_DIM", 0)
    assert_edges_match_dense_eigh(POTENTIALS[name])


@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_hill_eigenvectors_span_dense_eigenspaces(name):
    # double eigenvalues (zero potential, closed gaps) have no unique
    # eigenvector: each returned u must lie in the reference eigenspace
    for lam, u, w, v in edge_pairs(POTENTIALS[name]):
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        space = v[:, np.abs(w - lam) <= 1e-9 * max(1.0, abs(lam))]
        assert 1 <= space.shape[1] <= 2
        assert np.linalg.norm(space.conj().T @ u) == pytest.approx(1.0, abs=1e-12)


def test_simple_eigenvector_overlap():
    for lam, u, w, v in edge_pairs(POTENTIALS["asym"]):
        i = int(np.argmin(np.abs(w - lam)))
        assert abs(np.vdot(v[:, i], u)) == pytest.approx(1.0, abs=1e-12)


def banded_to_dense(band, bw):
    """The matrix of a `_hill_band` layout: H[i, j] at band[2 bw + i - j, j]."""
    dim = band.shape[1]
    i, j = np.indices((dim, dim))
    inside = np.abs(i - j) <= bw
    H = np.zeros((dim, dim))
    H[inside] = band[2 * bw + i[inside] - j[inside], j[inside]]
    return H


def assert_real_blocks_match_the_oracle(p, modes):
    const, a, b = sm._mode_arrays(p)
    for offset in (0.0, 0.5):
        band, bw, _ = sm._hill_band(a, b, offset, modes, const)
        want = real_hill_matrix(p, offset, modes)
        scale = np.linalg.norm(want, 2)
        assert np.max(np.abs(want.imag)) <= 1e-12 * scale
        assert np.max(np.abs(banded_to_dense(band, bw) - want.real)) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["asym", "translated"])
def test_real_blocks_match_the_rotated_exponential_blocks(name):
    assert_real_blocks_match_the_oracle(POTENTIALS[name], MODES)


def test_real_blocks_of_the_deep_design_match_the_oracle(deep_n2_d3):
    # a Hill solve of the position fit: 270 modes, a potential of 48 modes with sine terms
    _, _, _, hill_args = deep_n2_d3
    p, _, modes = hill_args[-2][:3]
    assert modes is not None and max(t.k for t in p.fourier) == 48
    assert_real_blocks_match_the_oracle(p, modes)


def lanczos_on_both_blocks(p):
    """`_hill_lanczos` on the periodic, then the anti-periodic block of MODES modes."""
    const, a, b = sm._mode_arrays(p)
    symbol = sm._symbol_bounds(a, b)
    for offset in (0.0, 0.5):
        sm._hill_lanczos(a, b, offset, MODES, const, N_GAPS + 1, symbol)


def test_every_block_is_solved_in_real_arithmetic(monkeypatch):
    # with and without sine terms, both blocks reach the Lanczos loop real
    orth, dims = sm._orthonormal_block, []

    def real_only(V, Q, rng):
        assert np.isrealobj(V) and np.isrealobj(Q)
        dims.append(V.shape[0])
        return orth(V, Q, rng)

    monkeypatch.setattr(sm, "_orthonormal_block", real_only)
    for name in ("even", "translated"):
        dims.clear()
        lanczos_on_both_blocks(POTENTIALS[name])
        assert set(dims) == {2 * MODES + 1, 2 * MODES}  # the periodic and the anti-periodic block


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


def test_exp_vector_gradient_matches_finite_difference():
    terms = [(1, 2.0, 1.5), (2, -1.0, 0.7), (3, 0.0, 0.0)]
    keys = [("lo", n) for n in (1, 2, 3)] + [("hi", n) for n in (1, 2, 3)]
    info = sm.hill_edges_and_vectors(fourier_potential(terms), 3, modes=MODES)[4]
    grads = [sm.exp_vector_gradient(info[key][1], 3) for key in keys]
    h = 1e-4

    def edges(k, da, db):
        bumped = [(kk, a + da * (kk == k), b + db * (kk == k)) for kk, a, b in terms]
        _, glo, ghi, _ = sm.hill_band_edges(fourier_potential(bumped), 3, modes=MODES)
        return np.concatenate((glo, ghi))

    for k in (1, 2, 3):
        fd_cos = (edges(k, h, 0.0) - edges(k, -h, 0.0)) / (2 * h)
        fd_sin = (edges(k, 0.0, h) - edges(k, 0.0, -h)) / (2 * h)
        assert np.allclose([da[k - 1] for da, _ in grads], fd_cos, rtol=0, atol=1e-6)
        assert np.allclose([db[k - 1] for _, db in grads], fd_sin, rtol=0, atol=1e-6)


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
    for key in first[4]:
        assert np.array_equal(first[4][key][1], second[4][key][1])


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
    # the band solver's values-only path bisects the same tridiagonal
    # matrix; the edge seeds of `bands` cannot move by a bit
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
    # the anti-periodic block of 2 modes holds exactly n_gaps + 1 eigenvalues
    lam0, glo, ghi, nbe = sm.hill_band_edges(POTENTIALS["asym"], 3, modes=2)
    assert lam0 < glo[0] < ghi[0] < glo[1] < ghi[1] < glo[2] < ghi[2] <= nbe


SHIFT_CASES = {
    "asym": POTENTIALS["asym"],
    "mathieu": fourier_potential([(1, 2.0, 0.0)]),
    "zero": zero_potential(),
    **{f"corpus{i}": q for i, q in enumerate(random_corpus(4, seed=31, amplitude=40.0))},
}


@pytest.mark.parametrize("name", sorted(SHIFT_CASES))
def test_shift_lies_below_both_blocks(name, monkeypatch):
    p, shift, seen = SHIFT_CASES[name], sm._shift, []
    monkeypatch.setattr(sm, "_shift", lambda *args: seen.append(shift(*args)) or seen[-1])
    lanczos_on_both_blocks(p)
    sigma_per, sigma_anti = seen  # the periodic block is solved first
    assert sigma_per < dense_hill_block(p, 0.0, MODES)[0][0]
    assert sigma_anti < dense_hill_block(p, 0.5, MODES)[0][0]


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
    # every returned vector's tail below GALERKIN_TAIL
    potentials, count = TAIL_CASES.get(case, (None, None))
    if case == "bound state":
        potentials, count = [bound_state_potential], 2
    elif case.startswith("design"):
        (p, _, bs, _), *_ = deep_n2_d3 if "(2" in case else criterion5_design
        potentials, count = [p], bs.n_gaps
    for p in potentials:
        Y, Z, dims = solves_at_default_sizes(p, count, monkeypatch)
        assert dims == [Y.shape[0], Z.shape[0]]
        assert np.all(tail_ratio(Y) <= sm.GALERKIN_TAIL) and np.all(tail_ratio(Z) <= sm.GALERKIN_TAIL)


def test_basis_grows_by_half_until_the_tail_meets_the_bar(monkeypatch):
    # under a stricter bar the asym solve grows its basis 1.5x at a time,
    # and ends where the bar holds, at the same eigenvalues
    p = POTENTIALS["asym"]
    want_mu, want_nu = sm.galerkin_dirichlet(p, 5), sm.galerkin_neumann(p, 6)
    monkeypatch.setattr(sm, "GALERKIN_TAIL", 1e-15)
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
@pytest.mark.parametrize("dim", [320, 472, 1443])
@pytest.mark.parametrize("name", ["corpus", "deep"])
def test_galerkin_lanczos_matches_eigh(name, dim, kind, deep_n2_d3):
    # the dense eigh of the pencil against shift-invert Lanczos (`_lanczos`,
    # the Hill blocks' solver) on its standard form H = L^-1 A L^-T, L L^T = M:
    # (H - sigma)^-1 = L^T (A - sigma M)^-1 L.  The values agree within 64 eps
    # (|lambda| + sup|v|), though ||H|| reaches 4e11 at 1443 (1.1e-11 apart
    # at most seen, on the deep design at 320), and the vectors span the
    # same lines
    p = CORPUS_POTENTIAL if name == "corpus" else deep_n2_d3[0][0]
    neumann = kind == "neumann"
    values, Y = sm._galerkin_solve(p, 3, dim, neumann)
    A, M = sm._galerkin_pencil(p, dim, neumann)
    const, a, b = sm._mode_arrays(p)
    sigma = sm._shift(sm._symbol_bounds(a, b), 0.0 if neumann else np.pi**2, 0.0)
    L = np.linalg.cholesky(M)
    factor = sla.cho_factor(A - sigma * M, lower=True)
    theta, X = sm._lanczos(lambda Q: L.T @ sla.cho_solve(factor, L @ Q), dim, 3)
    bound = 64 * np.finfo(float).eps * (np.abs(values) + p.sup_norm_bound)
    assert np.all(np.abs(const + sigma + 1.0 / theta - values) <= bound)
    overlap = np.abs(np.sum(sla.solve_triangular(L, X, lower=True, trans="T") * (M @ Y), axis=0))
    assert np.allclose(overlap, 1.0, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_indefinite_shift_raises_no_convergence(kind, monkeypatch):
    # a shift above the lowest eigenvalue: A - sigma M has no Cholesky factor
    monkeypatch.setattr(sm, "_shift", lambda *args: 1e4)
    solve = sm.galerkin_dirichlet if kind == "dirichlet" else sm.galerkin_neumann
    with pytest.raises(NoConvergence, match="not positive definite"):
        solve(CORPUS_POTENTIAL, 3)


# --- shift-invert Lanczos on the Hill blocks: warm starts ----------------------

EIGH_TOL = 4  # Lanczos values against eigh, in units of eps ||H||; 1.04 seen at most


@pytest.fixture
def lanczos_steps(monkeypatch):
    """Counts the Lanczos steps of each solve: one basis width per step."""
    widths, orth = set(), sm._orthonormal_block

    def counted(V, Q, rng):
        widths.add(V.shape[1])
        return orth(V, Q, rng)

    monkeypatch.setattr(sm, "_orthonormal_block", counted)
    return widths


def hill_case(name, deep_n2_d3):
    """(potential, modes) whose Hill blocks go to Lanczos once BAND_SOLVER_DIM is 0."""
    return (CORPUS_POTENTIAL, MODES) if name == "corpus" else (deep_n2_d3[0][0], 270)


@pytest.mark.parametrize("name", ["corpus", "deep"])
def test_warm_start_takes_fewer_steps(name, deep_n2_d3, lanczos_steps, monkeypatch):
    # the blocks of the potential translated by 1e-3, a step of a fit
    p, modes = hill_case(name, deep_n2_d3)
    monkeypatch.setattr(sm, "BAND_SOLVER_DIM", 0)
    near = sm.hill_edges_and_vectors(translate(p, 1e-3), 2, modes=modes)[5]
    lanczos_steps.clear()
    cold = sm.hill_edges_and_vectors(p, 2, modes=modes)
    cold_steps = len(lanczos_steps)
    lanczos_steps.clear()
    warm = sm.hill_edges_and_vectors(p, 2, modes=modes, start=near)
    assert len(lanczos_steps) < cold_steps
    assert_same_pairs(p, modes, cold, warm)
    lanczos_steps.clear()
    assert_same_pairs(p, modes, cold, sm.hill_edges_and_vectors(p, 2, modes=modes, start=cold[5]))
    assert len(lanczos_steps) <= 2  # from the converged vectors: one step, then the check


def test_hill_warm_start_matches_the_cold_solve(deep_n2_d3, lanczos_steps):
    # the deep design's blocks (270 modes, both above BAND_SOLVER_DIM),
    # started from those of the design plus a 1e-5 relative change
    p, modes = deep_n2_d3[0][0], 270
    near = _add_potentials(p, fourier_potential([(1, 1.0, 0.5), (2, -0.5, 0.3)]), 1.0)
    blocks = sm.hill_edges_and_vectors(near, 2, modes=modes)[5]
    lanczos_steps.clear()
    cold = sm.hill_edges_and_vectors(p, 2, modes=modes)
    cold_steps = len(lanczos_steps)
    lanczos_steps.clear()
    warm = sm.hill_edges_and_vectors(p, 2, modes=modes, start=blocks)
    assert len(lanczos_steps) < cold_steps
    norm = (2.0 * np.pi * modes) ** 2 + p.sup_norm_bound  # ||H|| <= the top diagonal plus sup|v|
    for a, b in zip(cold[:4], warm[:4]):
        assert np.all(np.abs(a - b) <= EIGH_TOL * np.finfo(float).eps * norm)
    for key, (offset, u) in cold[4].items():
        assert abs(np.vdot(warm[4][key][1], u)) == pytest.approx(1.0, abs=1e-12)


def test_full_basis_returns_its_pairs_at_the_rounding_floor(asym_potential, lanczos_steps, monkeypatch):
    # asym at 24 modes: a periodic block of dimension 49, started from the
    # blocks of the potential translated by 1e-3 (5 vectors, then 2 random
    # ones).  Under a stop that no residual meets, Lanczos fills the basis;
    # there the Ritz pairs are exact but for rounding, so they are returned,
    # not refused.
    modes = 24
    reference = sm.hill_edges_and_vectors(asym_potential, 4, modes=modes)  # the band solver
    monkeypatch.setattr(sm, "BAND_SOLVER_DIM", 0)
    start = sm.hill_edges_and_vectors(translate(asym_potential, 1e-3), 4, modes=modes)[5]
    monkeypatch.setattr(sm, "LANCZOS_TOL", 0.0)
    lanczos_steps.clear()
    warm = sm.hill_edges_and_vectors(asym_potential, 4, modes=modes, start=start)
    assert max(lanczos_steps) + 5 + sm.LANCZOS_BLOCK >= 2 * modes + 1  # the last step filled the basis
    assert_same_pairs(asym_potential, modes, reference, warm)


def test_warm_start_stops_before_the_full_basis(asym_potential, lanczos_steps, monkeypatch):
    # the same start at the LANCZOS_TOL stop.  When the block's own QR
    # amplified the rounding along the basis, the basis lost orthogonality
    # to 7e-11 and the residual stayed above the stop up to the full basis;
    # the third pass keeps it orthogonal, and the stop is met at 28 of 49
    modes = 24
    reference = sm.hill_edges_and_vectors(asym_potential, 4, modes=modes)
    monkeypatch.setattr(sm, "BAND_SOLVER_DIM", 0)
    start = sm.hill_edges_and_vectors(translate(asym_potential, 1e-3), 4, modes=modes)[5]
    lanczos_steps.clear()
    warm = sm.hill_edges_and_vectors(asym_potential, 4, modes=modes, start=start)
    assert max(lanczos_steps) + 5 + sm.LANCZOS_BLOCK < 2 * modes + 1
    assert_same_pairs(asym_potential, modes, reference, warm)


def assert_same_pairs(p, modes, reference, warm):
    norm = (2.0 * np.pi * modes) ** 2 + p.sup_norm_bound
    for a, b in zip(reference[:4], warm[:4]):
        assert np.all(np.abs(a - b) <= EIGH_TOL * np.finfo(float).eps * norm)
    for key, (offset, u) in reference[4].items():
        assert abs(np.vdot(warm[4][key][1], u)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("offset, spread", [(1e-9, 1.0), (1e-3, 1e-4)])
def test_block_near_the_basis_comes_back_orthonormal(offset, spread):
    # a block within `offset` of span(V): its columns share one direction
    # outside V and differ from each other by `spread` of it.  At spread
    # 1e-4 the QR divides by what is left of the later columns after the
    # first, 1e-7 of their norms, and two passes alone left them 8e-13 off
    # orthogonal to V; the third pass brings them back to rounding
    rng = np.random.default_rng(3)
    V = np.linalg.qr(rng.standard_normal((60, 40)))[0]
    shared, own = rng.standard_normal((60, 1)), rng.standard_normal((60, 3))
    Q = V @ rng.standard_normal((40, 3)) + offset * (shared + spread * own)
    out = sm._orthonormal_block(V, Q, np.random.default_rng(0))
    assert np.abs(V.T @ out).max() <= 1e-14
    assert np.abs(out.T @ out - np.eye(3)).max() <= 1e-14


@pytest.mark.parametrize("name", ["corpus", "deep"])
def test_stale_or_permuted_start_still_finds_the_lowest(name, deep_n2_d3, lanczos_steps, monkeypatch):
    # the seeded random columns reach a wanted vector that the start lacks,
    # in no more steps than a cold solve takes
    p, modes = hill_case(name, deep_n2_d3)
    other = deep_n2_d3[0][0] if name == "corpus" else CORPUS_POTENTIAL
    monkeypatch.setattr(sm, "BAND_SOLVER_DIM", 0)
    blocks = sm.hill_edges_and_vectors(p, 3, modes=modes)[5]
    stale = sm.hill_edges_and_vectors(other, 2, modes=modes)[5]
    lanczos_steps.clear()
    cold = sm.hill_edges_and_vectors(p, 2, modes=modes)
    cold_steps = len(lanczos_steps)
    # the lowest left out, reversed, another potential's
    for pick in (lambda X: X[:, 1:], lambda X: X[:, 2::-1]):
        start = {offset: (values, pick(X)) for offset, (values, X) in blocks.items()}
        lanczos_steps.clear()
        assert_same_pairs(p, modes, cold, sm.hill_edges_and_vectors(p, 2, modes=modes, start=start))
        assert len(lanczos_steps) <= cold_steps
    lanczos_steps.clear()
    assert_same_pairs(p, modes, cold, sm.hill_edges_and_vectors(p, 2, modes=modes, start=stale))
    assert len(lanczos_steps) <= cold_steps


def test_start_of_another_dimension_is_rejected(monkeypatch):
    monkeypatch.setattr(sm, "BAND_SOLVER_DIM", 0)
    blocks = sm.hill_edges_and_vectors(CORPUS_POTENTIAL, 2, modes=20)[5]
    with pytest.raises(ValueError, match="dimension"):
        sm.hill_edges_and_vectors(CORPUS_POTENTIAL, 2, modes=MODES, start=blocks)
