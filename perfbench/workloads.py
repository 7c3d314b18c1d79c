"""The three workloads: seeded inputs, timed operations and their output checks.

Each workload is a function ``(seed, out_dir) -> ops`` that builds the inputs
and fixtures and returns the operations of one round.  An operation is a closure that
calls into hill_octant, plus a check that returns the problems it finds in
the output (an empty list means the output is right).  Checks compare with
computations made apart from the call under test (the matrix route, a
closed-form discriminant, an enumeration) or with properties the method must
have (interlacing, the Wronskian, band-length bounds).

Library calls go through module attributes (``bands.band_structure``, not a
captured reference), so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from hill_octant import bands, cli, cluster, design, halfsolid, monodromy
from hill_octant import spectral_matrix as sm
from hill_octant.potential import fourier_potential, piecewise_potential, save_spec

# bands_corpus: potentials per round (README explains the fixed/seeded split)
ACCEPTANCE_SEED = 777  # criterion 3's corpus
FIXED_COUNT = 6
SEEDED_COUNT = 2
KP_COUNT = 2
CORPUS_AMPLITUDE = 5.0
N_BANDS = 6
ASYM = ((1, 2.0, 1.5), (2, -1.0, 0.7))
ASYM_N = 5
ORACLE_REL = 1e-6
WRONSKIAN_TOL = 1e-9
KP_RESIDUAL = 1e-9
GAP_LENGTH_REL = 1e-3

# halfsolid_sweep
TAU_COUNT = 6
TAU_DECADES = (2.0, 6.0)
SLOPE_TOL = 0.05
CONSTANT_REL = 0.05

# octant_model: construct_model_potential(N, kappa, d)
OCTANT = (2, 0.1, 3)
RECOUNT_TRIALS = 1
# check bases: over three times the Hill modes (270) and Galerkin size (472)
# that the design iterates with
CHECK_MODES = 900
CHECK_GALERKIN = 1800


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: bool = False


def warm_engines() -> None:
    """One small call into each engine, so lazy set-up is not timed as work."""
    p = fourier_potential([(1, 1.0, 0.5)])
    monodromy.integrate_batch(p, [1.0, 2.0], count_zeros=True)
    monodromy.integrate_batch(piecewise_potential([(0.0, 0.5, 1.0), (0.5, 1.0, 0.0)]), [1.0])
    sm.hill_band_edges(p, 1)
    sm.hill_edges_and_vectors(p, 1)
    sm.galerkin_dirichlet(p, 1)
    sm.galerkin_neumann(p, 2)
    sm.galerkin_dirichlet_vectors(p, 1)


# --- bands_corpus ----------------------------------------------------------------


def kp_discriminant(a: float, v: float, lam: float) -> float:
    """F(lambda) of v on [0, a) and 0 on [a, 1), from the two transfer matrices.

    For y'' = q y on a piece of length L the transfer matrix is
    [[C, S], [q S, C]]; half the trace of the product of the two pieces is
    C1 C2 + (q1 + q2) S1 S2 / 2.
    """

    def cs(q, length):
        if q > 0:
            s = math.sqrt(q)
            return math.cosh(s * length), math.sinh(s * length) / s
        if q < 0:
            w = math.sqrt(-q)
            return math.cos(w * length), math.sin(w * length) / w
        return 1.0, length

    q1, q2 = v - lam, -lam
    c1, s1 = cs(q1, a)
    c2, s2 = cs(q2, 1.0 - a)
    return c1 * c2 + 0.5 * (q1 + q2) * s1 * s2


def _structure_problems(p, bs) -> list:
    """Interlacing, band-length bounds and the Wronskian: properties any answer has."""
    out = []
    tol = 1e-9 * np.maximum(1.0, np.abs(bs.gap_lo))
    if not (bs.lambda0 <= bs.gap_lo[0] + tol[0] and np.all(bs.gap_hi[:-1] <= bs.gap_lo[1:] + tol[:-1])):
        out.append("band edges out of order")
    if not (np.all(bs.gap_lo - tol <= bs.dirichlet) and np.all(bs.dirichlet <= bs.gap_hi + tol)):
        out.append("mu outside its gap")
    if not (np.all(bs.gap_lo - tol <= bs.neumann[1:]) and np.all(bs.neumann[1:] <= bs.gap_hi + tol)):
        out.append("nu outside its gap")
    for n, (lo, hi) in enumerate(bs.bands()):
        if hi - lo > math.pi**2 * (2 * n + 1) + 1e-6:
            out.append(f"band {n} longer than pi^2 (2n+1)")
    probe = np.linspace(bs.lambda0 - 1.0, bs.next_band_end, 7)
    w = monodromy.integrate_batch(p, probe).wronskian
    if np.max(np.abs(w - 1.0)) > WRONSKIAN_TOL:
        out.append(f"Wronskian off by {np.max(np.abs(w - 1.0)):.2e}")
    return out


def _oracle_problems(p, bs, N) -> list:
    """Shooting edges, mu and nu against the matrix route (criterion 2's tolerance)."""
    lam0, glo, ghi, _ = sm.hill_band_edges(p, N)
    mu = sm.galerkin_dirichlet(p, N)
    nu = sm.galerkin_neumann(p, N + 1)
    scale = np.maximum(1.0, np.abs(glo))
    errs = {
        "edges": max(
            float(np.max(np.abs(bs.gap_lo - glo) / scale)),
            float(np.max(np.abs(bs.gap_hi - ghi) / scale)),
            abs(bs.lambda0 - lam0) / max(1.0, abs(lam0)),
        ),
        "mu": float(np.max(np.abs(bs.dirichlet - mu) / np.maximum(1.0, np.abs(mu)))),
        "nu": float(np.max(np.abs(bs.neumann - nu) / np.maximum(1.0, np.abs(nu)))),
    }
    return [f"{k} differ from the matrix route by {e:.2e} rel" for k, e in errs.items() if not e < ORACLE_REL]


def _gap_state_problems(p, bs, N) -> list:
    """Gap lengths against the matrix route and sheets against the sign of a(mu_n)."""
    out = []
    _, glo, ghi, _ = sm.hill_band_edges(p, N)
    length = ghi - glo
    rel = np.abs(bs.gap_lengths - length) / length
    for n in np.nonzero(~(rel <= GAP_LENGTH_REL))[0]:
        out.append(f"gap {n + 1} length {bs.gap_lengths[n]:.4e}, matrix {length[n]:.4e}")
    mu = sm.galerkin_dirichlet(p, N)
    a_mu = monodromy.integrate_batch(p, mu).a_value
    want = np.where(a_mu * (-1.0) ** np.arange(2, N + 2) > 0, 1, -1)
    got = np.array([s.sign for s in bs.states])
    for n in np.nonzero(got != want)[0]:
        out.append(f"gap {n + 1} sheet {got[n]}, a(mu) = {a_mu[n]:.2e} gives {want[n]}")
    return out


def _fourier_op(p, N=N_BANDS, gap_states=False, kind="fourier", known_fault=False) -> Op:
    """band_structure(p, N) against the matrix route and structural properties.

    gap_states adds the gap-length and sheet check, which needs every gap
    resolvable by the matrix route; it is applied to fixed inputs only, where
    it is known to hold or (asym) known to fail.
    """

    def check(bs):
        out = _oracle_problems(p, bs, N) + _structure_problems(p, bs)
        return out + _gap_state_problems(p, bs, N) if gap_states else out

    return Op(kind, lambda: bands.band_structure(p, N), check, known_fault)


def _kp_op(a, v) -> Op:
    p = piecewise_potential([(0.0, a, v), (a, 1.0, 0.0)])

    def check(bs):
        out = _structure_problems(p, bs)
        edges = [bs.lambda0, *bs.gap_lo, *bs.gap_hi, bs.next_band_end]
        res = max(abs(kp_discriminant(a, v, lam) ** 2 - 1.0) for lam in edges)
        if not res <= KP_RESIDUAL:
            out.append(f"closed-form F^2 - 1 = {res:.2e} at a band edge")
        return out

    return Op("kronig_penney", lambda: bands.band_structure(p, N_BANDS), check)


def random_corpus(rng, count):
    """3-mode Fourier potentials with coefficients uniform in [-5, 5], as in the tests."""
    out = []
    for _ in range(count):
        c = rng.uniform(-CORPUS_AMPLITUDE, CORPUS_AMPLITUDE, 6)
        out.append(fourier_potential([(k + 1, c[2 * k], c[2 * k + 1]) for k in range(3)]))
    return out


def bands_corpus(seed: int, out_dir) -> list:
    rng = np.random.default_rng(seed)
    fixed = random_corpus(np.random.default_rng(ACCEPTANCE_SEED), FIXED_COUNT)
    ops = [_fourier_op(p, gap_states=True, kind="acceptance") for p in fixed]
    ops += [_fourier_op(p) for p in random_corpus(rng, SEEDED_COUNT)]
    for _ in range(KP_COUNT):
        a = float(rng.uniform(0.2, 0.8))
        v = float(rng.choice([-1.0, 1.0]) * rng.uniform(10.0, 40.0))
        ops.append(_kp_op(a, v))
    # gap 5 of this fixture is below the discriminant's resolution: shooting
    # falls back to the [mu, nu] hull, 18% short of the matrix length, and
    # reports sign 0 where a(mu_5) > 0 gives +1, so this op fails every run
    ops.append(_fourier_op(fourier_potential(ASYM), ASYM_N, True, "asym", known_fault=True))
    return ops


# --- halfsolid_sweep ---------------------------------------------------------------


def _modest_design():
    """Criterion 6's N = 3 design: gap length 6, mid-gap bound states."""
    g = 6.0
    target = design.DesignTarget(
        n_gaps=3, gap_lengths=(g,) * 3, state_fracs=(0.5,) * 3, state_signs=(1,) * 3,
        basis_size=4, tolerance=1e-5,
    )
    p0 = design.design_gap_lengths(design.DesignTarget(n_gaps=3, gap_lengths=(g,) * 3, tolerance=1e-5))
    return design.place_states(p0, target)


def halfsolid_sweep(seed: int, out_dir) -> list:
    rng = np.random.default_rng(seed)
    p = _modest_design()
    bs = bands.band_structure(p, 3)
    pc = design.condition_p_potential(delta=0.5, eps=0.06, t=0.03)
    bsc = bands.band_structure(pc, 1)
    probe = halfsolid.ground_state_count(pc, 1.0, bs=bsc)
    nu0, rho2 = probe.nu0, probe.rho**2

    # one tau per equal slice of log10 tau, at a seeded place in the slice
    lo, hi = TAU_DECADES
    width = (hi - lo) / TAU_COUNT
    taus = [float(10.0 ** (lo + width * (i + rng.uniform()))) for i in range(TAU_COUNT)]
    tau_in = nu0 + float(rng.uniform(0.2, 0.8)) * (rho2 - nu0)
    tau_out = rho2 * float(rng.uniform(1.5, 3.0))
    mu1 = float(bs.dirichlet[0])
    d1 = monodromy.integrate(p, mu1)
    c_ref = abs(2.0 * d1.a_value / d1.phi_lam)
    gap1_roots = [math.nan] * TAU_COUNT

    def tau_op(i, tau):
        def run():
            hs = halfsolid.gap_eigenvalues(p, tau, 3, bs)
            return hs, [halfsolid.wronskian(p, tau, lam, j) for j, lam in hs.eigenvalues]

        def check(result):
            hs, residuals = result
            out = []
            for (j, lam), w in zip(hs.eigenvalues, residuals):
                if not (bs.gap_lo[j - 1] < lam < bs.gap_hi[j - 1] and lam < tau):
                    out.append(f"root {lam} outside gap {j} or above tau")
                if not abs(w) <= 1e-6 * max(1.0, math.sqrt(tau)):
                    out.append(f"Wronskian residual {w:.2e} at gap {j}")
            root1 = [lam for j, lam in hs.eigenvalues if j == 1]
            gap1_roots[i] = root1[0] if root1 else math.nan
            # the taus ascend, so the gap-1 root must climb toward mu_1
            below = gap1_roots[i - 1] if i > 0 else -math.inf
            if not below < gap1_roots[i] < mu1:
                out.append(f"gap-1 root {gap1_roots[i]} does not rise toward mu_1 = {mu1} from below")
            return out

        return Op("gap_eigenvalues", run, check)

    def fit_check(fit):
        out = []
        if not abs(fit.slope + 0.5) <= SLOPE_TOL:
            out.append(f"rate slope {fit.slope:.4f}")
        if not abs(fit.constant / c_ref - 1.0) <= CONSTANT_REL:
            out.append(f"rate constant {fit.constant:.4f} vs 2a/phi_lam = {c_ref:.4f}")
        return out

    def gs_in_check(gs):
        if gs.count != 1 or gs.energy is None:
            return [f"count {gs.count} inside (nu0, rho^2)"]
        out = []
        if not gs.energy < 0:
            out.append(f"E = {gs.energy} not negative")
        w = halfsolid.wronskian(pc, tau_in, gs.energy, 0)
        if not abs(w) <= 1e-9:
            out.append(f"|w(E)| = {abs(w):.2e}")
        return out

    def gs_out_check(gs):
        return [] if gs.count == 0 else [f"count {gs.count} outside (nu0, rho^2)"]

    ops = [tau_op(i, t) for i, t in enumerate(taus)]
    ops.append(Op("rate_fit", lambda: halfsolid.verify_sqrt_rate(p, 1, taus, bs=bs), fit_check))
    ops.append(Op("ground_state_in", lambda: halfsolid.ground_state_count(pc, tau_in, bs=bsc), gs_in_check))
    ops.append(Op("ground_state_out", lambda: halfsolid.ground_state_count(pc, tau_out, bs=bsc), gs_out_check))
    return ops


# --- octant_model ------------------------------------------------------------------


def cluster_counts(N: int) -> dict:
    """n -> number of multi-indices (i, j, k) in {1..N}^3 with i + j + k = n + 3."""
    counts: dict = {}
    for idx in itertools.product(range(1, N + 1), repeat=3):
        n = sum(idx) - 3
        if n <= N:
            counts[n] = counts.get(n, 0) + 1
    return counts


def octant_model(seed: int, out_dir) -> list:
    rng = np.random.default_rng(seed)
    N, kappa, d = OCTANT
    want = cluster_counts(N)
    trials = []
    for _ in range(RECOUNT_TRIALS):
        ws = []
        for _ in range(d):
            c = rng.uniform(-1.0, 1.0, 6)
            c /= max(1.0, float(np.sum(np.abs(c))))  # sup|w| <= 1
            ws.append(fourier_potential([(k + 1, c[2 * k], c[2 * k + 1]) for k in range(3)]))
        trials.append(ws)
    ctx: dict = {}
    spec = out_dir / "octant_model.json"

    def run_design():
        ctx.clear()
        ctx["p"], ctx["gamma"], ctx["bs"], report = design.construct_model_potential(N, kappa, d)
        return report

    def design_check(report):
        p, gamma, bs = ctx["p"], ctx["gamma"], ctx["bs"]
        out = [] if report.converged else ["design report not converged"]
        _, glo, ghi, _ = sm.hill_band_edges(p, N, modes=CHECK_MODES)
        mu = sm.galerkin_dirichlet(p, N, dim=CHECK_GALERKIN)
        if not np.max(np.abs((ghi - glo) - gamma)) < 1e-4 * gamma:
            out.append(f"gap lengths {ghi - glo} vs gamma {gamma}")
        if not np.max(np.abs(mu - (glo + gamma / (4 * d)))) < 1e-3 * gamma:
            out.append(f"states {mu - glo} not gamma/{4 * d} into their gaps")
        if [s.sign for s in bs.states] != [1] * N:
            out.append(f"shooting sheet signs {[s.sign for s in bs.states]}")
        return out

    def run_cli():
        save_spec(ctx["p"], spec)
        argv = ["cluster", "--potential", str(spec), "--N", str(N), "--kappa", str(kappa),
                "--gamma", repr(ctx["gamma"]), "--dim", str(d), "--out", str(out_dir)]
        rc = cli.main(argv)
        rep = json.loads((out_dir / "cluster_report.json").read_text())
        ctx["intervals"] = [tuple(rep["separating"][str(n)]) for n in sorted(want) if str(n) in rep["separating"]]
        return rc, rep

    def cli_check(result):
        rc, rep = result
        got = {int(n): c for n, c in rep["counts_in_separating"].items()}
        out = [] if rc == 0 and rep["all_valid"] else [f"cluster CLI exit {rc}, all_valid {rep['all_valid']}"]
        if got != want:
            out.append(f"separating counts {got}, enumeration gives {want}")
        return out

    def recount_op(ws):
        def run():
            p, gamma = ctx["p"], ctx["gamma"]
            return cluster.perturb_and_recount([p] * d, ws, kappa**3, ctx["intervals"], kappa, gamma, N)

        def check(result):
            before, after = result
            expect = [want[n] for n in sorted(want)]
            return [] if before == after == expect else [f"counts {before} -> {after}, want {expect}"]

        return Op("recount", run, check)

    ops = [Op("construct", run_design, design_check), Op("cluster_cli", run_cli, cli_check)]
    ops += [recount_op(ws) for ws in trials]
    return ops


WORKLOADS = {
    "bands_corpus": bands_corpus,
    "halfsolid_sweep": halfsolid_sweep,
    "octant_model": octant_model,
}
