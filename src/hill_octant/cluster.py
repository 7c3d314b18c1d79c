"""Minkowski-sum spectra of separable operators and their cluster geometry.

After dividing every 1D spectrum by gamma, bands concentrate near the
integers and the designed in-gap eigenvalues near n - 1 + e_1.  Sums of
d = 2 or 3 factors produce band clusters (indexed by the multi-index sum),
eigenvalue clusters, and spectrum-free separating intervals around each
eigenvalue cluster.  Cluster membership is combinatorial - a sum belongs
to the cluster of its index total - while the position bounds are recorded
as validations.

`assemble_2d` and `assemble_3d` are entry points into one assembler for d
factors.  It takes e_1 once, from the first factor's lowest bound state
moved down by its gap index - 1, and uses it for the separating margin,
the position checks and the separation bound alike.  Matrix-route factor
spectra (`fast_factor_spectrum`) read their sheets off the Legendre-Galerkin
Dirichlet eigenvectors (`spectral_matrix.dirichlet_sheets`) and integrate
nothing; the shooting band structure keeps `bands.sheet_signs`, so each
route checks the other.

`perturb_and_recount` tests the paper's stability claim: the counts in the
separating intervals survive v_j -> v_j + eps w_j with eps <= kappa^3 and
sup|w_j| <= 1.  Its "after" spectra are not fresh eigensolves.  They are
Rayleigh-Ritz values of the truncated perturbed periodic, anti-periodic
and Dirichlet pencils on the unperturbed eigenvectors
(`spectral_matrix.ritz_enclosures`), each with a Kato-Temple enclosure,
and a factor or a count that the enclosures cannot settle falls back to a
full solve.  The enclosures are for the truncated matrices; they do not
cover the truncation tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bands import BandStructure
from .errors import CountChanged, NoGroundState, SeparationFail
from .halfsolid import HalfSolidSpectrum
from .intervals import Interval, IntervalSet
from .potential import Potential, fourier_potential
from . import spectral_matrix as sm

# unused here: the benchmark tracer (perfbench/spans.py) wraps both through
# this module's bindings
from .bands import band_structure  # noqa: F401
from .monodromy import integrate_batch  # noqa: F401

__all__ = [
    "NormalizedSpectrum1D",
    "ClusterSpectrum",
    "Validation",
    "normalize",
    "assemble_2d",
    "assemble_3d",
    "count_in_interval",
    "perturb_and_recount",
    "ground_state_product",
    "fast_factor_spectrum",
]


@dataclass(frozen=True)
class NormalizedSpectrum1D:
    gamma: float
    bands: tuple[tuple[float, float], ...]  # index 0.., last may reach +inf
    eigenvalues: tuple[tuple[int, float], ...]  # (gap index, value), bound states only
    source: str  # "half-line" or "half-solid"

    def band(self, i: int) -> Interval:
        lo, hi = self.bands[i]
        return Interval(lo, hi)

    @property
    def n_bands(self) -> int:
        return len(self.bands)


@dataclass
class Validation:
    name: str
    index: tuple
    value: float
    bound: float
    passed: bool


@dataclass
class ClusterSpectrum:
    dims: int
    kappa: float
    n_max: int
    band_clusters: dict  # (kind, n) -> IntervalSet, kind in {0, 1, 2}
    eigenvalue_clusters: dict  # n -> list of (multi_index, value)
    separating: dict  # n -> Interval
    validations: list[Validation] = field(default_factory=list)

    def ac_union(self) -> IntervalSet:
        out = IntervalSet()
        for s in self.band_clusters.values():
            out = out.union(s)
        return out

    def counts(self) -> dict:
        return {n: len(v) for n, v in sorted(self.eigenvalue_clusters.items())}

    @property
    def all_valid(self) -> bool:
        return all(v.passed for v in self.validations)


def normalize(spec, gamma: float) -> NormalizedSpectrum1D:
    """Divide a 1D spectrum by gamma; keep only bound-state eigenvalues."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if isinstance(spec, BandStructure):
        bands = tuple(
            (lo / gamma, max(hi, lo) / gamma) for lo, hi in spec.bands()
        )
        eig = tuple((s.index, s.mu / gamma) for s in spec.bound_states())
        return NormalizedSpectrum1D(gamma, bands, eig, "half-line")
    if isinstance(spec, HalfSolidSpectrum):
        bands = tuple(
            (lo / gamma, hi / gamma if math.isfinite(hi) else math.inf)
            for lo, hi in spec.ac_bands
        )
        eig = tuple((j, lam / gamma) for j, lam in spec.eigenvalues)
        return NormalizedSpectrum1D(gamma, bands, eig, "half-solid")
    raise TypeError(f"cannot normalize {type(spec).__name__}")


def _merge_tol(n_max: int) -> float:
    return 1e-12 * (n_max + 1)


def _band_items(ns: NormalizedSpectrum1D):
    return [(i, ns.band(i)) for i in range(ns.n_bands)]


def _eigen_items(ns: NormalizedSpectrum1D):
    return [(n, e) for n, e in ns.eigenvalues]


def _clusters(factors, N):
    """Band and eigenvalue clusters of the Minkowski sum of d = len(factors) spectra."""
    d = len(factors)
    tol = _merge_tol(N)
    bands = [_band_items(f) for f in factors]
    eigs = [_eigen_items(f) for f in factors]

    band_clusters: dict = {}
    # kind = number of eigenvalue slots in the sum
    for kind in range(d):
        cluster: dict[int, list[Interval]] = {}
        for e_slots in itertools.combinations(range(d), kind):
            parts = []
            for slot in range(d):
                parts.append(eigs[slot] if slot in e_slots else bands[slot])
            for combo in itertools.product(*parts):
                idx = sum(c[0] for c in combo)
                n = idx - kind  # cluster label: sum of indices minus one per eigenvalue
                if n > N + 1:
                    continue
                iv = Interval(0.0, 0.0)
                for slot, c in enumerate(combo):
                    piece = c[1] if isinstance(c[1], Interval) else Interval(c[1], c[1])
                    iv = iv + piece
                cluster.setdefault(n, []).append(iv)
        for n, pieces in cluster.items():
            band_clusters[(kind, n)] = IntervalSet(pieces, merge_tol=tol)

    eigen_clusters: dict[int, list] = {}
    for combo in itertools.product(*eigs):
        idx = sum(c[0] for c in combo)
        # two factors: K_n^e collects i + j = n + 1; three: i + j + k = n + 3
        n = idx - 1 if d == 2 else idx - 3
        if n > N:
            continue
        multi = tuple(c[0] for c in combo)
        val = sum(c[1] for c in combo)
        eigen_clusters.setdefault(n, []).append((multi, val))
    for n in eigen_clusters:
        eigen_clusters[n].sort()

    return band_clusters, eigen_clusters


def _separating_intervals(band_clusters, eigen_clusters, margin, N):
    """Spectrum-free interval around each eigenvalue cluster.

    The interval spans the gap between the a.c. pieces sandwiching the
    cluster, pulled in by `margin` on both sides.
    """
    ac: list[Interval] = []
    for s in band_clusters.values():
        ac.extend(s.intervals)
    ac.sort(key=lambda iv: iv.lo)
    separating = {}
    for n, evs in sorted(eigen_clusters.items()):
        if n > N or not evs:
            continue
        lo_e = min(v for _, v in evs)
        hi_e = max(v for _, v in evs)
        below = [iv.hi for iv in ac if iv.hi <= lo_e]
        above = [iv.lo for iv in ac if iv.lo >= hi_e]
        if not below or not above:
            continue
        lo = max(below) + margin
        hi = min(above) - margin
        if lo >= hi:
            raise SeparationFail(
                f"cluster {n}: no room for a separating interval with margin {margin:.3g}"
            )
        separating[n] = Interval(lo, hi)
    return separating


def _e1(factors):
    """e_1: the first factor's lowest bound state, moved down by its gap index - 1
    (None when it has none)."""
    if not factors[0].eigenvalues:
        return None
    n, e = factors[0].eigenvalues[0]
    return e - (n - 1)


def _validate(band_clusters, eigen_clusters, separating, e1, margin, kappa, N, d):
    """Record the printed position/size bounds; failures are reported, not raised."""
    out = []
    for (kind, n), iset in sorted(band_clusters.items()):
        if n > N or iset.empty:
            continue
        hull = iset.hull()
        if not math.isfinite(hull.hi):
            continue  # unbounded tail piece; position/size bounds do not apply
        center = n + kind * (e1 if e1 is not None else 0.0)
        dist = max(0.0, max(hull.lo - center, center - hull.hi))
        out.append(
            Validation("cluster position", (kind, n), dist, 0.5 * kappa, dist <= 0.5 * kappa)
        )
        diam = hull.length
        bound = 1.5 * kappa if kind == 0 else kappa
        out.append(Validation("cluster diameter", (kind, n), diam, bound, diam <= bound))
    for n, evs in sorted(eigen_clusters.items()):
        if n > N or not evs or e1 is None:
            continue
        center = n - 1 + 2 * e1 if d == 2 else n + 3 * e1
        spread = max(abs(v - center) for _, v in evs)
        out.append(Validation("eigenvalue position", (n,), spread, 0.5 * kappa, spread <= 0.5 * kappa))
    ac_all = IntervalSet([iv for s in band_clusters.values() for iv in s.intervals])
    for n, iv in separating.items():
        dist = ac_all.distance(iv)
        out.append(Validation("separation", (n,), dist, margin, dist >= margin - 1e-12))
        evs = eigen_clusters.get(n, [])
        inside = all(iv.contains(v) for _, v in evs)
        out.append(Validation("cluster containment", (n,), float(inside), 1.0, inside))
    return out


def _assemble(factors, kappa, N, enforce_separation=True) -> ClusterSpectrum:
    """Clusters, separating intervals and validations for 2 or 3 factors.

    The separating margin is 2 kappa with two factors.  With three, the
    sub-cell spacing is e_1 = 1/(4d) and the eigenvalue cluster sits e_1
    above the nearest surface cluster, so the margin is capped at e_1 / 2
    (the 2D margin 2 kappa does not fit unless kappa is very small).
    """
    d = len(factors)
    band_clusters, eigen_clusters = _clusters(factors, N)
    e1 = _e1(factors)
    margin = 2.0 * kappa if d == 2 else min(2.0 * kappa, (e1 if e1 is not None else 0.25) / 2.0)
    try:
        separating = _separating_intervals(band_clusters, eigen_clusters, margin, N)
    except SeparationFail:
        if enforce_separation:
            raise
        separating = {}
    cs = ClusterSpectrum(d, kappa, N, band_clusters, eigen_clusters, separating)
    cs.validations = _validate(band_clusters, eigen_clusters, separating, e1, margin, kappa, N, d)
    if enforce_separation:
        for v in cs.validations:
            if v.name == "separation" and not v.passed:
                raise SeparationFail(
                    f"separating interval {v.index} at distance {v.value:.4g} < {v.bound:.4g}"
                )
    return cs


def assemble_2d(
    n1: NormalizedSpectrum1D,
    n2: NormalizedSpectrum1D,
    kappa: float,
    N: int,
    enforce_separation: bool = True,
) -> ClusterSpectrum:
    """Clusters of a two-factor separable spectrum."""
    return _assemble([n1, n2], kappa, N, enforce_separation)


def assemble_3d(
    n1: NormalizedSpectrum1D,
    n2: NormalizedSpectrum1D,
    n3: NormalizedSpectrum1D,
    kappa: float,
    N: int,
    enforce_separation: bool = True,
) -> ClusterSpectrum:
    """Clusters of a three-factor separable spectrum."""
    return _assemble([n1, n2, n3], kappa, N, enforce_separation)


def count_in_interval(cs: ClusterSpectrum, interval) -> tuple[int, list, bool]:
    """Eigenvalues (with multiplicity) inside an interval, plus an
    ac-disjointness flag."""
    iv = interval if isinstance(interval, Interval) else Interval(*interval)
    found = []
    for n, evs in cs.eigenvalue_clusters.items():
        for multi, val in evs:
            if iv.contains(val):
                found.append((multi, val))
    disjoint = cs.ac_union().distance(iv) > 0.0
    return len(found), sorted(found, key=lambda t: t[1]), disjoint


# --- perturbation stability -------------------------------------------------


@dataclass(frozen=True)
class _Eigenbasis:
    """A factor's matrix-route eigenpairs, at the basis sizes they were solved at."""

    hill: dict  # "periodic", "antiperiodic" -> (lowest N + 1 eigenvalues, M-orthonormal vectors as columns)
    mu: np.ndarray  # Dirichlet points mu_1 .. mu_(N+1)
    Y: np.ndarray  # their M-orthonormal Legendre-Galerkin eigenvectors (columns)


def _normalized(edges, mu, signs, N, gamma) -> NormalizedSpectrum1D:
    """Factor spectrum from matrix-route edges, Dirichlet points mu_1..mu_N and their sheets."""
    lam0, glo, ghi, nbe = edges
    # deep wells make neighbouring edges degenerate to rounding; keep the
    # band intervals ordered
    bands = [(min(lam0, glo[0]), glo[0])]
    for i in range(N - 1):
        bands.append((ghi[i], max(glo[i + 1], ghi[i])))
    bands.append((ghi[N - 1], max(nbe, ghi[N - 1])))
    eig = tuple((i + 1, mu[i] / gamma) for i in range(N) if signs[i] == +1)
    return NormalizedSpectrum1D(
        gamma, tuple((lo / gamma, hi / gamma) for lo, hi in bands), eig, "half-line"
    )


def _solve_factor(p: Potential, N: int, gamma: float):
    """(spectrum, eigenbasis) of one factor: the Hill pencils and one Dirichlet solve.

    The Dirichlet solve keeps mu_(N+1) as well, so that a Ritz step on
    these vectors has a computed neighbour above mu_N.
    """
    *edges, hill = sm._hill_edges(p, N, None)
    mu, Y = sm.galerkin_dirichlet_vectors(p, N + 1)
    spectrum = _normalized(edges, mu, sm.dirichlet_sheets(Y[:, :N]), N, gamma)
    return spectrum, _Eigenbasis(hill, mu, Y)


def fast_factor_spectrum(p: Potential, N: int, gamma: float) -> NormalizedSpectrum1D:
    """Half-line factor spectrum through the matrix route.

    Band edges and Dirichlet points come from the Fourier/Galerkin
    eigensolvers, and the sheet signs from the Dirichlet eigenvectors
    (`spectral_matrix.dirichlet_sheets`): no integrator pass.  Used where
    many factor recomputations are needed (perturbation sweeps); the
    shooting band_structure remains the reference route.
    """
    return _solve_factor(p, N, gamma)[0]


def _enclosures_overlap(theta, radius) -> bool:
    return bool(np.any(theta[1:] - radius[1:] <= theta[:-1] + radius[:-1]))


def _ritz_factor(basis: _Eigenbasis, q: Potential, spread: float, N: int, gamma: float):
    """The factor spectrum of q from the eigenvectors of a nearby factor, or None.

    q differs from the solved factor by a potential of sup norm at most
    `spread`.  The periodic, anti-periodic and Dirichlet pencils of q are
    built at the solved factor's basis sizes, and `ritz_enclosures`
    projects each onto the solved vectors (`spectral_matrix._pencil_ritz`).
    Returns (spectrum, radius), where every Dirichlet point lies within
    radius (normalized by gamma) of its Ritz value, or None where two
    enclosures in one pencil overlap (a nearly closed gap) or a sheet is
    uncertain: |psi'(0)| - |psi'(1)| of a Ritz vector must exceed twice
    the error its angle bound allows in each wall derivative.
    """
    mu, ritz_Y, mu_radius, readout = sm._pencil_ritz(q, basis.Y, basis.mu, spread)
    if _enclosures_overlap(mu, mu_radius):
        return None
    d0, d1 = sm._wall_derivatives(ritz_Y[:, :N])
    if not np.all(np.abs(d0 - d1) > 2.0 * readout[:N]):
        return None
    thetas = {}
    for kind, (values, Y) in basis.hill.items():
        theta, _, radius, _ = sm._pencil_ritz(q, Y, values, spread, kind)
        if _enclosures_overlap(theta, radius):
            return None
        thetas[kind] = theta
    spectrum = _normalized(sm._block_edges(thetas, N), mu, sm.dirichlet_sheets(ritz_Y[:, :N]), N, gamma)
    return spectrum, float(mu_radius[:N].max()) / gamma


def _meets_an_end(cs: ClusterSpectrum, intervals, radius: float) -> bool:
    """Whether any eigenvalue sum lies within radius of an end of a counting interval."""
    ends = np.array([(iv.lo, iv.hi) if isinstance(iv, Interval) else iv for iv in intervals], dtype=float)
    sums = np.array([v for evs in cs.eigenvalue_clusters.values() for _, v in evs])
    return bool(np.any(np.abs(sums[:, None] - ends.ravel()) <= radius))


def perturb_and_recount(
    potentials,
    perturbations,
    eps: float,
    intervals,
    kappa: float,
    gamma: float,
    N: int,
):
    """Recompute the separable pipeline with v_j + eps * w_j and recount.

    Preconditions: eps <= kappa^3 and sup|w_j| <= 1.  Counting uses the
    original separating intervals.  Returns (counts_before, counts_after)
    and raises CountChanged on any difference.

    Each distinct v_j is solved once through the matrix route, as in
    `fast_factor_spectrum`, and its eigenvectors are kept.  The "after"
    values of v_j + eps w_j are Ritz values of its truncated periodic,
    anti-periodic and Dirichlet pencils on those vectors, at the same basis
    sizes, and its sheets are read off the Ritz vectors.  Each Ritz value carries a
    Kato-Temple radius, whose gap comes from the unperturbed neighbours less
    eps sup|w_j| (Weyl).  A perturbed factor is solved in full
    (`fast_factor_spectrum`) instead where two of its enclosures overlap (a
    nearly closed gap) or a sheet is uncertain, and every perturbed factor
    is where the enclosure of an eigenvalue sum meets an end of a counting
    interval.  The enclosures are for the truncated matrices; they do not
    cover the truncation tail.
    """
    if eps > kappa**3 + 1e-15:
        raise ValueError(f"eps = {eps} must not exceed kappa^3 = {kappa**3:.3e}")
    for w in perturbations:
        if w.sup_norm_bound > 1.0 + 1e-9:
            raise ValueError("perturbations must satisfy sup|w| <= 1")
    if len(potentials) != len(perturbations):
        raise ValueError("need one perturbation per factor")

    def recount(spectra):
        cs = _assemble(spectra, kappa, N)
        return cs, [count_in_interval(cs, iv)[0] for iv in intervals]

    # one factor solve per distinct potential: the factors are often copies
    solved = {p: _solve_factor(p, N, gamma) for p in dict.fromkeys(potentials)}
    _, before = recount([solved[p][0] for p in potentials])

    pairs = list(zip(potentials, perturbations))
    perturbed = {(p, w): _add_potentials(p, w, eps) for p, w in pairs}
    ritz = {
        (p, w): _ritz_factor(solved[p][1], q, eps * w.sup_norm_bound, N, gamma)
        for (p, w), q in perturbed.items()
    }
    spectra = {pair: r[0] if r else fast_factor_spectrum(perturbed[pair], N, gamma) for pair, r in ritz.items()}
    cs, after = recount([spectra[pair] for pair in pairs])
    radius = sum(ritz[pair][1] for pair in pairs if ritz[pair])  # of every eigenvalue sum
    if radius > 0.0 and _meets_an_end(cs, intervals, radius):
        for pair, r in ritz.items():
            if r:
                spectra[pair] = fast_factor_spectrum(perturbed[pair], N, gamma)
        _, after = recount([spectra[pair] for pair in pairs])
    if before != after:
        raise CountChanged(f"counts changed: {before} -> {after}")
    return before, after


def _add_potentials(p: Potential, w: Potential, eps: float) -> Potential:
    """p + eps*w for Fourier-form potentials (shifts absorbed)."""
    const_p, ks_p, a_p, b_p = p.effective_fourier()
    const_w, ks_w, a_w, b_w = w.effective_fourier()
    terms: dict[int, list[float]] = {}
    for k, a, b in zip(ks_p, a_p, b_p):
        terms[int(k)] = [a, b]
    for k, a, b in zip(ks_w, a_w, b_w):
        entry = terms.setdefault(int(k), [0.0, 0.0])
        entry[0] += eps * a
        entry[1] += eps * b
    return fourier_potential(
        [(k, ab[0], ab[1]) for k, ab in sorted(terms.items())],
        constant=const_p + eps * const_w,
    )


# --- product ground states ---------------------------------------------------


def ground_state_product(hs_list) -> tuple[float, float]:
    """Total ground-state energy of a product of half-solid factors and the
    bottom of the essential spectrum of their sum.

    E_total = sum of the factor ground states; the essential spectrum
    starts at min_j (tau0_j + sum_{i != j} E_i).  Asserts E_total strictly
    below that bottom.
    """
    energies = []
    bottoms = []
    for hs in hs_list:
        gs = hs.ground_state
        if gs is None or gs.count != 1 or gs.energy is None:
            raise NoGroundState("every factor needs a located ground state")
        if gs.energy >= hs.tau0:
            raise NoGroundState(
                f"factor ground state {gs.energy} is not below tau0 = {hs.tau0}"
            )
        energies.append(gs.energy)
        bottoms.append(hs.tau0)
    e_total = sum(energies)
    bottom = min(b + e_total - e for b, e in zip(bottoms, energies))
    if not e_total < bottom:
        raise NoGroundState("product state is not below the essential spectrum")
    return e_total, bottom
