"""Real 1-periodic potentials: representation, evaluation, transformations.

A potential is either a finite trigonometric polynomial

    v(x) = constant + sum_k [ a_k cos(2 pi k x') + b_k sin(2 pi k x') ]

or piecewise constant on [0, 1), where x' = (x + shift) mod 1.  The period
is fixed to 1; other periods must be rescaled (x -> x/p, lambda -> p^2
lambda) before entry.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpecFormatError

__all__ = [
    "FourierTerm",
    "Segment",
    "Potential",
    "zero_potential",
    "constant_potential",
    "fourier_potential",
    "piecewise_potential",
    "translate",
    "add_constant",
    "l2_norm",
    "load_spec",
    "save_spec",
    "from_spec_dict",
    "to_spec_dict",
]


@dataclass(frozen=True)
class FourierTerm:
    k: int
    cos: float = 0.0
    sin: float = 0.0


@dataclass(frozen=True)
class Segment:
    """Left-closed right-open piece [lo, hi) with a constant value."""

    lo: float
    hi: float
    value: float


@dataclass(frozen=True)
class Potential:
    constant: float = 0.0
    fourier: tuple[FourierTerm, ...] = ()
    piecewise: tuple[Segment, ...] = ()
    shift: float = 0.0

    def __post_init__(self):
        if self.fourier and self.piecewise:
            raise SpecFormatError("at most one of fourier/piecewise may be set")
        for t in self.fourier:
            if t.k < 1 or t.k != int(t.k):
                raise SpecFormatError(f"fourier mode index must be a positive integer, got {t.k}")
        vals = [self.constant, self.shift]
        vals += [c for t in self.fourier for c in (t.cos, t.sin)]
        vals += [c for s in self.piecewise for c in (s.lo, s.hi, s.value)]
        if not all(math.isfinite(v) for v in vals):
            raise SpecFormatError("potential coefficients must be finite")
        if self.piecewise:
            segs = sorted(self.piecewise, key=lambda s: s.lo)
            if abs(segs[0].lo) > 1e-15 or abs(segs[-1].hi - 1.0) > 1e-15:
                raise SpecFormatError("piecewise segments must cover [0, 1) exactly")
            for a, b in zip(segs, segs[1:]):
                if abs(a.hi - b.lo) > 1e-15:
                    raise SpecFormatError("piecewise segments must not overlap or leave holes")
            object.__setattr__(self, "piecewise", tuple(segs))
        object.__setattr__(self, "shift", self.shift % 1.0)
        # private caches for fast evaluation inside integrator hot loops
        ks = np.array([t.k for t in self.fourier], dtype=float)
        object.__setattr__(self, "_ks", 2.0 * np.pi * ks)
        object.__setattr__(self, "_ac", np.array([t.cos for t in self.fourier]))
        object.__setattr__(self, "_as", np.array([t.sin for t in self.fourier]))
        # a_k - i b_k for k = kmax .. 1, repeated modes summed: Horner's order
        horner = np.zeros(int(ks.max(initial=0.0)) + 1, dtype=complex)
        np.add.at(horner, ks.astype(int), self._ac - 1j * self._as)
        object.__setattr__(self, "_horner", horner[:0:-1])

    # --- evaluation -----------------------------------------------------

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x):
        """v((x + shift) mod 1); accepts scalars or numpy arrays."""
        # reduce x mod 1 before adding the shift: exact periodicity whenever
        # x and x + 1 have identical fractional parts
        xp = (np.mod(np.asarray(x, dtype=float), 1.0) + self.shift) % 1.0
        if self.piecewise:
            vals = np.full_like(xp, self.constant, dtype=float)
            for s in self.piecewise:
                mask = (xp >= s.lo) & (xp < s.hi)
                vals = np.where(mask, self.constant + s.value, vals)
            return float(vals) if np.isscalar(x) or np.ndim(x) == 0 else vals
        # v = constant + Re sum_k (a_k - i b_k) z^k with z = e^{2 pi i x'},
        # by Horner from the highest mode: one complex multiply-add per mode
        # and O(points) memory.  x' - 1 for x' >= 1/2 is exact and halves the
        # phase, and with it the rounding that z^k multiplies by k.
        z = np.exp(2j * np.pi * np.where(xp >= 0.5, xp - 1.0, xp))
        s = np.zeros_like(z)
        for c in self._horner:
            s += c
            s *= z
        out = self.constant + s.real
        return float(out) if np.ndim(x) == 0 else out

    # --- derived quantities ---------------------------------------------

    @property
    def sup_norm_bound(self) -> float:
        """Upper bound for sup |v|; used for spectral search windows."""
        if self.piecewise:
            return max(abs(self.constant + s.value) for s in self.piecewise)
        return abs(self.constant) + float(np.sum(np.abs(self._ac)) + np.sum(np.abs(self._as)))

    @property
    def curvature_bound(self) -> float:
        """Upper bound for sup |v''|: sum (2 pi k)^2 sqrt(a_k^2 + b_k^2)."""
        if self.piecewise:
            raise SpecFormatError("curvature_bound requires a Fourier-form potential")
        return float(np.sum(self._ks**2 * np.hypot(self._ac, self._as)))

    def effective_fourier(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Shift-absorbed (constant, k, cos, sin) arrays.

        v(x + t) has cos/sin coefficients rotated by angle 2 pi k t; matrix
        methods need the unshifted expansion of the shifted potential.
        """
        if self.piecewise:
            raise SpecFormatError("effective_fourier requires a Fourier-form potential")
        t = self.shift
        ang = self._ks * t
        c, s = np.cos(ang), np.sin(ang)
        a_new = self._ac * c + self._as * s
        b_new = self._as * c - self._ac * s
        ks = np.array([term.k for term in self.fourier], dtype=int)
        return self.constant, ks, a_new, b_new


def zero_potential() -> Potential:
    return Potential()


def constant_potential(c: float) -> Potential:
    return Potential(constant=c)


def _mode_index(k) -> int:
    """k as an int where it is an integral number: int() alone turns 1.5 and true into mode 1."""
    if isinstance(k, (bool, np.bool_)) or not isinstance(k, numbers.Real) or not float(k).is_integer():
        raise SpecFormatError(f"fourier mode index must be a positive integer, got {k!r}")
    return int(k)


def fourier_potential(terms, constant: float = 0.0, shift: float = 0.0) -> Potential:
    """terms: iterable of (k, cos_coeff, sin_coeff)."""
    return Potential(
        constant=constant,
        fourier=tuple(FourierTerm(_mode_index(k), float(a), float(b)) for k, a, b in terms),
        shift=shift,
    )


def piecewise_potential(segments, constant: float = 0.0, shift: float = 0.0) -> Potential:
    """segments: iterable of (lo, hi, value) covering [0, 1)."""
    return Potential(
        constant=constant,
        piecewise=tuple(Segment(float(a), float(b), float(v)) for a, b, v in segments),
        shift=shift,
    )


def translate(p: Potential, t: float) -> Potential:
    """Potential evaluating as v(x + t); shifts compose mod 1."""
    return replace(p, shift=(p.shift + t) % 1.0)


def add_constant(p: Potential, c: float) -> Potential:
    """Shift every spectral quantity of p by +c."""
    return replace(p, constant=p.constant + c)


def l2_norm(p: Potential) -> float:
    """(integral_0^1 v^2 dx)^(1/2); exact for both representations."""
    if p.piecewise:
        total = 0.0
        for s in p.piecewise:
            total += (p.constant + s.value) ** 2 * (s.hi - s.lo)
        return math.sqrt(total)
    sq = p.constant**2 + 0.5 * float(np.sum(p._ac**2) + np.sum(p._as**2))
    return math.sqrt(sq)


# --- spec file (JSON) ----------------------------------------------------


def from_spec_dict(d: dict) -> Potential:
    if not isinstance(d, dict):
        raise SpecFormatError("potential spec must be a JSON object")
    known = {"constant", "fourier", "piecewise", "shift"}
    unknown = set(d) - known
    if unknown:
        raise SpecFormatError(f"unknown potential spec fields: {sorted(unknown)}")
    if d.get("fourier") and d.get("piecewise"):
        raise SpecFormatError("fields 'fourier' and 'piecewise' are mutually exclusive")
    constant = d.get("constant", 0.0)
    shift = d.get("shift", 0.0)
    try:
        if "fourier" in d:
            terms = [(t["k"], t.get("cos", 0.0), t.get("sin", 0.0)) for t in d["fourier"]]
            return fourier_potential(terms, constant=constant, shift=shift)
        if "piecewise" in d:
            segs = [(s["from"], s["to"], s["value"]) for s in d["piecewise"]]
            return piecewise_potential(segs, constant=constant, shift=shift)
        return Potential(constant=float(constant), shift=float(shift))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed potential spec: {exc}") from exc


def to_spec_dict(p: Potential) -> dict:
    d: dict = {"constant": p.constant, "shift": p.shift}
    if p.fourier:
        d["fourier"] = [{"k": t.k, "cos": t.cos, "sin": t.sin} for t in p.fourier]
    if p.piecewise:
        d["piecewise"] = [{"from": s.lo, "to": s.hi, "value": s.value} for s in p.piecewise]
    return d


def load_spec(path) -> Potential:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFormatError(f"cannot read potential spec {path}: {exc}") from exc
    return from_spec_dict(data)


def save_spec(p: Potential, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_spec_dict(p), fh, indent=2)
        fh.write("\n")
