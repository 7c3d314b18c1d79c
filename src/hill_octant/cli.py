"""Command-line front end: ingest potential/design specs, run the spectral
pipelines, emit CSV/JSON.

Subcommands: bands, halfsolid, design, cluster, discriminant-sweep.
A JSON config file may provide any option; explicit flags win.  Outputs are
deterministic: fixed iteration orders, floats at 17 significant digits, no
timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import spectral_matrix as sm
from .bands import band_structure
from .cluster import assemble_2d, assemble_3d, count_in_interval, fast_factor_spectrum
from .design import DesignTarget, construct_model_potential, design_gap_lengths, place_states
from .errors import (
    HillOctantError,
    InsufficientPoints,
    NoConvergence,
    SeparationFail,
    SpecFormatError,
)
from .halfsolid import _rate_fit, asymptotic_coefficient, gap_eigenvalues, wronskian
from .halfsolid import verify_sqrt_rate  # noqa: F401  (the benchmark tracer wraps this binding)
from .monodromy import integrate_batch
from .potential import load_spec, save_spec

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_NOCONV = 4
EXIT_SEPARATION = 5


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) if isinstance(c, (int, float, np.floating)) else c for c in row])


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_tau_grid(text: str):
    """lo:hi:count -> geometric grid."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise SpecFormatError(f"bad tau grid '{text}', want lo:hi:count") from exc
    if not (0 < lo < hi) or count < 1:
        raise SpecFormatError("tau grid must be increasing and positive")
    return np.geomspace(lo, hi, count)


def _load_config(args):
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecFormatError(f"cannot read config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise SpecFormatError("config must be a JSON object")
    return cfg


def _opt(args, cfg, name, default=None):
    val = getattr(args, name, None)
    if val is not None:
        return val
    return cfg.get(name, default)


def _out_dir(args, cfg) -> Path:
    out = Path(_opt(args, cfg, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands -------------------------------------------------------------


def cmd_bands(args) -> int:
    cfg = _load_config(args)
    p = load_spec(_require(args, cfg, "potential"))
    N = int(_opt(args, cfg, "N", 5))
    if N < 1:
        raise SpecFormatError("N must be >= 1")
    out = _out_dir(args, cfg)
    bs = band_structure(p, N)
    rows = []
    for n in range(1, N + 1):
        s = bs.state(n)
        rows.append(
            (
                n,
                bs.gap_lo[n - 1],
                bs.gap_hi[n - 1],
                bs.dirichlet[n - 1],
                bs.neumann[n],
                s.sign if not s.closed else "",
                bs.xi[n - 1, 0],
                bs.xi[n - 1, 1],
            )
        )
    _write_csv(
        out / "bands.csv",
        ["n", "lambda_minus", "lambda_plus", "mu", "nu", "sign", "xi1", "xi2"],
        rows,
    )
    lo = bs.lambda0 - 1.0
    hi = bs.next_band_end + 1.0
    grid = np.linspace(lo, hi, int(_opt(args, cfg, "sweep_points", 800)))
    mb = integrate_batch(p, grid)
    _write_csv(
        out / "discriminant.csv",
        ["lambda", "discriminant", "a", "phi1"],
        zip(grid, mb.discriminant, mb.a_value, mb.phi_1),
    )
    return EXIT_OK


def cmd_discriminant_sweep(args) -> int:
    cfg = _load_config(args)
    p = load_spec(_require(args, cfg, "potential"))
    lo = float(_require(args, cfg, "lo"))
    hi = float(_require(args, cfg, "hi"))
    count = int(_opt(args, cfg, "count", 500))
    if not (hi > lo) or count < 2:
        raise SpecFormatError("need hi > lo and count >= 2")
    out = _out_dir(args, cfg)
    grid = np.linspace(lo, hi, count)
    mb = integrate_batch(p, grid)
    _write_csv(
        out / "discriminant.csv",
        ["lambda", "discriminant", "a", "phi1"],
        zip(grid, mb.discriminant, mb.a_value, mb.phi_1),
    )
    return EXIT_OK


def cmd_halfsolid(args) -> int:
    cfg = _load_config(args)
    p = load_spec(_require(args, cfg, "potential"))
    N = int(_opt(args, cfg, "N", 3))
    gap_index = int(_opt(args, cfg, "gap_index", 1))
    out = _out_dir(args, cfg)
    if _opt(args, cfg, "tau") is not None:
        taus = [float(_opt(args, cfg, "tau"))]
    else:
        taus = list(_parse_tau_grid(_require(args, cfg, "tau_grid")))
    bs = band_structure(p, N)
    rows, pairs = [], []
    for tau in taus:
        hs = gap_eigenvalues(p, tau, N, bs=bs)
        rows.extend((tau, j, lam, wronskian(p, tau, lam, j)) for j, lam in hs.eigenvalues)
        pairs.append((float(tau), dict(hs.eigenvalues).get(gap_index)))
    _write_csv(out / "eigenvalues.csv", ["tau", "j", "mu_j_tau", "w_residual"], rows)
    report = {}
    if len(taus) >= 4 and any(s.sign == +1 for s in bs.states):
        # fit the sweep's roots; verify_sqrt_rate would search every tau again
        c_direct = asymptotic_coefficient(p, gap_index, bs=bs)
        fit = _rate_fit(pairs, bs.dirichlet[gap_index - 1], c_direct)
        report = {
            "slope": fit.slope,
            "constant": fit.constant,
            "c_direct": fit.c_direct,
            "taus": list(fit.taus),
        }
        _write_json(out / "ratefit.json", report)
    elif len(taus) < 4:
        raise InsufficientPoints(f"tau grid has {len(taus)} points, need >= 4 for the rate fit")
    return EXIT_OK


def cmd_design(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args, cfg)
    N = int(_require(args, cfg, "N"))
    kappa = _opt(args, cfg, "kappa")
    report_obj = None
    try:
        if kappa is not None:
            kappa = float(kappa)
            if not 0 < kappa <= 0.1:
                raise SpecFormatError("kappa must lie in (0, 0.1]")
            d = int(_opt(args, cfg, "dim", 2))
            p, gamma, bs, report_obj = construct_model_potential(N, kappa, d)
            report = dict(report_obj.targets)
            report.update(report_obj.achieved)
            report["iterations"] = report_obj.iterations
            report["restarts"] = report_obj.restarts
            report["residual"] = report_obj.residual
            report["converged"] = report_obj.converged
        else:
            lengths = _require(args, cfg, "gap_lengths")
            if isinstance(lengths, str):
                lengths = [float(v) for v in lengths.split(",")]
            fracs = _opt(args, cfg, "state_fracs")
            if isinstance(fracs, str):
                fracs = [float(v) for v in fracs.split(",")]
            basis = _opt(args, cfg, "basis_size")
            basis = int(basis) if basis is not None else None
            tol = float(_opt(args, cfg, "tol", 1e-4))
            target = DesignTarget(
                n_gaps=N,
                gap_lengths=tuple(lengths),
                state_fracs=tuple(fracs) if fracs else None,
                basis_size=basis,
                tolerance=tol,
            )
            from .design import DesignReport

            report_obj = DesignReport(targets={"gap_lengths": list(lengths), "fracs": fracs})
            p = design_gap_lengths(target, report_obj)
            if fracs:
                p = place_states(p, target, report_obj)
            bs = band_structure(p, N)
            report = dict(report_obj.targets)
            report["achieved_gap_lengths"] = bs.gap_lengths.tolist()
            report["achieved_fracs"] = (
                ((bs.dirichlet - bs.gap_lo) / bs.gap_lengths).tolist() if fracs else None
            )
            report["signs"] = [s.sign for s in bs.states]
            report["iterations"] = report_obj.iterations
            report["residual"] = report_obj.residual
    except NoConvergence as exc:
        _write_json(out / "design_report.json", {"error": str(exc), "converged": False})
        print(f"design did not converge: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    save_spec(p, out / "potential.json")
    _write_json(out / "design_report.json", report)
    return EXIT_OK


def cmd_cluster(args) -> int:
    cfg = _load_config(args)
    p = load_spec(_require(args, cfg, "potential"))
    N = int(_require(args, cfg, "N"))
    kappa = float(_require(args, cfg, "kappa"))
    if not 0 < kappa <= 0.1:
        raise SpecFormatError("kappa must lie in (0, 0.1]")
    d = int(_opt(args, cfg, "dim", 2))
    if d not in (2, 3):
        raise SpecFormatError("dim must be 2 or 3")
    gamma = _opt(args, cfg, "gamma")
    out = _out_dir(args, cfg)
    if gamma is None:
        _, glo, ghi, _ = sm.hill_band_edges(p, N)
        gamma = float(np.mean(ghi - glo))
    else:
        gamma = float(gamma)
    # factor spectra through the matrix route: designed potentials sit in
    # the deep-well regime where the shooting discriminant overflows
    factor = fast_factor_spectrum(p, N, gamma)
    cs = assemble_2d(factor, factor, kappa, N) if d == 2 else assemble_3d(factor, factor, factor, kappa=kappa, N=N)
    rows = []
    for (kind, n), iset in sorted(cs.band_clusters.items()):
        for iv in iset:
            rows.append((iv.lo, iv.hi if math.isfinite(iv.hi) else "inf", f"K{kind}", n))
    for n, evs in sorted(cs.eigenvalue_clusters.items()):
        for multi, val in evs:
            rows.append((val, val, "Ke", n))
    _write_csv(out / "spectrum.csv", ["lo", "hi", "type", "n"], rows)
    report = {
        "kappa": kappa,
        "gamma": gamma,
        "dims": d,
        "counts": {str(n): len(v) for n, v in sorted(cs.eigenvalue_clusters.items())},
        "separating": {
            str(n): [iv.lo, iv.hi] for n, iv in sorted(cs.separating.items())
        },
        "counts_in_separating": {
            str(n): count_in_interval(cs, iv)[0] for n, iv in sorted(cs.separating.items())
        },
        "validations": [
            {
                "name": v.name,
                "index": [int(i) for i in v.index],
                "value": float(v.value),
                "bound": float(v.bound),
                "passed": bool(v.passed),
            }
            for v in cs.validations
        ],
        "all_valid": bool(cs.all_valid),
    }
    _write_json(out / "cluster_report.json", report)
    return EXIT_OK if cs.all_valid else EXIT_SEPARATION


def _require(args, cfg, name):
    val = _opt(args, cfg, name)
    if val is None:
        raise SpecFormatError(f"missing required option '{name}'")
    return val


# --- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hill-octant",
        description="Band structures, gap states and half-solid spectra of "
        "1D periodic potentials; inverse gap design; separable cluster assembly.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--out", help="output directory (default: .)")

    sp = sub.add_parser("bands", help="band edges, gap states, xi map (CSV)")
    common(sp)
    sp.add_argument("--potential", help="potential spec JSON")
    sp.add_argument("--N", type=int, help="number of gaps")
    sp.set_defaults(fn=cmd_bands)

    sp = sub.add_parser("discriminant-sweep", help="(lambda, F, a, phi1) CSV rows")
    common(sp)
    sp.add_argument("--potential")
    sp.add_argument("--lo", type=float)
    sp.add_argument("--hi", type=float)
    sp.add_argument("--count", type=int)
    sp.set_defaults(fn=cmd_discriminant_sweep)

    sp = sub.add_parser("halfsolid", help="junction eigenvalues over a tau grid")
    common(sp)
    sp.add_argument("--potential")
    sp.add_argument("--N", type=int)
    sp.add_argument("--tau", type=float)
    sp.add_argument("--tau-grid", dest="tau_grid", help="lo:hi:count (geometric)")
    sp.add_argument("--gap-index", dest="gap_index", type=int)
    sp.set_defaults(fn=cmd_halfsolid)

    sp = sub.add_parser("design", help="construct a potential from spectral targets")
    common(sp)
    sp.add_argument("--N", type=int)
    sp.add_argument("--kappa", type=float, help="model construction: gamma = 4 pi^2 (N+1)^2 / kappa")
    sp.add_argument("--dim", type=int, help="number of separable factors (model construction)")
    sp.add_argument("--gap-lengths", dest="gap_lengths", help="comma list of target lengths")
    sp.add_argument("--state-fracs", dest="state_fracs", help="comma list of positions in (0,1)")
    sp.add_argument("--basis-size", dest="basis_size", type=int)
    sp.add_argument("--tol", type=float)
    sp.set_defaults(fn=cmd_design)

    sp = sub.add_parser("cluster", help="assemble separable cluster spectra")
    common(sp)
    sp.add_argument("--potential")
    sp.add_argument("--N", type=int)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--dim", type=int)
    sp.set_defaults(fn=cmd_cluster)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (SpecFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except SeparationFail as exc:
        print(f"separation failure: {exc}", file=sys.stderr)
        return EXIT_SEPARATION
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except HillOctantError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
