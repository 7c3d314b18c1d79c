import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from hill_octant import bands, halfsolid as hsm
from hill_octant.cli import main
from hill_octant.potential import save_spec, zero_potential, fourier_potential


def write_pot(tmp_path, p, name="pot.json"):
    path = tmp_path / name
    save_spec(p, path)
    return path


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_bands_free_potential(tmp_path):
    spec = write_pot(tmp_path, zero_potential())
    out = tmp_path / "out"
    rc = main(["bands", "--potential", str(spec), "--N", "5", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "bands.csv")
    assert header == ["n", "lambda_minus", "lambda_plus", "mu", "nu", "sign", "xi1", "xi2"]
    assert len(rows) == 5
    for i, row in enumerate(rows, start=1):
        assert float(row[1]) == pytest.approx((math.pi * i) ** 2, abs=1e-7)
        assert row[5] == ""  # closed gaps: no state
    assert (out / "discriminant.csv").exists()


def test_bands_deterministic(tmp_path):
    spec = write_pot(tmp_path, fourier_potential([(1, 2.0, 1.0)]))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["bands", "--potential", str(spec), "--N", "2", "--out", str(out1)]) == 0
    assert main(["bands", "--potential", str(spec), "--N", "2", "--out", str(out2)]) == 0
    assert (out1 / "bands.csv").read_bytes() == (out2 / "bands.csv").read_bytes()
    assert (out1 / "discriminant.csv").read_bytes() == (out2 / "discriminant.csv").read_bytes()


def test_bands_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fourier": [{"k": 1, "cos": 1.0}], "bogus": 3}))
    rc = main(["bands", "--potential", str(bad), "--N", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_discriminant_sweep(tmp_path):
    spec = write_pot(tmp_path, zero_potential())
    out = tmp_path / "out"
    rc = main(
        ["discriminant-sweep", "--potential", str(spec), "--lo", "-1", "--hi", "30",
         "--count", "32", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out / "discriminant.csv")
    assert header == ["lambda", "discriminant", "a", "phi1"]
    assert len(rows) == 32
    lam, F = float(rows[-1][0]), float(rows[-1][1])
    assert F == pytest.approx(math.cos(math.sqrt(lam)), abs=1e-9)


def test_halfsolid_free_potential_empty(tmp_path):
    spec = write_pot(tmp_path, zero_potential())
    out = tmp_path / "out"
    rc = main(
        ["halfsolid", "--potential", str(spec), "--N", "2",
         "--tau-grid", "100:1e6:4", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out / "eigenvalues.csv")
    assert rows == []


def test_halfsolid_bound_state(tmp_path, bound_state_potential):
    spec = write_pot(tmp_path, bound_state_potential)
    out = tmp_path / "out"
    rc = main(
        ["halfsolid", "--potential", str(spec), "--N", "2",
         "--tau-grid", "1e3:1e6:4", "--gap-index", "1", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "ratefit.json").read_text())
    assert report["slope"] == pytest.approx(-0.5, abs=0.06)
    header, rows = read_csv(out / "eigenvalues.csv")
    assert any(r[1] == "1" for r in rows)


def test_halfsolid_rate_fit_reuses_the_sweep_roots(tmp_path, passes, modest_design):
    # the grid is one junction sweep and its residuals one pass: at most 8
    # passes beyond band_structure (43 when each tau and each residual took
    # passes of its own)
    p, bs = modest_design
    spec = write_pot(tmp_path, p)
    rc = main(
        ["halfsolid", "--potential", str(spec), "--N", "3",
         "--tau-grid", "1e2:1e6:5", "--gap-index", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    in_command = len(passes)
    passes.clear()
    bands.band_structure(p, 3)
    assert in_command - len(passes) <= 8
    header, rows = read_csv(tmp_path / "eigenvalues.csv")
    assert header == ["tau", "j", "mu_j_tau", "w_residual"]
    taus = np.geomspace(1e2, 1e6, 5)
    want = [(tau, j, lam) for tau in taus for j, lam in hsm.gap_eigenvalues(p, tau, 3, bs=bs).eigenvalues]
    assert [(float(r[0]), int(r[1])) for r in rows] == [(tau, j) for tau, j, _ in want]
    for (tau, _, lam), r in zip(want, rows):
        assert abs(float(r[2]) - lam) <= 1e-12 * abs(lam)
        assert abs(float(r[3])) <= 1e-6 * max(1.0, math.sqrt(tau))
    passes.clear()
    fit = hsm.verify_sqrt_rate(p, 1, taus, bs=bs)
    assert passes  # verify_sqrt_rate solves every tau again, in one batch
    report = json.loads((tmp_path / "ratefit.json").read_text())
    assert report["taus"] == list(fit.taus)
    assert report["c_direct"] == fit.c_direct
    # the sweep solves all gaps of every tau, the fit gap 1 of every tau:
    # the roots agree to 1e-12
    assert report["slope"] == pytest.approx(fit.slope, rel=1e-9)
    assert report["constant"] == pytest.approx(fit.constant, rel=1e-9)


@pytest.mark.parametrize("gap_index", ["1", "2", "3"])
def test_halfsolid_antibound_states_exit_0(tmp_path, asym_potential, gap_index):
    # every gap state of asym is anti-bound, mu_3 just below its edge
    spec = write_pot(tmp_path, asym_potential)
    rc = main(
        ["halfsolid", "--potential", str(spec), "--N", "3",
         "--tau-grid", "1e3:1e6:4", "--gap-index", gap_index, "--out", str(tmp_path)]
    )
    assert rc == 0


@pytest.mark.parametrize("gap_index, fitted", [("1", True), ("2", False)])
def test_halfsolid_fits_the_rate_only_for_a_bound_gap_index(tmp_path, mixed_sheet_design, gap_index, fitted):
    # gap 1 hosts a bound state and gap 2 an anti-bound one
    spec = write_pot(tmp_path, mixed_sheet_design[0])
    out = tmp_path / "out"
    rc = main(
        ["halfsolid", "--potential", str(spec), "--N", "2",
         "--tau-grid", "1e3:1e6:4", "--gap-index", gap_index, "--out", str(out)]
    )
    assert rc == 0
    assert (out / "eigenvalues.csv").exists()
    assert (out / "ratefit.json").exists() == fitted


def test_halfsolid_short_grid_exits_3(tmp_path, bound_state_potential):
    spec = write_pot(tmp_path, bound_state_potential)
    rc = main(
        ["halfsolid", "--potential", str(spec), "--N", "2",
         "--tau-grid", "1e3:1e4:2", "--out", str(tmp_path)]
    )
    assert rc == 3


@pytest.mark.parametrize("gap_index", ["0", "5"])
def test_halfsolid_gap_index_outside_1_to_N_exits_2(tmp_path, bound_state_potential, gap_index, capsys):
    spec = write_pot(tmp_path, bound_state_potential)
    rc = main(
        ["halfsolid", "--potential", str(spec), "--N", "2",
         "--tau-grid", "1e3:1e6:4", "--gap-index", gap_index, "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "gap index" in capsys.readouterr().err


def test_halfsolid_single_tau_writes_eigenvalues(tmp_path, bound_state_potential):
    # one tau cannot feed the rate fit; it writes its eigenvalues and succeeds
    spec = write_pot(tmp_path, bound_state_potential)
    out = tmp_path / "out"
    rc = main(["halfsolid", "--potential", str(spec), "--N", "2", "--tau", "1e4", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out / "eigenvalues.csv")
    assert any(float(r[0]) == 1e4 and r[1] == "1" for r in rows)
    assert not (out / "ratefit.json").exists()


def test_design_roundtrip_through_bands(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["design", "--N", "2", "--gap-lengths", "5,5", "--state-fracs", "0.125,0.125",
         "--basis-size", "3", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "design_report.json").read_text())
    assert np.allclose(report["achieved_gap_lengths"], [5.0, 5.0], rtol=1e-3)
    assert np.allclose(report["achieved_fracs"], [0.125, 0.125], atol=1e-3)
    assert report["signs"] == [1, 1]
    out2 = tmp_path / "bands"
    rc2 = main(["bands", "--potential", str(out / "potential.json"), "--N", "2", "--out", str(out2)])
    assert rc2 == 0
    _, rows = read_csv(out2 / "bands.csv")
    lengths = [float(r[2]) - float(r[1]) for r in rows]
    assert np.allclose(lengths, [5.0, 5.0], rtol=1e-3)


def test_design_infeasible_basis_exits_2(tmp_path):
    rc = main(
        ["design", "--N", "3", "--gap-lengths", "5,5,5", "--basis-size", "2",
         "--out", str(tmp_path)]
    )
    assert rc == 2


def test_cluster_kappa_validation(tmp_path):
    spec = write_pot(tmp_path, zero_potential())
    rc = main(
        ["cluster", "--potential", str(spec), "--N", "3", "--kappa", "0.5",
         "--out", str(tmp_path)]
    )
    assert rc == 2


def test_config_file_with_flag_override(tmp_path):
    spec = write_pot(tmp_path, zero_potential())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": str(spec), "N": 2, "out": str(tmp_path / "cfgout")}))
    out = tmp_path / "flagout"
    rc = main(["bands", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "bands.csv").exists()  # flag wins over config
    _, rows = read_csv(out / "bands.csv")
    assert len(rows) == 2  # N from the config file


def test_floats_have_17_significant_digits(tmp_path):
    spec = write_pot(tmp_path, fourier_potential([(1, 2.0, 0.0)]))
    out = tmp_path / "out"
    main(["bands", "--potential", str(spec), "--N", "1", "--out", str(out)])
    _, rows = read_csv(out / "bands.csv")
    val = rows[0][1]
    assert float(val) != round(float(val), 6)  # more than 6 digits survive
    assert len(val.replace("-", "").replace(".", "").lstrip("0")) >= 15
