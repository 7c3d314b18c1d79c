import json
import math

import numpy as np
import pytest

from hill_octant import monodromy as mo
from hill_octant.errors import SpecFormatError
from hill_octant.potential import (
    Potential,
    add_constant,
    constant_potential,
    fourier_potential,
    from_spec_dict,
    l2_norm,
    load_spec,
    piecewise_potential,
    save_spec,
    to_spec_dict,
    translate,
    zero_potential,
)


def test_zero_potential_evaluates_to_zero():
    p = zero_potential()
    assert p.evaluate(0.3) == 0.0
    assert np.all(p.evaluate(np.linspace(0, 2, 7)) == 0.0)


def test_constant_case():
    p = constant_potential(5.0)
    assert p.evaluate(0.123) == 5.0
    assert p.evaluate(17.9) == 5.0


def test_single_cosine_values():
    p = fourier_potential([(1, 2.0, 0.0)], constant=0.5)
    assert p.evaluate(0.0) == pytest.approx(2.5)
    assert p.evaluate(0.25) == pytest.approx(0.5, abs=1e-15)


def test_periodicity_exact():
    # dyadic sample points: x + 1 is exactly representable, so the values
    # must agree bit for bit
    p = fourier_potential([(1, 1.2, -0.4), (3, 0.3, 0.9)], constant=0.7, shift=0.37)
    xs = np.arange(-128, 129) / 64.0
    assert np.array_equal(p.evaluate(xs), p.evaluate(xs + 1.0))
    pc = piecewise_potential([(0.0, 0.25, 1.0), (0.25, 1.0, -2.0)], shift=0.3)
    assert np.array_equal(pc.evaluate(xs), pc.evaluate(xs + 1.0))


def test_piecewise_right_open_intervals():
    p = piecewise_potential([(0.0, 0.5, 1.0), (0.5, 1.0, -1.0)])
    assert p.evaluate(0.0) == 1.0
    assert p.evaluate(0.5 - 1e-12) == 1.0
    assert p.evaluate(0.5) == -1.0  # breakpoint takes the right value


def test_translate_identity_and_composition():
    p = fourier_potential([(1, 2.0, 1.0)], shift=0.0)
    assert translate(p, 0.0) == p
    q = translate(translate(p, 0.3), 0.8)
    assert q.shift == pytest.approx(0.1)
    xs = np.linspace(0, 1, 17)
    assert np.allclose(q.evaluate(xs), p.evaluate(xs + 1.1))


def test_translate_leaves_discriminant_unchanged(asym_potential):
    lams = np.linspace(-3.0, 120.0, 50)
    f0 = mo.integrate_batch(asym_potential, lams).discriminant
    for t in (0.23, 0.71):
        ft = mo.integrate_batch(translate(asym_potential, t), lams).discriminant
        assert np.max(np.abs(ft - f0) / np.maximum(1.0, np.abs(f0))) < 1e-9


def test_add_constant_identity():
    p = fourier_potential([(2, 1.0, 0.5)])
    assert add_constant(p, 0.0) == p
    assert add_constant(p, 2.5).evaluate(0.1) == pytest.approx(p.evaluate(0.1) + 2.5)


def test_l2_norm_closed_forms():
    assert l2_norm(zero_potential()) == 0.0
    assert l2_norm(constant_potential(-3.0)) == 3.0
    assert l2_norm(fourier_potential([(1, 2.0, 0.0)])) == pytest.approx(math.sqrt(2.0))


def test_l2_norm_matches_quadrature():
    p = fourier_potential([(1, 1.3, -0.2), (2, 0.7, 2.1)], constant=0.4, shift=0.6)
    xs = (np.arange(4096) + 0.5) / 4096
    quad = math.sqrt(np.mean(p.evaluate(xs) ** 2))
    assert l2_norm(p) == pytest.approx(quad, rel=1e-8)
    pc = piecewise_potential([(0.0, 0.3, 2.0), (0.3, 1.0, -1.0)], constant=0.5)
    quad_pc = math.sqrt(0.3 * 2.5**2 + 0.7 * 0.5**2)
    assert l2_norm(pc) == pytest.approx(quad_pc, rel=1e-12)


def test_mutually_exclusive_forms():
    with pytest.raises(SpecFormatError):
        Potential(
            fourier=fourier_potential([(1, 1.0, 0.0)]).fourier,
            piecewise=piecewise_potential([(0.0, 1.0, 2.0)]).piecewise,
        )


def test_piecewise_must_tile_unit_interval():
    with pytest.raises(SpecFormatError):
        piecewise_potential([(0.0, 0.5, 1.0)])
    with pytest.raises(SpecFormatError):
        piecewise_potential([(0.0, 0.6, 1.0), (0.5, 1.0, 2.0)])


def test_spec_roundtrip(tmp_path):
    p = fourier_potential([(1, 1.0, -2.0), (4, 0.0, 0.3)], constant=1.5, shift=0.25)
    path = tmp_path / "pot.json"
    save_spec(p, path)
    q = load_spec(path)
    assert q == p
    d = to_spec_dict(p)
    assert from_spec_dict(json.loads(json.dumps(d))) == p


def test_spec_rejects_unknown_and_conflicting_fields(tmp_path):
    with pytest.raises(SpecFormatError):
        from_spec_dict({"constant": 0, "bogus": 1})
    with pytest.raises(SpecFormatError):
        from_spec_dict(
            {
                "fourier": [{"k": 1, "cos": 1.0}],
                "piecewise": [{"from": 0.0, "to": 1.0, "value": 1.0}],
            }
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFormatError):
        load_spec(bad)


@pytest.mark.parametrize("k", [1.5, True, "2", math.inf])
def test_spec_rejects_a_mode_index_that_is_not_an_integer(k):
    # int() would have loaded 1.5 and true as mode 1 and "2" as mode 2
    with pytest.raises(SpecFormatError, match="positive integer"):
        from_spec_dict({"fourier": [{"k": k, "cos": 1.0}]})
    assert from_spec_dict({"fourier": [{"k": 2.0, "cos": 1.0}]}).fourier[0].k == 2


def test_effective_fourier_absorbs_shift():
    p = fourier_potential([(1, 2.0, -1.0), (3, 0.5, 0.25)], constant=0.2, shift=0.41)
    const, ks, a, b = p.effective_fourier()
    xs = np.linspace(0, 1, 33)
    rebuilt = const + sum(
        a[i] * np.cos(2 * np.pi * k * xs) + b[i] * np.sin(2 * np.pi * k * xs)
        for i, k in enumerate(ks)
    )
    assert np.allclose(rebuilt, p.evaluate(xs), atol=1e-12)


@pytest.mark.parametrize("case", ["deep_design", "shifted_asym"])
def test_horner_evaluation_matches_mpmath(case, request):
    # the series at the reduced point x' = (x mod 1 + shift) mod 1, against
    # 40-digit arithmetic: within 4 kmax eps (|c_0| + sum |c_k|)
    mpmath = pytest.importorskip("mpmath")
    if case == "deep_design":  # (2, 0.1, 3): 48 modes, sup|v| ~ 4.3e5
        p = request.getfixturevalue("deep_n2_d3")[0][0]
    else:
        p = translate(request.getfixturevalue("asym_potential"), 0.3)
    xs = np.concatenate((np.linspace(-1.0, 2.0, 301), np.random.default_rng(5).uniform(-3.0, 3.0, 200)))
    xp = (np.mod(xs, 1.0) + p.shift) % 1.0
    kmax = max(t.k for t in p.fourier)
    scale = abs(p.constant) + sum(math.hypot(t.cos, t.sin) for t in p.fourier)
    with mpmath.workdps(40):
        def exact(x):
            ang = 2 * mpmath.pi * mpmath.mpf(float(x))
            terms = (t.cos * mpmath.cos(t.k * ang) + t.sin * mpmath.sin(t.k * ang) for t in p.fourier)
            return p.constant + sum(terms)

        err = max(abs(float(mpmath.mpf(float(v)) - exact(x))) for v, x in zip(p.evaluate(xs), xp))
    assert err <= 4 * kmax * np.finfo(float).eps * scale
