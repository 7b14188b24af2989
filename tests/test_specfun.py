"""Special-function tests against frozen high-precision fixtures."""

import cmath
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinboson import DomainError, expint_e1, sin_cos_integral

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "specfun_reference.json"


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURES.read_text())


def rel_err(ours: complex, ref: complex) -> float:
    return abs(ours - ref) / abs(ref)


def test_fixtures_cover_required_domain(reference):
    pts = [complex(*e["z"]) for e in reference["main"]]
    assert len(pts) == 200
    assert all(z.real >= 0.0 for z in pts)
    radii = [abs(z) for z in pts]
    assert min(radii) <= 1.1e-3 and max(radii) >= 490.0
    assert reference["dps"] >= 30


def test_e1_matches_fixtures(reference):
    worst = max(rel_err(expint_e1(complex(*e["z"])), complex(*e["e1"]))
                for e in reference["main"])
    assert worst <= 1e-10


def test_si_ci_match_fixtures(reference):
    worst = 0.0
    for e in reference["main"]:
        si, ci = sin_cos_integral(complex(*e["z"]))
        worst = max(worst, rel_err(si, complex(*e["si"])),
                    rel_err(ci, complex(*e["ci"])))
    assert worst <= 1e-10


def test_e1_left_half_plane_matches_fixtures(reference):
    worst = max(rel_err(expint_e1(complex(*e["z"])), complex(*e["e1"]))
                for e in reference["e1_left"])
    assert worst <= 1e-10


def test_e1_at_one():
    assert expint_e1(1.0) == pytest.approx(0.21938393439552027, rel=1e-12)


def test_e1_large_real_asymptotic():
    for x in (50.0, 120.0, 300.0):
        assert x * math.exp(x) * expint_e1(x).real == \
            pytest.approx(1.0, abs=1.5 / x)


def test_e1_conjugation():
    for z in (0.3 + 2.0j, 7.0 - 1.0j, -4.0 + 9.0j, 40.0 + 40.0j):
        assert expint_e1(z.conjugate()) == \
            pytest.approx(expint_e1(z).conjugate(), rel=1e-13)


def nan_message(shown: str) -> str:
    """The pattern of a NaN argument's DomainError, which names the point."""
    return f"not defined at NaN; got z={re.escape(shown)}$"


def test_e1_domain_errors():
    with pytest.raises(DomainError):
        expint_e1(0.0)
    with pytest.raises(DomainError):
        expint_e1(-1.0)
    with pytest.raises(DomainError):
        expint_e1(complex(-5.0, 0.0))
    with pytest.raises(DomainError):
        expint_e1(np.array([1.0 + 1.0j, -2.0 + 0.0j]))
    # a NaN real or imaginary part, alone or inside an array, names the point
    nan = math.nan
    for z, shown in ((nan, "(nan+0j)"), (complex(1.0, nan), "(1+nanj)"),
                     (complex(-1.0, nan), "(-1+nanj)"),
                     (np.array([1.0 + 1.0j, complex(nan, 2.0)]), "(nan+2j)")):
        with pytest.raises(DomainError, match=nan_message(shown)):
            expint_e1(z)
    # so does an infinite real or imaginary part, where scipy gives nan+nanj
    inf = math.inf
    for z, shown in ((inf, "(inf+0j)"), (complex(inf, 1.0), "(inf+1j)"),
                     (complex(1.0, inf), "(1+infj)"),
                     (complex(-inf, 1.0), "(-inf+1j)"),
                     (np.array([1.0 + 1.0j, complex(2.0, -inf)]), "(2-infj)")):
        with pytest.raises(DomainError, match=re.escape(
                f"not evaluated at an infinite point; got z={shown}") + "$"):
            expint_e1(z)


def test_e1_scalar_and_array_forms():
    zs = [0.3 + 2.0j, -4.0 + 9.0j, 40.0 - 1.0j]
    table = expint_e1(np.array(zs))
    assert isinstance(table, np.ndarray) and table.dtype == complex
    for z, v in zip(zs, table):
        e1 = expint_e1(z)
        assert type(e1) is complex and e1 == v


def test_si_ci_at_one():
    si, ci = sin_cos_integral(1.0)
    assert si == pytest.approx(0.9460830703671830, rel=1e-12)
    assert ci == pytest.approx(0.3374039229009681, rel=1e-12)


def test_si_zero_and_ci_singularity():
    with pytest.raises(DomainError):
        sin_cos_integral(0.0)
    with pytest.raises(DomainError):
        sin_cos_integral(-2.0 + 1.0j)


def test_si_ci_nan_domain_errors():
    nan = math.nan
    for z, shown in ((nan, "(nan+0j)"), (complex(1.0, nan), "(1+nanj)"),
                     (complex(nan, -1.0), "(nan-1j)")):
        with pytest.raises(DomainError, match=nan_message(shown)):
            sin_cos_integral(z)
    # an infinite argument is not NaN: Si(+inf) = pi/2, Ci(+inf) = 0
    si, ci = sin_cos_integral(math.inf)
    assert si == pytest.approx(math.pi / 2, rel=1e-15) and ci == 0.0


def test_si_ci_real_limits():
    for x in (150.0, 400.0):
        si, ci = sin_cos_integral(x)
        assert si.real == pytest.approx(math.pi / 2, abs=1.2 / x)
        assert abs(ci) <= 1.2 / x
        assert si.imag == 0.0 and ci.imag == 0.0


def test_si_ci_conjugation():
    for z in (0.4 + 0.9j, 3.0 + 2.0j, 25.0 - 7.0j, 0.01 + 10.0j):
        si, ci = sin_cos_integral(z)
        si_c, ci_c = sin_cos_integral(z.conjugate())
        assert si_c == pytest.approx(si.conjugate(), rel=1e-12)
        assert ci_c == pytest.approx(ci.conjugate(), rel=1e-12)


def test_derivatives_by_finite_differences():
    rng = np.random.default_rng(20260819)
    h = 1e-5
    for _ in range(100):
        z = complex(0.1 + 49.9 * rng.random(), 30.0 * rng.random() - 15.0)
        si_hi, ci_hi = sin_cos_integral(z + h)
        si_lo, ci_lo = sin_cos_integral(z - h)
        d_si, d_ci = (si_hi - si_lo) / (2 * h), (ci_hi - ci_lo) / (2 * h)
        exact_si, exact_ci = cmath.sin(z) / z, cmath.cos(z) / z
        assert abs(d_si - exact_si) <= 1e-6 * (1.0 + abs(exact_si))
        assert abs(d_ci - exact_ci) <= 1e-6 * (1.0 + abs(exact_ci))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=math.log(1e-3), max_value=math.log(500.0)),
       st.floats(min_value=-math.pi + 0.05, max_value=math.pi - 0.05))
def test_e1_finite_everywhere_off_cut(log_r, theta):
    z = cmath.rect(math.exp(log_r), theta)
    v = expint_e1(z)
    assert math.isfinite(v.real) and math.isfinite(v.imag)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=math.log(1e-3), max_value=math.log(500.0)),
       st.floats(min_value=-math.pi / 2, max_value=math.pi / 2))
def test_si_ci_finite_right_half_plane(log_r, theta):
    z = cmath.rect(math.exp(log_r), theta)
    if z.real < 0.0:  # rounding at theta = +-pi/2
        z = complex(0.0, z.imag)
    if z == 0:
        return
    si, ci = sin_cos_integral(z)
    for v in (si, ci):
        assert math.isfinite(v.real) and math.isfinite(v.imag)
