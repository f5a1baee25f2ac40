"""Doping profiles, field reconstruction, neutrality projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihydro import field
from semihydro.field import DopingProfile


def test_constant_profile():
    D = DopingProfile.constant(1.0)
    assert D.d_lo == D.d_hi == 1.0
    x = np.linspace(0.0, 1.0, 11)
    assert np.all(D(x) == 1.0)
    with pytest.raises(ValueError, match="positive"):
        DopingProfile.constant(0.0)
    with pytest.raises(ValueError, match="positive"):
        DopingProfile.constant(-2.0)


def test_sine_profile_bounds():
    D = DopingProfile.sine(1.0, 0.5, 1.0)
    assert D.d_lo == pytest.approx(0.5, abs=1e-6)
    assert D.d_hi == pytest.approx(1.5, abs=1e-6)
    assert D(0.25) == pytest.approx(1.5)
    assert D(0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="positive"):
        DopingProfile.sine(1.0, 2.0, 1.0)


def test_table_profile():
    D = DopingProfile.table([0.0, 0.5, 1.0], [1.0, 2.0, 1.0])
    assert D(0.25) == pytest.approx(1.5)
    assert D.d_lo == 1.0 and D.d_hi == 2.0
    with pytest.raises(ValueError, match="increasing"):
        DopingProfile.table([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="cover"):
        DopingProfile.table([0.1, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="two equal-length columns"):
        DopingProfile.table([0.0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        DopingProfile.table([0.0, 1.0], [1.0, -1.0])


def test_table_file_round_trip(tmp_path):
    p = tmp_path / "dope.csv"
    p.write_text("0.0,1.0\n0.5,2.0\n1.0,1.0\n")
    D = DopingProfile.from_table_file(str(p))
    assert D(0.5) == pytest.approx(2.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0,9.0\n1.0,1.0,9.0\n")
    with pytest.raises(ValueError, match="two columns"):
        DopingProfile.from_table_file(str(bad))
    with pytest.raises(ValueError, match="cannot read"):
        DopingProfile.from_table_file(str(tmp_path / "missing.csv"))


def test_from_spec(tmp_path):
    D = DopingProfile.from_spec("constant:1.5")
    assert D.kind == "constant" and D.d_hi == 1.5
    D = DopingProfile.from_spec("sine:1:0.5:1")
    assert D.kind == "sine"
    assert D(0.25) == pytest.approx(1.5)
    for text in ("constant", "constant:1:2", "sine:1:0.5", "wedge:1", ""):
        with pytest.raises(ValueError, match="doping spec"):
            DopingProfile.from_spec(text)
    with pytest.raises(ValueError, match="non-numeric"):
        DopingProfile.from_spec("constant:abc")
    # a header line is the file's fault, not the spec's
    p = tmp_path / "header.csv"
    p.write_text("x,D\n0,1\n1,2\n")
    with pytest.raises(ValueError, match="malformed profile table .*header.csv"):
        DopingProfile.from_spec(f"table:{p}")


def test_bounds_catch_extremes_between_samples():
    # D = 1 + 2 sin(2000 pi x) reaches -1, and the table dips to -1 on a
    # 1e-4-wide interval: both fall between the points of a 2001-point grid
    with pytest.raises(ValueError, match="positive"):
        DopingProfile.from_spec("sine:1:2:1000")
    with pytest.raises(ValueError, match="positive"):
        DopingProfile.table([0, 2e-4, 2.5e-4, 3e-4, 1], [1, 1, -1, 1, 1])
    D = DopingProfile.sine(1.0, 0.5, 1.0)
    assert (D.d_lo, D.d_hi) == (0.5, 1.5)


def test_initial_data_share_the_grammar_without_positivity(tmp_path):
    D = DopingProfile.from_spec("sine:0:-2:0.25", "initial")
    assert (D.d_lo, D.d_hi) == (-2.0, 0.0)
    assert DopingProfile.from_spec("constant:-0.3", "initial")(0.5) == -0.3
    for text, match in (("wedge:1", "malformed initial spec"),
                        ("constant:x", "non-numeric parameter in initial spec"),
                        ("sine:1:0.5:-inf", "finite")):
        with pytest.raises(ValueError, match=match):
            DopingProfile.from_spec(text, "initial")
    p = tmp_path / "J0.csv"
    p.write_text("0.0,1.0\n0.5,nan\n1.0,2.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        DopingProfile.from_spec(f"table:{p}", "initial")


_DENSE = np.linspace(0.0, 1.0, 100_001)


@settings(max_examples=200, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(-5.0, 5.0))
def test_sine_bounds_are_the_extremes(mean, amp, freq):
    D = DopingProfile.sine(mean, amp, freq, positive=False)
    values = D(_DENSE)
    # they enclose D (up to rounding in sin) and are attained: the dense
    # grid misses an extreme by at most amp (2 pi freq dx)**2 / 2 < 1e-7
    assert D.d_lo <= values.min() + 1e-12 and D.d_hi >= values.max() - 1e-12
    assert D.d_lo >= values.min() - 1e-7 and D.d_hi <= values.max() + 1e-7


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=12, unique=True),
       st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12))
def test_table_bounds_are_the_extremes(knots, ds):
    xs = np.sort(np.array(knots + [0.0, 1.0]))
    xs = xs[np.concatenate([[True], np.diff(xs) > 0.0])]
    ds = np.resize(ds, xs.size)
    D = DopingProfile.table(xs, ds, positive=False)
    # attained at a knot or an end of [0, 1], and enclosing D up to rounding
    ends_and_knots = D(np.concatenate([[0.0, 1.0], xs[(xs >= 0.0) & (xs <= 1.0)]]))
    assert (D.d_lo, D.d_hi) == (ends_and_knots.min(), ends_and_knots.max())
    values = D(_DENSE)
    assert D.d_lo <= values.min() + 1e-12 and D.d_hi >= values.max() - 1e-12


def test_field_from_matched_density_is_zero():
    D = DopingProfile.sine(1.0, 0.5, 1.0)
    x = np.linspace(0.0, 1.0, 201)
    E = field.field_from_density(D(x), D, 1.0 / 200)
    assert np.max(np.abs(E)) < 1e-15


def test_field_matches_closed_form_integral():
    # n - D = sin(2 pi x) integrates to (1 - cos(2 pi x)) / (2 pi)
    N = 400
    x = np.linspace(0.0, 1.0, N + 1)
    D = DopingProfile.constant(1.0)
    n = 1.0 + np.sin(2.0 * np.pi * x)
    E = field.field_from_density(n, D, 1.0 / N)
    exact = (1.0 - np.cos(2.0 * np.pi * x)) / (2.0 * np.pi)
    assert E[0] == 0.0
    assert np.max(np.abs(E - exact)) < 2.0 / N**2


def test_field_accepts_presampled_doping_and_checks_shape():
    x = np.linspace(0.0, 1.0, 51)
    n = np.ones(51)
    E = field.field_from_density(n, np.ones(51), 1.0 / 50)
    assert np.all(E == 0.0)
    with pytest.raises(ValueError, match="shape"):
        field.field_from_density(n, np.ones(50), 1.0 / 50)
    n[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        field.field_from_density(n, np.ones(51), 1.0 / 50)


def test_neutrality_defect_linear_case():
    N = 100
    x = np.linspace(0.0, 1.0, N + 1)
    D = DopingProfile.constant(1.0)
    defect = field.neutrality_defect(1.0 + x, D, 1.0 / N)
    assert defect == pytest.approx(0.5, abs=1e-12)
    assert field.neutrality_defect(np.ones(N + 1), D, 1.0 / N) == 0.0


def test_project_neutral_shift_branch():
    N = 200
    x = np.linspace(0.0, 1.0, N + 1)
    D = DopingProfile.constant(1.0)
    n0 = 1.2 + 0.1 * np.sin(2.0 * np.pi * x)
    out = field.project_neutral(n0, D, 1.0 / N)
    assert abs(field.neutrality_defect(out, D, 1.0 / N)) < 1e-13
    # additive branch: shape preserved exactly
    assert np.allclose(np.diff(out), np.diff(n0))
    assert np.min(out) > 0.0


def test_project_neutral_rescale_branch():
    # excess mass plus a boundary zero defeats the shift, so the
    # multiplicative rescale kicks in
    N = 100
    x = np.linspace(0.0, 1.0, N + 1)
    D = DopingProfile.constant(1.0)
    n0 = 8.0 * x * (1.0 - x)
    out = field.project_neutral(n0, D, 1.0 / N)
    assert abs(field.neutrality_defect(out, D, 1.0 / N)) < 1e-13
    assert np.all(out >= 0.0)
    assert out[0] == 0.0
    assert np.allclose(out / np.max(out), n0 / np.max(n0))


def test_project_neutral_lifts_zero_density():
    # deficit is handled by the additive branch even from all-zero data
    D = DopingProfile.constant(1.0)
    out = field.project_neutral(np.zeros(101), D, 0.01)
    assert np.allclose(out, 1.0)


def test_project_neutral_rejects_negative_density():
    D = DopingProfile.constant(1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        field.project_neutral(np.array([-1.0, 1.0, 1.0]), D, 0.5)
