import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from torus_quant import (
    FiducialSpec,
    InputFormatError,
    ToleranceError,
    realize_fiducial,
)
from torus_quant.errors import bound
from torus_quant.fiducials import _guard_normalize

from conftest import default_catalog, kronecker
from oracles import jacobi_theta3, window_sum


def theta_oracle(x, s_im, nmax=60):
    """Independent brute-force partial sum of the theta series."""
    return sum(np.exp(2j * np.pi * n * x) * np.exp(-np.pi * s_im * n * n)
               for n in range(-nmax, nmax + 1))


class TestTheta:
    def test_large_parameter_limit(self):
        assert jacobi_theta3(0.0, 60.0) == pytest.approx(1.0, abs=1e-15)

    def test_periodic_in_first_argument(self):
        assert jacobi_theta3(1.0, 0.7) == pytest.approx(jacobi_theta3(0.0, 0.7))

    def test_against_brute_force_sum(self):
        val = jacobi_theta3(0.0, 1.0)
        assert val == pytest.approx(theta_oracle(0.0, 1.0), abs=1e-15)
        assert val.real == pytest.approx(1.0864348, abs=1e-7)

    def test_complex_argument_against_brute_force(self):
        x = 0.3 + 0.45j
        assert jacobi_theta3(x, 0.8) == pytest.approx(theta_oracle(x, 0.8), abs=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_parameter(self, bad):
        with pytest.raises(ValueError, match="positive"):
            jacobi_theta3(0.0, bad)


class TestRealizations:
    def test_constant(self):
        v = realize_fiducial(FiducialSpec("constant"), 9)
        assert v == pytest.approx(np.full(9, 1.0 / 3.0))

    def test_von_mises_zero_concentration_is_constant(self):
        v = realize_fiducial(FiducialSpec("von_mises", 0.0), 4)
        assert v == pytest.approx(np.full(4, 0.5))

    def test_von_mises_huge_concentration_is_normalized(self):
        v = realize_fiducial(FiducialSpec("von_mises", 400.0), 60)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(np.abs(v)) == 0

    def test_dirichlet_collapses_to_delta_at_full_order(self):
        v = realize_fiducial(FiducialSpec("dirichlet", 2), 5)
        assert np.abs(v - kronecker(5, 0)).max() < 1e-12

    @pytest.mark.parametrize("d", [5, 95, 1023, 4095])
    def test_dirichlet_at_full_order_is_the_delta_off_its_peak(self, d):
        v = realize_fiducial(FiducialSpec("dirichlet", (d - 1) // 2), d)
        assert v[0] == pytest.approx(1.0, abs=1e-15)
        assert np.abs(v[1:]).max() <= 1e-16

    def test_dirichlet_builds_no_d_by_j_table(self):
        d, j = 4095, 2047  # a d x j table of doubles would take 67 MB
        tracemalloc.start()
        try:
            realize_fiducial(FiducialSpec("dirichlet", j), d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 9, 16])
    def test_every_window_matches_its_literal_cosine_sum(self, d):
        specs = [*default_catalog(d), FiducialSpec("plane_wave", d - 1),
                 FiducialSpec("gaussian", 0.05), FiducialSpec("gaussian", 2.0),
                 FiducialSpec("von_mises", 3.0), FiducialSpec("von_mises", 30.0),
                 FiducialSpec("von_mises", 400.0),
                 *(FiducialSpec("dirichlet", j) for j in range((d + 1) // 2))]
        for spec in specs:
            v = realize_fiducial(spec, d)
            assert np.abs(v - window_sum(spec.kind, spec.param, d)).max() <= 1e-14, spec

    def test_dirichlet_zero_order_is_constant(self):
        v = realize_fiducial(FiducialSpec("dirichlet", 0), 6)
        assert v == pytest.approx(np.full(6, 1 / np.sqrt(6)))

    def test_dirichlet_order_bound(self):
        with pytest.raises(ValueError, match="2j\\+1"):
            realize_fiducial(FiducialSpec("dirichlet", 2), 4)

    def test_gaussian_matches_truncated_series_oracle(self):
        d, kappa = 5, 1.0
        v = realize_fiducial(FiducialSpec("gaussian", kappa), d)
        assert np.abs(v - window_sum("gaussian", kappa, d)).max() < 1e-12

    @pytest.mark.parametrize("t", [0.05, 0.99, 1.0, 1.01, 50.0, 1e6])
    @pytest.mark.parametrize("d", [5, 8])
    def test_gaussian_matches_series_oracle_either_side_of_t_one(self, d, t):
        # the window sums Fourier terms for t = kappa d < 1 and images for t >= 1
        v = realize_fiducial(FiducialSpec("gaussian", t / d), d)
        assert np.abs(v - window_sum("gaussian", t / d, d)).max() < 1e-12

    def test_gaussian_extreme_width_is_cheap(self):
        # t = kappa d ~ 1e12: its Fourier series would need ~3.4e6 terms
        v = realize_fiducial(FiducialSpec("gaussian", 1e9), 1023)
        assert np.abs(v - kronecker(1023, 0)).max() < 1e-15

    @pytest.mark.parametrize("d", [2, 1023])
    def test_gaussian_width_whose_t_overflows_is_the_delta(self, d):
        # t = kappa d overflows to inf; the window is the delta it tends to
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = realize_fiducial(FiducialSpec("gaussian", 1e308), d)
        assert np.array_equal(v, kronecker(d, 0))

    def test_kronecker_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            realize_fiducial(FiducialSpec("kronecker", 5), 5)

    def test_plane_wave_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            realize_fiducial(FiducialSpec("plane_wave", 7), 4)

    def test_custom_renormalizes_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = realize_fiducial(FiducialSpec.custom([2.0, 0.0, 0.0]), 3)
        assert v == pytest.approx([1.0, 0.0, 0.0])

    def test_custom_zero_vector_rejected(self):
        with pytest.raises(InputFormatError, match="zero"):
            realize_fiducial(FiducialSpec.custom([0.0, 0.0]), 2)

    @pytest.mark.parametrize("values", [[1e-13, 2e-13, 1e-13], [1e300, 1e300, 0.0],
                                        [5e-324, 0.0, 0.0], [1e308j, -1e308, 1e308]])
    def test_custom_direction_at_any_scale(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = realize_fiducial(FiducialSpec.custom(values), 3)
        expected = np.array(values) / np.abs(values).max()
        assert v == pytest.approx(expected / np.linalg.norm(expected), abs=1e-15)

    @settings(deadline=None, max_examples=300)
    @given(hnp.arrays(complex, st.integers(1, 48), elements=st.complex_numbers(
        max_magnitude=1e308, allow_nan=False, allow_infinity=False)))
    def test_realized_window_realizes_to_itself(self, v):
        assume(v.any())
        w = realize_fiducial(FiducialSpec.custom(v), len(v))
        again = realize_fiducial(FiducialSpec.custom(w), len(v))
        assert again.dtype == complex and again.flags.c_contiguous
        assert again.tobytes() == w.tobytes()  # bitwise

    def test_non_finite_recipe_is_a_tolerance_failure(self):
        with pytest.raises(ToleranceError, match="not finite") as info:
            _guard_normalize(np.array([np.inf, 1.0]))
        assert (info.value.key, info.value.residual) == ("fiducial_peak", np.inf)

    def test_normalization_check_carries_its_key(self, monkeypatch):
        real_norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda v: real_norm(v) + 1e-6)
        with pytest.raises(ToleranceError) as info:
            realize_fiducial(FiducialSpec("constant"), 4)
        assert (info.value.key, info.value.bound) == ("fiducial_normalization", bound())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_custom_rejects_non_finite_samples(self, bad):
        with pytest.raises(InputFormatError, match="non-finite"):
            FiducialSpec.custom([bad, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_catalog_is_unit_norm(self, d):
        for spec in default_catalog(d):
            assert np.linalg.norm(realize_fiducial(spec, d)) == pytest.approx(1.0, abs=1e-12), spec


class TestParsing:
    @pytest.mark.parametrize("text,kind", [
        ("constant", "constant"),
        ("kronecker:2", "kronecker"),
        ("plane_wave:1", "plane_wave"),
        ("gaussian:1.5", "gaussian"),
        ("dirichlet:3", "dirichlet"),
        ("von_mises:400", "von_mises"),
    ])
    def test_parse_kinds(self, text, kind):
        assert FiducialSpec.parse(text).kind == kind

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            FiducialSpec.parse("hermite:3")

    @pytest.mark.parametrize("text", ["hermite:3", "bogus", "von_mises:abc", "kronecker:",
                                      "kronecker:1.5", "von_mises:nan", "gaussian:inf",
                                      "constant:400", "custom:w.csv"])
    def test_malformed_spec_is_input_error(self, text):
        with pytest.raises(InputFormatError):
            FiducialSpec.parse(text)

    def test_out_of_range_parameter_is_not_an_input_error(self):
        with pytest.raises(ValueError) as info:
            FiducialSpec.parse("von_mises:-1")
        assert not isinstance(info.value, InputFormatError)

    def test_constant_takes_no_parameter(self):
        assert FiducialSpec.parse("constant") == FiducialSpec("constant")
        with pytest.raises(InputFormatError, match="takes no parameter"):
            FiducialSpec.parse("constant:400")  # a typo for von_mises:400 is not a flat window

    @pytest.mark.parametrize("build,param", [
        (lambda: FiducialSpec("gaussian", -1.0), None),
        (lambda: FiducialSpec("von_mises", -5.0), None),
        (lambda: FiducialSpec("kronecker", 1.5), None),
        (lambda: FiducialSpec("dirichlet", 2.7), None),
        (lambda: FiducialSpec("kronecker", True), None),
        (lambda: FiducialSpec("nope"), None),
        (lambda: FiducialSpec("constant", 400), None),
        (lambda: FiducialSpec("kronecker"), None),
        (lambda: FiducialSpec("kronecker", float("inf")), None),
        (lambda: FiducialSpec("gaussian", 10**400), None),
        (lambda: FiducialSpec("gaussian", 0.0), None),
        (lambda: FiducialSpec("gaussian", -2.0), None),
        (lambda: FiducialSpec("von_mises", -1.0), None),
        (lambda: FiducialSpec("dirichlet", -1), None),
        (lambda: FiducialSpec("kronecker", -2), None),
        (lambda: FiducialSpec("gaussian", float("inf")), None),
        (lambda: FiducialSpec("gaussian", float("nan")), None),
        (lambda: FiducialSpec("von_mises", float("inf")), None),
        (lambda: FiducialSpec("von_mises", float("nan")), None),
        (lambda: FiducialSpec("kronecker", np.int64(2)), 2),
        (lambda: FiducialSpec("dirichlet", 2.0), 2),
        (lambda: FiducialSpec("von_mises", np.float32(3)), 3.0),
        (lambda: FiducialSpec("gaussian", 2), 2.0),
    ], ids=["gaussian-negative", "von_mises-negative", "kronecker-fraction",
            "dirichlet-fraction", "kronecker-bool", "unknown-kind",
            "constant-with-parameter", "kronecker-without-parameter", "kronecker-inf",
            "gaussian-overflowing-int", "gaussian-zero", "gaussian-minus-two",
            "von_mises-minus-one", "dirichlet-negative", "kronecker-negative", "gaussian-inf",
            "gaussian-nan", "von_mises-inf", "von_mises-nan", "kronecker-numpy-int",
            "dirichlet-integral-float", "von_mises-float32", "gaussian-int"])
    def test_spec_is_checked_when_built(self, build, param):
        # param None: the spec is rejected; else it is stored as the kind's type
        if param is None:
            with pytest.raises(ValueError):
                build()
        else:
            spec = build()
            assert spec.param == param and type(spec.param) is type(param)
