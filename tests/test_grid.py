import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonorm import (
    CsvFormatError,
    Domain,
    GridAlignmentError,
    GridSizeError,
    GridFunction,
    ParabolicShift,
    coarsen,
    grid_from_csv,
    kth_difference,
    make_grid_function,
    parabolic_dilate,
    shift_eval,
)
from holonorm.grid import difference_coefficients


def unit_interval(T=0.0):
    return Domain((0.0,), (1.0,), T)


class TestDomain:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Domain((1.0,), (0.0,))

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            Domain((0.0,), (1.0,), -1.0)

    def test_elliptic_flag(self):
        assert unit_interval().is_elliptic
        assert not unit_interval(2.0).is_elliptic


class TestMakeGridFunction:
    def test_zero_function(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: 0.0 * x[0])
        assert u.values.shape == (5, 1)
        assert np.all(u.values == 0.0)

    def test_linear_nodes(self):
        u = make_grid_function(unit_interval(), 2, 0, lambda x, t: x[0])
        assert list(u.values[:, 0]) == [0.0, 0.5, 1.0]

    def test_product_node(self):
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 2, 2, lambda x, t: x[0] * t)
        assert u.value_at((1, 2)) == 0.5  # x = 0.5, t = 1.0

    def test_scalar_only_callable_falls_back(self):
        def f(x, t):
            if hasattr(x[0], "shape"):
                raise TypeError("scalar only")
            return x[0] + t

        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 2, 2, f)
        assert u.value_at((2, 2)) == 2.0

    def test_nonfinite_sample_names_node(self):
        with pytest.raises(ValueError, match=r"node \(2, 0\)"):
            make_grid_function(unit_interval(), 4, 0,
                               lambda x, t: 1.0 / (x[0] - 0.5) if x[0] != 0.5 else math.inf)

    def test_size_cap(self):
        with pytest.raises(GridSizeError):
            make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0),
                               (10_000, 10_000), 10, lambda x, t: 0.0)

    @pytest.mark.parametrize("domain, steps, tsteps", [
        (Domain((0.0, 0.0), (1.0, 1.0)), (4,), 0),
        (Domain((0.0, 0.0), (1.0, 1.0)), (40, 40, 40), 0),
        (Domain((0.0, 0.0), (1.0, 1.0)), (0, 4), 0),
        (Domain((0.0, 0.0), (1.0, 1.0)), (4, 4), 3),
        (Domain((0.0,), (1.0,), 1.0), 4, 0),
        (Domain((0.0, 0.0), (1.0, 1.0), 1.0), (10_000, 10_000), 10),
    ], ids=["too-short", "too-long", "zero-step", "time-steps-at-T0", "no-time-steps-at-T1",
            "size-cap"])
    def test_invalid_lattice_rejected_before_sampling(self, domain, steps, tsteps):
        calls = []

        def f(x, t):
            calls.append((x, t))
            return 0.0

        with pytest.raises(ValueError):
            make_grid_function(domain, steps, tsteps, f)
        assert calls == []

    def test_endpoints_exact(self):
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 48, 48, lambda x, t: x[0])
        assert u.axis_coords(0)[-1] == 1.0
        assert u.time_coords()[-1] == 1.0


class TestShiftEval:
    def setup_method(self):
        self.u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])

    def test_double_step(self):
        v = shift_eval(self.u, (1,), ParabolicShift((0.25,)), 2)
        assert v == 0.75

    def test_out_of_domain(self):
        assert shift_eval(self.u, (3,), ParabolicShift((0.25,)), 2) is None

    def test_identity_shift(self):
        assert shift_eval(self.u, (2,), ParabolicShift((0.25,)), 0) == 0.5

    def test_misaligned_rejected(self):
        with pytest.raises(GridAlignmentError):
            shift_eval(self.u, (0,), ParabolicShift((0.3,)), 1)

    def test_time_shift_on_elliptic_rejected(self):
        with pytest.raises(GridAlignmentError):
            shift_eval(self.u, (0,), ParabolicShift((0.25,), 0.5), 1)


class TestKthDifference:
    def test_quadratic_second_difference(self):
        u = make_grid_function(unit_interval(), 10, 0, lambda x, t: x[0] ** 2)
        v = kth_difference(u, (0,), ParabolicShift((0.1,)), 2)
        assert v == pytest.approx(0.02, rel=1e-12)  # 2 h^2

    def test_cubic_third_difference(self):
        # sum_i (-1)^(3-i) C(3,i) (i h)^3 = 6 h^3 = 0.09375 at h = 0.25
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0] ** 3)
        v = kth_difference(u, (0,), ParabolicShift((0.25,)), 3)
        assert v == pytest.approx(0.09375, rel=1e-13)

    def test_out_of_domain(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])
        assert kth_difference(u, (3,), ParabolicShift((0.25,)), 2) is None

    @given(k=st.integers(1, 4), coeffs=st.lists(
        st.floats(-3, 3, allow_nan=False), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_annihilates_low_degree_polynomials(self, k, coeffs):
        # degree < k along the shift line
        coeffs = coeffs[:k]
        u = make_grid_function(
            unit_interval(), 16, 0,
            lambda x, t: sum(c * x[0] ** i for i, c in enumerate(coeffs)))
        v = kth_difference(u, (2,), ParabolicShift((1.0 / 16,)), k)
        assert v == pytest.approx(0.0, abs=1e-11)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        d = Domain((0.0,), (1.0,), 1.0)
        u = make_grid_function(d, 8, 4, lambda x, t: np.sin(3 * x[0]) * (1 + t))
        v = make_grid_function(d, 8, 4, lambda x, t: np.cos(2 * x[0]) - t)
        a, b = 2.5, -1.25
        w = u.with_values(a * u.values + b * v.values)
        H = ParabolicShift((2.0 / 8,), 0.25)
        for idx in [(0, 0), (1, 1), (2, 0)]:
            lhs = kth_difference(w, idx, H, 2)
            rhs = a * kth_difference(u, idx, H, 2) + b * kth_difference(v, idx, H, 2)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_reconstruction_identity_random_grid(self):
        # u = (-1)^k diff + sum_i c_i u(.+iH) at every admissible (node, H, k<=3)
        rng = np.random.default_rng(42)
        d = Domain((0.0,), (1.0,), 1.0)
        vals = rng.uniform(-1.0, 1.0, size=(7, 7))
        u = GridFunction(d, (6,), 6, vals)
        tol = 10 * np.finfo(float).eps * float(np.max(np.abs(vals)))
        worst = 0.0
        for k in (1, 2, 3):
            coeffs = difference_coefficients(k)
            for ds in range(-6, 7):
                for js in range(-6, 7):
                    if ds == 0 and js == 0:
                        continue
                    H = u.shift_from_steps((ds,), js)
                    for i0 in range(7):
                        for j0 in range(7):
                            diff = kth_difference(u, (i0, j0), H, k)
                            if diff is None:
                                continue
                            s = 0.0
                            for i in range(1, k + 1):
                                s += coeffs[i - 1] * u.value_at((i0 + i * ds, j0 + i * js))
                            rec = (-1.0) ** k * diff + s
                            worst = max(worst, abs(rec - u.value_at((i0, j0))))
        assert worst <= tol


class TestPlengthAndDilation:
    def test_plength_positive_definite(self):
        assert ParabolicShift((0.0,), 0.0).plength == 0.0
        assert ParabolicShift((0.1,), 0.0).plength > 0.0
        assert ParabolicShift((0.0,), 1e-9).plength > 0.0

    def test_anisotropic_homogeneity(self):
        H = ParabolicShift((0.1,), 0.01)
        lam = 2.0
        assert H.dilated(lam).plength == pytest.approx(lam * H.plength, rel=1e-15)
        assert H.dilated(lam).plength == pytest.approx(0.4, rel=1e-15)

    def test_identity_dilation(self):
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 4, 4, lambda x, t: x[0] * t)
        v = parabolic_dilate(u, 1.0)
        assert v.domain == u.domain
        assert np.array_equal(v.values, u.values)

    def test_box_scaling(self):
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 4, 4, lambda x, t: x[0] * t)
        v = parabolic_dilate(u, 2.0)
        assert v.domain.space_upper == (2.0,)
        assert v.domain.time_horizon == 4.0
        assert np.array_equal(v.values, u.values)

    def test_nonpositive_factor_rejected(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])
        with pytest.raises(ValueError):
            parabolic_dilate(u, 0.0)


class TestCoarsen:
    def test_every_second_node(self):
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 8, 8, lambda x, t: x[0] + t)
        v = coarsen(u, 2)
        assert v.spatial_steps == (4,)
        assert v.time_steps == 4
        assert v.value_at((2, 2)) == u.value_at((4, 4))

    def test_indivisible_rejected(self):
        u = make_grid_function(unit_interval(), 5, 0, lambda x, t: x[0])
        with pytest.raises(ValueError):
            coarsen(u, 2)


class TestCsv:
    def _write(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        return str(path)

    def test_roundtrip_parabolic(self, tmp_path):
        u = make_grid_function(Domain((0.0,), (2.0,), 1.0), 4, 2,
                               lambda x, t: x[0] * (t + 1.0))
        lines = ["x1,t,u"]
        for i in range(5):
            for j in range(3):
                x, t = u.node_coords((i, j))
                lines.append(f"{x[0]!r},{t!r},{u.value_at((i, j))!r}")
        v = grid_from_csv(self._write(tmp_path, "\n".join(lines) + "\n"))
        assert v.spatial_steps == (4,)
        assert v.time_steps == 2
        assert np.array_equal(v.values, u.values)

    def test_roundtrip_elliptic_2d(self, tmp_path):
        u = make_grid_function(Domain((0.0, -1.0), (1.0, 1.0), 0.0), (2, 2), 0,
                               lambda x, t: x[0] - x[1])
        lines = ["x1,x2,u"]
        for i in range(3):
            for j in range(3):
                x, _ = u.node_coords((i, j, 0))
                lines.append(f"{x[0]!r},{x[1]!r},{u.value_at((i, j, 0))!r}")
        v = grid_from_csv(self._write(tmp_path, "\n".join(lines) + "\n"))
        assert v.domain.space_lower == (0.0, -1.0)
        assert np.array_equal(v.values, u.values)

    def test_irregular_spacing_rejected(self, tmp_path):
        text = "x1,u\n0.0,1\n0.5,2\n0.8,3\n"
        with pytest.raises(CsvFormatError, match="not uniformly spaced"):
            grid_from_csv(self._write(tmp_path, text))

    def test_incomplete_lattice_rejected(self, tmp_path):
        text = "x1,t,u\n0.0,0.0,1\n1.0,0.0,2\n0.0,1.0,3\n"
        with pytest.raises(CsvFormatError, match="incomplete"):
            grid_from_csv(self._write(tmp_path, text))

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(CsvFormatError, match="header"):
            grid_from_csv(self._write(tmp_path, "a,b\n1,2\n"))

    def test_bad_row_named(self, tmp_path):
        text = "x1,u\n0.0,1\nnope,2\n1.0,3\n"
        with pytest.raises(CsvFormatError, match="row 3"):
            grid_from_csv(self._write(tmp_path, text))

    def test_duplicate_node_named(self, tmp_path):
        # duplicate (0,1) hides the missing (1,1); the row count still matches
        text = "x1,x2,u\n0.0,0.0,1\n0.0,1.0,2\n1.0,0.0,3\n0.0,1.0,2\n"
        with pytest.raises(CsvFormatError, match="row 5: duplicate"):
            grid_from_csv(self._write(tmp_path, text))


class TestImmutability:
    def test_values_read_only(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])
        with pytest.raises(ValueError):
            u.values[0, 0] = 5.0
