import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonorm import (
    CsvFormatError,
    DiffSeminormSpec,
    Domain,
    Family,
    GridAlignmentError,
    GridSizeError,
    GridFunction,
    InterpSpec,
    MultiIndex,
    ParabolicShift,
    coarsen,
    diff_quotient_seminorm,
    grid_from_csv,
    kth_difference,
    make_grid_function,
    parabolic_dilate,
    pointwise_reconstruction_bound,
    random_search,
    refine_search,
    shift_eval,
)
from holonorm.grid import difference_coefficients
from holonorm.norms import derivative_field


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

    def test_numpy_integer_step_count(self):
        u = make_grid_function(unit_interval(1.0), np.int64(2), np.int64(1), lambda x, t: x[0])
        assert u.spatial_steps == (2,) and u.time_steps == 1
        assert list(u.values[:, 1]) == [0.0, 0.5, 1.0]

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

    def test_direct_nonfinite_value_names_node_and_coordinates(self):
        vals = np.zeros((3, 2))
        vals[1, 1] = np.nan
        with pytest.raises(ValueError) as info:
            GridFunction(Domain((0.0,), (1.0,), 2.0), (2,), 1, vals)
        assert str(info.value) == "non-finite value nan at node (1, 1), x=(0.5,), t=2.0"

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

    @pytest.mark.parametrize("index, multiplier, expected", [
        ((3,), -1, 0.5), ((3,), -2, 0.25), ((2,), -2, 0.0), ((1,), -2, None), ((0,), -1, None),
    ])
    def test_negative_multiplier(self, index, multiplier, expected):
        assert shift_eval(self.u, index, ParabolicShift((0.25,)), multiplier) == expected

    def test_space_time_translate(self):
        u = make_grid_function(Domain((0.0, 0.0), (1.0, 1.0), 1.0), (4, 2), 2,
                               lambda x, t: x[0] + 10 * x[1] + 100 * t)
        H = ParabolicShift((0.25, 0.5), 0.5)
        assert shift_eval(u, (1, 0, 0), H, 2) == 0.75 + 10.0 + 100.0
        assert shift_eval(u, (3, 2, 2), H, -2) == 0.25
        assert shift_eval(u, (3, 2, 1), H, -2) is None  # time leaves the box
        assert shift_eval(u, (2, 1, 0), H, 2) is None  # x2 leaves the box


class TestAlignment:
    def setup_method(self):
        self.u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 5, 4, lambda x, t: x[0] * t)

    @pytest.mark.parametrize("shift, message", [
        (ParabolicShift((0.3,)),
         "shift component 0.3 on axis 1 is not a whole multiple of the spacing 0.2"),
        (ParabolicShift((-0.31,), 0.25),
         "shift component -0.31 on axis 1 is not a whole multiple of the spacing 0.2"),
        (ParabolicShift((0.2,), 0.1),
         "time shift 0.1 is not a whole multiple of the time step 0.25"),
        (ParabolicShift((0.2, 0.2)), "shift has 2 spatial components, grid has 1"),
    ])
    def test_message(self, shift, message):
        with pytest.raises(GridAlignmentError) as info:
            self.u.steps_of_shift(shift)
        assert str(info.value) == message

    def test_time_shift_on_spatial_grid_message(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])
        with pytest.raises(GridAlignmentError) as info:
            u.steps_of_shift(ParabolicShift((0.25,), 0.5))
        assert str(info.value) == "nonzero time shift on a purely spatial grid"

    def test_whole_steps(self):
        assert self.u.steps_of_shift(ParabolicShift((-0.4,), 0.75)) == ((-2,), 3)
        assert self.u.steps_of_shift(ParabolicShift((0.0,), -0.0)) == ((0,), 0)


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

    def test_order_zero_rejected(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])
        with pytest.raises(ValueError, match="^difference order must be >= 1, got 0$"):
            kth_difference(u, (0,), ParabolicShift((0.25,)), 0)

    def test_last_translate_on_the_box_edge(self):
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 4, 4, lambda x, t: x[0] ** 2 + t)
        H = ParabolicShift((0.25,), 0.25)
        assert kth_difference(u, (2, 2), H, 2) == pytest.approx(2 * 0.25 ** 2, rel=1e-12)
        assert kth_difference(u, (3, 2), H, 2) is None  # x one step beyond
        assert kth_difference(u, (2, 3), H, 2) is None  # t one step beyond
        back = ParabolicShift((-0.25,), -0.25)
        assert kth_difference(u, (2, 2), back, 2) == pytest.approx(2 * 0.25 ** 2, rel=1e-12)
        assert kth_difference(u, (1, 2), back, 2) is None

    def test_matches_direct_indexing(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(-1.0, 1.0, size=(4, 3, 3))
        u = GridFunction(Domain((0.0, 0.0), (1.0, 1.0), 1.0), (3, 2), 2, vals)
        for d1, d2, j in np.ndindex(7, 5, 5):
            full = (d1 - 3, d2 - 2, j - 2)
            H = u.shift_from_steps(full[:2], full[2])
            for base in np.ndindex(vals.shape):
                nodes = [tuple(b + m * d for b, d in zip(base, full)) for m in range(4)]
                inside = [all(0 <= p < n for p, n in zip(node, vals.shape)) for node in nodes]
                for k in (1, 2, 3):
                    c = difference_coefficients(k)
                    want = ((-1.0) ** k * (vals[base] - sum(c[i - 1] * vals[nodes[i]]
                                                            for i in range(1, k + 1)))
                            if all(inside[:k + 1]) else None)
                    assert kth_difference(u, base, H, k) == want
                for m in (-1, 2):
                    node = tuple(b + m * d for b, d in zip(base, full))
                    ok = all(0 <= p < n for p, n in zip(node, vals.shape))
                    assert shift_eval(u, base, H, m) == (vals[node] if ok else None)

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
    @pytest.mark.parametrize("h, dt, message", [
        ((math.inf,), 0.0, "shift component on axis 1 must be finite, got inf"),
        ((0.25, math.nan), 0.0, "shift component on axis 2 must be finite, got nan"),
        ((0.25,), -math.inf, "time shift must be finite, got -inf"),
    ], ids=["inf-space", "nan-space", "inf-time"])
    def test_nonfinite_shift_rejected(self, h, dt, message):
        with pytest.raises(ValueError) as info:
            ParabolicShift(h, dt)
        assert str(info.value) == message

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

    def test_factor_zero_rejected(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])
        with pytest.raises(ValueError, match="^coarsening factor must be >= 1, got 0$"):
            coarsen(u, 0)


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

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("x2,u\n0.0,1\n1.0,2\n", "header must read x1,...,xN,u; got ['x2', 'u']"),
        ("x1,t,u\n\n", "no data rows"),
        ("x1,u\n0.5,1\n0.5,2\n", "column x1 needs at least two distinct values"),
    ], ids=["empty-file", "header-x2", "header-only", "single-valued-column"])
    def test_rejected_file_message(self, tmp_path, text, message):
        with pytest.raises(CsvFormatError) as info:
            grid_from_csv(self._write(tmp_path, text))
        assert str(info.value) == message

    def test_bad_row_named(self, tmp_path):
        text = "x1,u\n0.0,1\nnope,2\n1.0,3\n"
        with pytest.raises(CsvFormatError, match="row 3"):
            grid_from_csv(self._write(tmp_path, text))

    def test_row_off_the_lattice_named(self, tmp_path):
        # the steps 1.000000001 and 0.999999999 pass the spacing rule (1e-9
        # of a step), but the middle node's computed offset from the lattice
        # the ends span comes out just above 1e-9 steps
        text = "x1,u\n2.3,3\n0.3,1\n1.300000001,2\n"
        with pytest.raises(CsvFormatError) as info:
            grid_from_csv(self._write(tmp_path, text))
        assert str(info.value) == "row 4: x1 value off the inferred lattice"

    def test_roundtrip_parabolic_2d(self, tmp_path):
        u = make_grid_function(Domain((0.0, -1.0), (2.0, 1.0), 0.75), (4, 3), 3,
                               lambda x, t: np.sin(x[0]) * x[1] + t)
        lines = ["x1,x2,t,u"]
        for idx in reversed(list(np.ndindex(u.values.shape))):
            x, t = u.node_coords(idx)
            lines.append(f"{x[0]!r},{x[1]!r},{t!r},{u.value_at(idx)!r}")
        v = grid_from_csv(self._write(tmp_path, "\n".join(lines) + "\n"))
        assert v.domain == u.domain
        assert (v.spatial_steps, v.time_steps) == ((4, 3), 3)
        assert np.array_equal(v.values, u.values)

    def test_time_measured_from_its_own_minimum(self, tmp_path):
        # t starts within 1e-9 h_t of 0 and drifts by less than 1e-9 h_t per
        # step; measured from 0 the row-4 node would lie 1.6e-9 steps off the
        # lattice, measured from the column's minimum it lies on it
        text = ("x1,t,u\n0,4e-10,1\n1,4e-10,1\n0,0.5000000008,1\n1,0.5000000008,1\n"
                "0,1.0000000004,1\n1,1.0000000004,1\n")
        u = grid_from_csv(self._write(tmp_path, text))
        assert u.time_steps == 2
        assert u.time_coords() == pytest.approx([0.0, 0.5, 1.0], rel=1e-9, abs=1e-9)
        assert u.time_coords()[0] == 0.0

    def test_time_must_start_at_zero(self, tmp_path):
        text = "x1,t,u\n0.0,0.5,1\n1.0,0.5,2\n0.0,1.0,3\n1.0,1.0,4\n"
        with pytest.raises(CsvFormatError, match="^time column must start at 0, got 0.5$"):
            grid_from_csv(self._write(tmp_path, text))

    @pytest.mark.parametrize("text, message", [
        ("x1,u\n0.0,1\n1.0,nan\n", "row 3: non-finite value"),
        ("x1,t,u\n0,0,1\ninf,0,2\n", "row 3: non-finite value"),
        ("x1,u\n0.0,1\n1.0,2,3\n", "row 3: expected 2 fields, got 3"),
        ("x1,t,u\n0.0,0.0,1\n1.0,1\n", "row 3: expected 3 fields, got 2"),
    ], ids=["nan-value", "inf-coordinate", "extra-field", "missing-field"])
    def test_bad_row_message(self, tmp_path, text, message):
        with pytest.raises(CsvFormatError) as info:
            grid_from_csv(self._write(tmp_path, text))
        assert str(info.value) == message

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_bytes("x1,u\n0.0,1\n0.5,2\n1.0,3\n".encode("utf-8-sig"))
        v = grid_from_csv(str(path))
        assert v.domain == Domain((0.0,), (1.0,))
        assert list(v.values[:, 0]) == [1.0, 2.0, 3.0]

    @staticmethod
    def _lattice_4x4(last_x1):
        # x1 = 0, 0.1, 0.2, 0.3 by x2 = 0..3; the last row writes its x1 as given
        rows = [f"{x!r},{y!r},{4 * i + j}" for i, x in enumerate((0.0, 0.1, 0.2, 0.3))
                for j, y in enumerate((0.0, 1.0, 2.0, 3.0))]
        rows[-1] = f"{last_x1!r},3.0,15"
        return rows

    def test_node_written_two_ways_is_one_node(self, tmp_path):
        # 0.1 + 0.2 is 0.30000000000000004, one ulp from 0.3: the same node
        # within the lattice tolerance, not a fifth x1 coordinate
        assert 0.1 + 0.2 != 0.3
        text = "x1,x2,u\n" + "\n".join(self._lattice_4x4(0.1 + 0.2)) + "\n"
        u = grid_from_csv(self._write(tmp_path, text))
        assert u.values.shape == (4, 4, 1)
        assert u.values[:, :, 0].tolist() == np.arange(16.0).reshape(4, 4).tolist()

    def test_node_written_two_ways_twice_is_a_duplicate(self, tmp_path):
        # the same node once as 0.3 and once as 0.30000000000000004, in place
        # of the row (0.3, 2.0): a duplicate, named at its second row
        rows = self._lattice_4x4(0.3)
        rows[-2] = f"{0.1 + 0.2!r},3.0,14"
        text = "x1,x2,u\n" + "\n".join(rows) + "\n"
        with pytest.raises(CsvFormatError) as info:
            grid_from_csv(self._write(tmp_path, text))
        assert str(info.value) == "row 17: duplicate lattice node"

    def test_duplicate_node_named(self, tmp_path):
        # duplicate (0,1) hides the missing (1,1); the row count still matches
        text = "x1,x2,u\n0.0,0.0,1\n0.0,1.0,2\n1.0,0.0,3\n0.0,1.0,2\n"
        with pytest.raises(CsvFormatError, match="row 5: duplicate"):
            grid_from_csv(self._write(tmp_path, text))


    def test_row_numbers_count_blank_lines(self, tmp_path):
        text = "x1,x2,u\n\n0.0,0.0,1\n0.0,1.0,2\n\n1.0,0.0,3\n0.0,1.0,2\n"
        with pytest.raises(CsvFormatError, match="^row 7: duplicate lattice node$"):
            grid_from_csv(self._write(tmp_path, text))


class TestImmutability:
    def test_values_read_only(self):
        u = make_grid_function(unit_interval(), 4, 0, lambda x, t: x[0])
        with pytest.raises(ValueError):
            u.values[0, 0] = 5.0

    def test_values_of_another_shape_rejected(self):
        with pytest.raises(ValueError) as info:
            GridFunction(unit_interval(), (4,), 0, np.zeros((4, 1)))
        assert str(info.value) == "values shape (4, 1) does not match grid shape (5, 1)"


class TestNodeIndex:
    def test_wrong_length_rejected(self):
        # a space-time grid needs the time index too
        u = make_grid_function(unit_interval(1.0), 4, 4, lambda x, t: x[0])
        with pytest.raises(ValueError) as info:
            u.value_at((1,))
        assert str(info.value) == "index (1,) has wrong length for a 1+time grid"

    @pytest.mark.parametrize("index, message", [
        ((5, 0), "index component 5 out of range [0, 4] on axis 0"),
        ((0, -1), "index component -1 out of range [0, 2] on axis 1"),
    ])
    def test_component_out_of_range_rejected(self, index, message):
        u = make_grid_function(unit_interval(1.0), 4, 2, lambda x, t: x[0])
        with pytest.raises(IndexError) as info:
            u.value_at(index)
        assert str(info.value) == message


class TestMultiIndex:
    def test_order_is_the_sum_of_the_components(self):
        assert MultiIndex((1, 0)).order == 1

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError) as info:
            MultiIndex((-1,))
        assert str(info.value) == "multi-index components must be nonnegative, got (-1,)"


H4 = ParabolicShift((0.25,))
TWO_11 = dict(variant="2.11", l1=0.5, l2=1.5, p=2)


def _trig_search(budget):
    return random_search(InterpSpec(N=1, **TWO_11), Family("trig", n_terms=1), budget, 0,
                         resolution=8)


@pytest.mark.parametrize("name, call", [
    ("spatial step count", lambda u: make_grid_function(u.domain, (8.5,), 8, lambda x, t: 0.0)),
    ("spatial step count", lambda u: make_grid_function(u.domain, 8.5, 8, lambda x, t: 0.0)),
    ("time_steps", lambda u: make_grid_function(u.domain, 8, 4.5, lambda x, t: 0.0)),
    ("k", lambda u: pointwise_reconstruction_bound(u, 0.5, 1.5, (0, 0), H4, 1.0)),
    ("N", lambda u: InterpSpec(N=1.5, **TWO_11)),
    ("k", lambda u: kth_difference(u, (0, 0), H4, 2.5)),
    ("factor", lambda u: coarsen(u, 2.7)),
    ("multiplier", lambda u: shift_eval(u, (0, 0), H4, 1.5)),
    ("index component", lambda u: u.normalize_index((1.7, 0))),
    ("l_t", lambda u: derivative_field(u, (0,), 1.5)),
    ("budget", lambda u: _trig_search(2.5)),
    ("steps", lambda u: refine_search(_trig_search(1), Family("trig", n_terms=1), 2.5)),
    ("k", lambda u: DiffSeminormSpec(2.5, 1)),
    ("multi-index component", lambda u: MultiIndex((1.5,))),
], ids=["make_grid_function-steps", "make_grid_function-scalar-steps",
        "make_grid_function-time_steps",
        "pointwise_reconstruction_bound-k", "InterpSpec-N", "kth_difference-k", "coarsen",
        "shift_eval", "normalize_index", "derivative_field-l_t", "random_search",
        "refine_search", "DiffSeminormSpec", "MultiIndex"])
def test_non_integral_argument_is_rejected_by_name(name, call):
    u = make_grid_function(unit_interval(1.0), 4, 4, lambda x, t: x[0] * t)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(u)


def test_integral_values_of_any_numeric_type_become_ints():
    u = make_grid_function(unit_interval(1.0), (8.0,), np.int64(8), lambda x, t: x[0] * t)
    assert (u.spatial_steps, u.time_steps) == ((8,), 8)
    assert make_grid_function(unit_interval(), 8.0, 0, lambda x, t: x[0]).spatial_steps == (8,)
    assert type(InterpSpec(N=np.int64(1), **TWO_11).N) is int
    spec = DiffSeminormSpec(np.int64(2), np.float64(1.0))
    assert (type(spec.k), type(spec.l_t)) == (int, int)
    rep = diff_quotient_seminorm(u, 1.5, spec=spec, form="split")
    assert json.loads(json.dumps(rep.to_json_dict()))["params"]["k"] == 2
