import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from holonorm import (
    DiffSeminormSpec,
    Domain,
    GridFunction,
    MultiIndex,
    SamplingInfo,
    StencilError,
    coarsen,
    diff_quotient_seminorm,
    elliptic_norm,
    holder_norm,
    holder_seminorm_space,
    holder_seminorm_time,
    lp_norm,
    make_grid_function,
    parabolic_dilate,
    parabolic_norm,
    sup_norm,
    sup_t_lp_norm,
    time_seminorm_bound,
    witness_value,
)
from holonorm.norms import derivative_field


def interval(T=0.0):
    return Domain((0.0,), (1.0,), T)


def sample(expr_fn, steps=16, tsteps=None, T=0.0, box=None):
    domain = box or interval(T)
    ts = tsteps if tsteps is not None else (steps if T > 0 else 0)
    return make_grid_function(domain, steps, ts, expr_fn)


class TestSupNorm:
    def test_zero(self):
        assert sup_norm(sample(lambda x, t: 0.0 * x[0])).value == 0.0

    def test_linear(self):
        rep = sup_norm(sample(lambda x, t: x[0]))
        assert rep.value == 1.0
        assert rep.witness["x"] == [1.0]

    def test_sin_scan(self):
        u = sample(lambda x, t: np.sin(3 * x[0]), steps=256)
        rep = sup_norm(u)
        assert rep.value == oracles.sup_abs_loops(u.values)
        assert rep.value < 1.0
        # 3x sweeps past pi/2, so the node nearest pi/6 gives a lower bound
        node = round(math.pi / 6 * 256) / 256
        assert rep.value >= abs(math.sin(3 * node))


class TestLpNorm:
    def test_unit_mass(self):
        assert lp_norm(sample(lambda x, t: 1.0 + 0.0 * x[0]), 2).value == pytest.approx(1.0)

    def test_homogeneity_on_volume(self):
        box = Domain((0.0,), (2.5,))
        u = make_grid_function(box, 10, 0, lambda x, t: -3.0 + 0.0 * x[0])
        assert lp_norm(u, 3).value == pytest.approx(3.0 * 2.5 ** (1 / 3), rel=1e-12)

    def test_sin_pi_x_converges(self):
        for steps in (16, 64, 256):
            u = sample(lambda x, t: np.sin(np.pi * x[0]), steps=steps)
            assert lp_norm(u, 2).value == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_matches_loop_oracle(self):
        u = sample(lambda x, t: x[0] ** 2 - 0.3, steps=7)
        expected = oracles.trapezoid_lp_loops(u.values[..., 0], u.h_x, 2.0)
        assert lp_norm(u, 2).value == pytest.approx(expected, rel=1e-14)

    def test_trapezoid_second_order_on_nonperiodic_integrand(self):
        # |u|^p with a nonzero boundary slope difference shows the h^2 error.
        exact = math.exp(1.0) - 1.0  # integral of e^x over [0,1]
        errs = []
        for steps in (8, 16, 32):
            u = sample(lambda x, t: np.exp(x[0] / 2.0), steps=steps)
            errs.append(abs(lp_norm(u, 2).value ** 2 - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_powers_out_of_float_range(self):
        # |u|^40 underflows to 0 at amplitude 1e-10 and overflows at 1e10;
        # the norms stay homogeneous of degree one there
        parabolic = sample(lambda x, t: np.sin(3 * x[0]) * np.exp(-t), steps=8, T=1.0)
        spatial = sample(lambda x, t: np.sin(3 * x[0]), steps=8)
        for norm, u in ((lp_norm, parabolic), (lp_norm, spatial), (sup_t_lp_norm, parabolic)):
            base = norm(u, 40).value
            for s in (1e-10, 1e10):
                assert norm(u.scaled(s), 40).value == pytest.approx(s * base, rel=1e-12)

    def test_p_validation(self):
        with pytest.raises(ValueError, match="p > 1"):
            lp_norm(sample(lambda x, t: x[0]), 1.0)
        # an infinite exponent is no Lp norm: the power sum overflows to a
        # meaningless 1.0 instead of the sup norm
        u = sample(lambda x, t: 3.0 * np.sin(2 * np.pi * x[0]) + 0.0 * t, T=1.0)
        for norm in (lp_norm, sup_t_lp_norm):
            with pytest.raises(ValueError, match="finite"):
                norm(u, math.inf)


class TestSupTLp:
    def test_time_independent(self):
        u = sample(lambda x, t: np.sin(np.pi * x[0]) + 0.0 * t, T=1.0, steps=32)
        g = sample(lambda x, t: np.sin(np.pi * x[0]), steps=32)
        assert sup_t_lp_norm(u, 2).value == pytest.approx(lp_norm(g, 2).value, rel=1e-13)

    def test_linear_in_time(self):
        u = sample(lambda x, t: t + 0.0 * x[0], T=1.0, steps=8)
        rep = sup_t_lp_norm(u, 2)
        assert rep.value == pytest.approx(1.0, rel=1e-12)
        assert rep.witness["time_level"] == u.time_steps

    def test_decaying_slice(self):
        u = sample(lambda x, t: np.sin(np.pi * x[0]) * np.exp(-t), T=1.0, steps=64)
        rep = sup_t_lp_norm(u, 2)
        assert rep.witness["time_level"] == 0
        assert rep.value == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError, match="time horizon"):
            sup_t_lp_norm(sample(lambda x, t: x[0]), 2)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
    def test_levels_match_a_loop_over_levels(self, p):
        # all levels summed in one pass give, bit for bit, the value and the
        # first maximal level of a loop that sums each level's weighted
        # powers on its own; levels 0, 4 and 8 of the 1-D grid tie exactly
        grids = [sample(lambda x, t: np.sin(np.pi * x[0]) * np.cos(2 * np.pi * t) ** 2,
                        steps=8, T=1.0),
                 make_grid_function(Domain((0.0, 0.0), (1.0, 2.0), 1.0), (12, 7), 9,
                                    lambda x, t: x[0] * np.exp(x[1] - t) + np.sin(5 * t))]
        for u in grids:
            levels = []
            for j in range(u.n_time):
                w = np.abs(u.values[..., j]) ** p
                for axis, n in enumerate(u.n_spatial):
                    pattern = np.ones(n)
                    pattern[[0, -1]] = 0.5
                    w = w * pattern.reshape((1,) * axis + (n,) + (1,) * (u.N - axis - 1))
                levels.append((math.prod(u.h_x) * float(np.sum(w))) ** (1.0 / p))
            rep = sup_t_lp_norm(u, p)
            first = levels.index(max(levels))
            assert (rep.value, rep.witness["time_level"]) == (levels[first], first)
            assert witness_value(u, rep) == rep.value


class TestHolderSeminorms:
    def test_constant_is_zero(self):
        assert holder_seminorm_space(sample(lambda x, t: 1.0 + 0.0 * x[0]), 0.5).value == 0.0

    def test_identity_alpha_half(self):
        # sup |x-y| / |x-y|^(1/2) = 1 on [0,1], attained at the endpoints
        for steps in (10, 49, 64):
            rep = holder_seminorm_space(sample(lambda x, t: x[0], steps=steps), 0.5)
            assert rep.value == 1.0

    def test_derivative_of_identity_is_constant(self):
        rep = holder_seminorm_space(sample(lambda x, t: x[0]), 0.5, beta=(1,))
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_time_seminorm_of_time_independent(self):
        u = sample(lambda x, t: np.sin(x[0]) + 0.0 * t, T=1.0, steps=8)
        assert holder_seminorm_time(u, 0.5).value == 0.0

    def test_time_identity(self):
        u = sample(lambda x, t: t + 0.0 * x[0], T=1.0, steps=8)
        assert holder_seminorm_time(u, 0.5).value == 1.0

    def test_xt_product(self):
        u = sample(lambda x, t: x[0] * t, T=1.0, steps=16)
        rep = holder_seminorm_time(u, 0.5)
        assert rep.value == 1.0
        assert rep.witness["base"][0] == u.spatial_steps[0]  # attained at x = 1

    def test_exponent_validation(self):
        u = sample(lambda x, t: x[0])
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            holder_seminorm_space(u, 1.0)

    def test_stencil_too_coarse(self):
        u = make_grid_function(interval(), 1, 0, lambda x, t: x[0])
        with pytest.raises(StencilError, match="at least 3"):
            holder_seminorm_space(u, 0.5, beta=(1,))


class TestFullNorms:
    def test_constant_parabolic(self):
        u = sample(lambda x, t: -2.0 + 0.0 * x[0], T=1.0, steps=8)
        for l in (0.5, 1.5, 2.5):
            assert parabolic_norm(u, l).value == pytest.approx(2.0, abs=1e-12)

    def test_identity_elliptic_half(self):
        rep = elliptic_norm(sample(lambda x, t: x[0]), 0.5)
        assert rep.value == pytest.approx(2.0, rel=1e-12)  # max|u| + <u>^(1/2)

    def test_identity_elliptic_three_halves(self):
        rep = elliptic_norm(sample(lambda x, t: x[0]), 1.5)
        assert rep.value == pytest.approx(2.0, rel=1e-12)  # max|u| + max|u_x| + 0

    def test_identity_parabolic_three_halves(self):
        # Term-by-term oracle: max|u| = 1, max|u_x| = 1, <u_x>_x = 0,
        # <u>_x^(1/2) = 1 (the band includes order m-1), all time terms 0.
        u = sample(lambda x, t: x[0] + 0.0 * t, T=1.0, steps=16)
        rep = parabolic_norm(u, 1.5)
        oracle_terms = {
            "max|u|": oracles.sup_abs_loops(u.values),
            "max|u_x|": oracles.sup_abs_loops(oracles.derivative_field_loops(u, (1,), 0)),
            "<u_x>_x": oracles.holder_space_sup_loops(
                oracles.derivative_field_loops(u, (1,), 0), u.h_x, 0.5),
            "<u>_x": oracles.holder_space_sup_loops(u.values, u.h_x, 0.5),
            "<u_x>_t": oracles.holder_time_sup_loops(
                oracles.derivative_field_loops(u, (1,), 0), u.h_t, 0.25),
            "<u>_t": oracles.holder_time_sup_loops(u.values, u.h_t, 0.75),
        }
        assert rep.value == pytest.approx(sum(oracle_terms.values()), rel=1e-12)
        assert rep.value == pytest.approx(3.0, rel=1e-12)

    def test_scaling_homogeneity(self):
        u = sample(lambda x, t: np.sin(2 * x[0]) * (1 + t), T=1.0, steps=12)
        base = parabolic_norm(u, 1.5).value
        assert parabolic_norm(u.scaled(-7.0), 1.5).value == pytest.approx(
            7.0 * base, rel=1e-12)

    def test_integer_rejected(self):
        u = sample(lambda x, t: x[0] + 0.0 * t, T=1.0, steps=8)
        with pytest.raises(ValueError, match="noninteger"):
            parabolic_norm(u, 2.0)
        with pytest.raises(ValueError, match="noninteger"):
            elliptic_norm(sample(lambda x, t: x[0]), 1.0)

    def test_domain_kind_mismatch(self):
        with pytest.raises(ValueError, match="elliptic_norm"):
            parabolic_norm(sample(lambda x, t: x[0]), 0.5)
        with pytest.raises(ValueError, match="parabolic_norm"):
            elliptic_norm(sample(lambda x, t: x[0] + 0.0 * t, T=1.0, steps=8), 0.5)

    def test_integer_index_norm(self):
        rep = holder_norm(sample(lambda x, t: x[0]), 0.0)
        assert rep.value == 1.0
        rep1 = holder_norm(sample(lambda x, t: x[0]), 1.0)
        assert rep1.value == pytest.approx(2.0, rel=1e-12)


class TestNormAssembly:
    """Breakdown labels in order, each term against the loop oracles, and the
    totals of composite Hoelder norms."""

    @staticmethod
    def _max_term(u, beta, l_t):
        return oracles.sup_abs_loops(oracles.derivative_field_loops(u, beta, l_t))

    @staticmethod
    def _assert_terms(rep, expected):
        assert list(rep.breakdown) == [label for label, _ in expected]
        for label, value in expected:
            assert rep.breakdown[label] == pytest.approx(value, rel=1e-12, abs=1e-15), label

    def test_elliptic_2d_three_halves(self):
        rng = np.random.default_rng(41)
        u = GridFunction(Domain((0.0, 0.0), (1.0, 2.0)), (6, 5), 0, rng.uniform(-1, 1, (7, 6, 1)))
        rep = elliptic_norm(u, 1.5)
        lower = [(f"max |dt^0 dx^{b} u|", self._max_term(u, b, 0))
                 for b in ((0, 0), (1, 0), (0, 1))]
        sem = [(f"<dt^0 dx^{b} u>_x^(0.5)", oracles.holder_space_sup_loops(
            oracles.derivative_field_loops(u, b, 0), u.h_x, 0.5)) for b in ((1, 0), (0, 1))]
        self._assert_terms(rep, lower + sem)
        values = list(rep.breakdown.values())
        assert rep.value == math.fsum(values[:3]) + sum(values[3:])
        examined = 3 * u.values.size + sum(
            holder_seminorm_space(u, 0.5, b).pairs_examined for b in ((1, 0), (0, 1)))
        assert rep.pairs_examined == examined
        assert rep.sampling == SamplingInfo("exhaustive")
        assert (rep.kind, rep.index, rep.params) == ("elliptic", 1.5, {"l": 1.5})

    def test_parabolic_1d_five_halves(self):
        # m = 2: the band holds |beta| = 1, 2 at l_t = 0 and |beta| = 0 at l_t = 1.
        u = _random_parabolic(42, steps=8, tsteps=7)
        rep = parabolic_norm(u, 2.5)
        lower = [(f"max |dt^{lt} dx^{b} u|", self._max_term(u, b, lt))
                 for b, lt in (((0,), 0), ((1,), 0), ((2,), 0), ((0,), 1))]
        band = (((1,), 0, 0.75), ((2,), 0, 0.25), ((0,), 1, 0.25))
        sem = []
        for b, lt, t_exp in band:
            w = oracles.derivative_field_loops(u, b, lt)
            sem.append((f"<dt^{lt} dx^{b} u>_x^(0.5)",
                        oracles.holder_space_sup_loops(w, u.h_x, 0.5)))
            sem.append((f"<dt^{lt} dx^{b} u>_t^({t_exp})",
                        oracles.holder_time_sup_loops(w, u.h_t, t_exp)))
        self._assert_terms(rep, lower + sem)
        values = list(rep.breakdown.values())
        assert rep.value == math.fsum(values[:4]) + sum(values[4::2]) + sum(values[5::2])
        examined = 4 * u.values.size + sum(
            holder_seminorm_space(u, 0.5, b, lt).pairs_examined
            + holder_seminorm_time(u, t_exp, b, lt).pairs_examined for b, lt, t_exp in band)
        assert rep.pairs_examined == examined
        assert rep.sampling == SamplingInfo("exhaustive")
        assert (rep.kind, rep.index, rep.params) == ("parabolic", 2.5, {"l": 2.5})

    def test_integer_index_has_no_seminorm_terms(self):
        u = _random_parabolic(43, steps=8, tsteps=7)
        rep = holder_norm(u, 2)
        lower = [(f"max |dt^{lt} dx^{b} u|", self._max_term(u, b, lt))
                 for b, lt in (((0,), 0), ((1,), 0), ((2,), 0), ((0,), 1))]
        self._assert_terms(rep, lower)
        assert rep.value == math.fsum(rep.breakdown.values())
        assert rep.pairs_examined == 4 * u.values.size
        assert rep.sampling == SamplingInfo("exhaustive")
        assert (rep.kind, rep.index, rep.witness) == ("parabolic", 2.0, None)

    def test_interval_term_marks_the_norm_interval(self, monkeypatch):
        import holonorm.pairs as pairs_mod
        rng = np.random.default_rng(44)
        u = GridFunction(Domain((0.0,), (1.0,)), (12,), 0, rng.uniform(-1, 1, (13, 1)))
        # a one-pair budget leaves no table, so the term is an interval; the
        # norm is marked so, and its one-sided bound belongs to the term only
        monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
        rep = holder_norm(u, 0.5)
        term = holder_seminorm_space(u, 0.5)
        assert list(rep.breakdown) == ["max |dt^0 dx^(0,) u|", "<dt^0 dx^(0,) u>_x^(0.5)"]
        assert rep.breakdown["<dt^0 dx^(0,) u>_x^(0.5)"] == term.value
        assert term.sampling.mode == "interval"
        exact = oracles.holder_space_sup_loops(u.values, u.h_x, 0.5)
        assert term.value <= exact <= term.sampling.upper
        examined = u.values.size + term.pairs_examined
        assert rep.pairs_examined == examined
        assert rep.sampling == SamplingInfo("interval")
        assert rep.to_json_dict()["sampling"] == {"mode": "interval"}

    def test_split_difference_quotient(self):
        import holonorm.pairs as pairs_mod
        u = _random_parabolic(45, steps=8, tsteps=7)
        rep = diff_quotient_seminorm(u, 1.5, spec=DiffSeminormSpec(2, 1), form="split")
        space = pairs_mod.kdiff_quotient_sup(u.values, u.h_x, u.h_t, 1.5, 2, False)
        time = pairs_mod.kdiff_time_quotient_sup(u.values, u.h_x, u.h_t, 0.75, 1)
        assert list(rep.breakdown.items()) == [("space", space.value), ("time", time.value)]
        assert rep.value == space.value + time.value
        assert rep.pairs_examined == space.examined + time.examined
        assert (rep.kind, rep.index, rep.witness) == ("diff_quotient_split", 1.5, None)
        assert rep.params == {"l": 1.5, "k": 2, "l_t": 1, "form": "split"}
        assert rep.sampling == SamplingInfo("exhaustive")

    def test_interval_term_marks_the_split_interval(self, monkeypatch):
        import holonorm.pairs as pairs_mod
        u = _random_parabolic(46, steps=12, tsteps=12)
        monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
        rep = diff_quotient_seminorm(u, 0.5, spec=DiffSeminormSpec(1, 1), form="split")
        space = pairs_mod.kdiff_quotient_sup(u.values, u.h_x, u.h_t, 0.5, 1, False)
        assert space.mode == "interval"
        assert rep.breakdown["space"] == space.value
        assert rep.sampling == SamplingInfo("interval")
        assert rep.to_json_dict()["sampling"] == {"mode": "interval"}


class TestMultiIndexArguments:
    """A multi-index is normalised once to a tuple of ints, whatever its
    container and integer type."""

    def test_array_on_a_2d_grid(self):
        u = GridFunction(Domain((0.0, 0.0), (1.0, 1.0)), (4, 4), 0,
                         np.random.default_rng(47).uniform(-1, 1, (5, 5, 1)))
        rep = holder_seminorm_space(u, 0.5, np.array([1, 0]))
        assert rep == holder_seminorm_space(u, 0.5, (1, 0))

    def test_multi_index_object_on_a_2d_grid(self):
        values = np.random.default_rng(47).uniform(-1, 1, (5, 5, 1))
        grids = [GridFunction(Domain((0.0, 0.0), (1.0, 1.0)), (4, 4), 0, values)
                 for _ in range(2)]
        rep = holder_seminorm_space(grids[0], 0.5, MultiIndex((1, 0)))
        assert rep.to_json_dict() == holder_seminorm_space(grids[1], 0.5, (1, 0)).to_json_dict()

    def test_empty_multi_index_rejected(self):
        with pytest.raises(ValueError, match="wrong length"):
            holder_seminorm_space(sample(lambda x, t: x[0] ** 2), 0.5, ())

    def test_numpy_integers_serialise(self):
        import json
        rep = holder_seminorm_space(sample(lambda x, t: x[0] ** 2), 0.5, (np.int64(1),),
                                    np.int64(0))
        assert json.loads(json.dumps(rep.to_json_dict()))["params"]["beta"] == [1]


class TestDiffQuotient:
    def test_polynomial_annihilation(self):
        u = sample(lambda x, t: 1.0 + 2 * x[0] + 0.0 * t, T=1.0, steps=8)
        spec = DiffSeminormSpec(k=2, l_t=1)
        rep = diff_quotient_seminorm(u, 0.5, spec=spec, form="split")
        # spatial second differences of a linear function vanish; the time
        # part vanishes because u is time independent
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        u = sample(lambda x, t: 3.0 + 0.0 * x[0], T=1.0, steps=8)
        assert diff_quotient_seminorm(u, 1.5).value == pytest.approx(0.0, abs=1e-12)

    def test_cusp_quotient_peaks_at_one(self):
        for steps in (16, 64, 128):
            u = sample(lambda x, t: np.abs(x[0] - 0.5) ** 0.5, steps=steps)
            rep = diff_quotient_seminorm(u, 0.5, spec=DiffSeminormSpec(1, 1))
            assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_default_spec(self):
        spec = DiffSeminormSpec.default_for(1.5)
        assert spec.k == 2 and spec.l_t == 1
        spec = DiffSeminormSpec.default_for(2.5)
        assert spec.k == 3 and spec.l_t == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="must exceed"):
            DiffSeminormSpec(1, 1).validate(1.5)

    def test_integer_l_rejected(self):
        u = sample(lambda x, t: x[0])
        with pytest.raises(ValueError, match="noninteger"):
            diff_quotient_seminorm(u, 1.0)

    def test_too_coarse_rejected(self):
        u = sample(lambda x, t: x[0], steps=1)
        with pytest.raises(ValueError, match="no admissible shift"):
            diff_quotient_seminorm(u, 1.5, spec=DiffSeminormSpec(2, 1))

    def test_split_needs_time(self):
        with pytest.raises(ValueError, match="split"):
            diff_quotient_seminorm(sample(lambda x, t: x[0]), 0.5, form="split")


def _random_parabolic(seed, steps=6, tsteps=6, n=1):
    rng = np.random.default_rng(seed)
    box = Domain((0.0,) * n, (1.0,) * n, 1.0)
    shape = (steps + 1,) * n + (tsteps + 1,)
    return GridFunction(box, (steps,) * n, tsteps, rng.uniform(-1, 1, shape))


class TestOracleEquivalence:
    """Optimized sup paths agree bit-for-bit with plain double loops."""

    def test_holder_space_1d(self):
        u = _random_parabolic(1)
        w = derivative_field(u, (1,), 0)
        rep = holder_seminorm_space(u, 0.31, beta=(1,))
        assert rep.value == oracles.holder_space_sup_loops(
            oracles.derivative_field_loops(u, (1,), 0), u.h_x, 0.31)
        assert np.array_equal(w, oracles.derivative_field_loops(u, (1,), 0))

    def test_holder_space_2d(self):
        u = _random_parabolic(2, steps=4, tsteps=3, n=2)
        rep = holder_seminorm_space(u, 0.7)
        assert rep.value == oracles.holder_space_sup_loops(u.values, u.h_x, 0.7)

    def test_holder_time(self):
        u = _random_parabolic(3, steps=5, tsteps=9)
        rep = holder_seminorm_time(u, 0.45)
        assert rep.value == oracles.holder_time_sup_loops(u.values, u.h_t, 0.45)

    def test_kdiff_joint(self):
        u = _random_parabolic(4, steps=6, tsteps=5)
        for k, l in ((1, 0.5), (2, 1.5), (3, 2.5)):
            rep = diff_quotient_seminorm(u, l, spec=DiffSeminormSpec(k, (k + 1) // 2 + 1))
            assert rep.value == oracles.kdiff_sup_loops(u.values, u.h_x, u.h_t, l, k, True)

    def test_kdiff_joint_2d(self):
        u = _random_parabolic(5, steps=3, tsteps=4, n=2)
        rep = diff_quotient_seminorm(u, 0.5, spec=DiffSeminormSpec(1, 1))
        assert rep.value == oracles.kdiff_sup_loops(u.values, u.h_x, u.h_t, 0.5, 1, True)

    def test_kdiff_split(self):
        u = _random_parabolic(6, steps=6, tsteps=6)
        rep = diff_quotient_seminorm(u, 0.5, spec=DiffSeminormSpec(1, 1), form="split")
        expect = (oracles.kdiff_sup_loops(u.values, u.h_x, u.h_t, 0.5, 1, False)
                  + oracles.kdiff_time_sup_loops(u.values, u.h_t, 0.25, 1))
        assert rep.value == expect

    def test_reversed_shifts_match_canonical_to_ulps(self):
        # the canonical half-space loses nothing: reversing shifts reproduces
        # the same quotients up to a few ulps
        u = _random_parabolic(7, steps=5, tsteps=5)
        canonical = diff_quotient_seminorm(u, 1.5, spec=DiffSeminormSpec(2, 1)).value
        full = -math.inf
        import itertools
        for ds in range(-2, 3):
            for js in range(-2, 3):
                if ds == 0 and js == 0:
                    continue
                denom = oracles.plength((ds,), js, u.h_x, u.h_t) ** 1.5
                for base in itertools.product(range(6), range(6)):
                    diff = oracles.kdiff_scalar(u.values, base, (ds, js), 2)
                    if diff is not None:
                        full = max(full, abs(diff) / denom)
        assert full <= canonical * (1 + 1e-13)


class TestProperties:
    @given(s=st.floats(-50, 50, allow_nan=False).filter(lambda v: abs(v) > 1e-8))
    @settings(max_examples=25, deadline=None)
    def test_absolute_homogeneity(self, s):
        u = _random_parabolic(11, steps=5, tsteps=5)
        us = u.scaled(s)
        for fn in (
            lambda v: sup_norm(v).value,
            lambda v: lp_norm(v, 2.5).value,
            lambda v: sup_t_lp_norm(v, 2.0).value,
            lambda v: holder_seminorm_space(v, 0.5).value,
            lambda v: holder_seminorm_time(v, 0.25).value,
            lambda v: diff_quotient_seminorm(v, 1.5).value,
            lambda v: parabolic_norm(v, 1.5).value,
        ):
            assert fn(us) == pytest.approx(abs(s) * fn(u), rel=1e-10)

    def test_triangle_inequality(self):
        u = _random_parabolic(12, steps=5, tsteps=5)
        v = _random_parabolic(13, steps=5, tsteps=5)
        w = u.with_values(u.values + v.values)
        for fn in (
            lambda g: sup_norm(g).value,
            lambda g: lp_norm(g, 2).value,
            lambda g: sup_t_lp_norm(g, 3).value,
            lambda g: holder_seminorm_space(g, 0.5).value,
            lambda g: holder_seminorm_time(g, 0.5).value,
            lambda g: diff_quotient_seminorm(g, 0.5).value,
            lambda g: parabolic_norm(g, 0.5).value,
        ):
            a, b, c = fn(w), fn(u), fn(v)
            assert a <= (b + c) * (1 + 1e-12)

    def test_coarsening_monotonicity(self):
        u = _random_parabolic(14, steps=8, tsteps=8)
        c = coarsen(u, 2)
        assert sup_norm(c).value <= sup_norm(u).value
        assert (diff_quotient_seminorm(c, 1.5).value
                <= diff_quotient_seminorm(u, 1.5).value)
        assert (holder_seminorm_space(c, 0.5).value
                <= holder_seminorm_space(u, 0.5).value)
        assert (holder_seminorm_time(c, 0.5).value
                <= holder_seminorm_time(u, 0.5).value)

    def test_dilation_covariance_exact(self):
        u = sample(lambda x, t: np.sin(2 * np.pi * x[0]) * np.exp(-t), T=1.0, steps=24)
        lam, l = 2.0, 1.5
        v = parabolic_dilate(u, lam)
        assert sup_norm(v).value == sup_norm(u).value
        assert diff_quotient_seminorm(v, l).value == pytest.approx(
            lam ** -l * diff_quotient_seminorm(u, l).value, rel=1e-12)
        assert lp_norm(v, 2).value == pytest.approx(
            lam ** (3 / 2) * lp_norm(u, 2).value, rel=1e-12)  # (N+2)/p = 3/2

    def test_dilation_covariance_elliptic_lp(self):
        u = sample(lambda x, t: np.sin(3 * x[0]), steps=32)
        v = parabolic_dilate(u, 2.0)
        assert lp_norm(v, 2).value == pytest.approx(
            2 ** 0.5 * lp_norm(u, 2).value, rel=1e-12)  # N/p = 1/2

    def test_dq_vs_derivative_seminorm_stays_comparable(self):
        # equivalence of the quotient and derivative forms: the ratio moves
        # by less than 20% per refinement halving on a smooth function
        ratios = []
        for steps in (16, 32, 64):
            u = sample(lambda x, t: np.sin(2 * np.pi * x[0]) * np.exp(-t),
                       T=1.0, steps=steps)
            out = time_seminorm_bound(u, 1.5)
            space_sum, time_sum = out["space_sum"], out["lhs_time_sum"]
            dq = diff_quotient_seminorm(u, 1.5).value
            ratios.append(dq / (space_sum + time_sum))
        assert abs(ratios[1] / ratios[0] - 1) < 0.2
        assert abs(ratios[2] / ratios[1] - 1) < 0.2


class TestIntervalMode:
    def _force_interval(self, monkeypatch):
        # the per-offset bounds walk this 220-step grid exactly for k = 2; a
        # one-pair budget leaves the dispatchers no table, so they report an
        # interval
        import holonorm.pairs as pairs_mod
        monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 220, 220,
                               lambda x, t: np.sin(2 * np.pi * x[0]) * np.exp(-t)
                               + 0.3 * np.sin(9 * x[0] + 1.0))
        return u

    def test_mode_is_interval(self, monkeypatch):
        u = self._force_interval(monkeypatch)
        rep = diff_quotient_seminorm(u, 1.5)
        assert rep.sampling.mode == "interval"
        assert rep.sampling.upper >= rep.value
        assert rep.to_json_dict()["sampling"] == {"mode": "interval",
                                                  "upper": rep.sampling.upper}

    def test_two_calls_give_equal_reports(self, monkeypatch):
        # the second call runs on a fresh grid, so it computes again rather
        # than reading the first grid's memo
        u = self._force_interval(monkeypatch)
        a = diff_quotient_seminorm(u, 1.5)
        b = diff_quotient_seminorm(u.with_values(u.values), 1.5)
        assert a.sampling.mode == "interval"
        assert a.to_json_dict() == b.to_json_dict()

    def test_interval_dilation_covariance(self, monkeypatch):
        u = self._force_interval(monkeypatch)
        v = parabolic_dilate(u, 2.0)
        a = diff_quotient_seminorm(u, 1.5)
        b = diff_quotient_seminorm(v, 1.5)
        assert b.value == pytest.approx(2.0 ** -1.5 * a.value, rel=1e-12)
        assert b.sampling.upper == pytest.approx(2.0 ** -1.5 * a.sampling.upper, rel=1e-12)

    def test_interval_holds_exhaustive(self):
        import holonorm.pairs as pairs_mod
        u = _random_parabolic(21, steps=24, tsteps=24)
        exact = diff_quotient_seminorm(u, 1.5)
        assert exact.sampling.mode == "exhaustive"
        old = pairs_mod.PAIR_LIMIT
        pairs_mod.PAIR_LIMIT = 1
        try:
            # a fresh grid: u's memo holds the exact report
            rep = diff_quotient_seminorm(u.with_values(u.values), 1.5)
        finally:
            pairs_mod.PAIR_LIMIT = old
        assert rep.sampling.mode == "interval"
        assert rep.value <= exact.value <= rep.sampling.upper
        assert rep.value >= 0.5 * exact.value  # the floor lands in the ballpark

    def test_interval_pair_kinds_hold_exhaustive(self, monkeypatch):
        import holonorm.pairs as pairs_mod
        u = sample(lambda x, t: np.sin(5 * x[0] + 1.0) * np.exp(-t) + x[0] * t,
                   T=1.0, steps=20)
        exact_space = holder_seminorm_space(u, 0.5).value
        exact_time = holder_seminorm_time(u, 0.5).value
        # no table, so no exact walk; the interval calls run on fresh grids,
        # as u's memo holds the exact ones
        monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
        v = u.with_values(u.values)
        s1 = holder_seminorm_space(v, 0.5)
        s2 = holder_seminorm_space(u.with_values(u.values), 0.5)
        t1 = holder_seminorm_time(v, 0.5)
        assert s1.sampling.mode == t1.sampling.mode == "interval"
        assert s1.to_json_dict() == s2.to_json_dict()
        assert s1.value <= exact_space <= s1.sampling.upper
        assert t1.value <= exact_time <= t1.sampling.upper
        assert s1.value >= 0.8 * exact_space
        assert t1.value >= 0.8 * exact_time

    def test_interval_catches_cusp_at_nearest_neighbours(self, monkeypatch):
        # the cusp quotient peaks at the smallest separations, which the
        # nearest-neighbour sweep covers in every mode
        import holonorm.pairs as pairs_mod
        monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
        u = make_grid_function(Domain((0.0,), (1.0,), 1.0), 220, 220,
                               lambda x, t: np.abs(x[0] - 0.5) ** 0.5 + 0.0 * t)
        rep = diff_quotient_seminorm(u, 0.5, spec=DiffSeminormSpec(1, 1))
        assert rep.sampling.mode == "interval"
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_interval_elliptic_space_pairs(self, monkeypatch):
        import holonorm.pairs as pairs_mod
        u = sample(lambda x, t: np.sin(7 * x[0] + 0.5) + x[0] ** 2, steps=40)
        exact = holder_seminorm_space(u, 0.5).value
        # no table, so no exact walk; a fresh grid, as u's memo holds the
        # exact report
        monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
        rep = holder_seminorm_space(u.with_values(u.values), 0.5)
        assert rep.sampling.mode == "interval"
        assert rep.value <= exact <= rep.sampling.upper
        assert rep.value >= 0.8 * exact

    def test_interval_witness_reevaluates(self, monkeypatch):
        u = self._force_interval(monkeypatch)
        rep = diff_quotient_seminorm(u, 1.5)
        assert rep.sampling.mode == "interval"
        assert witness_value(u, rep) == pytest.approx(rep.value, rel=1e-12)


class TestWitnesses:
    def test_witnesses_reevaluate(self, monkeypatch):
        import holonorm.pairs as pairs_mod
        u = _random_parabolic(31, steps=6, tsteps=6)
        e = GridFunction(Domain((0.0, 0.0), (1.0, 1.0), 0.0), (5, 5), 0,
                         np.random.default_rng(32).uniform(-1, 1, (6, 6, 1)))
        reports = [(u, sup_norm(u)), (u, sup_t_lp_norm(u, 2))]
        quotients = [
            (u, holder_seminorm_space(u, 0.5)),
            (u, holder_seminorm_space(u, 0.5, beta=(1,))),
            (e, holder_seminorm_space(e, 0.3, beta=(0, 1))),
            (u, holder_seminorm_time(u, 0.5)),
            (u, holder_seminorm_time(u, 0.25, beta=(1,), l_t=1)),
        ]
        # joint k-th differences, k = 1 and 2; on (x + t)^2 their witnesses
        # shift in space and time at once
        p = sample(lambda x, t: (x[0] + t) ** 2, T=1.0, steps=6)
        joint = {grid: [diff_quotient_seminorm(grid, 0.5, DiffSeminormSpec(1, 1)),
                        diff_quotient_seminorm(grid, 1.5)] for grid in (p, e)}
        assert all(rep.witness["time_step"] and rep.witness["steps"][0] for rep in joint[p])
        quotients += [(grid, rep) for grid, reps in joint.items() for rep in reps]
        # a one-pair budget makes a larger grid's supremum an interval
        monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
        big = _random_parabolic(33, steps=20, tsteps=20)
        forced = diff_quotient_seminorm(big, 1.5)
        assert forced.sampling.mode == "interval"
        quotients.append((big, forced))
        for grid, rep in quotients:
            assert set(rep.witness) == {"base", "steps", "time_step", "order", "separation"}
            assert rep.witness["order"] == rep.params.get("k", 1)
        for grid, rep in reports + quotients:
            assert witness_value(grid, rep) == rep.value, rep.kind

    def test_report_serialization(self):
        import json
        rep = holder_seminorm_space(_random_parabolic(32, steps=4, tsteps=4), 0.5)
        payload = json.loads(json.dumps(rep.to_json_dict()))
        assert payload["kind"] == "holder_space"
        assert payload["sampling"]["mode"] == "exhaustive"
        assert payload["value"] == rep.value
