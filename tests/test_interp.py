import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonorm import (
    Domain,
    InterpSpec,
    ParabolicShift,
    TwoTermBound,
    Variant,
    balancing_epsilon,
    check,
    check_holder_interp,
    exponent,
    make_grid_function,
    parabolic_dilate,
    parabolic_norm,
    pointwise_reconstruction_bound,
    time_seminorm_bound,
    two_term_value,
)
from holonorm.expr import as_grid_callable, parse


def parabolic_box(n=1, T=1.0):
    return Domain((0.0,) * n, (1.0,) * n, T)


def sample_expr(source, n=1, steps=16, tsteps=None, T=1.0):
    tree = parse(source, n)
    tsteps = tsteps if tsteps is not None else (steps if T > 0 else 0)
    return make_grid_function(parabolic_box(n, T), steps, tsteps, as_grid_callable(tree))


class TestExponent:
    def test_sup_vs_lp(self):
        spec = InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1)
        assert exponent(spec) == pytest.approx(0.5, abs=1e-15)  # (1+2)/(1.5*2+1+2)

    def test_general_parabolic(self):
        spec = InterpSpec(variant="2.10", l1=1.0, l2=2.5, p=2, N=2)
        assert exponent(spec) == pytest.approx(2.0 / 3.0, abs=1e-15)  # (2+4)/(5+4)

    def test_sup_vs_suplp(self):
        spec = InterpSpec(variant="2.3.3", l2=0.5, p=4, N=3)
        assert exponent(spec) == pytest.approx(3.0 / 5.0, abs=1e-15)  # N/(lp+N)

    def test_suplp_general_and_elliptic_share_formula(self):
        a = InterpSpec(variant="2.10.1", l1=0.5, l2=1.5, p=2, N=1)
        b = InterpSpec(variant="2.11", l1=0.5, l2=1.5, p=2, N=1)
        assert exponent(a) == exponent(b) == pytest.approx(2.0 / 4.0, abs=1e-15)

    def test_holder_holder_endpoints(self):
        for l in (0.1001, 0.5, 1.3999):
            spec = InterpSpec(variant="2.2", l1=0.1, l=l, l2=1.4, N=1)
            assert exponent(spec) == pytest.approx((l - 0.1) / 1.3, abs=1e-14)
        near0 = InterpSpec(variant="2.2", l1=0.1, l=0.1 + 1e-9, l2=1.4, N=1)
        near1 = InterpSpec(variant="2.2", l1=0.1, l=1.4 - 1e-9, l2=1.4, N=1)
        assert exponent(near0) < 1e-8
        assert exponent(near1) > 1 - 1e-8

    # the README's closed forms, written out as they read there
    CLOSED_FORMS = {
        "2.1": lambda s: (s.l - s.l1) / (s.l2 - s.l1),
        "2.2": lambda s: (s.l - s.l1) / (s.l2 - s.l1),
        "2.3.1": lambda s: (s.N + 2) / (s.l2 * s.p + s.N + 2),
        "2.3.3": lambda s: s.N / (s.l2 * s.p + s.N),
        "2.10": lambda s: (s.p * s.l1 + s.N + 2) / (s.p * s.l2 + s.N + 2),
        "2.10.1": lambda s: (s.p * s.l1 + s.N) / (s.p * s.l2 + s.N),
        "2.11": lambda s: (s.p * s.l1 + s.N) / (s.p * s.l2 + s.N),
    }

    @pytest.mark.parametrize("variant", list(CLOSED_FORMS))
    def test_exponent_equals_closed_form_bit_for_bit(self, variant):
        # the approx tests above would not see a change in the last bit
        holder, checked = variant in ("2.1", "2.2"), 0
        for n in (1, 2, 3):
            for l1 in ((0.0,) if variant in ("2.3.1", "2.3.3") else (0.0, 0.1, 0.35, 1.3)):
                for l2 in (0.7, 1.5, 2.9, 3.45):
                    if not l1 < l2:
                        continue
                    if holder:
                        specs = [InterpSpec(variant=variant, l1=l1, l=l1 + f * (l2 - l1),
                                            l2=l2, N=n) for f in (0.37, 0.5, 0.81)]
                    else:
                        specs = [InterpSpec(variant=variant, l1=l1, l2=l2, p=p, N=n)
                                 for p in (1.1, 2.0, 3.3, 7.7, 41.9)]
                    for spec in specs:
                        assert exponent(spec) == self.CLOSED_FORMS[variant](spec), spec
                        checked += 1
        assert checked >= 60

    def test_validation_rejections(self):
        with pytest.raises(ValueError, match=re.escape(
                "variant must be one of 2.1, 2.2, 2.3.1, 2.3.3, 2.10, 2.10.1, 2.11, got '9.9'")):
            InterpSpec(variant="9.9", l2=1.5, p=2, N=1)
        with pytest.raises(ValueError, match="l1 < l2"):
            InterpSpec(variant="2.11", l1=1.0, l2=0.5, p=2, N=1)
        with pytest.raises(ValueError, match="noninteger"):
            InterpSpec(variant="2.3.1", l2=2.0, p=2, N=1)
        with pytest.raises(ValueError, match="p > 1"):
            InterpSpec(variant="2.10", l1=0.5, l2=1.5, p=1.0, N=1)
        with pytest.raises(ValueError, match="finite Lebesgue exponent"):
            InterpSpec(variant="2.3.1", l2=0.5, p=math.inf, N=1)
        with pytest.raises(ValueError, match="sup norm"):
            InterpSpec(variant="2.3.1", l1=0.5, l2=1.5, p=2, N=1)
        with pytest.raises(ValueError, match="intermediate"):
            InterpSpec(variant="2.2", l1=0.0, l2=1.5, N=1)

    @pytest.mark.parametrize("variant, kwargs, message", [
        ("2.3.1", dict(l2=0.0, p=2), "l2 must be positive, got 0.0"),
        ("2.3.1", dict(l2=-0.5, p=2), "l2 must be positive, got -0.5"),
        ("2.11", dict(l1=-0.5, l2=1.5, p=2), "l1 must be nonnegative, got -0.5"),
        ("2.2", dict(l1=0.0, l=1.5, l2=1.5), "need l1 < l < l2, got 0.0, 1.5, 1.5"),
        ("2.1", dict(l1=0.0, l=0.0, l2=1.5), "need l1 < l < l2, got 0.0, 0.0, 1.5"),
    ], ids=["l2-zero", "l2-negative", "l1-negative", "l-at-l2", "l-at-l1"])
    def test_index_out_of_range_is_rejected(self, variant, kwargs, message):
        with pytest.raises(ValueError) as info:
            InterpSpec(variant=variant, N=1, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("variant, kwargs, field", [
        ("2.3.1", dict(l2=1.5, p=2, l=0.7), "l"),
        ("2.11", dict(l1=0.5, l2=1.5, p=2, l=0.7), "l"),
        ("2.1", dict(l=0.7, l2=1.5, p=2), "p"),
        ("2.2", dict(l1=0.1, l=0.7, l2=1.4, p=2), "p"),
    ], ids=["2.3.1-l", "2.11-l", "2.1-p", "2.2-p"])
    def test_field_the_variant_does_not_read_is_rejected(self, variant, kwargs, field):
        # the report would carry the field although no norm of the check reads it
        with pytest.raises(ValueError, match=f"^{field} has no effect on variant {variant},"):
            InterpSpec(variant=variant, N=1, **kwargs)


class TestCheck:
    def test_zero_function_trivial(self):
        u = sample_expr("0*x1", steps=8)
        for variant, kwargs in [
            ("2.3.1", dict(l2=1.5, p=2)),
            ("2.10", dict(l1=0.5, l2=1.5, p=2)),
        ]:
            spec = InterpSpec(variant=variant, N=1, **kwargs)
            rep = check(spec, u)
            assert rep.status == "trivial"
            assert rep.ratio == 0.0
            assert not rep.violation

    def test_amplitude_scaling_invariance(self):
        u = sample_expr("sin(2*pi*x1)*exp(-t)", steps=12)
        spec = InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1)
        base = check(spec, u).ratio
        for s in (-3.0, 1e-4, 7.0):
            assert check(spec, u.scaled(s)).ratio == pytest.approx(base, rel=1e-10)

    @pytest.mark.parametrize("variant, kwargs", [
        ("2.3.1", dict(l2=1.5)), ("2.3.3", dict(l2=1.5)), ("2.10", dict(l1=0.5, l2=1.5)),
        ("2.10.1", dict(l1=0.5, l2=1.5)), ("2.11", dict(l1=0.5, l2=1.5))])
    def test_ratio_kept_where_lp_powers_leave_float_range(self, variant, kwargs):
        # with p = 40, |u|^p underflows at amplitude 1e-10 and overflows at
        # 1e10; unscaled, these read as a violation and as trivial
        spec = InterpSpec(variant=variant, p=40, N=1, **kwargs)
        u = (sample_expr("sin(3*x1)", steps=8, T=0.0) if spec.is_elliptic
             else sample_expr("sin(3*x1)*exp(-t)", steps=8))
        base = check(spec, u)
        assert base.status == "ok"
        for s in (1e-10, 1e10):
            rep = check(spec, u.scaled(s))
            assert rep.status == "ok"
            assert rep.ratio == pytest.approx(base.ratio, rel=1e-10)

    def test_ratio_reconstructs_lhs(self):
        u = sample_expr("sin(2*pi*x1)*exp(-t)", steps=16)
        spec = InterpSpec(variant="2.10", l1=0.5, l2=1.5, p=2, N=1)
        rep = check(spec, u)
        assert rep.ratio * rep.factor_high * rep.factor_low == pytest.approx(
            rep.lhs, rel=1e-12)

    def test_fixture_ratio_stable_under_refinement(self):
        spec = InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1)
        ratios = []
        for steps in (32, 64, 128):
            rep = check(spec, sample_expr("sin(2*pi*x1)*exp(-t)", steps=steps))
            assert rep.status == "ok"
            ratios.append(rep.ratio)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.2)
        assert ratios[2] == pytest.approx(ratios[1], rel=0.2)
        # regression pin from the first build
        rep64 = check(spec, sample_expr("sin(2*pi*x1)*exp(-t)", steps=64))
        assert rep64.ratio == pytest.approx(0.36663526616384, rel=1e-9)

    def test_variant_grid_mismatch(self):
        u_parab = sample_expr("x1*t", steps=8)
        u_ell = sample_expr("x1", steps=8, T=0.0)
        with pytest.raises(ValueError, match="purely spatial"):
            check(InterpSpec(variant="2.11", l2=1.5, p=2, N=1), u_parab)
        with pytest.raises(ValueError, match="space-time"):
            check(InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1), u_ell)

    def test_spec_and_grid_dimensions_must_agree(self):
        with pytest.raises(ValueError, match="^spec has N=2 but the grid has N=1$"):
            check(InterpSpec(variant="2.3.1", l2=1.5, p=2, N=2), sample_expr("x1*t", steps=8))

    def test_seminorm_zero_branch(self):
        # constant function: quotient seminorm 0 but sup > 0; the report takes
        # the degenerate branch instead of flagging a violation
        u = sample_expr("1+0*x1", steps=8)
        rep = check(InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1), u)
        assert rep.status == "seminorm_zero"
        assert rep.ratio is None
        assert not rep.violation

    def test_integer_l1_supported(self):
        u = sample_expr("sin(2*x1)*exp(-t)+x1*x1*t", steps=12)
        rep = check(InterpSpec(variant="2.10", l1=1.0, l2=2.5, p=2, N=1), u)
        assert rep.status == "ok"
        assert rep.ratio > 0


class TestCheckAgainstLoopOracle:
    def test_sup_vs_lp_check_reproduced_from_oracles(self):
        # rebuild the whole 2.3.1 check from the loop oracles: sup norm,
        # order-2 difference quotient sup, trapezoid Lp, exponent algebra
        import oracles

        u = sample_expr("sin(2*pi*x1)*exp(-t)+0.25*x1", steps=10, tsteps=8)
        spec = InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1)
        rep = check(spec, u)
        assert rep.status == "ok"

        lhs = oracles.sup_abs_loops(u.values)
        high = oracles.kdiff_sup_loops(u.values, u.h_x, u.h_t, 1.5, 2, True)
        low = oracles.trapezoid_lp_loops(u.values, u.h_x + (u.h_t,), 2.0)
        omega = 3.0 / (1.5 * 2.0 + 3.0)
        assert rep.lhs == lhs
        assert rep.norms["high"]["value"] == high
        assert rep.norms["low"]["value"] == pytest.approx(low, rel=1e-13)
        assert rep.ratio == pytest.approx(
            lhs / (high ** omega * low ** (1 - omega)), rel=1e-12)


class TestHolderInterp:
    def test_constant_ratio_one(self):
        u = sample_expr("2+0*x1", steps=8)
        rep = check_holder_interp(u, 0.0, 0.5, 1.5)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)

    def test_scaling_invariance(self):
        u = sample_expr("sin(3*x1)", steps=24, T=0.0)
        base = check_holder_interp(u, 0.0, 0.5, 1.5).ratio
        for s in (-2.0, 0.03):
            assert check_holder_interp(u.scaled(s), 0.0, 0.5, 1.5).ratio == pytest.approx(
                base, rel=1e-10)

    def test_elliptic_fixture_stable(self):
        ratios = [
            check_holder_interp(sample_expr("sin(3*x1)", steps=s, T=0.0), 0.0, 0.5, 1.5).ratio
            for s in (64, 128, 256)
        ]
        assert ratios[0] == pytest.approx(1.1390087979030181, rel=1e-9)
        assert abs(ratios[1] / ratios[0] - 1) < 0.2
        assert abs(ratios[2] / ratios[1] - 1) < 0.2

    def test_picks_variant_from_grid(self):
        rep = check_holder_interp(sample_expr("x1*t", steps=8), 0.0, 0.5, 1.5)
        assert rep.spec.variant == Variant.HOLDER_HOLDER_PARABOLIC
        rep_e = check_holder_interp(sample_expr("x1", steps=8, T=0.0), 0.0, 0.5, 1.5)
        assert rep_e.spec.variant == Variant.HOLDER_HOLDER_ELLIPTIC


class TestTwoTermBound:
    def test_decreasing_when_only_low_term(self):
        b = TwoTermBound(0.0, 2.0, 1.0, 3.0)
        assert two_term_value(b, 1.0) > two_term_value(b, 2.0) > two_term_value(b, 4.0)

    def test_unit_arithmetic(self):
        assert two_term_value(TwoTermBound(1.0, 1.0, 1.0, 3.0), 1.0) == 2.0

    def test_grid_minimum_matches_stationary_point(self):
        b = TwoTermBound(1.0, 1.0, 1.0, 3.0)
        eps = np.geomspace(1e-3, 1e3, 20001)
        vals = b.A * eps ** b.l + b.B * eps ** (-b.q)
        # stationary point (q B / l A)^(1/(l+q)) = 3^(1/4)
        assert float(vals.min()) == pytest.approx(3 ** 0.25 + 3 ** -0.75, rel=1e-6)
        assert float(vals.min()) == pytest.approx(1.7547653506033232, rel=1e-6)

    @pytest.mark.parametrize("args, message", [
        ((-1.0, 1.0, 1.0, 1.0), "coefficients must be nonnegative, got A=-1.0, B=1.0"),
        ((1.0, 1.0, 0.0, 1.0), "exponents must be positive, got l=0.0, q=1.0"),
        ((1.0, 1.0, -0.5, 1.0), "exponents must be positive, got l=-0.5, q=1.0"),
    ], ids=["negative-A", "l-zero", "l-negative"])
    def test_invalid_bound_rejected(self, args, message):
        with pytest.raises(ValueError) as info:
            TwoTermBound(*args)
        assert str(info.value) == message

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            two_term_value(TwoTermBound(1, 1, 1, 1), 0.0)


class TestBalancing:
    def test_equal_coefficients(self):
        b = TwoTermBound(3.0, 3.0, 0.7, 1.5)
        assert balancing_epsilon(b, p=2.0, N=1) == 1.0
        assert two_term_value(b, 1.0) == 6.0  # exactly 2A

    def test_direct_substitution(self):
        # exponent p/(pl+N+2) = 1/4 so (B/A)^(1/4) = 2
        b = TwoTermBound(1.0, 16.0, 1.0, 3.0)
        assert balancing_epsilon(b, p=1.0, N=1) == pytest.approx(2.0, rel=1e-14)

    def test_balanced_value_identity(self):
        # at the balancing scale both terms agree and the value is
        # 2 A^omega' B^(1-omega') with omega' = q/(l+q)
        b = TwoTermBound(0.37, 5.1, 1.3, 1.5)  # q = N/p with N=3, p=2
        eps = balancing_epsilon(b, p=2.0, N=3)
        omega = b.q / (b.l + b.q)
        assert two_term_value(b, eps) == pytest.approx(
            2 * b.A ** omega * b.B ** (1 - omega), rel=1e-12)
        assert b.A * eps ** b.l == pytest.approx(b.B * eps ** -b.q, rel=1e-12)

    def test_degenerate_branch(self):
        b = TwoTermBound(0.0, 2.0, 1.0, 3.0)
        assert balancing_epsilon(b, p=1.0, N=1) == math.inf

    def test_inconsistent_decay_rejected(self):
        with pytest.raises(ValueError, match="matches neither"):
            balancing_epsilon(TwoTermBound(1, 1, 1, 0.77), p=2.0, N=1)

    def test_balanced_within_factor_two_of_grid_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            A, B = rng.uniform(1e-3, 1e3, 2)
            l = rng.uniform(0.1, 3.0)
            N = 1
            p = rng.uniform(1.1, 8.0)
            q = (N + 2) / p
            b = TwoTermBound(A, B, l, q)
            eps_b = balancing_epsilon(b, p, N)
            grid = np.geomspace(eps_b * 1e-6, eps_b * 1e6, 2001)
            vals = A * grid ** l + B * grid ** (-q)
            assert two_term_value(b, eps_b) <= 2.0 * float(vals.min()) * (1 + 1e-12)


class TestExponentAlgebra:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_chained_exponent_reproduces_general_formula(self, data):
        # chaining the ratio l1/l2 with the sup-norm exponent reproduces the
        # general exponent: l1/l2 + (1 - l1/l2)(N+2)/(p l2 + N + 2)
        l2 = data.draw(st.floats(0.3, 6.0))
        l1 = data.draw(st.floats(0.0, l2 * 0.99))
        p = data.draw(st.floats(1.01, 20.0))
        N = data.draw(st.integers(1, 4))
        chained = l1 / l2 + (1 - l1 / l2) * (N + 2) / (p * l2 + N + 2)
        direct = (p * l1 + N + 2) / (p * l2 + N + 2)
        assert chained == pytest.approx(direct, rel=1e-12)


class TestDilationSharpness:
    def _product(self, rep, omega):
        high = rep.norms["high"]["value"]
        low = rep.norms["low"]["value"]
        return high ** omega * low ** (1 - omega)

    def test_right_side_invariant_and_exponent_unique(self):
        spec = InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1)
        u = sample_expr("sin(2*pi*x1)*exp(-t)", steps=48)
        v = parabolic_dilate(u, 2.0)
        rep_u, rep_v = check(spec, u), check(spec, v)
        omega = rep_u.omega
        prod_u = rep_u.factor_high * rep_u.factor_low
        prod_v = rep_v.factor_high * rep_v.factor_low
        assert prod_v == pytest.approx(prod_u, rel=1e-10)
        for delta in (+0.05, -0.05):
            factor = self._product(rep_v, omega + delta) / self._product(rep_u, omega + delta)
            predicted = 2.0 ** (-delta * (1.5 + 3.0 / 2.0))
            assert factor == pytest.approx(predicted, rel=1e-2)


class TestReconstructionBound:
    def test_constant_bound(self):
        u = sample_expr("2+0*x1", steps=8)
        H = ParabolicShift((1.0 / 8,), 1.0 / 8)
        for k in (1, 2, 3):
            bound = pointwise_reconstruction_bound(u, 0.5, k, (0, 0), H)
            assert bound == pytest.approx((2 ** k - 1) * 2.0, rel=1e-12)
            assert bound >= 2.0

    def test_one_step_triangle(self):
        u = sample_expr("sin(2*x1)*exp(-t)", steps=10)
        H = ParabolicShift((0.1,), 0.1)
        for idx in [(0, 0), (3, 2), (5, 5)]:
            bound = pointwise_reconstruction_bound(u, 0.5, 1, idx, H)
            assert bound >= abs(u.value_at(idx)) * (1 - 1e-12)

    def test_random_points_bounded(self):
        rng = np.random.default_rng(17)
        u = sample_expr("sin(3*x1+1)*exp(-t)+0.5*x1*t", steps=12)
        from holonorm import DiffSeminormSpec, diff_quotient_seminorm
        k = 2
        sem = diff_quotient_seminorm(u, 1.5, spec=DiffSeminormSpec(2, 1)).value
        checked = 0
        while checked < 1000:
            i = int(rng.integers(0, 13))
            j = int(rng.integers(0, 13))
            ds = int(rng.integers(-6, 7))
            js = int(rng.integers(0, 7))
            if ds == 0 and js == 0:
                continue
            if not (0 <= i + k * ds <= 12 and 0 <= j + k * js <= 12):
                continue
            H = u.shift_from_steps((ds,), js)
            bound = pointwise_reconstruction_bound(u, 1.5, k, (i, j), H, seminorm=sem)
            assert bound >= abs(u.value_at((i, j))) * (1 - 1e-12)
            checked += 1

    def test_interval_seminorm_bound_is_certain(self, monkeypatch):
        # a one-pair budget makes the seminorm an interval whose floor, 1.3810,
        # is below its exact value, 1.4646; the floor alone would bound |u| = 2
        # at (16, 16) by 1.8894, the certified upper end keeps it certain
        from holonorm import pairs
        monkeypatch.setattr(pairs, "PAIR_LIMIT", 1)
        u = sample_expr("x1*x1 + t", steps=16)
        H = ParabolicShift((-0.75,), -1.0)
        bound = pointwise_reconstruction_bound(u, 0.5, 1, (16, 16), H)
        assert abs(u.value_at((16, 16))) == 2.0
        assert bound == pytest.approx(10.6455, abs=1e-4)

    def test_out_of_box_rejected(self):
        u = sample_expr("x1*t", steps=4)
        H = ParabolicShift((0.25,), 0.0)
        with pytest.raises(ValueError, match="leave the box"):
            pointwise_reconstruction_bound(u, 0.5, 3, (3, 0), H, seminorm=1.0)

    def test_order_zero_rejected(self):
        u = sample_expr("x1*t", steps=4)
        with pytest.raises(ValueError, match="^difference order must be >= 1, got 0$"):
            pointwise_reconstruction_bound(u, 0.5, 0, (0, 0), ParabolicShift((0.25,), 0.25),
                                           seminorm=1.0)

    def test_box_checked_before_the_seminorm(self, monkeypatch):
        # a node whose translates leave the box is rejected without computing
        # the order-k seminorm the bound would need
        from holonorm import interp

        def spy(*args, **kwargs):
            raise AssertionError("seminorm computed for a node outside the box")

        monkeypatch.setattr(interp, "diff_quotient_seminorm", spy)
        u = sample_expr("x1*t", steps=4)
        H = ParabolicShift((0.25,), 0.0)
        with pytest.raises(ValueError, match="leave the box"):
            pointwise_reconstruction_bound(u, 0.5, 3, (3, 0), H)


class TestTimeSeminormBound:
    def test_ratio_stable_under_refinement(self):
        ratios = []
        for steps in (16, 32, 64):
            u = sample_expr("sin(2*x1+1)*exp(-t)+x1*t*t", steps=steps)
            out = time_seminorm_bound(u, 2.5)
            assert out["lhs_time_sum"] >= 0
            ratios.append(out["ratio"])
        assert abs(ratios[1] / ratios[0] - 1) < 0.2
        assert abs(ratios[2] / ratios[1] - 1) < 0.2

    def test_spatial_grid_rejected(self):
        u = sample_expr("sin(2*x1)", steps=8, T=0.0)
        with pytest.raises(ValueError, match="^parabolic seminorm needs a positive time horizon$"):
            time_seminorm_bound(u, 1.5)

    def test_time_independent_lhs_zero(self):
        u = sample_expr("sin(2*x1)", steps=12)
        out = time_seminorm_bound(u, 1.5)
        assert out["lhs_time_sum"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n, l", [(1, 2.5), (2, 1.5)])
    def test_sums_are_the_parabolic_norms_quotient_terms(self, n, l):
        source = "sin(2*x1+1)*exp(-t)+x1*t*t" + ("*cos(x2)" if n == 2 else "")
        u = sample_expr(source, n=n, steps=6)
        out = time_seminorm_bound(u, l)
        quotients = [(k, v) for k, v in parabolic_norm(u, l).breakdown.items()
                     if k.startswith("<")]
        assert list(out["breakdown"].items()) == quotients
        assert out["space_sum"] == sum(v for k, v in quotients if "_x^(" in k)
        assert out["lhs_time_sum"] == sum(v for k, v in quotients if "_t^(" in k)


# The benchmark's sup-variant terms that the pair budget once left sampled:
# (N, source, steps, l2, variant, exact joint high term, exact ratio), the
# values those checks give with every supremum enumerated exhaustively.
SMOOTH_1D = "sin(2*pi*x1)*exp(-t)"
CUSP_1D = "abs(x1-0.5)^0.6*exp(-t)"
CUSP_2D = "sqrt((x1-0.5)*(x1-0.5)+(x2-0.5)*(x2-0.5))^0.6*exp(-t)"
FORMERLY_SAMPLED = {
    "smooth256-2.3.1": (1, SMOOTH_1D, 256, 1.5, "2.3.1", 16.01100256519838, 0.3665162611316009),
    "smooth256-2.3.3": (1, SMOOTH_1D, 256, 1.5, "2.3.3", 16.01100256519838, 0.648308352071907),
    "cusp128-2.3.1": (1, CUSP_1D, 128, 0.5, "2.3.1", 0.9330329915368073, 0.945009216527828),
    "cusp128-2.3.3": (1, CUSP_1D, 128, 0.5, "2.3.3", 0.9330329915368073, 1.0241032172881153),
    "cusp256-2.3.1": (1, CUSP_1D, 256, 0.5, "2.3.1", 0.9330329915368073, 0.9450145936081776),
    "cusp256-2.3.3": (1, CUSP_1D, 256, 0.5, "2.3.3", 0.9330329915368073, 1.0241109649567977),
    "cusp2d32-2.3.1": (2, CUSP_2D, 32, 0.5, "2.3.1", 0.9659363289248455, 1.0171500336872763),
    "cusp2d32-2.3.3": (2, CUSP_2D, 32, 0.5, "2.3.3", 0.9659363289248455, 1.0041683816624938),
}


@pytest.mark.parametrize("n, source, steps, l2, variant, high, ratio",
                         list(FORMERLY_SAMPLED.values()), ids=list(FORMERLY_SAMPLED))
def test_benchmark_sup_terms_are_exact(n, source, steps, l2, variant, high, ratio):
    u = sample_expr(source, n, steps)
    rep = check(InterpSpec(variant=variant, l2=l2, p=2.0, N=n), u)
    term = rep.norms["high"]
    assert term["sampling"] == {"mode": "exhaustive"}
    assert (term["value"], rep.ratio) == (high, ratio)


def test_check_seed_has_no_effect(monkeypatch):
    # interp.check keeps a seed keyword for old callers; nothing draws from
    # it, so no value of it changes the report, interval terms included
    import holonorm.pairs as pairs_mod
    monkeypatch.setattr(pairs_mod, "PAIR_LIMIT", 1)
    u = sample_expr("abs(x1-0.3)^0.7*exp(-t)+0.2*sin(5*x1)", steps=24)
    spec = InterpSpec(variant="2.3.1", l2=0.5, p=2.0, N=1)
    # each check on a fresh grid, so that none reads another's memo
    reports = [check(spec, u.with_values(u.values), seed=s).to_json_dict()
               for s in (None, 0, 7, 1729)]
    assert reports[0]["norms"]["high"]["sampling"]["mode"] == "interval"
    assert all(rep == reports[0] for rep in reports[1:])


def test_only_the_search_and_check_take_a_seed():
    # the search draws from its own seed, and check keeps a no-op one; no
    # other public callable or supremum engine takes a seed of any name
    import inspect

    import holonorm
    import holonorm.pairs as pairs_mod
    allowed = {"check", "random_search", "refine_search",
               "SearchResult"}  # records the search's own seed
    callables = {name: getattr(holonorm, name) for name in holonorm.__all__}
    callables.update((name, getattr(pairs_mod, name)) for name in (
        "SupOutcome", "pair_quotient_sup", "kdiff_quotient_sup", "kdiff_time_quotient_sup",
        "pair_quotient_sup_exhaustive", "kdiff_quotient_sup_exhaustive"))
    seeded = set()
    for name, obj in callables.items():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # not callable, or no signature to read
            continue
        if any("seed" in p for p in params):
            seeded.add(name)
    assert seeded == allowed
