import pytest

from holonorm import Domain, InterpSpec, check
from holonorm.search import Family, build_candidate, random_search, refine_search


SPEC_231 = InterpSpec(variant="2.3.1", l2=1.5, p=2, N=1)
SPEC_211 = InterpSpec(variant="2.11", l1=0.0, l2=1.5, p=2, N=1)


class TestFamilies:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            Family(kind="fourier")

    def test_rough_gamma_respects_high_index(self):
        fam = Family(kind="rough", gamma_range=(0.1, 1.0))
        names = dict((n, (lo, hi)) for n, lo, hi in
                     fam.param_spec(SPEC_231, Domain((0.0,), (1.0,), 1.0)))
        lo, _ = names["gamma"]
        assert lo >= 0.5  # fractional part of l2 = 1.5

    def test_bump_parameters_on_a_2d_space_time_box(self):
        # a centre in each axis's range and a width of 0.05-0.5 of its
        # extent, and a drift speed because the box has a time horizon
        spec = InterpSpec(variant="2.3.1", l2=1.5, p=2, N=2)
        domain = Domain((0.0, -1.0), (2.0, 0.0), 1.0)
        assert Family(kind="bump").param_spec(spec, domain) == [
            ("a", -1.0, 1.0),
            ("c0", 0.0, 2.0), ("w0", 0.1, 1.0),
            ("c1", -1.0, 0.0), ("w1", 0.05, 0.5),
            ("v", -1.0, 1.0),
        ]

    def test_bump_member_has_compact_support(self):
        fam = Family(kind="bump")
        domain = Domain((0.0,), (1.0,), 1.0)
        params = {"a": 1.0, "c0": 0.5, "w0": 0.1, "v": 0.0}
        u = build_candidate(fam.expression(params, SPEC_231, domain), SPEC_231,
                            domain, 64, 8)
        assert u.value_at((0, 0)) == 0.0
        assert u.value_at((64, 0)) == 0.0
        assert abs(u.value_at((32, 0))) > 0.5


class TestRandomSearch:
    def test_budget_one_single_evaluation(self):
        res = random_search(SPEC_231, Family(kind="trig"), budget=1, seed=9, resolution=16)
        assert res.evaluations >= 1
        assert len(res.history) == 1
        assert res.history[0] == res.best_ratio

    def test_same_seed_identical(self):
        a = random_search(SPEC_231, Family(kind="trig"), budget=12, seed=4, resolution=16)
        b = random_search(SPEC_231, Family(kind="trig"), budget=12, seed=4, resolution=16)
        assert a.best_ratio == b.best_ratio
        assert a.history == b.history
        assert a.best_params == b.best_params
        assert a.to_json_dict() == b.to_json_dict()

    def test_same_seed_identical_bump(self):
        a, b = (random_search(SPEC_231, Family(kind="bump"), budget=12, seed=4, resolution=16)
                for _ in range(2))
        assert a.evaluations == 12
        assert a.to_json_dict() == b.to_json_dict()

    def test_history_monotone(self):
        res = random_search(SPEC_231, Family(kind="trig"), budget=25, seed=2, resolution=16)
        assert all(b >= a for a, b in zip(res.history, res.history[1:]))

    def test_best_ratio_reevaluates(self):
        res = random_search(SPEC_231, Family(kind="trig"), budget=10, seed=3, resolution=16)
        domain = Domain((0.0,), (1.0,), 1.0)
        u = build_candidate(res.best_expression, SPEC_231, domain, 16, 16)
        rep = check(SPEC_231, u)
        assert rep.ratio == pytest.approx(res.best_ratio, rel=1e-10)

    def test_trig_budget_500_beats_constant_ratio(self):
        # the constant function has ratio exactly 1 on the unit box
        res = random_search(SPEC_211, Family(kind="trig"), budget=500, seed=0,
                            resolution=64)
        assert res.best_ratio >= 1.0

    def test_degenerate_family_rejected(self):
        fam = Family(kind="trig", amp_range=(0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate"):
            random_search(SPEC_231, fam, budget=5, seed=0, resolution=8)

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            random_search(SPEC_231, Family(kind="trig"), budget=0, seed=0)

    def test_spatial_domain_records_no_time_steps(self):
        # a T = 0 domain has no time steps, whatever time resolution is asked for
        for tres in (None, 5):
            res = random_search(SPEC_211, Family(kind="trig"), budget=1, seed=0, resolution=8,
                                time_resolution=tres)
            assert res.resolution["time_resolution"] == 0

    def test_rough_family_runs(self):
        res = random_search(SPEC_231, Family(kind="rough"), budget=5, seed=3, resolution=24)
        assert res.best_ratio > 0
        assert "sqrt" in res.best_expression


class TestRefineSearch:
    def test_zero_steps_unchanged(self):
        start = random_search(SPEC_231, Family(kind="trig"), budget=5, seed=1, resolution=16)
        out = refine_search(start, Family(kind="trig"), steps=0, seed=1)
        assert out.best_ratio == start.best_ratio
        assert out.best_params == start.best_params
        assert out.history == start.history

    def test_monotone_improvement_only(self):
        start = random_search(SPEC_231, Family(kind="trig"), budget=8, seed=5, resolution=16)
        out = refine_search(start, Family(kind="trig"), steps=40, seed=5)
        assert out.best_ratio >= start.best_ratio
        assert all(b >= a for a, b in zip(out.history, out.history[1:]))

    def test_refinement_improves_fixture(self):
        # regression fixture recorded at first build: seed 0 improves within
        # 60 hill-climbing steps at this resolution
        fam = Family(kind="trig", n_terms=2)
        start = random_search(SPEC_231, fam, budget=20, seed=0, resolution=24)
        out = refine_search(start, fam, steps=60, step_scale=0.15, seed=0)
        assert start.best_ratio == pytest.approx(1.598508, rel=1e-5)
        assert out.best_ratio == pytest.approx(2.402358, rel=1e-5)
        assert out.best_ratio > start.best_ratio

    def test_refined_best_reevaluates(self):
        fam = Family(kind="trig")
        start = random_search(SPEC_231, fam, budget=6, seed=11, resolution=16)
        out = refine_search(start, fam, steps=25, seed=11)
        domain = Domain((0.0,), (1.0,), 1.0)
        u = build_candidate(out.best_expression, SPEC_231, domain, 16, 16)
        rep = check(SPEC_231, u)
        assert rep.ratio == pytest.approx(out.best_ratio, rel=1e-10)
