import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonorm import (
    Expr,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    evaluate,
    parse,
    unparse,
)


def ev(source, x=(0.0,), t=0.0, n=None):
    return evaluate(parse(source, n or len(x)), x, t)


class TestParse:
    def test_variable(self):
        e = parse("x1", 1)
        assert e.op == "var" and e.name == "x1"

    def test_product_of_calls(self):
        e = parse("sin(3*x1)*exp(-t)", 1)
        assert e.op == "*"
        assert e.args[0].op == "call" and e.args[0].name == "sin"
        assert e.args[1].op == "call" and e.args[1].name == "exp"

    def test_out_of_scope_variable(self):
        with pytest.raises(ExprNameError, match="x3"):
            parse("x3", 2)

    @pytest.mark.parametrize("source, n, message", [
        ("x01 + 1", 1, "unknown identifier 'x01' at offset 0: dimension 1 defines x1..x1 and t"),
        ("1 + x\u0661", 2, "unknown identifier 'x\u0661' at offset 4"),
        ("t * x\u00b2", 2, "unknown identifier 'x\u00b2' at offset 4"),
    ], ids=["leading-zero", "arabic-indic-digit", "superscript-two"])
    def test_malformed_variable_name(self, source, n, message):
        with pytest.raises(ExprNameError) as info:
            parse(source, n)
        assert str(info.value) == message

    def test_unknown_function(self):
        with pytest.raises(ExprNameError, match="tan"):
            parse("tan(x1)", 1)

    def test_wrong_arity(self):
        with pytest.raises(ExprNameError, match="sin expects 1"):
            parse("sin(x1, t)", 1)
        with pytest.raises(ExprNameError, match="min expects 2"):
            parse("min(x1)", 1)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError, match="offset 4"):
            parse("1 + *2", 1)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1+2", 1)

    @pytest.mark.parametrize("source, message", [
        ("1.2.3", "bad number '1.2.3' at offset 0"),
        ("x1 $ 2", "unexpected character '$' at offset 3"),
        ("sin(x1 x1)", "expected ')' at offset 7, got 'x1'"),
        ("x1 x1", "trailing input 'x1' at offset 3"),
        ("1e400", "number '1e400' at offset 0 overflows"),
        ("x1+1e999", "number '1e999' at offset 3 overflows"),
    ], ids=["bad-number", "unexpected-character", "unclosed-call", "trailing-input",
            "overflowing-number", "overflowing-number-later"])
    def test_syntax_error_message(self, source, message):
        with pytest.raises(ExprSyntaxError) as info:
            parse(source, 1)
        assert str(info.value) == message

    def test_underflowing_number_is_zero(self):
        # only a literal that overflows is refused; one below the smallest
        # subnormal rounds to 0, as float() gives it
        assert parse("1e-400", 1) == Expr("num", value=0.0)

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            parse("x1", 0)

    def test_whitespace_insensitive(self):
        assert ev("  1 +   2*3 ") == ev("1+2*3")


class TestEvaluate:
    def test_precedence(self):
        assert ev("2+3*4") == 14.0
        assert ev("(2+3)*4") == 20.0
        assert ev("2^3^2") == 512.0   # right associative
        assert ev("-2^2") == -4.0     # power binds tighter than unary minus
        assert ev("2^-2") == 0.25
        assert ev("6/3/2") == 1.0     # left associative
        assert ev("6-3-2") == 1.0

    def test_abs_power(self):
        assert ev("abs(-1)^0.5") == 1.0

    def test_sin_at_half_pi(self):
        assert ev("sin(x1)", (math.pi / 2,)) == pytest.approx(1.0, abs=1e-15)

    def test_pi_constant(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0, abs=1e-15)
        assert ev("pi") == math.pi

    def test_min_max_pow(self):
        assert ev("min(2, 3)") == 2.0
        assert ev("max(2, 3)") == 3.0
        assert ev("pow(2, 10)") == 1024.0

    def test_domain_error_names_subexpression(self):
        with pytest.raises(ExprDomainError, match=r"log\(x1\)"):
            ev("1 + log(x1)", (-1.0,))
        with pytest.raises(ExprDomainError, match="sqrt"):
            ev("sqrt(-2)")
        with pytest.raises(ExprDomainError, match="division by zero"):
            ev("1/x1", (0.0,))
        with pytest.raises(ExprDomainError, match="fractional exponent"):
            ev("(-2)^0.5")
        with pytest.raises(ExprDomainError) as info:
            ev("0^-1")
        assert str(info.value) == ("domain error in '0.0^-1.0': zero base with a negative "
                                   "exponent")
        with pytest.raises(ExprDomainError, match="zero base with a negative exponent"):
            ev("pow(x1, -2)", (0.0,))
        with pytest.raises(ExprDomainError, match="not finite"):
            ev("exp(1000000)")

    def test_determinism(self):
        a = ev("sin(3*x1)*exp(-t)+x1^2", (0.37,), 0.2)
        b = ev("sin(3*x1)*exp(-t)+x1^2", (0.37,), 0.2)
        assert a == b

    def test_array_matches_scalar(self):
        e = parse("sin(3*x1)*exp(-t) + x1^2/(1+t)", 1)
        xs = np.linspace(0.0, 1.0, 17)
        ts = np.linspace(0.0, 1.0, 5)
        X, T = np.meshgrid(xs, ts, indexing="ij")
        arr = evaluate(e, (X,), T)
        for i in range(17):
            for j in range(5):
                assert arr[i, j] == evaluate(e, (float(xs[i]),), float(ts[j]))


class TestUnparse:
    def test_variable(self):
        assert unparse(parse("x1", 1)) == "x1"

    def test_simple_roundtrip(self):
        e = parse("1+2*3", 1)
        assert ev(unparse(e)) == 7.0

    def test_negated_power_roundtrip(self):
        e = parse("-(x1^2)", 1)
        text = unparse(e)
        for x in (0.5, -1.25, 2.0):
            assert evaluate(parse(text, 1), (x,), 0.0) == evaluate(e, (x,), 0.0)

    def test_right_assoc_sub_parenthesized(self):
        # a-(b-c) must not collapse to a-b-c
        e = Expr("-", (Expr("num", value=1.0), Expr("-", (Expr("num", value=2.0),
                                                          Expr("num", value=3.0)))))
        assert ev(unparse(e)) == 2.0

    def test_negative_literal_base(self):
        e = Expr("^", (Expr("num", value=-2.0), Expr("num", value=2.0)))
        assert ev(unparse(e)) == 4.0


# -- randomized round-trip property -------------------------------------------


def leaf_nodes():
    return st.one_of(
        st.floats(0.0, 4.0, allow_nan=False).map(lambda v: Expr("num", value=v)),
        st.sampled_from(["x1", "x2", "t"]).map(lambda n: Expr("var", name=n)),
    )


def combine(children):
    binary = st.sampled_from(["+", "-", "*", "/", "^"]).flatmap(
        lambda op: st.tuples(children, children).map(lambda ab: Expr(op, ab))
    )
    unary = children.map(lambda a: Expr("neg", (a,)))
    call1 = st.tuples(st.sampled_from(["sin", "cos", "exp", "abs", "sqrt"]), children).map(
        lambda fa: Expr("call", (fa[1],), name=fa[0])
    )
    call2 = st.tuples(st.sampled_from(["min", "max", "pow"]), children, children).map(
        lambda fab: Expr("call", (fab[1], fab[2]), name=fab[0])
    )
    return st.one_of(binary, unary, call1, call2)


random_trees = st.recursive(leaf_nodes(), combine, max_leaves=40)


@given(tree=random_trees, data=st.data())
@settings(max_examples=150, deadline=None)
def test_unparse_roundtrip_evaluates_identically(tree, data):
    text = unparse(tree)
    reparsed = parse(text, 2)
    # the literals are nonnegative, so none reparses as a negated one
    assert reparsed == tree
    points = data.draw(
        st.lists(
            st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 2)),
            min_size=5, max_size=5,
        )
    )
    for x1, x2, t in points:
        try:
            expected = evaluate(tree, (x1, x2), t)
            raised = None
        except ExprDomainError as exc:
            raised = str(exc)
        if raised is None:
            assert evaluate(reparsed, (x1, x2), t) == expected
        else:
            with pytest.raises(ExprDomainError):
                evaluate(reparsed, (x1, x2), t)
