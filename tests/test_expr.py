import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udlab import expr as ex
from udlab.expr import (Add, Const, Div, DomainError, ExprSyntaxError, Func, Mul,
                        OrderCapError, PowInt, PowReal, Sub, Var)

from conftest import random_expr_and_point


class TestParsing:
    def test_single_power_node(self):
        assert ex.parse_expr("x^2") == PowInt(Var(), 2)

    def test_exponent_binds_before_product(self):
        assert ex.parse_expr("2*x^3") == Mul(Const(2.0), PowInt(Var(), 3))

    def test_power_right_associative(self):
        # x^2^3 = x^(2^3): constant exponent folds to 8
        assert ex.parse_expr("x^2^3") == PowInt(Var(), 8)

    def test_sum_left_associative(self):
        t = ex.parse_expr("x - 1 - 2")
        assert t == Sub(Sub(Var(), Const(1.0)), Const(2.0))

    def test_unary_minus(self):
        assert ex.parse_expr("-3") == Const(-3.0)
        assert ex.parse_expr("-x") == Mul(Const(-1.0), Var())

    def test_real_exponent(self):
        assert ex.parse_expr("x^2.5") == PowReal(Var(), 2.5)
        assert ex.parse_expr("x^(-2)") == PowInt(Var(), -2)

    def test_functions(self):
        assert ex.parse_expr("sin(x)") == Func("sin", Var())
        assert ex.parse_expr("exp(log(x))") == Func("exp", Func("log", Var()))

    def test_scientific_numbers(self):
        assert ex.parse_expr("1e-3") == Const(1e-3)
        assert ex.parse_expr("2.5E2") == Const(250.0)

    def test_alternate_variable_name(self):
        t = ex.parse_expr("n + sin(n)/n", var="n")
        assert ex.evaluate(t, 1.0) == pytest.approx(1 + math.sin(1.0))

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            ex.parse_expr("log(x")
        assert info.value.offset == 6

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse_expr("   ")

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError) as info:
            ex.parse_expr("2*tan(x)")
        assert "tan" in str(info.value)
        assert info.value.offset == 3

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse_expr("x + 1)")

    def test_variable_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            ex.parse_expr("x^x")

    @pytest.mark.parametrize("text, offset", [
        ("1e400*x", 1),          # number overflows to inf
        ("x^(0*10^400)", 3),     # exponent 0*inf is NaN
        ("x^(10^400)", 3),       # exponent overflows to inf
        ("2*x - 1e999", 7),
    ])
    def test_non_finite_constants_refused(self, text, offset):
        with pytest.raises(ExprSyntaxError) as info:
            ex.parse_expr(text)
        assert info.value.offset == offset


class TestRoundTrip:
    CASES = ["x^2", "2*x^3", "-x + (x - 1)/(x + 2)", "exp(x)^2.5",
             "x^(-2)*sqrt(x) - sin(cos(x))", "(x^2)^3", "1e-3*x",
             "x/(2*x) / (x/3)", "-(x + 1)^2"]

    @pytest.mark.parametrize("text", CASES)
    def test_fixed_cases(self, text):
        tree = ex.parse_expr(text)
        assert ex.parse_expr(ex.to_text(tree)) == tree

    def test_seeded_expressions(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            node, _ = random_expr_and_point(rng)
            assert ex.parse_expr(ex.to_text(node)) == node


class TestEvaluate:
    def test_hand_values(self):
        assert ex.evaluate(ex.parse_expr("x^2"), 3) == 9
        assert ex.evaluate(ex.parse_expr("log(x)"), 1) == 0
        assert ex.evaluate(ex.parse_expr("sin(x)^2 + cos(x)^2"), 0.7) == \
            pytest.approx(1.0, abs=1e-15)

    def test_array_input(self):
        xs = np.linspace(0.1, 2.0, 17)
        out = ex.evaluate(ex.parse_expr("x^2 - x"), xs)
        assert np.allclose(out, xs ** 2 - xs)

    @pytest.mark.parametrize("text,x", [
        ("log(x)", 0.0), ("log(x)", -1.0), ("sqrt(x)", -2.0),
        ("1/x", 0.0), ("x^(-1)", 0.0), ("x^0.5", -1.0),
    ])
    def test_domain_errors(self, text, x):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse_expr(text), x)

    def test_domain_error_names_offending_node(self):
        with pytest.raises(DomainError) as info:
            ex.evaluate(ex.parse_expr("x + log(x - 2)"), 1.0)
        assert "log(x - 2)" in str(info.value)


class TestJets:
    def test_polynomial(self):
        jet = ex.eval_jet(ex.parse_expr("x^2"), 3.0, 3)
        assert list(jet.derivatives) == [9.0, 6.0, 2.0, 0.0]

    def test_exp_log(self):
        assert list(ex.eval_jet(ex.parse_expr("exp(x)"), 0.0, 2).derivatives) == \
            [1.0, 1.0, 1.0]
        assert list(ex.eval_jet(ex.parse_expr("log(x)"), 1.0, 2).derivatives) == \
            [0.0, 1.0, -1.0]

    def test_polynomial_tail_exactly_zero(self):
        # (x^3 + 2x)^2 has degree 6: entries 7..10 must be exact zeros
        jet = ex.eval_jet(ex.parse_expr("(x^3 + 2*x)^2"), 1.7, 10)
        assert np.all(jet.derivatives[7:] == 0.0)

    def test_truncation_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            node, x = random_expr_and_point(rng)
            full = ex.eval_jet(node, x, 8).derivatives
            short = ex.eval_jet(node, x, 3).derivatives
            assert np.array_equal(full[:4], short)

    def test_first_derivative_vs_central_difference(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(60):
            node, x = random_expr_and_point(rng)
            d1 = ex.eval_jet(node, x, 1).derivatives[1]
            fd = (ex.evaluate(node, x + h) - ex.evaluate(node, x - h)) / (2 * h)
            assert abs(d1 - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_known_higher_derivatives(self):
        # sin jets at 0 cycle through [0, 1, 0, -1]
        jet = ex.eval_jet(ex.parse_expr("sin(x)"), 0.0, 7).derivatives
        assert np.allclose(jet, [0, 1, 0, -1, 0, 1, 0, -1], atol=1e-15)
        # sqrt at 4: f = 2, f' = 1/4, f'' = -1/32, f''' = 3/256
        jet = ex.eval_jet(ex.parse_expr("sqrt(x)"), 4.0, 3).derivatives
        assert np.allclose(jet, [2, 0.25, -1 / 32, 3 / 256], rtol=1e-14)

    def test_negative_integer_power(self):
        # d/dx x^-2 = -2 x^-3
        jet = ex.eval_jet(ex.parse_expr("x^(-2)"), 2.0, 2).derivatives
        assert np.allclose(jet, [0.25, -0.25, 0.375], rtol=1e-14)

    def test_order_cap(self):
        with pytest.raises(OrderCapError):
            ex.eval_jet(ex.parse_expr("x"), 1.0, 17)
        ex.eval_jet(ex.parse_expr("x"), 1.0, 16)

    def test_jet_domain_error(self):
        with pytest.raises(DomainError):
            ex.eval_jet(ex.parse_expr("sqrt(x)"), 0.0, 2)


def trees(consts, int_exponents, real_exponents):
    def extend(children):
        return st.one_of(
            st.builds(Add, children, children), st.builds(Sub, children, children),
            st.builds(Mul, children, children), st.builds(Div, children, children),
            st.builds(PowInt, children, int_exponents),
            st.builds(PowReal, children, real_exponents),
            st.builds(Func, st.sampled_from(ex._FUNCS), children))
    leaves = st.one_of(st.just(Var()), consts.map(Const))
    return st.recursive(leaves, extend, max_leaves=10)


# Trees the parser can produce: finite constants, integer-valued exponents
# up to 2^31 as PowInt and every other finite exponent as PowReal.
PARSABLE = trees(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 31, 2 ** 31),
    st.floats(allow_nan=False, allow_infinity=False).filter(
        lambda a: not (a.is_integer() and abs(a) <= 2 ** 31)))

# Small trees for evaluation: jets of order 4 stay cheap.
SMALL = trees(st.floats(-4.0, 4.0),
              st.integers(-4, 5),
              st.floats(-2.5, 2.5).filter(lambda a: not a.is_integer()))


class TestProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(node=SMALL, xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=7))
    def test_value_is_row_zero_of_every_jet(self, node, xs):
        xs = np.array(xs)
        with np.errstate(all="ignore"):
            try:
                values = ex.evaluate(node, xs)
            except DomainError:
                with pytest.raises(DomainError):
                    ex.eval_jet_many(node, xs, 0)
                return
            scalar = ex.evaluate(node, float(xs[0]))
            for d in range(5):
                try:
                    jet = ex.eval_jet_many(node, xs, d)
                except DomainError:
                    assert d >= 1  # sqrt(0), or x^-k whose jet underflows
                    continue
                assert jet[0].tobytes() == values.tobytes(), (ex.to_text(node), d)
                assert np.float64(scalar).tobytes() == jet[0, :1].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tree=PARSABLE)
    def test_text_round_trip(self, tree):
        assert ex.parse_expr(ex.to_text(tree)) == tree

    @pytest.mark.parametrize("d", range(1, 5))
    def test_sqrt_at_zero_has_a_value_but_no_jet(self, d):
        root = ex.parse_expr("sqrt(x)")
        assert ex.evaluate(root, 0.0) == 0.0
        assert ex.eval_jet(root, 0.0, 0).derivatives[0] == 0.0
        with pytest.raises(DomainError):
            ex.eval_jet(root, 0.0, d)


class TestIndependence:
    def test_monomials_independent(self):
        rep = ex.check_linear_independence(
            [ex.parse_expr("x"), ex.parse_expr("x^2")], (0, 1))
        assert rep.verdict == "independent"
        assert rep.null_direction is None

    def test_affine_relation(self):
        rep = ex.check_linear_independence(
            [ex.parse_expr("x"), ex.parse_expr("2*x + 1")], (0, 1))
        assert rep.verdict == "dependent"
        expected = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
        ratio = rep.null_direction / expected
        assert np.allclose(ratio, ratio[0], atol=1e-9)
        assert np.linalg.norm(rep.null_direction) == pytest.approx(1.0, abs=1e-12)

    def test_pythagorean_identity(self):
        rep = ex.check_linear_independence(
            [ex.parse_expr("sin(x)^2"), ex.parse_expr("cos(x)^2")], (0, 1))
        assert rep.verdict == "dependent"

    def test_verdict_invariant_under_reordering_and_scaling(self):
        fs = [ex.parse_expr("x"), ex.parse_expr("exp(x)"), ex.parse_expr("sin(x)")]
        base = ex.check_linear_independence(fs, (0, 2)).verdict
        perm = ex.check_linear_independence(fs[::-1], (0, 2)).verdict
        scaled = ex.check_linear_independence(
            [ex.parse_expr("1000*x"), ex.parse_expr("exp(x)"),
             ex.parse_expr("0.001*sin(x)")], (0, 2)).verdict
        assert base == perm == scaled == "independent"

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError):
            ex.check_linear_independence([ex.parse_expr("x")], (0, 1), m=3)

    def test_non_finite_samples_refused_before_the_svd(self):
        # exp(exp(x)) overflows on [6, 7]; the SVD used to fail on inf columns
        # with numpy's "SVD did not converge", naming no function
        fs = [ex.parse_expr("exp(exp(x))"), ex.parse_expr("x")]
        with pytest.raises(ValueError, match=r"exp\(exp\(x\)\) on \[6, 7\] are not finite"):
            ex.check_linear_independence(fs, (6, 7))
