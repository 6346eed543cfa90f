"""Expression grammar for user-supplied objectives."""
import numpy as np
import pytest

from lpgrad.errors import DomainError
from lpgrad.expr import compile_expression


class TestCompileExpression:
    def test_sum_of_sines(self):
        f = compile_expression("sum(sin(x))", 3)
        x = np.array([0.1, -0.4, 2.0])
        assert f(x) == pytest.approx(float(np.sin(x).sum()))

    def test_coordinates_and_powers(self):
        f = compile_expression("x1*x1 + 100*pow(x2 - x1^2, 2)", 2)
        x = np.array([0.5, 0.7])
        assert f(x) == pytest.approx(0.25 + 100 * (0.7 - 0.25) ** 2)

    def test_caret_right_associative(self):
        f = compile_expression("2^3^...".replace("...", "2"), 1)
        assert f(np.zeros(1)) == pytest.approx(512.0)

    def test_unary_minus_and_division(self):
        f = compile_expression("-x1/2 + exp(0)", 1)
        assert f(np.array([4.0])) == pytest.approx(-1.0)

    def test_precedence(self):
        f = compile_expression("1 + 2*3^2", 1)
        assert f(np.zeros(1)) == pytest.approx(19.0)

    def test_cos_exp(self):
        f = compile_expression("cos(x1) + exp(x2)", 2)
        x = np.array([0.3, 0.2])
        assert f(x) == pytest.approx(np.cos(0.3) + np.exp(0.2))

    def test_vector_result_rejected(self):
        with pytest.raises(DomainError):
            compile_expression("sin(x)", 2)

    def test_vector_result_rejected_at_d1(self):
        # one value per row by shape, but still a vector expression
        with pytest.raises(DomainError, match="scalar"):
            compile_expression("sin(x)", 1)

    def test_rows_broadcast_scalars_per_row_at_n_equal_d(self):
        d = 3
        rows = np.arange(9.0).reshape(d, d)
        np.testing.assert_array_equal(compile_expression("sum(x1*x)", d)(rows),
                                      rows[:, 0] * rows.sum(axis=1))

    def test_scalar_power_matches_numpy_scalar_arithmetic(self):
        # per point, x1 is a numpy scalar and ^ is libm pow; rows must not switch
        # to numpy's array power kernel, which differs in the last bit
        rows = np.abs(np.random.default_rng(0).normal(size=(2000, 2))) * 10
        expected = [np.float64(a) ** np.float64(2.5) + b ** np.float64(3) for a, b in rows]
        got = compile_expression("x1^2.5 + pow(x2, 3)", 2)(rows)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_constant_expression_gives_one_value_per_row(self):
        f = compile_expression("1 + 2*3^2", 2)
        assert f(np.zeros(2)) == 19.0
        np.testing.assert_array_equal(f(np.zeros((4, 2))), np.full(4, 19.0))

    def test_constant_division_by_zero_folds_to_inf(self):
        with np.errstate(all="raise"):  # folding itself must not warn or raise
            f = compile_expression("x1 + 1/0", 1)
        assert f(np.zeros(1)) == np.inf

    @pytest.mark.parametrize("bad", [
        "x1 +", "foo(x)", "1 2", "(x1", "x0", "x1 + x3",
        # Python accepts these; the grammar does not
        "+x1", "x1**2", "x1//2", "x1 % 2", "0x10", "1_0", "1j", "True", "None", "(x1, x2)",
        "x1 if x2 else 1", "x1 < 2", "not x1", "x1.real", "x1[0]", "sin(x1, )", "sin(x=1)",
        "pow(1)", "sum()", "lambda: 1", "'a'", "x1;x2", "", "(sin)(x1)", "sin(x1)(x2)",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(DomainError):
            compile_expression(bad, 2)(np.zeros(2))

    def test_scientific_literals(self):
        f = compile_expression("1e-4 * sum(x)", 2)
        assert f(np.array([1.0, 2.0])) == pytest.approx(3e-4)

    def test_coordinate_index_checked_against_dim(self):
        assert compile_expression("x3", 3)(np.array([0.0, 0.0, 2.5])) == 2.5
        with pytest.raises(DomainError, match="x7"):
            compile_expression("sum(x) + x7", 3)

    @pytest.mark.parametrize("text,expected", [
        ("01", lambda a, b: np.float64(1)),
        (".5", lambda a, b: np.float64(0.5)),
        ("3.", lambda a, b: np.float64(3)),
        ("1e-3", lambda a, b: np.float64("1e-3")),
        ("-x1^2", lambda a, b: -(a ** np.float64(2))),
        ("2^-x1", lambda a, b: np.float64(2) ** -a),
        ("2^3^2", lambda a, b: np.float64(2) ** (np.float64(3) ** np.float64(2))),
        ("1 - 2 - 3", lambda a, b: np.float64(1) - np.float64(2) - np.float64(3)),
        ("8/4/2", lambda a, b: np.float64(8) / np.float64(4) / np.float64(2)),
        ("x1 + 2^x2*3", lambda a, b: a + np.float64(2) ** b * np.float64(3)),
        ("1.05 - 1e05 ", lambda a, b: np.float64(1.05) - np.float64(1e5)),
        # constant subexpressions, alone and inside chains, calls, sums and powers
        ("2*3*x1", lambda a, b: np.float64(2) * np.float64(3) * a),
        ("x1*2*3", lambda a, b: a * np.float64(2) * np.float64(3)),
        ("sin(2)*x1", lambda a, b: np.sin(np.float64(2)) * a),
        ("sum(3) + x1", lambda a, b: np.float64(3) + a),
        ("sum(x1) + x2", lambda a, b: a + b),
        ("-2^2*x1", lambda a, b: -(np.float64(2) ** np.float64(2)) * a),
        ("(1 + 2)^x1", lambda a, b: (np.float64(1) + np.float64(2)) ** a),
        ("exp(1)/7 - x2", lambda a, b: np.exp(np.float64(1)) / np.float64(7) - b),
    ])
    def test_values_match_numpy_scalar_arithmetic(self, text, expected):
        rows = np.random.default_rng(3).normal(size=(4, 2))
        f = compile_expression(text, 2)
        want = np.array([expected(a, b) for a, b in rows])
        assert np.float64(f(rows[0])).tobytes() == want[0].tobytes()
        assert f(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("signs", ["+", "+-", "*/"])
    def test_long_flat_chain_is_the_left_fold(self, signs):
        # 3000 terms: a chain is a loop, so it may be of any length, also
        # inside parentheses and as an argument
        rows = np.random.default_rng(4).uniform(0.9, 1.1, size=(5, 3))
        ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
        text, want = "x1", rows[:, 0]
        for k in range(1, 3000):
            sign = signs[k % len(signs)]
            text += f" {sign} x{k % 3 + 1}"
            want = ops[sign](want, rows[:, k % 3])
        for wrapped in (text, f"({text})", f"sum({text})"):
            f = compile_expression(wrapped, 3)
            assert f(rows).tobytes() == want.tobytes()
            assert np.float64(f(rows[1])).tobytes() == want[1].tobytes()

    def test_nesting_bound(self):
        # calls, unary minus, parentheses and both operands of ^ each nest one level
        nested = {
            "minus": lambda k: "-" * k + "x1",
            "call": lambda k: "sin(" * k + "x1" + ")" * k,
            "call-around-chain": lambda k: "sin(" * k + "x1 + x1" + ")" * k,
            "parentheses": lambda k: "(" * k + "x1" + ")" * k,
            "power-base": lambda k: "sin(" * (k - 2) + "sin(x1)^2" + ")" * (k - 2),
        }
        for name, text in nested.items():
            assert compile_expression(text(50), 1)(np.array([0.5])) is not None, name
            with pytest.raises(DomainError, match="deeper than 50"):
                compile_expression(text(51), 1)
        with pytest.raises(DomainError):
            compile_expression("(" * 3000 + "x1" + ")" * 3000, 1)
