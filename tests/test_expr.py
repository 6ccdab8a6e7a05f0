import cmath
import random

import pytest

from defosc.errors import (
    EvalDomainError,
    ExprSyntaxError,
    UnboundParameterError,
    UnknownFunctionError,
)
from defosc.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Literal,
    Neg,
    Param,
    Var,
    evaluate,
    parse,
    unparse,
)


class TestParseShapes:
    def test_power_of_negated_variable(self):
        tree = parse("q^(-n)").root
        assert tree == BinOp("^", Param("q"), Neg(Var("n")))

    def test_bare_constant(self):
        assert parse("1").root == Literal(complex(1.0))

    def test_affine_combination(self):
        tree = parse("q*n + (1-q)").root
        assert tree == BinOp(
            "+",
            BinOp("*", Param("q"), Var("n")),
            BinOp("-", Literal(complex(1.0)), Param("q")),
        )

    def test_function_call(self):
        # unary minus binds tighter than *, so -d*n is (-d)*n
        assert parse("exp(-d*n)").root == Call("exp", BinOp("*", Neg(Param("d")), Var("n")))

    def test_imaginary_unit(self):
        assert parse("i").root == Literal(1j)
        assert evaluate(parse("2*i"), 0, {}) == 2j

    def test_variable_name_is_configurable(self):
        weight = parse("x*c", variable="x")
        assert weight.root == BinOp("*", Var("x"), Param("c"))
        assert weight.free_params == frozenset({"c"})

    def test_free_params_collected(self):
        assert parse("q*n + p^(-n)").free_params == frozenset({"q", "p"})


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        rng = random.Random(7)
        expression = parse("a + b*c")
        for _ in range(50):
            bindings = {
                name: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                for name in ("a", "b", "c")
            }
            expected = bindings["a"] + bindings["b"] * bindings["c"]
            assert evaluate(expression, 0, bindings) == expected

    def test_power_is_right_associative(self):
        assert evaluate(parse("2^3^2"), 0, {}) == 512

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse("-2^2"), 0, {}) == -4

    def test_unary_minus_binds_tighter_than_mul(self):
        assert parse("-q*n").root == BinOp("*", Neg(Param("q")), Var("n"))

    def test_exponent_may_be_signed_without_parens(self):
        assert evaluate(parse("2^-2"), 0, {}) == 0.25


class TestEvaluate:
    def test_integer_power_of_parameter(self):
        assert evaluate(parse("q^(-n)"), 2, {"q": 2}) == 0.25

    def test_constant_ignores_variable(self):
        assert evaluate(parse("1"), 7, {}) == 1

    def test_affine(self):
        assert evaluate(parse("q*n"), 3, {"q": 0.5}) == 1.5

    def test_integer_power_negative_base_stays_real(self):
        value = evaluate(parse("(-1.5)^3"), 0, {})
        assert value == complex(-3.375, 0.0)

    def test_real_arithmetic_stays_real(self):
        value = evaluate(parse("exp(-d*n) + sqrt(q) / (1 + n)"), 5, {"d": 0.25, "q": 2.25})
        assert value.imag == 0.0

    def test_fractional_power_uses_principal_branch(self):
        value = evaluate(parse("(-1)^0.5"), 0, {})
        assert cmath.isclose(value, 1j, abs_tol=1e-12)

    def test_large_integer_exponent(self):
        assert evaluate(parse("q^n"), 40, {"q": 2}) == 2.0**40

    def test_unbound_parameter(self):
        with pytest.raises(UnboundParameterError):
            evaluate(parse("q*n"), 1, {})

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/(n-3)"), 3, {})

    def test_ln_of_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("ln(n)"), 0, {})

    def test_sqrt_of_zero_is_zero(self):
        assert evaluate(parse("sqrt(n)"), 0, {}) == 0

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("n^(-1)"), 0, {})

    @pytest.mark.parametrize("k", [1023, 1024, 1074, 1075])
    def test_negative_power_below_overflow_of_positive(self, k):
        # 2^k overflows from k = 1024 on, while 2^-k is a double up to 1074
        assert evaluate(parse("p^(-n)"), k, {"p": 2}) == 2.0**-k

    def test_negative_power_of_tiny_base_overflows(self):
        with pytest.raises(EvalDomainError, match="overflow"):
            evaluate(parse("p^(-n)"), 1100, {"p": 0.5})


class TestErrors:
    def test_syntax_error_carries_offset_and_expectations(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("q^^2")
        assert info.value.offset == 2
        assert info.value.expected

    def test_overflowing_number_is_rejected(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("2*1e999 + n")
        assert info.value.offset == 2
        assert parse("1e308").root == Literal(1e308 + 0j)

    @pytest.mark.parametrize(
        "opening,middle,closing,marker",
        [
            ("(", "1", ")", "("),  # nested parentheses
            ("-", "1", "", "-"),  # a run of unary minus
            ("1^", "1", "", "^"),  # a right-associative power tower
            ("sqrt(", "n", ")", "("),  # nested calls
            ("", "n", "+n", "+"),  # a left-associative chain
        ],
    )
    def test_nesting_is_capped(self, opening, middle, closing, marker):
        def nest(levels):
            return opening * levels + middle + closing * levels

        at_cap = parse(nest(MAX_DEPTH))
        evaluate(at_cap, 0)
        unparse(at_cap)
        for levels in (MAX_DEPTH + 1, 5000):
            source = nest(levels)
            with pytest.raises(ExprSyntaxError) as info:
                parse(source)
            # refused at the marker that opens level MAX_DEPTH + 1
            offset = -1
            for _ in range(MAX_DEPTH + 1):
                offset = source.index(marker, offset + 1)
            assert info.value.offset == offset
            assert "nested deeper" in str(info.value)

    def test_unexpected_character_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("q + @")
        assert info.value.offset == 4

    def test_offset_is_in_bytes(self):
        # the first two characters are multibyte, so the byte offset of
        # the bad character exceeds its character index
        with pytest.raises(ExprSyntaxError) as info:
            parse("πα + @")
        assert info.value.offset == len("πα + ".encode("utf-8"))

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError) as info:
            parse("gamma(n)")
        assert info.value.offset == 0

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse("(1 + n")
        assert "')'" in info.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 2")

    def test_function_without_call_is_an_error(self):
        with pytest.raises(ExprSyntaxError):
            parse("exp + 1")


ROUND_TRIP_SOURCES = [
    "q^(-n)",
    "1",
    "q*n + (1-q)",
    "a + b*n",
    "c*exp(-d*n)",
    "-n^2 + 3*n/(q + 1)",
    "(q^n - q^(-n))/(q - q^(-1))",
    "sqrt(q)*ln(n + 1) - 2.5e-3",
    "--n",
    "2^3^n",
    "i*n + (1 - i)*q",
    "(a - b)*(a + b)/a^2",
]


class TestRoundTrip:
    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_structural_stability(self, source):
        first = parse(source)
        second = parse(unparse(first))
        assert first.root == second.root

    @pytest.mark.parametrize("source", ROUND_TRIP_SOURCES)
    def test_evaluation_is_bit_identical(self, source):
        first = parse(source)
        second = parse(unparse(first))
        rng = random.Random(hash(source) & 0xFFFF)
        names = sorted(first.free_params)
        for _ in range(100):
            n = rng.randrange(0, 12)
            bindings = {
                name: complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
                for name in names
            }
            try:
                expected = evaluate(first, n, bindings)
            except EvalDomainError:
                continue
            assert evaluate(second, n, bindings) == expected

    def test_unparse_of_rebuilt_literal(self):
        assert unparse(parse("2.5")) == "2.5"
        assert unparse(parse("3")) == "3"
        assert unparse(parse("i")) == "i"


class TestImmutability:
    def test_nodes_are_frozen(self):
        expression = parse("q*n")
        with pytest.raises(AttributeError):
            expression.root.op = "+"  # type: ignore[misc]

    def test_evaluation_is_pure(self):
        expression = parse("q^n + n")
        before = evaluate(expression, 3, {"q": 2})
        for _ in range(3):
            assert evaluate(expression, 3, {"q": 2}) == before
