import random

import pytest

from qcong import qexpr
from qcong.ntheory import NotInvertible
from qcong.qexpr import (
    ExprSyntaxError,
    NonIntegralExponent,
    NonUnitDenominator,
    PoleAtOrigin,
    evaluate,
    parse,
)
from qcong.series import EXACT, ExponentMismatch, Ring, eta_product


def test_parse_examples():
    eta = ("eta", 1)
    assert parse("eta(q)^24") == ("^", eta, 24)
    ast = parse("E4(q^2)*eta(q)/eta(q^3)^2")
    assert ast == ("/", ("*", ("E", 4, 2), eta), ("^", ("eta", 3), 2))
    assert parse("q") == ("q", 1)
    assert parse("q^5") == ("q", 5)
    assert parse("  eta( q ) ^ 24 ") == ("^", eta, 24)
    assert parse("-3") == ("int", -3)
    assert parse("-eta(q)") == ("*", ("int", -1), eta)
    assert parse("2-3") == parse("2 - 3")
    assert parse("eta(q)^-24") == ("^", eta, -24)
    assert parse("(1+q)^2") == ("^", ("+", ("int", 1), ("q", 1)), 2)
    # associativity, precedence and the power of a parenthesized monomial
    assert parse("2-3-4") == ("-", ("-", ("int", 2), ("int", 3)), ("int", 4))
    assert parse("2-(3-4)") == ("-", ("int", 2), ("-", ("int", 3), ("int", 4)))
    assert parse("eta(q)/eta(q^2)/eta(q^3)") == ("/", ("/", eta, ("eta", 2)),
                                                 ("eta", 3))
    assert parse("-eta(q)^2") == ("*", ("int", -1), ("^", eta, 2))
    assert parse("(q^2)^3") == ("^", ("q", 2), 3)
    assert parse("(q)^2") == ("^", ("q", 1), 2)
    assert parse("2*3+4*5") == ("+", ("*", ("int", 2), ("int", 3)),
                                ("*", ("int", 4), ("int", 5)))


def test_parse_errors():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("eta(q^0)")
    assert exc.value.offset == 6
    assert exc.value.expected

    with pytest.raises(ExprSyntaxError):
        parse("E3(q)")  # odd weight
    with pytest.raises(ExprSyntaxError):
        parse("eta(x)")
    with pytest.raises(ExprSyntaxError):
        parse("2 +")
    with pytest.raises(ExprSyntaxError):
        parse("eta(q")
    with pytest.raises(ExprSyntaxError):
        parse("2 2")
    with pytest.raises(ExprSyntaxError):
        parse("foo(q)")
    # a factor admits a single caret, and q^k has used it
    for text in ("q^2^3", "2^2^3", "eta(q)^2^3"):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == len(text) - 2, text


def test_parse_too_deep_is_a_syntax_error():
    # nesting past the recursion limit is reported at the token reached
    text = "(" * 300 + "1" + ")" * 300
    with pytest.raises(ExprSyntaxError, match="nested too deeply") as exc:
        parse(text)
    assert text[exc.value.offset] == "("


def test_evaluate_too_deep_is_a_value_error():
    # the parser reads a chain iteratively, but its tree is 1000 deep
    with pytest.raises(ValueError, match="too deeply"):
        evaluate(parse("+".join(["1"] * 1000)), 3)


CORPUS = [
    "eta(q)^24",
    "E4(q)",
    "E4(q^2)*eta(q)/eta(q^3)^2",
    "1+q",
    "q^3-2*q+5",
    "eta(q^2)^12*eta(q^3)^8",
    "(E4(q)+E6(q))*eta(q)^24",
    "eta(q)^48/eta(q^2)^24",
    "-eta(q)^24+q",
    "2*(3+q^2)^2",
    "E4(q)^3-E6(q)^2",
    "q*(1-q)^2*(1+q)^2",
    "eta(q^24)",
    "eta(q)^24/q",
    "E10(q^6)",
    "1/(1-q)",
]


def _random_ast(rng, depth=0):
    pool = ["int", "q", "eta24", "eis"]
    if depth < 3:
        pool += ["add", "mul", "pow"]
    kind = rng.choice(pool)
    if kind == "int":
        return ("int", rng.randint(-9, 9) or 1)
    if kind == "q":
        return ("q", rng.randint(1, 4))
    if kind == "eta24":
        t = rng.choice((1, 2, 3))
        return ("^", ("eta", t), 24 // t * rng.choice((1, 2)))
    if kind == "eis":
        return ("E", rng.choice((4, 6)), rng.randint(1, 3))
    if kind == "add":
        return ("+", _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))
    if kind == "mul":
        return ("*", _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))
    return ("^", _random_ast(rng, depth + 1), rng.randint(2, 3))


def test_evaluate_examples():
    assert evaluate(parse("eta(q)^24"), 4).coeffs == [0, 1, -24, 252]
    assert evaluate(parse("E4(q)"), 3).coeffs == [1, 240, 2160]
    with pytest.raises(NonIntegralExponent):
        evaluate(parse("eta(q)^2"), 8)
    with pytest.raises(ExponentMismatch):  # summands at q^(1/24) and q^0
        evaluate(parse("eta(q) + 1"), 5)


def test_evaluate_matches_eta_product():
    # eta(q^24) has integral exponent: shift 1 and the scale-24 product
    got = evaluate(parse("eta(q^24)"), 30)
    expect, offset = eta_product(24, 30, EXACT)
    assert got.coeffs == expect.coeffs and offset == 0


def test_evaluate_eta_quotients():
    a = evaluate(parse("eta(q)^48/eta(q)^24"), 6)
    b = evaluate(parse("eta(q)^24"), 6)
    assert a.coeffs == b.coeffs
    shifted = evaluate(parse("eta(q)^24/q"), 5)
    assert shifted.coeffs == evaluate(parse("eta(q)^24"), 6).coeffs[1:]
    neg = evaluate(parse("eta(q)^-24*eta(q)^24"), 5)
    assert neg.coeffs == [1, 0, 0, 0, 0]


def test_evaluate_pole_and_denominator_errors():
    with pytest.raises(PoleAtOrigin):
        evaluate(parse("eta(q)^-24"), 4)
    with pytest.raises(PoleAtOrigin):
        evaluate(parse("1/q"), 4)
    with pytest.raises(NonUnitDenominator):
        evaluate(parse("1/(2*q-2*q)"), 4)
    with pytest.raises(NonUnitDenominator):
        evaluate(parse("eta(q)^24/(2*q)"), 4)
    with pytest.raises(NotInvertible):
        evaluate(parse("1/2"), 4, Ring(4))
    assert evaluate(parse("eta(q)^24/(2*q)"), 4, Ring(23)).coeffs == \
        [(v * 12) % 23 for v in evaluate(parse("eta(q)^24/q"), 4, Ring(23)).coeffs]


def test_evaluate_division_by_valuation():
    # denominators with zeros at q = 0 are fine when the quotient is entire
    got = evaluate(parse("(q^2-q^3)/(q-q^2)"), 5)
    assert got.coeffs == [0, 1, 0, 0, 0]
    # denominator valuation beyond the requested precision still resolves
    assert evaluate(parse("q^9/q^8"), 5).coeffs == [0, 1, 0, 0, 0]
    assert evaluate(parse("eta(q)^24*q^2/q^3"), 4).coeffs == [1, -24, 252, -1472]


def test_evaluate_geometric():
    assert evaluate(parse("1/(1-q)"), 5).coeffs == [1, 1, 1, 1, 1]
    assert evaluate(parse("(1+q)^2"), 4).coeffs == [1, 2, 1, 0]


def test_evaluate_negative_and_zero_powers():
    # a negative power of a non-eta base inverts, then raises to the power
    assert evaluate(parse("(1-q)^-2"), 6).coeffs == [1, 2, 3, 4, 5, 6]
    assert evaluate(parse("(1-q)^-2"), 6, Ring(5)).coeffs == [1, 2, 3, 4, 0, 1]
    assert evaluate(parse("(q-q^2)^-1*q"), 4).coeffs == [1, 1, 1, 1]
    # a zeroth power is 1, whatever the base
    assert evaluate(parse("(1+q)^0"), 4).coeffs == [1, 0, 0, 0]
    assert evaluate(parse("eta(q)^0"), 3, Ring(23)).coeffs == [1, 0, 0]


def test_distributivity_random():
    rng = random.Random(321)
    for _ in range(25):
        a = _random_ast(rng, depth=2)
        b = _random_ast(rng, depth=2)
        try:
            lhs = evaluate(("*", a, b), 16)
        except (NonIntegralExponent, PoleAtOrigin):
            continue
        va = evaluate(a, 16 + 8)
        vb = evaluate(b, 16 + 8)
        rhs = va.mul(vb)
        assert lhs.coeffs == rhs.coeffs[:16]


def test_modular_matches_exact_reduction():
    for text in CORPUS:
        try:
            exact = evaluate(parse(text), 12)
        except (NonIntegralExponent, PoleAtOrigin) as exc:
            with pytest.raises(type(exc)):
                evaluate(parse(text), 12, Ring(23))
            continue
        mod = evaluate(parse(text), 12, Ring(23))
        assert mod.coeffs == [v % 23 for v in exact.coeffs], text


def test_eisenstein_scaled_argument():
    e = evaluate(parse("E4(q^2)"), 5)
    assert e.coeffs == [1, 0, 240, 0, 2160]


def test_work_bound_is_padded_length_times_eta_passes(monkeypatch):
    # eta(q)^24 pads by 24/24 + 1 = 2 and makes 24 passes; q^k pads by k + 1
    monkeypatch.setattr(qexpr, "MAX_EVAL_WORK", 96)
    assert evaluate(parse("eta(q)^24"), 2).coeffs == [0, 1]
    assert evaluate(parse("q^93"), 2).coeffs == [0, 0]
    for text, prec in (("eta(q)^24", 3), ("q^94", 2), ("(1-q)^-94", 2)):
        with pytest.raises(ValueError, match="above the limit 96"):
            evaluate(parse(text), prec)
