"""Parser and evaluator for a small expression language over eta factors,
Eisenstein series, integer constants and q-monomials.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | 'q' '^' posint | atom ('^' int)?
    atom   := 'eta' '(' 'q' ('^' posint)? ')'
            | 'E' posint '(' 'q' ('^' posint)? ')'
            | int | 'q' | '(' expr ')'

A factor admits a single caret: q^2^3 is a syntax error, (q^2)^3 is q^6.

Eisenstein weights must be even and positive.  Fractional eta exponents are
tracked in 24ths; the net exponent of a full expression must be an integer,
applied as a q-shift.
"""

from .series import (
    EXACT,
    ExponentMismatch,
    Ring,
    Series,
    eisenstein,
    pentagonal_coefficients,
)
from .mocktheta import MAX_TABLE_INDEX
from .ntheory import NotInvertible


class ExprSyntaxError(ValueError):
    """Parse failure with byte offset and the set of expected tokens."""

    def __init__(self, message: str, offset: int, expected: set):
        super().__init__(f"{message} at offset {offset} (expected {sorted(expected)})")
        self.offset = offset
        self.expected = set(expected)


class NonUnitDenominator(ValueError):
    pass


class NonIntegralExponent(ValueError):
    pass


class PoleAtOrigin(ValueError):
    """The value has a genuine pole at q = 0 and is not a power series."""


# The table limit bounds eval's work before any series is built: the padded
# length, times the sparse passes of the eta power that makes the most.
MAX_EVAL_WORK = MAX_TABLE_INDEX

# AST nodes are tagged tuples: ("+", l, r), ("-", l, r), ("*", l, r),
# ("/", l, r), ("^", base, e), ("eta", scale), ("E", weight, scale),
# ("int", v) and ("q", e).

# ---------------------------------------------------------------- tokenizer

def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i,
                              {"operator", "integer", "name"})
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: set):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"unexpected {tok[1] or 'end of input'!r}",
                                  tok[2], expected)
        return self.advance()

    def parse(self):
        try:
            node = self.expr()
        except RecursionError:
            raise ExprSyntaxError("expression nested too deeply", self.peek()[2],
                                  {"less nesting"}) from None
        tok = self.peek()
        if tok[0] != "EOF":
            raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2],
                                  {"'+'", "'-'", "'*'", "'/'", "end of input"})
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.advance()
            inner = self.factor()
            if inner[0] == "int":
                return ("int", -inner[1])
            return ("*", ("int", -1), inner)
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            if self.tokens[self.pos - 2][1] == "q":  # q^k takes the one caret
                return ("q", self.posint("positive integer exponent"))
            node = ("^", node, self.signed_int())
        return node

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.expect("INT", {"integer"})
        return sign * int(tok[1])

    def posint(self, what: str) -> int:
        tok = self.expect("INT", {what})
        value = int(tok[1])
        if value < 1:
            raise ExprSyntaxError(f"{what} must be >= 1", tok[2], {what})
        return value

    def q_argument(self) -> int:
        """Parse a function argument '(' 'q' ('^' posint)? ')'; returns the scale."""
        self.expect("(", {"'('"})
        tok = self.expect("NAME", {"'q'"})
        if tok[1] != "q":
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", tok[2], {"'q'"})
        scale = 1
        if self.peek()[0] == "^":
            self.advance()
            scale = self.posint("positive integer scale")
        self.expect(")", {"')'"})
        return scale

    def atom(self):
        tok = self.peek()
        kind, value, off = tok
        if kind == "INT":
            self.advance()
            return ("int", int(value))
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", {"')'"})
            return node
        if kind == "NAME":
            self.advance()
            if value == "q":
                return ("q", 1)
            if value == "eta":
                return ("eta", self.q_argument())
            if value.startswith("E") and value[1:].isdigit():
                weight = int(value[1:])
                if weight < 2 or weight % 2:
                    raise ExprSyntaxError("Eisenstein weight must be even and positive",
                                          off, {"even positive weight"})
                return ("E", weight, self.q_argument())
            raise ExprSyntaxError(f"unknown name {value!r}", off,
                                  {"'eta'", "'E<weight>'", "'q'"})
        raise ExprSyntaxError(f"unexpected {value or 'end of input'!r}", off,
                              {"integer", "'('", "'eta'", "'E<weight>'", "'q'"})


def parse(text: str):
    """Parse an expression into its AST, a tree of tagged tuples."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- evaluator

def _sparse_mul(dense: list, pairs: list, modulus: int) -> list:
    L = len(dense)
    out = [0] * L
    for j, s in pairs:
        if j >= L:
            break
        seg = dense[: L - j]
        if s == 1:
            out[j:] = [o + d for o, d in zip(out[j:], seg)]
        else:  # pentagonal signs are +-1
            out[j:] = [o - d for o, d in zip(out[j:], seg)]
    return [v % modulus for v in out] if modulus else out


def _sparse_div(dense: list, pairs: list, modulus: int) -> list:
    # pairs must start with (0, 1); recurrence c[n] = a[n] - sum s_j c[n-j]
    L = len(dense)
    tail = [(j, s) for j, s in pairs if j > 0]
    c = [0] * L
    for n in range(L):
        s = dense[n]
        for j, sj in tail:
            if j > n:
                break
            s -= sj * c[n - j]
        c[n] = s % modulus if modulus else s
    return c


class _Val:
    """Evaluated subexpression: a frac-free series plus an offset in 24ths."""

    __slots__ = ("series", "off24")

    def __init__(self, series: Series, off24: int):
        self.series = series
        self.off24 = off24


def _slack24(node) -> int:
    """Upper bound on |offset| in 24ths that the subtree can produce.

    q-monomials count in full: dividing by q^e shifts the lattice by e."""
    tag = node[0]
    if tag == "eta":
        return node[1]
    if tag == "q":
        return 24 * node[1]
    if tag in ("int", "E"):
        return 0
    if tag == "^":
        return _slack24(node[1]) * abs(node[2])
    if tag in ("+", "-"):
        return max(_slack24(node[1]), _slack24(node[2]))
    return _slack24(node[1]) + _slack24(node[2])


def _eta_passes(node) -> int:
    """The most sparse passes that an eta power in the subtree makes."""
    if node[0] == "^":
        return abs(node[2]) if node[1][0] == "eta" else _eta_passes(node[1])
    if node[0] in ("+", "-", "*", "/"):
        return max(_eta_passes(node[1]), _eta_passes(node[2]))
    return 0


def _align(a: _Val, b: _Val) -> tuple:
    diff = a.off24 - b.off24
    if diff % 24:
        raise ExponentMismatch(
            f"cannot add values with offsets {a.off24}/24 and {b.off24}/24"
        )
    u = diff // 24
    if u > 0:
        return _Val(a.series.shifted(u), b.off24), b
    if u < 0:
        return a, _Val(b.series.shifted(-u), a.off24)
    return a, b


def _invert_with_valuation(val: _Val, ring: Ring) -> _Val:
    coeffs = val.series.coeffs
    v = next((i for i, c in enumerate(coeffs) if c), None)
    if v is None:
        raise NonUnitDenominator("denominator vanishes to working precision")
    shifted = Series(ring, coeffs[v:])
    if not ring.is_unit(shifted.coeffs[0]):
        if ring.modulus:
            raise NotInvertible(
                f"leading coefficient {shifted.coeffs[0]} not invertible mod {ring.modulus}"
            )
        raise NonUnitDenominator(
            f"leading coefficient {shifted.coeffs[0]} is not a unit"
        )
    return _Val(shifted.invert(), -(val.off24 + 24 * v))


def _eval(node, prec: int, ring: Ring) -> _Val:
    m = ring.modulus
    tag = node[0]
    if tag == "int":
        return _Val(Series(ring, [node[1]], prec=prec), 0)
    if tag == "q":
        return _Val(Series.monomial(ring, node[1], prec), 0)
    if tag == "eta":
        return _Val(Series(ring, pentagonal_coefficients(node[1], prec)), node[1])
    if tag == "E":
        _, weight, scale = node
        inner = eisenstein(weight, (prec + scale - 1) // scale, ring)
        coeffs = [0] * prec
        for i, c in enumerate(inner.coeffs):
            if i * scale >= prec:
                break
            coeffs[i * scale] = c
        return _Val(Series(ring, coeffs), 0)
    if tag in ("+", "-"):
        a, b = _align(_eval(node[1], prec, ring), _eval(node[2], prec, ring))
        s = a.series.add(b.series if tag == "+" else b.series.neg())
        return _Val(s, a.off24)
    if tag == "*":
        a = _eval(node[1], prec, ring)
        b = _eval(node[2], prec, ring)
        return _Val(a.series.mul(b.series), a.off24 + b.off24)
    if tag == "/":
        a = _eval(node[1], prec, ring)
        inv = _invert_with_valuation(_eval(node[2], prec, ring), ring)
        return _Val(a.series.mul(inv.series), a.off24 + inv.off24)
    if tag == "^":
        _, base, e = node
        if e == 0:
            return _Val(Series(ring, [1], prec=prec), 0)
        if base[0] == "eta":
            pent = pentagonal_coefficients(base[1], prec)
            pairs = [(j, s) for j, s in enumerate(pent) if s]
            coeffs = [1] + [0] * (prec - 1)
            op = _sparse_mul if e > 0 else _sparse_div
            for _ in range(abs(e)):
                coeffs = op(coeffs, pairs, m)
            return _Val(Series(ring, coeffs), base[1] * e)
        val = _eval(base, prec, ring)
        if e > 0:
            return _Val(val.series.pow(e), val.off24 * e)
        inv = _invert_with_valuation(val, ring)
        return _Val(inv.series.pow(-e), inv.off24 * -e)
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(ast, prec: int, ring: Ring = EXACT) -> Series:
    """Evaluate an AST to a truncated series with exactly `prec` coefficients.

    The net fractional exponent must come out integral; it is applied as a
    q-shift.  A genuine pole at q = 0 raises PoleAtOrigin.
    """
    if prec < 1:
        raise ValueError("prec must be positive")
    try:
        pad = _slack24(ast) // 24 + 1
        passes = max(_eta_passes(ast), 1)
        for _ in range(4):
            if (prec + pad) * passes > MAX_EVAL_WORK:
                raise ValueError("the padded length (times an eta power's passes) "
                                 f"is above the limit {MAX_EVAL_WORK}")
            val = _eval(ast, prec + pad, ring)
            if val.off24 % 24:
                raise NonIntegralExponent(
                    f"net exponent {val.off24}/24 is not an integer"
                )
            shift = val.off24 // 24
            series = val.series
            if shift < 0:
                if series.prec < -shift + 1:
                    pad += -shift + 1
                    continue
                if any(series.coeffs[:-shift]):
                    raise PoleAtOrigin(f"value has a pole of order {-shift} at q = 0")
                series = series.shifted(shift)
            elif shift > 0:
                series = series.shifted(shift)
            if series.prec >= prec:
                return Series(ring, series.coeffs[:prec])
            pad += prec - series.prec
    except RecursionError:
        raise ValueError("expression nested or chained too deeply") from None
    raise RuntimeError("internal precision bookkeeping failed to converge")


__all__ = [
    "ExprSyntaxError", "NonIntegralExponent", "NonUnitDenominator",
    "PoleAtOrigin", "evaluate", "parse",
]
