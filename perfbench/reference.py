"""Independent reference values the benchmark checks program outputs against.

Nothing here imports qcong: each reference is either a published value or a
short naive computation that shares no code with the program.  No value of
Ramanujan's f is pinned, on purpose: the f table is expected to change when
its defining series is corrected.
"""

MODULUS = 23

# a_omega(2(5^(2M) - 1)/3) mod 23 for M = 1..4 (the source paper's table).
PAPER_RESIDUES = {1: 9, 2: 9, 3: 12, 4: 12}

# Third-order mock theta omega(q), OEIS A053253.
OMEGA_GOLDEN = [1, 2, 3, 4, 6, 8, 10, 14, 18, 22, 29, 36, 44, 56, 68, 82,
                101, 122, 146, 176]

# Ramanujan tau(1..12).
TAU_GOLDEN = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643,
              -115920, 534612, -370944]

# b(1..3) of the normalized (-8, 4) expansion.
B_GOLDEN_84 = [1, -6, 1]

# Depth of the naive references: covers the paper index 416 for omega and
# the first 100 coefficients of every eta/Eisenstein expression.
OMEGA_REF_DEPTH = 420
EXPR_REF_LEN = 100


def paper_index(M: int) -> int:
    """The omega index 2(5^(2M) - 1)/3 addressed by c(5^M) for (-8, 4)."""
    return 2 * (5 ** (2 * M) - 1) // 3


def scanned_primes(bound: int) -> list:
    """The primes a scan classifies: 5 <= p <= bound, p != 23."""
    return [p for p in range(5, bound + 1)
            if p != MODULUS and all(p % q for q in range(2, int(p ** 0.5) + 1))]


def omega_need(D: int) -> int:
    """Entries of the omega table that c(d), d <= D, reads for (-8, 4).

    For r = 4 the key 4d mod 12 selects omega exactly when 3 does not
    divide d, at index (8 d^2 - 8)/12."""
    d = D if D % 3 else D - 1
    return (8 * d * d - 8) // 12 + 1


def _geometric_divide(c: list, step: int) -> None:
    """c <- c / (1 - q^step), truncated."""
    for i in range(step, len(c)):
        c[i] += c[i - step]


def _geometric_multiply(c: list, step: int) -> None:
    """c <- c * (1 - q^step), truncated."""
    for i in range(len(c) - 1, step - 1, -1):
        c[i] -= c[i - step]


def omega_reference(N: int = OMEGA_REF_DEPTH) -> list:
    """a_omega(0..N) summed term by term from the defining series
    sum_n q^(2n(n+1)) / ((1-q)(1-q^3)...(1-q^(2n+1)))^2."""
    total = [0] * (N + 1)
    n = 0
    while 2 * n * (n + 1) <= N:
        offset = 2 * n * (n + 1)
        term = [1] + [0] * (N - offset)
        for k in range(n + 1):
            _geometric_divide(term, 2 * k + 1)
            _geometric_divide(term, 2 * k + 1)
        for i, v in enumerate(term):
            total[offset + i] += v
        n += 1
    return total


def _sigma3(n: int) -> int:
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


# expression -> (q-shift, [(a, k): factor prod_n (1 - q^(a n))^k], E4 scale)
EXPRESSIONS = {
    "eta(q)^24": (1, [(1, 24)], None),
    "E4(q^2)*eta(q)^48/eta(q^2)^24": (0, [(1, 48), (2, -24)], 2),
    "eta(q^2)^16/eta(q)^8": (1, [(2, 16), (1, -8)], None),
}


def expression_reference(expr: str, L: int = EXPR_REF_LEN) -> list:
    """The first L exact coefficients of one of EXPRESSIONS, from the
    product formula eta(q^a) = q^(a/24) prod_n (1 - q^(a n))."""
    shift, factors, e4_scale = EXPRESSIONS[expr]
    c = [1] + [0] * (L - 1)
    for a, k in factors:
        for m in range(a, L, a):
            for _ in range(abs(k)):
                if k > 0:
                    _geometric_multiply(c, m)
                else:
                    _geometric_divide(c, m)
    if e4_scale:
        e4 = [0] * L
        e4[0] = 1
        for n in range(1, (L - 1) // e4_scale + 1):
            e4[n * e4_scale] = 240 * _sigma3(n)
        c = [sum(e4[i] * c[n - i] for i in range(n + 1)) for n in range(L)]
    return ([0] * shift + c)[:L]
