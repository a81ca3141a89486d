"""The benchmark's three workloads and the checks on their outputs.

Load comes from one client in one process as a closed loop: a request is
sent when the previous one has finished.  A workload yields *units* of
fixed work, each a list of requests; a request's `run()` returns its raw
output and `check(raw)` returns None or the reason the output is wrong.

- certify-cold: one `certify ... --M 1 2 3 4 --json` per unit, each with a
  new empty cache directory.
- session-warm: epochs of six blocks; a block holds six short CLI requests,
  one of each kind, in a seed-shuffled order with seed-drawn parameters
  (see Draws), against a cache directory that set-up filled by running the
  certify-cold command through the CLI.
- roundtrip-exact: the library c -> b -> c round trip to n = 250 for the
  twists (-8, 4) and then (-23, 1) over one fresh MockTables(EXACT).

The program is reached only through `qcong.cli.main(argv)` and the public
library functions, looked up at call time so that the tracer's wrappers
are the ones called.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import qcong
import qcong.borcherds
import qcong.cli
import qcong.mocktheta
import qcong.qexpr

import reference as ref

TWIST_84 = ["--delta", "-8", "--r", "4"]
CONGRUENCE = ["--ell", "23", "--R", "1", "--B", "2"]
STURM_PREC = 23     # Sturm bound for weight 2 + 22*2*1 = 46 at level 6
CERTIFY_DEPTH = 5 * (STURM_PREC + 1) - 1


def certify_argv(Ms, cache_dir):
    return (["certify", *TWIST_84, "--p", "5", *CONGRUENCE, "--M",
             *map(str, Ms), "--json", "--cache-dir", str(cache_dir)])


def run_cli(argv):
    """(exit code, stdout) of one in-process CLI call; an exception is a
    failed request, reported in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = qcong.cli.main(argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code
        except Exception as exc:  # counted as a failed request
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def _json_output(raw):
    rc, out = raw
    if rc != 0:
        raise ValueError(f"exit code {rc!r}")
    return json.loads(out)


# ------------------------------------------------------------- output checks

def check_certify(raw, Ms):
    doc = _json_output(raw)
    if doc.get("all_match") is not True:
        return "all_match is not true"
    rows = doc["rows"]
    if [row["M"] for row in rows] != list(Ms):
        return f"rows for M = {[row['M'] for row in rows]}, asked {list(Ms)}"
    for row in rows:
        want = str(ref.PAPER_RESIDUES[row["M"]])
        if (row["function"], row["index"]) != ("omega", ref.paper_index(row["M"])):
            return f"M={row['M']}: addresses {row['function']}[{row['index']}]"
        if row["actual"] != want or row["predicted"] != want or row["match"] is not True:
            return f"M={row['M']}: residue {row['actual']}/{row['predicted']}, paper {want}"
    return None


def check_heckecheck(raw, prec):
    doc = _json_output(raw)
    if doc.get("certified") is not True:
        return "not certified"
    if doc.get("verified_prec") != prec or doc.get("requested_prec") != prec:
        return f"verified_prec {doc.get('verified_prec')} != prec {prec}"
    return None


def check_scan(raw, bound):
    doc = _json_output(raw)
    if [row["p"] for row in doc["rows"]] != ref.scanned_primes(bound):
        return "scan rows do not list the primes up to the bound"
    if doc["rows"][0]["class"] != "0":
        return f"p = 5 classed {doc['rows'][0]['class']!r}, expected '0'"
    return None


RESIDUES = {str(v) for v in range(ref.MODULUS)}


def _csv_values(out):
    for n, line in enumerate(io.StringIO(out)):
        index, _, value = line.rstrip("\n").partition(",")
        if index != str(n):
            raise ValueError(f"csv line {n} is indexed {index!r}")
        yield value


def check_coeffs(raw, upto, as_json, omega_ref):
    """Values are checked one at a time, so that a 260417-line answer makes
    the program, not the checker, set the peak RSS."""
    if as_json:
        values = _json_output(raw)["values"]
    else:
        rc, out = raw
        if rc != 0:
            return f"exit code {rc!r}"
        values = _csv_values(out)
    paper = {ref.paper_index(M): str(r) for M, r in ref.PAPER_RESIDUES.items()}
    count = 0
    for n, value in enumerate(values):
        if value not in RESIDUES:
            return f"a_omega({n}) = {value!r} is not a residue mod 23"
        if n < len(omega_ref) and value != str(omega_ref[n]):
            return f"a_omega({n}) = {value} differs from the reference"
        if paper.get(n, value) != value:
            return f"a_omega({n}) = {value}, paper {paper[n]}"
        count += 1
    if count != upto + 1:
        return f"{count} values for upto {upto}"
    return None


P45 = pow(5, 45, ref.MODULUS)


def check_phi(raw, prec):
    """b(n) mod 23 for (-8, 4): the known head, and the T_5 eigenrelation
    with eigenvalue 0 at weight 46: b(5n) = -5^45 b(n/5)."""
    doc = _json_output(raw)
    b = [0] + [int(v) for v in doc["values"]]
    if len(b) != prec + 1:
        return f"{len(b) - 1} values for prec {prec}"
    if b[1:4] != [v % ref.MODULUS for v in ref.B_GOLDEN_84]:
        return f"b(1..3) = {b[1:4]}"
    for n in range(1, prec // 5 + 1):
        want = -P45 * b[n // 5] % ref.MODULUS if n % 5 == 0 else 0
        if b[5 * n] != want:
            return f"b({5 * n}) = {b[5 * n]}, T_5 relation gives {want}"
    return None


class ExactEval:
    """References for the eval expressions, computed before any pass: the
    naive product formula for the head, and the program's own exact result
    at the largest precision for the reduction check."""

    def __init__(self, max_prec):
        self._naive = {e: ref.expression_reference(e) for e in ref.EXPRESSIONS}
        self._exact = {
            e: qcong.qexpr.evaluate(qcong.qexpr.parse(e), max_prec, qcong.EXACT).coeffs
            for e in ref.EXPRESSIONS}

    def naive(self, expr):
        return self._naive[expr]

    def exact(self, expr):
        return self._exact[expr]


def check_eval(raw, expr, prec, modulus, refs):
    doc = _json_output(raw)
    values = [int(v) for v in doc["values"]]
    if len(values) != prec:
        return f"{len(values)} values for prec {prec}"
    reduce = (lambda v: v % modulus) if modulus else (lambda v: v)
    naive = refs.naive(expr)[:prec]
    if values[:len(naive)] != [reduce(v) for v in naive]:
        return "head differs from the product formula"
    tau = [reduce(v) for v in ref.TAU_GOLDEN][:prec - 1]
    if expr == "eta(q)^24" and values[1:1 + len(tau)] != tau:
        return "eta(q)^24 does not give tau(1..12)"
    if modulus and values != [v % modulus for v in refs.exact(expr)[:prec]]:
        return "mod-23 result is not the exact result reduced mod 23"
    return None


# ------------------------------------------------------------------ requests

class Request:
    """One closed-loop request: `run` is timed, `check` and `cleanup` not."""

    def __init__(self, kind, run, check, needs=None, cleanup=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.needs = needs or {}     # cache function -> entries needed
        self.cleanup = cleanup or (lambda: None)


def cli_request(kind, argv, check, needs=None, cleanup=None):
    return Request(kind, lambda: run_cli(argv), check, needs, cleanup)


class Draws:
    """Seeded draws that cover each parameter evenly.  A range is cut into
    STRATA strata and a choice into its options; they are dealt from a
    shuffled deck, and the value is uniform within the stratum.  When every
    deck that sets a latency holds STRATA cards or a divisor of it, each
    STRATA draws of a key deal every card once, so every epoch of STRATA
    blocks has the same mix of requests, whatever the seed."""

    STRATA = 6

    def __init__(self, rng):
        self.rng = rng
        self.decks = {}

    def _deal(self, key, cards):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(cards)
            self.rng.shuffle(deck)
        return deck.pop()

    def choice(self, key, options):
        return self._deal(key, options)

    def randint(self, key, lo, hi):
        span = hi - lo + 1
        strata = min(self.STRATA, span)
        k = self._deal(key, range(strata))
        return self.rng.randint(lo + span * k // strata,
                                lo + span * (k + 1) // strata - 1)


class Workload:
    name = ""
    min_units = 1       # units of an end-to-end run, even past --seconds

    def prepare(self):
        """The benchmark's own preparation (reference values); not timed."""

    def setup(self, tmp, env):
        """The program's preparation; its time is part of setup_s."""

    def units(self, rng):
        raise NotImplementedError


class CertifyCold(Workload):
    name = "certify-cold"
    min_units = 2       # a second sample of a ~12 s unit damps machine noise

    def __init__(self, tiny=False):
        self.Ms = (1, 2) if tiny else (1, 2, 3, 4)

    def setup(self, tmp, env):
        self.tmp = tmp
        self.runs = 0

    def units(self, rng):
        while True:
            self.runs += 1
            cache_dir = os.path.join(self.tmp, f"cold-{self.runs}")
            yield [cli_request(
                "certify", certify_argv(self.Ms, cache_dir),
                lambda raw: check_certify(raw, self.Ms),
                cleanup=lambda d=cache_dir: shutil.rmtree(d, ignore_errors=True))]


# Parameter ranges of session-warm requests, and the tiny ones of the self-test.
RANGES = {"heckecheck": (10, 50), "scan.bound": (20, 40), "scan.prec": (5, 10),
          "coeffs.upto": (1000, 260416), "phi": (50, 200), "eval.prec": (200, 1000)}
TINY_RANGES = {"heckecheck": (10, 20), "scan.bound": (20, 25), "scan.prec": (5, 6),
               "coeffs.upto": (400, 9440), "phi": (50, 80), "eval.prec": (60, 150)}


class SessionWarm(Workload):
    name = "session-warm"
    KINDS = ("certify", "heckecheck", "scan", "coeffs", "phi", "eval")

    def __init__(self, tiny=False):
        self.fill_Ms = (1, 2) if tiny else (1, 2, 3, 4)
        self.ranges = TINY_RANGES if tiny else RANGES

    def prepare(self):
        self.omega_ref = [v % ref.MODULUS for v in ref.omega_reference()]
        self.refs = ExactEval(self.ranges["eval.prec"][1])

    def setup(self, tmp, env):
        """Fill the cache by running the certify-cold command through the
        CLI in its own process, so the measuring process's peak RSS and
        tables start clean."""
        self.tmp = tmp
        self.fill_dir = os.path.join(tmp, "fill")
        os.makedirs(self.fill_dir)     # copied per pass even if the fill fails
        self.copies = 0
        argv = certify_argv(self.fill_Ms, self.fill_dir)
        try:
            proc = subprocess.run([sys.executable, "-m", "qcong.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=170)
            self.fill_error = check_certify((proc.returncode, proc.stdout), self.fill_Ms)
        except Exception as exc:  # counted as a failed set-up
            self.fill_error = f"{type(exc).__name__}: {exc}"

    def _fresh_cache(self):
        self.copies += 1
        work = os.path.join(self.tmp, f"session-{self.copies}")
        shutil.copytree(self.fill_dir, work)
        return work

    def _request(self, kind, draw, cache_dir):
        cache = ["--cache-dir", cache_dir]

        def rand(key):
            return draw.randint(key, *self.ranges[key])

        if kind == "certify":
            # 15 subsets, out of step with the epoch: a warm certify takes
            # the same time whatever its M.
            mask = draw.choice("certify", range(1, 16))
            Ms = [M for M in (1, 2, 3, 4) if mask >> (M - 1) & 1]
            need = max([ref.omega_need(CERTIFY_DEPTH)]
                       + [ref.paper_index(M) + 1 for M in Ms])
            return cli_request(kind, certify_argv(Ms, cache_dir),
                               lambda raw: check_certify(raw, Ms),
                               {"omega": need})
        if kind == "heckecheck":
            prec = rand("heckecheck")
            argv = ["heckecheck", *TWIST_84, "--p", "5", *CONGRUENCE,
                    "--prec", str(prec), "--json", *cache]
            return cli_request(kind, argv, lambda raw: check_heckecheck(raw, prec),
                               {"omega": ref.omega_need(5 * (prec + 1) - 1)})
        if kind == "scan":
            bound = rand("scan.bound")
            prec = rand("scan.prec")
            argv = ["scan", *TWIST_84, *CONGRUENCE, "--bound", str(bound),
                    "--prec", str(prec), "--json", *cache]
            top = ref.scanned_primes(bound)[-1]
            return cli_request(kind, argv, lambda raw: check_scan(raw, bound),
                               {"omega": ref.omega_need(top * (prec + 1) - 1)})
        if kind == "coeffs":
            upto = rand("coeffs.upto")
            as_json = draw.choice("coeffs.json", (True, False))
            argv = ["coeffs", "--function", "omega", "--modulus", "23",
                    "--upto", str(upto), *(["--json"] if as_json else []), *cache]
            return cli_request(
                kind, argv,
                lambda raw: check_coeffs(raw, upto, as_json, self.omega_ref),
                {"omega": upto + 1})
        if kind == "phi":
            prec = rand("phi")
            argv = ["phi", *TWIST_84, "--modulus", "23", "--prec", str(prec),
                    "--json", *cache]
            return cli_request(kind, argv, lambda raw: check_phi(raw, prec),
                               {"phi_star": prec})
        expr, modulus = draw.choice("eval", [(e, m) for e in sorted(ref.EXPRESSIONS)
                                             for m in (0, ref.MODULUS)])
        prec = rand("eval.prec")
        argv = ["eval", expr, "--prec", str(prec), "--json",
                *(["--modulus", str(modulus)] if modulus else [])]
        return cli_request(kind, argv,
                           lambda raw: check_eval(raw, expr, prec, modulus, self.refs))

    def units(self, rng):
        """One unit is an epoch of Draws.STRATA blocks, over which the
        drawn parameters cover every stratum once."""
        cache_dir = self._fresh_cache()
        draw = Draws(rng)
        while True:
            epoch = []
            for _ in range(Draws.STRATA):
                kinds = list(self.KINDS)
                rng.shuffle(kinds)
                epoch += [self._request(kind, draw, cache_dir) for kind in kinds]
            yield epoch


class RoundtripExact(Workload):
    name = "roundtrip-exact"
    TWISTS = ((-8, 4), (-23, 1))
    min_units = 2       # as for certify-cold

    def __init__(self, tiny=False):
        self.n = 30 if tiny else 250

    def _round_trip(self, delta, r, tables):
        n = self.n
        borcherds = qcong.borcherds
        c = qcong.mocktheta.c_series(delta, r, n, qcong.EXACT, tables)
        b = [0] * (n + 1)
        for k in range(1, n + 1):
            b[k] = borcherds.b_from_c(c, k, delta, qcong.EXACT)
        back = [0] * (n + 1)
        for k in range(1, n + 1):
            back[k] = borcherds.c_from_b(b, k, delta, c[1], qcong.EXACT)
        return c, b, back

    def _run(self):
        """Both twists in order over one fresh set of tables: one request,
        as a user's library run is one call."""
        tables = qcong.mocktheta.MockTables(qcong.EXACT)
        return [self._round_trip(delta, r, tables) for delta, r in self.TWISTS]

    def _check(self, raw):
        for (delta, r), (c, b, back) in zip(self.TWISTS, raw):
            if len(c) != self.n + 1 or back[1:] != c[1:]:
                return f"c -> b -> c does not return c for {(delta, r)}"
            if b[1] != 1:
                return f"b(1) = {b[1]} for {(delta, r)}"
            if (delta, r) == (-8, 4) and b[1:4] != ref.B_GOLDEN_84:
                return f"b(1..3) = {b[1:4]} for (-8, 4)"
        return None

    def units(self, rng):
        while True:
            yield [Request("roundtrip", self._run, self._check)]


WORKLOADS = {w.name: w for w in (CertifyCold, SessionWarm, RoundtripExact)}
