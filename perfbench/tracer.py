"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each qcong module from outside:
it replaces every binding through which a layer function is reached (module
attributes, names imported into other modules, module-level dicts such as a
builder table, and class attributes) by a wrapper that
records a span.  A span's self time is its duration minus the durations of
the spans it encloses.  Count hooks run after the call, from the call's
arguments and result; their time is charged to the benchmark's own span
("bench"), never to the layer.

Nothing under src/ is changed.  `install()` patches, `uninstall()` restores,
and `check_coverage()` asserts that no unwrapped binding remains.
"""

import functools
import importlib
import inspect
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

clock = time.perf_counter

# module -> {attribute path: span name}.  The first dotted part of a span
# name is the module whose self time it counts toward.
LAYERS = {
    "qcong.series": {
        "binomial_inverse_inplace": "series.binomial_inverse",
        "Series.mul": "series.mul",
        "Series.pow": "series.pow",
        "Series.invert": "series.invert",
        "pentagonal_coefficients": "series.pentagonal_coefficients",
        "eisenstein": "series.eisenstein",
        "eta_product": "series.eta_product",
    },
    "qcong.mocktheta": {
        "omega_coeffs": "mocktheta.omega_coeffs",
        "f_coeffs": "mocktheta.f_coeffs",
        "c_series": "mocktheta.c_series",
        "MockTables.ensure": "mocktheta.ensure",
    },
    "qcong.borcherds": {
        "phi_star": "borcherds.phi_star",
        "b_from_c": "borcherds.b_from_c",
        "c_from_b": "borcherds.c_from_b",
        "exact_c1": "borcherds.exact_c1",
        "predict_coefficient": "borcherds.predict_coefficient",
    },
    "qcong.hecke": {
        "eigencheck": "hecke.eigencheck",
        "density_scan": "hecke.density_scan",
        "hecke_operator": "hecke.hecke_operator",
    },
    "qcong.cache": {
        "find_coeffs": "cache.find",
        "load_coeffs": "cache.load",
        "save_coeffs": "cache.save",
    },
    "qcong.qexpr": {
        "parse": "qexpr.parse",
        "evaluate": "qexpr.evaluate",
    },
    "qcong.cli": {
        "main": "cli.main",
    },
}

MODULES = ("series", "mocktheta", "borcherds", "hecke", "cache", "qexpr", "cli")


def _resolve(module, path):
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


# ------------------------------------------------------------ count hooks

def _binomial_inverse(tr, result, a):
    tr.counts["series.binomial_inverse.coeff_passes"] += len(a["coeffs"]) * a["exponent"]


def _builder(kind):
    def hook(tr, result, a):
        key = (kind, a["ring"].modulus)
        tr.built[key] += a["N"] + 1
        if tr.inside("mocktheta.ensure"):
            tr.built_in_ensure = True
        else:           # a table handed straight to its caller
            tr.demand[key] = max(tr.demand[key], a["N"])
    return hook


def _ensure(tr, result, a):
    """Demand counts only on tables that built, not on preloaded ones."""
    tables, which = a["self"], a["which"]
    if tr.built_in_ensure:
        tr.built_in_ensure = False
        tr.builders[which].add(tables)
    if tables in tr.builders[which]:
        key = (which, tables.ring.modulus)
        tr.demand[key] = max(tr.demand[key], a["upto"])


def _find(tr, result, a):
    tr.counts["cache.find.hits"] += result is not None


def _load(tr, result, a):
    tr.counts["cache.load.bytes"] += os.path.getsize(a["path"])
    header, values = result
    tr.decoded[header["function"]] += len(values)


def _save(tr, result, a):
    tr.counts["cache.save.bytes"] += os.path.getsize(result)


HOOKS = {
    "series.binomial_inverse": _binomial_inverse,
    "mocktheta.omega_coeffs": _builder("omega"),
    "mocktheta.f_coeffs": _builder("f"),
    "mocktheta.ensure": _ensure,
    "cache.find": _find,
    "cache.load": _load,
    "cache.save": _save,
}


class NullMeter:
    """The untraced run: no spans, no counts."""

    @contextmanager
    def bench(self):
        yield

    def request_done(self, req, raw, decoded_before=None):
        pass

    def decoded_snapshot(self):
        return None


class Tracer:
    def __init__(self):
        self.spans = {}             # span name -> [calls, self_s]
        self.counts = Counter()
        self.built = Counter()      # (kind, modulus) -> table entries built
        self.demand = Counter()     # (kind, modulus) -> deepest index demanded
        self.builders = defaultdict(weakref.WeakSet)  # kind -> tables that built it
        self.built_in_ensure = False
        self.decoded = Counter()    # cache function -> entries decoded
        self._active = []           # open spans: [name, time of enclosed spans]
        self._patches = []          # (setter, original) to undo
        self._wrappers = {}         # id(original) -> wrapper
        self._originals = {}        # id(original) -> (original, span name)

    # -------------------------------------------------------------- spans

    def inside(self, name):
        return any(frame[0] == name for frame in self._active)

    def _close(self, frame, rec, t0):
        dur = clock() - t0
        self._active.pop()
        rec[0] += 1
        rec[1] += dur - frame[1]
        if self._active:
            self._active[-1][1] += dur

    def _record(self, name):
        return self.spans.setdefault(name, [0, 0.0])

    @contextmanager
    def bench(self):
        """A span for the benchmark's own work (input generation, checks)."""
        frame, rec, t0 = ["bench", 0.0], self._record("bench"), clock()
        self._active.append(frame)
        try:
            yield
        finally:
            self._close(frame, rec, t0)

    def wrap(self, name, fn):
        rec = self._record(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        active = self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, t0 = [name, 0.0], clock()
            active.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, rec, t0)
            if hook:
                with self.bench():
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, result, bound.arguments)
            return result

        return traced

    # ------------------------------------------------------------ requests

    def decoded_snapshot(self):
        return Counter(self.decoded)

    def request_done(self, req, raw, decoded_before):
        """Per-request counts: stdout bytes, and how much of what the cache
        decoded for this request the request needed."""
        if isinstance(raw, tuple) and len(raw) == 2 and isinstance(raw[1], str):
            self.counts["cli.stdout_bytes"] += len(raw[1].encode())
        for function, need in req.needs.items():
            got = self.decoded[function] - decoded_before[function]
            if got:
                self.counts["cache.load.entries_needed"] += min(need, got)

    # ------------------------------------------------------------ patching

    def _qcong_modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if (n == "qcong" or n.startswith("qcong.")) and m is not None]

    def _bindings(self):
        """Every (setter, value) through which qcong code can reach a layer."""
        for module in self._qcong_modules():
            for name, value in list(vars(module).items()):
                yield functools.partial(setattr, module, name), value
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        yield functools.partial(value.__setitem__, key), item
                if isinstance(value, type) and value.__module__.startswith("qcong"):
                    for key, item in list(vars(value).items()):
                        yield functools.partial(setattr, value, key), item

    def install(self):
        for modname, paths in LAYERS.items():
            module = importlib.import_module(modname)
            for path, span in paths.items():
                owner, name = _resolve(module, path)
                fn = vars(owner)[name]
                self._originals[id(fn)] = (fn, span)
                self._wrappers[id(fn)] = self.wrap(span, fn)
        for setter, value in self._bindings():
            wrapper = self._wrappers.get(id(value))
            if wrapper is not None and self._originals[id(value)][0] is value:
                setter(wrapper)
                self._patches.append((setter, value))

    def uninstall(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    def check_coverage(self):
        """Every layer is wrapped at its home, and no binding still reaches
        an unwrapped layer function."""
        patched = {id(original) for _, original in self._patches}
        missing = [span for key, (_, span) in self._originals.items()
                   if key not in patched]
        if missing:
            raise RuntimeError(f"layers never patched: {missing}")
        leaks = [self._originals[id(v)][1] for _, v in self._bindings()
                 if id(v) in self._originals and self._originals[id(v)][0] is v]
        if leaks:
            raise RuntimeError(f"unwrapped bindings remain for: {sorted(set(leaks))}")

    # ------------------------------------------------------------- metrics

    def self_s(self, name):
        return self.spans.get(name, [0, 0.0])[1]

    def calls(self, name):
        return self.spans.get(name, [0, 0.0])[0]

    def module_self_s(self, module):
        return sum(rec[1] for name, rec in self.spans.items()
                   if name.split(".")[0] == module)

    def total_self_s(self):
        return sum(rec[1] for rec in self.spans.values())

    def entries_used(self):
        """Deepest index demanded of a built table + 1, summed over (kind, ring)."""
        return sum(self.demand[key] + 1 for key in self.built)

    def exact_counts(self):
        """The counts that must repeat exactly run to run."""
        out = {name: rec[0] for name, rec in self.spans.items() if name != "bench"}
        out.update(self.counts)
        out["mocktheta.table_entries_built"] = sum(self.built.values())
        out["mocktheta.table_entries_used"] = self.entries_used()
        out["cache.load.entries"] = sum(self.decoded.values())
        return out
