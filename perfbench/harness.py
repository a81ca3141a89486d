"""Running a workload: set-up timing, the closed request loop, the traced
pass, and the metrics computed from them."""

import hashlib
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

from tracer import NullMeter, Tracer, clock, MODULES

IMPORT_REPEATS = 11
SELF_TIME_TOLERANCE = 0.03   # share of traced wall time outside every span


def percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Pass:
    """Latencies, outputs and failures of one pass over a workload."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.unit_times = []
        self.outputs = []
        self.failures = []      # (kind, reason)
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.latencies)


def digest(raw):
    return hashlib.sha256(repr(raw).encode()).hexdigest()


def run_pass(workload, seed, meter=None, seconds=None, units=None):
    """Run the seed's units of work: exactly `units` of them (keeping a
    digest of every output), or as many as fit in `seconds` but at least
    the workload's `min_units`.  Only `run()` is timed per request."""
    meter = meter or NullMeter()
    result = Pass()
    start = clock()
    with meter.bench():
        stream = workload.units(random.Random(seed))
    while True:
        with meter.bench():
            unit = next(stream)
        unit_time = 0.0
        for req in unit:
            before = meter.decoded_snapshot()
            t0 = clock()
            try:
                raw, reason = req.run(), None
            except Exception as exc:  # counted as a failed request
                raw, reason = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            with meter.bench():
                if reason is None:
                    try:
                        reason = req.check(raw)
                    except Exception as exc:  # a malformed output is a failure
                        reason = f"{type(exc).__name__}: {exc}"
                req.cleanup()
                meter.request_done(req, raw, before)
            result.latencies.append(dt)
            result.kinds.append(req.kind)
            if units is not None:
                result.outputs.append(digest(raw))
            if reason:
                result.failures.append((req.kind, reason))
            unit_time += dt
        result.unit_times.append(unit_time)
        done = len(result.unit_times)
        if units is not None:
            if done >= units:
                break
        elif (done >= workload.min_units
              and clock() - start + sum(result.unit_times) / done > seconds):
            break
    result.wall = clock() - start
    return result


def time_import(env, root):
    """Median wall time of a fresh interpreter importing the CLI module."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import qcong.cli"], env=env,
                       cwd=root, check=True, timeout=60)
        times.append(clock() - t0)
    return statistics.median(times)


class Run:
    """One benchmark run of one workload, with its temporary directory."""

    def __init__(self, workload, seed, seconds, root, env):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.env = env
        self.setup_failures = []

    def __enter__(self):
        scratch = os.path.join(self.root, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=scratch)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass        # another run's directory is still there

    def setup(self):
        self.import_s = time_import(self.env, self.root)
        t0 = clock()
        self.workload.setup(self.tmp, self.env)
        self.setup_body_s = clock() - t0
        reason = getattr(self.workload, "fill_error", None)
        if reason:
            self.setup_failures.append(("setup", reason))
        self.setup_s = self.import_s + self.setup_body_s

    def end_to_end(self):
        p = run_pass(self.workload, self.seed, seconds=self.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "wall_s": (sum(p.unit_times) / len(p.unit_times), "s"),
            "req_p50_s": (percentile(p.latencies, 0.5), "s"),
            "req_p90_s": (percentile(p.latencies, 0.9), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        by_kind = {}
        for kind, dt in zip(p.kinds, p.latencies):
            by_kind.setdefault(kind, []).append(dt)
        notes = {
            "units": len(p.unit_times), "requests": p.attempted,
            "import_s": self.import_s, "setup_body_s": self.setup_body_s,
            "p50_s_by_kind": {k: [len(v), percentile(v, 0.5)] for k, v in by_kind.items()},
        }
        return metrics, p.attempted, p.failures, notes

    def per_layer(self):
        """An untraced pass on each side of the traced one, so that the
        overhead is taken against their mean and a steady drift of the
        host's speed cancels.  Each pass is one unit of work."""
        before = run_pass(self.workload, self.seed, units=1)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.check_coverage()
            traced = run_pass(self.workload, self.seed, meter=tracer, units=1)
        finally:
            tracer.uninstall()
        after = run_pass(self.workload, self.seed, units=1)
        plain_wall = (before.wall + after.wall) / 2
        failures = before.failures + traced.failures + after.failures
        if not traced.outputs == before.outputs == after.outputs:
            failures.append(("trace", "traced outputs differ from untraced outputs"))
        total_self = tracer.total_self_s()
        untracked = traced.wall - total_self
        if not -1e-6 <= untracked <= SELF_TIME_TOLERANCE * traced.wall + 1e-3:
            raise RuntimeError(f"self times sum to {total_self:.4f} s "
                               f"of {traced.wall:.4f} s traced wall")
        metrics = layer_metrics(tracer, traced.wall - plain_wall)
        notes = {"requests": traced.attempted,
                 "traced_wall_s": traced.wall,
                 "untraced_wall_s": [before.wall, after.wall],
                 "untracked_s": untracked, "bench_self_s": tracer.self_s("bench"),
                 "exact_counts": tracer.exact_counts()}
        attempted = before.attempted + traced.attempted + after.attempted
        return metrics, attempted, failures, notes


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, overhead):
    """name -> (value, unit) for every per-layer metric."""
    s, calls, c = tr.self_s, tr.calls, tr.counts
    built = sum(tr.built.values())
    used = tr.entries_used()
    decoded = sum(tr.decoded.values())
    m = {}
    for module in MODULES:
        m[f"{module}.self_s"] = (tr.module_self_s(module), "s")
    m.update({
        "series.binomial_inverse.self_s": (s("series.binomial_inverse"), "s"),
        "series.binomial_inverse.calls": (calls("series.binomial_inverse"), "count"),
        "series.binomial_inverse.coeff_passes": (c["series.binomial_inverse.coeff_passes"], "count"),
        "series.mul.self_s": (s("series.mul"), "s"),
        "series.invert.self_s": (s("series.invert"), "s"),
        "mocktheta.omega_coeffs.self_s": (s("mocktheta.omega_coeffs"), "s"),
        "mocktheta.omega_coeffs.calls": (calls("mocktheta.omega_coeffs"), "count"),
        "mocktheta.f_coeffs.self_s": (s("mocktheta.f_coeffs"), "s"),
        "mocktheta.f_coeffs.calls": (calls("mocktheta.f_coeffs"), "count"),
        "mocktheta.c_series.self_s": (s("mocktheta.c_series"), "s"),
        "mocktheta.table_entries_built": (built, "count"),
        "mocktheta.table_entries_used": (used, "count"),
        "mocktheta.build_efficiency": (_ratio(used, built), "ratio"),
        "borcherds.phi_star.self_s": (s("borcherds.phi_star"), "s"),
        "borcherds.b_from_c.self_s": (s("borcherds.b_from_c"), "s"),
        "borcherds.b_from_c.calls": (calls("borcherds.b_from_c"), "count"),
        "borcherds.c_from_b.self_s": (s("borcherds.c_from_b"), "s"),
        "hecke.eigencheck.self_s": (s("hecke.eigencheck"), "s"),
        "hecke.eigencheck.calls": (calls("hecke.eigencheck"), "count"),
        "hecke.density_scan.self_s": (s("hecke.density_scan"), "s"),
        "cache.find.self_s": (s("cache.find"), "s"),
        "cache.find.calls": (calls("cache.find"), "count"),
        "cache.find.hits": (c["cache.find.hits"], "count"),
        "cache.hit_ratio": (_ratio(c["cache.find.hits"], calls("cache.find")), "ratio"),
        "cache.load.self_s": (s("cache.load"), "s"),
        "cache.load.bytes": (c["cache.load.bytes"], "bytes"),
        "cache.load.entries": (decoded, "count"),
        "cache.load.entries_needed": (c["cache.load.entries_needed"], "count"),
        "cache.load_useful_ratio": (_ratio(c["cache.load.entries_needed"], decoded), "ratio"),
        "cache.save.self_s": (s("cache.save"), "s"),
        "cache.save.bytes": (c["cache.save.bytes"], "bytes"),
        "qexpr.parse.self_s": (s("qexpr.parse"), "s"),
        "qexpr.evaluate.self_s": (s("qexpr.evaluate"), "s"),
        "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
        "trace.overhead_s": (overhead, "s"),
    })
    return m
