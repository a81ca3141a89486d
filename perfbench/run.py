"""qcong benchmark: one workload, one run.

    python3 perfbench/run.py --workload certify-cold --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  With --trace 0 the run reports the
end-to-end metrics, measured untraced; with --trace 1 it runs the
workload's fixed work untraced and then traced, and reports the per-layer
metrics.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Lines before it give the run's metadata and each metric by name and unit.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("certify-cold", "session-warm", "roundtrip-exact")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="'all' runs each workload in its own process")
    ap.add_argument("--seed", type=int, required=True,
                    help="sets the request sequence of session-warm only")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of the end-to-end run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def program_env():
    """The environment the program sees: no cache directory preset, and
    the checkout's sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if k != "QCONG_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def metadata(args):
    commit = "unknown"      # a checkout without .git: the src digest identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def run_all(args):
    """Every workload in its own process, so that peak RSS stays per
    workload; the summary's metric names are prefixed with the workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print(f"## {name}", *lines[:-1], sep="\n")
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qcong" / "__init__.py").is_file():
        print(f"no qcong sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("QCONG_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))

    import qcong
    if Path(qcong.__file__).resolve().parent != SRC / "qcong":
        print(f"qcong imported from {qcong.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import Run
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    workload.prepare()
    with Run(workload, args.seed, args.seconds, str(ROOT), program_env()) as run:
        run.setup()
        if args.trace:
            metrics, attempted, failures, notes = run.per_layer()
        else:
            metrics, attempted, failures, notes = run.end_to_end()
    failures = run.setup_failures + failures
    attempted += len(run.setup_failures)

    print(f"# meta {json.dumps(metadata(args), sort_keys=True)}")
    print(f"# notes {json.dumps(notes, sort_keys=True, default=str)}")
    for kind, reason in failures[:20]:
        print(f"# FAILED {kind}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':40s} {len(failures) / attempted:>16.6g} "
          f"ratio ({len(failures)} of {attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
