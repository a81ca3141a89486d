"""Self-test of the benchmark on tiny versions of its workloads.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is reported with its unit,
that the exact counts of a traced run repeat run to run, that the naive
references agree with published values, and that an injected wrong residue
and an injected exception are counted as failed requests instead of passing
or ending the run.  Exits non-zero on the first failed check.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qcong.borcherds  # noqa: E402
import qcong.cli  # noqa: E402

import reference as ref  # noqa: E402
from harness import Run  # noqa: E402
from run import program_env  # noqa: E402
from workloads import CertifyCold, RoundtripExact, SessionWarm  # noqa: E402

SEED = 7


def tiny_workloads():
    return [cls(tiny=True) for cls in (CertifyCold, SessionWarm, RoundtripExact)]


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def units_of(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def check_references():
    omega = ref.omega_reference()
    assert omega[:len(ref.OMEGA_GOLDEN)] == ref.OMEGA_GOLDEN, "omega reference"
    for M in (1, 2):
        assert omega[ref.paper_index(M)] % ref.MODULUS == ref.PAPER_RESIDUES[M]
    tau = ref.expression_reference("eta(q)^24")
    assert tau[1:1 + len(ref.TAU_GOLDEN)] == ref.TAU_GOLDEN, "tau reference"


def check_workload(workload, end_to_end, per_layer):
    workload.prepare()
    with Run(workload, SEED, 0.5, str(ROOT), program_env()) as run:
        run.setup()
        metrics, attempted, failures, _ = run.end_to_end()
        assert units_of(metrics) == end_to_end, (workload.name, units_of(metrics))
        assert attempted >= 1 and not failures, (workload.name, failures)
        counts = []
        for _ in range(2):
            metrics, attempted, failures, notes = run.per_layer()
            assert units_of(metrics) == per_layer, (workload.name, units_of(metrics))
            assert not failures, (workload.name, failures)
            counts.append(notes["exact_counts"])
        assert counts[0] == counts[1], (workload.name, "exact counts differ",
                                        counts[0], counts[1])
    print(f"ok  {workload.name}: {attempted} requests traced, counts repeat")


def check_injected_residue():
    """Make the program print a_omega(16) = 10 as both actual and predicted,
    still claiming a match: the benchmark must count the request as failed."""
    main = qcong.cli.main

    def lying_main(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            rc = main(argv)
        doc = json.loads(out.getvalue())
        for row in doc["rows"]:
            if row["M"] == 1:
                row["actual"] = row["predicted"] = "10"
        print(json.dumps(doc, sort_keys=True))
        return rc

    qcong.cli.main = lying_main
    try:
        attempted, failures = tiny_failures(CertifyCold)
    finally:
        qcong.cli.main = main
    assert attempted == len(failures) >= 1, (attempted, failures)
    assert all("paper 9" in reason for _, reason in failures), failures
    print(f"ok  injected wrong residue counted as failed: {failures[0][1]}")


def check_injected_exception():
    """Make b_from_c raise in the library round trip: the run must go on
    and count every round trip as failed."""
    b_from_c = qcong.borcherds.b_from_c

    def raising_b_from_c(c, n, *args):
        if n == 2:
            raise qcong.borcherds.NonDivisible("injected")
        return b_from_c(c, n, *args)

    qcong.borcherds.b_from_c = raising_b_from_c
    try:
        attempted, failures = tiny_failures(RoundtripExact)
    finally:
        qcong.borcherds.b_from_c = b_from_c
    assert attempted == len(failures) >= 1, (attempted, failures)
    assert all("NonDivisible: injected" in reason for _, reason in failures), failures
    print(f"ok  injected exception counted as failed: {failures[0][1]}")


def tiny_failures(cls):
    """(attempted, failures) of a short end-to-end run of a tiny workload."""
    workload = cls(tiny=True)
    workload.prepare()
    with Run(workload, SEED, 0.1, str(ROOT), program_env()) as run:
        run.setup()
        _, attempted, failures, _ = run.end_to_end()
    return attempted, failures


def main():
    end_to_end, per_layer = declared()
    check_references()
    print("ok  references match published values")
    for workload in tiny_workloads():
        check_workload(workload, end_to_end, per_layer)
    check_injected_residue()
    check_injected_exception()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
