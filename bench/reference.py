"""Regenerate ``reference.json``, the seed-independent expected outputs.

Usage (from the repository root): python3 bench/reference.py

The report checks compare ``pr_formula_exact``, the bracket and the
success probability with these values, and the census checks compare the
exhaustive eta histograms.  The file was written by the commit that
defined the benchmark; rerun this only to pin outputs of a deliberate
behaviour change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from pgmhsp import cli  # noqa: E402


def main() -> int:
    reference = {}
    for workload, cases in workloads.reference_cases().items():
        reference[workload] = {}
        for spec, k, argv in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{argv} exited with {code}")
            entry = workloads.reference_entry(workload, out.getvalue())
            reference[workload][workloads.case_key(spec, k)] = entry
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
