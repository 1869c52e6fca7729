"""Regenerate ``reference.json``: exact digests of the default seed's inputs.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a checkout, and only when a change to the engine's
output is intended: the stored digests are the benchmark's exactness gate.
Each result must also pass its invariants before its digest is stored.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

DEFAULT_SEED = 0

# Inputs per workload: well past what one run at the default length reaches.
COUNTS = {"cores-n5": 60, "tabulate-n6": 120, "mechanism-grid": 40, "cli-batch": 300}


def digests(workload, count) -> list:
    import verify
    workdir = tempfile.mkdtemp(dir=run.OUT)
    try:
        batch = run.Batch(workload, DEFAULT_SEED, workdir, reference=[])
        out: list = []
        while len(out) < count:
            index, inp = batch.next_input()
            out += [None] * (index - len(out))  # inputs skipped as repeats
            result = workload.analyse(inp)
            problems = workload.check(inp, result)
            if problems:
                sys.exit(f"error: {workload.name} input {index}: {'; '.join(problems)}")
            out.append(verify.digest(workload.lines(result)))
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names) -> int:
    run._use_checkout_source()
    from workloads import WORKLOADS
    run.OUT.mkdir(exist_ok=True)
    data = json.loads(run.REFERENCE.read_text())
    if data["seed"] != DEFAULT_SEED:
        data = {"seed": DEFAULT_SEED, "digests": {}}
    for name in names or list(WORKLOADS):
        data["digests"][name] = digests(WORKLOADS[name], COUNTS[name])
        print(f"{name}: {len(data['digests'][name])} digests")
    run.REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
