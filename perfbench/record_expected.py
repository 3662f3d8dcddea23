"""Record the simulated outputs every benchmark run is checked against.

Run from the repository root, at the commit whose outputs are the
reference::

    python3 perfbench/record_expected.py [WORKLOAD ...]

It runs one full-size operation of every named workload (default: all)
on every input variant, refuses to record one whose own invariants
fail, and updates ``perfbench/expected.json``.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._import_program()
    from tracing import NO_SPANS
    from workloads import VARIANTS, WORKLOADS

    workdir = run.WORKDIR
    workdir.mkdir(exist_ok=True)
    path = run.HERE / "expected.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name in sys.argv[1:] or WORKLOADS:
        workload = WORKLOADS[name]
        recorded[name] = {}
        for variant in range(VARIANTS):
            result = workload.op(variant, workload.size, NO_SPANS, workdir)
            if result.failed:
                sys.exit(f"{name} variant {variant}: {sorted(result.failed)} "
                         "failed their invariants")
            recorded[name][str(variant)] = result.outputs
            print(f"{name} variant {variant}: {result.wall_s:.2f} s",
                  flush=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
