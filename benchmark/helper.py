"""Child-process entry points of the benchmark.

    python benchmark/helper.py setup ROOT WORKLOAD SEED
        import driftsched and build the workload's inputs, then exit; the
        parent times this from process start to exit as one set-up. A
        host probe samples the set-up from its first line on, and its
        record is printed as JSON on stdout.
    python benchmark/helper.py reference ROOT WORKLOAD SEED OUT_JSON
        refuse inputs that should drift but do not (exit 3), else write
        the reference values the output checks compare against.

Both import driftsched from ROOT/src only.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list) -> int:
    mode, root, workload, seed = argv[1:5]
    probe = None
    if mode == "setup":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from hostprobe import PythonProbe

        probe = PythonProbe()
        probe.start()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import driftsched

    if not os.path.abspath(driftsched.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"driftsched imported from {driftsched.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    w = workloads.WORKLOADS[workload](int(seed))
    if mode == "setup":
        w.build_inputs()
        print(json.dumps(probe.stop()))
        return 0
    try:
        ref = w.reference()
    except workloads.NoDrift as exc:
        print(f"refused input: {exc}", file=sys.stderr)
        return 3
    with open(argv[5], "w") as fh:
        json.dump(ref, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
