"""Record the pinned output digests in ``perfbench/reference.json``.

Generates every workload at each population seed in
``REFERENCE_SEEDS`` (generation 0 of a run with that ``--seed``) and
writes the digests its checks compare against (~8 minutes)::

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter the generated output,
and say so in the change: the pinned digests are what makes a speed-up
that changes the op stream read as a failure.
"""

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS

    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = {}
        for seed in REFERENCE_SEEDS:
            with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                             dir=ROOT) as workdir:
                ctx = workload.setup(seed, workdir)
                out = workload.generate(ctx)
                pinned[name][str(seed)] = workload.reference(ctx, out)
    path = os.path.join(ROOT, "perfbench", "reference.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump({"workloads": pinned}, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
