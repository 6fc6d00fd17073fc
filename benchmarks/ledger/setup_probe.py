"""Cold set-up of one workload, timed inside a fresh interpreter.

``setup_s`` is what every run of the workload pays before its first
cycle: ``import repro``, ``build_network`` for each distinct config,
and pattern/injector construction. run.py starts this file as a
subprocess several times and takes the median.

    python3 setup_probe.py WORKLOAD SEED SCALE
"""

import json
import sys
import time


def main(argv):
    name, seed, scale = argv[1], int(argv[2]), float(argv[3])
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is part of what is timed)
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workload.construct(workload.inputs(seed, scale))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv)
