"""One cold start of a workload: what every ``smc`` invocation pays before its first op.

Run as ``python3 perfbench/setup_probe.py WORKLOAD SEED`` from the root of a
checkout.  It imports smc, numpy and scipy, loads the harvest configuration,
builds the workload's specs and controls, makes one tiny warm-up call, prints
``ready`` and exits.  ``run.py`` times it from process start to that line.
"""

from __future__ import annotations

import sys

from benchenv import OUT_DIR, add_source_path


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    add_source_path()
    import scipy.linalg  # noqa: F401

    from smc import config
    import run
    import workloads

    config.load_config(workloads.HARVEST_CONFIG)
    workloads.build(name, seed, OUT_DIR)
    run.warm_up(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
