"""Time one fresh interpreter's set-up for a workload.

    python3 perfbench/setup_probe.py WORKLOAD_JSON SEED [--job WORKDIR]

Set-up is importing `nonresidues` and building the workload's scan task or
verify config.  With --job the probe then runs one job at the workload's
worker count and also reports the peak resident memory of this process
and of its workers.  Prints one JSON line.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = time.perf_counter()
import nonresidues  # noqa: E402,F401  (timed: part of set-up)
import_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    wl, seed = workloads.from_json(sys.argv[1]), int(sys.argv[2])
    inputs = wl.inputs(seed)
    t1 = time.perf_counter()
    built = wl.build(inputs)
    out = {"setup_s": import_s + time.perf_counter() - t1}
    if "--job" in sys.argv:
        workdir = sys.argv[sys.argv.index("--job") + 1]
        raw = wl.execute(built, wl.workers, workdir)
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out["digest"] = wl.collect(raw, workdir).digest
    print(json.dumps(out))


if __name__ == "__main__":
    main()
