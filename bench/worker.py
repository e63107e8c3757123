"""One benchmark pass in a fresh interpreter (started by run.py).

    python3 bench/worker.py WORKLOAD SEED TRACE DELTA_EXP [setup|pass|catalogue]

Prints one JSON line: monotonic timestamps (CLOCK_MONOTONIC, comparable
with the parent's), the pass's CPU time, result rows, digests, per-scene
latencies, the process's peak RSS and, when traced, the per-layer summary.
`setup` stops after the set-up phase; `catalogue` runs every rand1d
catalogue draw (for recording references).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))


def main(argv) -> int:
    workload, seed, traced, delta_exp = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    mode = argv[4] if len(argv) > 4 else "pass"

    import workloads

    draws = None
    if mode == "catalogue":
        draws = [workloads.rand1d_draw(s, v) for s in range(workloads.RAND1D_SLOTS)
                 for v in range(workloads.RAND1D_VARIANTS)]
    scenes = workloads.setup(workload, seed, delta_exp, draws)
    t_setup = time.monotonic()
    out = {"t_setup": t_setup}
    if mode != "setup":
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t_start, c_start = time.monotonic(), time.process_time()
        res = workloads.PASSES[workload](scenes, tracer)
        wall = res["t_end"] - t_start
        out.update(res, t_start=t_start, cpu_s=res["cpu_end"] - c_start)
        out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            out["trace"] = tracer.summary(wall)
            if workload == "carpet_full":
                out["stage_table"] = tracer.stage_table(out["maxrss_mb"])
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
