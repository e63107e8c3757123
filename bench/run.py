"""Benchmark entry point: one workload, one seed, traced or not.

    python3 bench/run.py --workload carpet_full --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload koch_direct --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --workload rand1d_batch --record      # rewrite references

Run from the repository root. Each pass runs in a fresh subprocess (see
worker.py). Untraced runs repeat passes until --seconds have been measured
and at least MIN_PASSES passes made; traced runs make one untraced and one
traced pass. Pass and scene times are CPU times of the pass process, which
leave out steal time (the host holding the virtual CPU off its core). Every
pass is checked against the recorded references in bench/references/. The
last line of stdout is the result JSON; lines before it give every metric
with its unit, the environment and the correctness summary. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
WORKLOADS = ("carpet_full", "koch_direct", "rand1d_batch")
SETUP_PROBES = 1
MIN_PASSES = 2
CHILD_TIMEOUT_S = 160
THREAD_ENV = {
    "FTL_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END = (("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("scene_cpu_p50_s", "s"), ("scene_cpu_p90_s", "s"))


class BenchError(Exception):
    pass


# -- environment ------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it ('unknown' if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": THREAD_ENV,
    }


# -- subprocess passes ------------------------------------------------------------------


def child(workload: str, seed: int, traced: bool, delta_exp: int, mode: str) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(delta_exp), mode]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_setup"] - t_spawn
    if "t_end" in out:
        out["wall_s"] = out["t_end"] - out["t_start"]
    return out


# -- references and correctness ------------------------------------------------------------


def reference_path(workload: str, delta_exp: int) -> Path:
    suffix = f"_d{delta_exp}" if workload == "carpet_full" else ""
    return REFERENCES / f"{workload}{suffix}.json"


def rows_digest(rows: dict) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def load_reference(path: Path) -> dict:
    if not path.is_file():
        raise BenchError(f"no recorded reference at {path.relative_to(ROOT)}; run with --record")
    ref = json.loads(path.read_text(encoding="utf-8"))
    if rows_digest(ref["rows"]) != ref["digest"]:
        raise BenchError(f"{path.name}: rows do not match the recorded digest")
    return ref


def compact_row(row: dict) -> dict:
    """What a reference keeps of a row: a digest of all of it, plus the fields compared."""
    out = {"sha": hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:16]}
    if "refused" in row:
        out["refused"] = True
    elif "verdict" in row:
        out["verdict"] = row["verdict"]
    elif "value" in row:
        out["value"] = row["value"]
        if "error_estimate" in row:
            out["error_estimate"] = row["error_estimate"]
    return out


def compare_row(ref: dict, new: dict | None) -> tuple[bool, bool]:
    """(failed, changed) of a result row against its compact reference.

    A row fails when it is missing, gains or loses a refusal, changes its
    verdict, or has a value farther from the reference than the reference's
    own error estimate (1e-9 relative for rows without one). Any other
    difference, down to the last bit of any field, only marks it changed.
    """
    if new is None:
        return True, True
    new = compact_row(new)
    changed = new["sha"] != ref["sha"]
    if "refused" in ref or "refused" in new:
        return ("refused" in ref) != ("refused" in new), changed
    if "verdict" in ref:
        return ref["verdict"] != new.get("verdict"), changed
    if "value" in ref:
        a, b = ref["value"], new.get("value")
        if isinstance(a, float) and isinstance(b, (int, float)):
            tol = max(ref.get("error_estimate") or 0.0, 1e-9 * abs(a))
            return not abs(b - a) <= tol, changed
        return a != b, changed
    return changed, changed


def check_pass(workload: str, res: dict, ref: dict, orc: dict) -> dict:
    rows = res["rows"]
    if workload == "rand1d_batch":
        wanted = {k for k in ref["rows"] if k.split("/")[0] in orc["draws"]}
    else:
        wanted = set(ref["rows"])
    failed, changed, failures = 0, 0, []
    for key in sorted(wanted | set(rows)):
        if key not in wanted:
            failed, changed = failed + 1, changed + 1
            failures.append(f"unexpected row {key}")
            continue
        f, c = compare_row(ref["rows"][key], rows.get(key))
        failed += f
        changed += c
        if f:
            failures.append(key)
    for key, value in ref.get("digests", {}).items():
        changed += res["digests"].get(key) != value
    misses, oracle_rows, by_method = 0, 0, {}
    for key, row in rows.items():
        parts = key.split("/")
        if parts[-2] != "content" or parts[-1] not in orc["methods"] or "value" not in row:
            continue
        exact = orc["exact"][parts[0]] if workload == "rand1d_batch" else orc["exact"]
        if exact is None:
            continue
        oracle_rows += 1
        miss = abs(row["value"] - exact) > row["error_estimate"]
        misses += miss
        by_method[parts[-1]] = by_method.get(parts[-1], 0) + miss
    attempted = len(wanted)
    if "isolation_ok" in res:
        attempted += 1
        if not res["isolation_ok"]:
            failed += 1
            failures.append("fresh-bundle isolation: distinct draws shared dim_data")
    return {"attempted": attempted,
            "failed": failed, "rows_changed": changed, "failures": failures,
            "oracle_rows": oracle_rows, "oracle_misses": misses, "misses_by_method": by_method}


def build_oracle(workload: str, seed: int) -> dict:
    import workloads

    out = {"methods": workloads.ORACLE_METHODS, "draws": set(), "exact": None}
    if workload == "carpet_full":
        from fractal_tiling_lab.presets import get_preset

        out["exact"] = get_preset("carpet").expected["monophase"]["value"]
    elif workload == "rand1d_batch":
        from fractal_tiling_lab.ifs import dimension_data

        import oracle

        exact = {}
        draws = [workloads.rand1d_draw(s, v) for s, v in workloads.rand1d_selection(seed)]
        for d in draws:
            dd = dimension_data(workloads.rand1d_scene(d).ifs)
            exact[d["id"]] = oracle.gap_content(d["gaps"], dd.D, dd.eta)
        out["draws"], out["exact"] = set(exact), exact
    return out


# -- metrics ----------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "band_ratio")):
        return "ratio"
    return "count"


def record(workload: str, delta_exp: int) -> int:
    mode = "catalogue" if workload == "rand1d_batch" else "pass"
    res = child(workload, 0, False, delta_exp, mode)
    rows = {k: compact_row(v) for k, v in sorted(res["rows"].items())}
    ref = {"workload": workload, "rows": rows, "digest": rows_digest(rows)}
    if workload == "carpet_full":
        ref["delta_exp"] = delta_exp
    if res["digests"]:
        ref["digests"] = res["digests"]
    path = reference_path(workload, delta_exp)
    path.parent.mkdir(exist_ok=True)
    # one row per line keeps the file diffable
    head = {k: v for k, v in ref.items() if k != "rows"}
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in rows.items())
    path.write_text(json.dumps(head, sort_keys=True)[:-1] + ', "rows": {\n' + lines + "\n}}\n",
                    encoding="utf-8")
    print(f"recorded {len(res['rows'])} rows to {path.relative_to(ROOT)} "
          f"({res['wall_s']:.1f} s)")
    return 0


def run(args) -> dict:
    import oracle

    env = environment()
    self_test_ok, self_test_err = oracle.self_test()
    ref = load_reference(reference_path(args.workload, args.delta_exp))
    orc = build_oracle(args.workload, args.seed)

    setups = [child(args.workload, args.seed, False, args.delta_exp, "setup")["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes, traced = [], None
    if args.trace:
        passes.append(child(args.workload, args.seed, False, args.delta_exp, "pass"))
        traced = child(args.workload, args.seed, True, args.delta_exp, "pass")
    else:
        measured = 0.0
        while len(passes) < MIN_PASSES or measured < args.seconds:
            passes.append(child(args.workload, args.seed, False, args.delta_exp, "pass"))
            measured += passes[-1]["wall_s"]
    checks = [check_pass(args.workload, p, ref, orc) for p in passes + ([traced] if traced else [])]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    setups += [p["setup_s"] for p in passes]
    scene_s = [s for p in passes for s in p["scene_s"]]
    scene_cpu_s = [s for p in passes for s in p["scene_cpu_s"]]
    e2e = {
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in passes),
        "scene_cpu_p50_s": statistics.median(scene_cpu_s),
        "scene_cpu_p90_s": percentile(scene_cpu_s, 0.9),
    }
    last = checks[-1]
    extra = {
        "passes": len(passes),
        "scenes": len(scene_s),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "scene_p50_s": statistics.median(scene_s),
        "scene_p90_s": percentile(scene_s, 0.9),
        "ops_failed_frac": failed / attempted,
        "oracle_rows": last["oracle_rows"],
        "oracle_miss_frac": (last["oracle_misses"] / last["oracle_rows"]
                             if last["oracle_rows"] else 0.0),
        "rows_changed": last["rows_changed"],
        "oracle_self_test_rel_err": self_test_err,
    }
    extra.update({f"oracle_misses.{m}": n for m, n in sorted(last["misses_by_method"].items())})
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "end_to_end": e2e, "extra": extra,
              "failures": sorted({f for c in checks for f in c["failures"]})}
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if traced:
        layer = dict(traced["trace"])
        layer["trace.overhead_frac"] = traced["wall_s"] / passes[0]["wall_s"] - 1.0
        layer["wall_s"] = passes[0]["wall_s"]
        layer["wait_frac"] = 1.0 - passes[0]["cpu_s"] / passes[0]["wall_s"]
        layer["rows_changed"] = float(last["rows_changed"])
        layer["ops_failed_frac"] = extra["ops_failed_frac"]
        layer["oracle_miss_frac"] = extra["oracle_miss_frac"]
        report["per_layer"] = layer
        report["stage_table"] = traced.get("stage_table")
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(layer.items())}
    correct = failed == 0 and self_test_ok
    report["result"] = {"correct": correct, "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# {w} seed={report['seed']} trace={report['trace']} env={json.dumps(report['env'])}")
    for name, m in report["result"]["metrics"].items():
        print(f"{w:13s} {name:44s} {m['value']:16.6g} {m['unit']}")
    for name, v in report["extra"].items():
        print(f"{w:13s} {name:44s} {v:16.6g}")
    if report.get("stage_table"):
        print("# stage table (compare ROADMAP 'State at this re-anchor'): self, inclusive")
        for name, self_s, incl_s in report["stage_table"]:
            print(f"#   {name:30s} {self_s:10.3f} {incl_s:10.3f}")
    for f in report["failures"]:
        print(f"FAILED {f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--delta-exp", type=int, default=10,
                    help="carpet_full resolution 2^-N (11 is the preset's own)")
    ap.add_argument("--record", action="store_true", help="rewrite the workload's reference")
    ap.add_argument("--out", default=None, help="also write the full report JSON here")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fractal_tiling_lab" / "__init__.py").is_file():
        print(f"error: no fractal_tiling_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        if args.record:
            return record(args.workload, args.delta_exp)
        report = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
