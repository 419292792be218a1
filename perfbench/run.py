"""Benchmark of otafl: Monte Carlo workloads run as closed-loop batch jobs.

    python3 perfbench/run.py --workload desk_compare --seed 1 --seconds 40 --trace 0

Each job is a fresh process (job.py) with BLAS threads pinned to 1; jobs run
one at a time until --seconds have passed. With --trace 0 the last stdout
line carries the end-to-end metrics (medians over the jobs); with --trace 1
jobs alternate untraced and traced, and it carries the per-layer metrics of
the traced jobs plus the tracing overhead. ``--workload all`` runs every
workload in turn and prints each one's metrics with units.

The workload seed sets the experiment seed; every job of a run gets the same
config, so their results must agree bit for bit.

Times are reported in reference seconds (see speed.py): each job samples the
speed of its CPU while it runs and scales its measured seconds to a fixed
reference speed. The measured seconds and the scale are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "train_steps_per_s": "steps/s", "peak_rss_mb": "MiB"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' if none."""
    git = root / ".git"
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


def _l2_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "2":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def run_context(workloads, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_version = "unknown"
    l2 = _l2_bytes()
    shapes = {w.name: w.shape() for w in workloads}
    return {
        "git_sha": _git_sha(ROOT),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_thread_pin": BLAS_PIN,
        "seed": seed,
        "l2_bytes": l2,
        "workloads": {
            name: {**shape, "dataset_over_l2": shape["dataset_bytes"] / l2 if l2 else None}
            for name, shape in shapes.items()
        },
    }


def spawn_job(workload, doc: dict, trace: bool, timeout: float, spans_path: Path | None) -> dict:
    """Run job.py in a fresh process; returns its output or {"error": ...}."""
    env = {**os.environ, **BLAS_PIN}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spec = {"workload": workload.name, "config": doc, "trace": trace}
    if spans_path is not None:
        spec["spans_path"] = str(spans_path)
        spec["run_id"] = spans_path.stem
    spec["spawn_ns"] = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "job.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"job exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {}
    if proc.returncode != 0 or "error" in out or not out:
        return {"error": out.get("error") or proc.stderr[-2000:] or f"exit code {proc.returncode}"}
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop: start the next job once the last one ended, within `seconds`."""
    doc = workload.config(seed)
    t0 = time.monotonic()
    jobs: list[tuple[bool, dict]] = []
    while True:
        traced = trace and len(jobs) % 2 == 1
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json" if traced else None
        timeout = RUN_LIMIT_S - (time.monotonic() - t0)
        jobs.append((traced, spawn_job(workload, doc, traced, timeout, spans_path)))
        elapsed = time.monotonic() - t0
        # stop before a job that would end past `seconds`, once a traced job ran
        typical = elapsed / len(jobs)
        need_traced = trace and not any(t for t, _ in jobs)
        if elapsed + 1.5 * typical >= RUN_LIMIT_S:
            break
        if elapsed + typical > seconds and not need_traced:
            break
    return summarise(workload, seed, jobs, trace)


def summarise(workload, seed: int, jobs: list[tuple[bool, dict]], trace: bool) -> dict:
    ok = [(traced, job) for traced, job in jobs if "error" not in job]
    failed = sum(1 for _, job in jobs if "error" in job or job["failures"])
    problems = [job["error"] for _, job in jobs if "error" in job]
    problems += [f for _, job in ok for f in job["failures"]]
    digests = {job["result"]["digest"] for _, job in ok}
    if len(digests) > 1:
        problems.append(f"jobs of one config gave {len(digests)} different results")

    untraced = [job for traced, job in ok if not traced]
    traced_jobs = [job for traced, job in ok if traced]
    metrics = {}  # stays empty when no untraced job succeeded: no figure, no overhead base
    raw = {}
    if untraced:
        scaled = [reference_speed(job) for job in untraced]
        e2e = {name: statistics.median(job[name] for job in scaled) for name in E2E_UNITS}
        raw = {name: statistics.median(job[name] for job in untraced) for name in E2E_UNITS}
        raw["ref_scale"] = statistics.median(job["ref_scale"]["wall_s"] for job in untraced)
        if not trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        elif traced_jobs:
            for name, unit in LAYER_UNITS.items():
                if name == "trace_overhead_frac":
                    walls = [reference_speed(job)["wall_s"] for job in traced_jobs]
                    value = statistics.median(walls) / e2e["wall_s"] - 1.0
                else:
                    value = statistics.median(job["layers"][name] for job in traced_jobs)
                metrics[name] = {"value": value, "unit": unit}

    result = dict(ok[0][1]["result"]) if ok else {}
    if result and seed == DEFAULT_SEED:
        result.update(_compare_to_reference(workload.name, result))
    return {
        "workload": workload.name,
        "seed": seed,
        "jobs": len(jobs),
        "traced_jobs": len(traced_jobs),
        "attempted": len(jobs),
        "failed": failed,
        "correct": not problems and bool(metrics),
        "problems": problems,
        "metrics": metrics,
        "raw": raw,
        "result": result,
        "absent": ok[0][1]["absent"] if ok else [],
    }


def reference_speed(job: dict) -> dict:
    """The job's end-to-end figures scaled from measured to reference seconds."""
    scale = job["ref_scale"]
    return {
        "wall_s": job["wall_s"] * scale["wall_s"],
        "setup_s": job["setup_s"] * scale["setup_s"],
        "train_steps_per_s": job["train_steps_per_s"] / scale["train_steps_per_s"],
        "peak_rss_mb": job["peak_rss_mb"],
    }


def _compare_to_reference(name: str, result: dict) -> dict:
    """How result.* differ from the seed code's at DEFAULT_SEED (reported, not gated)."""
    path = ROOT / "perfbench" / "reference.json"
    try:
        reference = json.loads(path.read_text())[name]
    except (OSError, KeyError, json.JSONDecodeError):
        return {}
    return {
        "max_rel_dev_vs_seed_code": max(
            abs(result[key] - ref) / abs(ref) for key, ref in reference.items() if key != "digest"
        ),
        "bit_identical_to_seed_code": result["digest"] == reference["digest"],
    }


def print_summary(summary: dict) -> None:
    print(
        f"{summary['workload']} seed={summary['seed']}: {summary['jobs']} jobs "
        f"({summary['traced_jobs']} traced), {summary['failed']} failed"
    )
    for name, metric in summary["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':40s} {summary['failed'] / summary['attempted']:.6g} ratio")
    for name, value in summary["raw"].items():
        unit = E2E_UNITS.get(name, "ref s per s")
        print(f"  {'measured.' + name:40s} {value:.6g} {unit}")
    for key, value in summary["result"].items():
        print(f"  result.{key} = {value}")
    if summary["absent"]:
        print(f"  absent layers: {', '.join(summary['absent'])}")
    for problem in summary["problems"]:
        print(f"  FAILED: {problem.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "otafl" / "__init__.py").is_file():
        print(f"otafl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    print(json.dumps({"context": run_context(workloads, args.seed)}))

    summaries = []
    for workload in workloads:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_summary(summary)
        summaries.append(summary)
    if not all(s["metrics"] for s in summaries):
        print("no job produced metrics", file=sys.stderr)
        return 1

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(s["correct"] for s in summaries),
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
