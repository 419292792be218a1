"""One benchmark job: a single experiment run through otafl's public API.

Run as a fresh process by run.py, which writes the job spec as JSON on
stdin and reads one JSON object from the last line of stdout:

    parse_config -> simulate_trials -> tabulate / analyze_comparison
    -> estimate_bound_inputs -> validate_dominance on the precoded curve

The job times itself, samples its CPU's speed (speed.py) to scale those
times to reference seconds, checks the outputs, and in a traced job records
a span around every otafl function listed in spans.WRAPS.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import E2E_WRAPS, WRAPS, Recorder, install, layer_metrics, span_totals
from workloads import WORKLOADS, train_sample_steps

# The non-precoded baseline must end at least this many times above COTAF.
MIN_FLOOR_RATIO = 10.0


def _check_outputs(workload, result, table, comparison, report) -> list[str]:
    """Seed-independent output checks; returns one message per failed check."""
    import numpy as np

    failures = []
    for scheme, run in result.schemes.items():
        if not np.all(np.isfinite(run.gaps)):
            failures.append(f"{scheme}: non-finite gap")
    if not report.passed:
        failures.append(f"{workload.precoded_scheme}: bound violated at {len(report.violations)} rounds")
    if comparison is not None and not comparison.ordering_ok():
        failures.append(f"scheme ordering violated: {comparison.final_mean_gaps}")
    final = {s: float(run.gaps[:, -1].mean()) for s, run in result.schemes.items()}
    if "cotaf" in final and "non_precoded_ota" in final:
        if not final["non_precoded_ota"] >= MIN_FLOOR_RATIO * final["cotaf"]:
            failures.append(f"non_precoded_ota final gap not {MIN_FLOOR_RATIO}x cotaf: {final}")
    if "cotaf_fading" in result.schemes:
        k = result.resolved.fading_policy.participants
        short = [r.round for r in table.for_scheme("cotaf_fading") if r.participants_mean != k]
        if short:
            failures.append(f"cotaf_fading: participants != {k} in rounds {short[:5]}")
    return failures


def _result_values(workload, result, report) -> dict:
    """Outputs reported but not gated on, plus a digest of every per-round array."""
    from otafl.harness import POWER

    digest = hashlib.sha256()
    values = {}
    for scheme, run in result.schemes.items():
        values[f"final_gap.{scheme}"] = float(run.gaps[:, -1].mean())
        for array in (run.gaps, run.power_max, run.power_per_user, run.participants, run.waits):
            digest.update(array.tobytes())
    power = result.schemes[workload.precoded_scheme].power_max.mean(axis=0)
    values["power_max_over_budget"] = float(power.max()) / POWER
    values["min_bound_gap_ratio"] = min(
        (row.bound / row.mean_gap for row in report.rows if row.mean_gap > 0), default=float("inf")
    )
    values["digest"] = digest.hexdigest()
    return values


def run_job(spec: dict) -> dict:
    """Run one job; spec holds workload, config, trace and optional spawn_ns/spans_path."""
    clock = time.monotonic_ns
    workload = WORKLOADS[spec["workload"]]
    doc = spec["config"]
    schemes = list(workload.schemes)
    start = spec.get("spawn_ns") or clock()
    recorder = Recorder(spec.get("run_id", workload.name))

    t_import0 = clock()
    from otafl import bounds, harness

    t_import1 = clock()
    from speed import SpeedSampler  # numpy is loaded by now

    recorder.add_span("otafl.import", t_import0, t_import1)
    uninstall = install(recorder, WRAPS if spec["trace"] else E2E_WRAPS)
    sampler = SpeedSampler()
    sampler.start()
    try:
        t_parse0 = clock()
        config = harness.parse_config(doc)
        t_sim0 = clock()
        result = harness.simulate_trials(config, schemes)
        t_sim1 = clock()
        table = harness.tabulate(result)
        comparison = harness.analyze_comparison(result, schemes) if len(schemes) > 1 else None
        inputs = harness.estimate_bound_inputs(config, kind="final_model")
        mean_gap = result.schemes[workload.precoded_scheme].gaps.mean(axis=0)
        report = bounds.validate_dominance(
            list(zip(result.t_grid, mean_gap)), getattr(bounds, workload.bound), inputs
        )
        end = clock()
    finally:
        sampler.stop()
        uninstall()
    recorder.close_root("job", start, end)

    resolves = sorted(
        (s, e) for _, _, name, s, e in recorder.spans if name == "harness.resolve" and t_sim0 <= s < t_sim1
    )
    resolve_ns = sum(e - s for s, e in resolves)
    bounds_ns = [t_sim0, *(t for span in resolves for t in span), t_sim1]
    train_windows = list(zip(bounds_ns[::2], bounds_ns[1::2]))
    steps = train_sample_steps(doc, len(schemes))
    out = {
        "wall_s": (end - start) / 1e9,
        "setup_s": (t_import1 - t_import0 + t_sim0 - t_parse0 + resolve_ns) / 1e9,
        "train_steps_per_s": steps / ((t_sim1 - t_sim0 - resolve_ns) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_scale": {
            "wall_s": sampler.scale(),
            "setup_s": sampler.scale([(t_import0, t_sim0), *resolves]),
            "train_steps_per_s": sampler.scale(train_windows),
        },
        "failures": _check_outputs(workload, result, table, comparison, report),
        "result": _result_values(workload, result, report),
        "absent": recorder.absent,
    }
    if spec["trace"]:
        out["layers"] = layer_metrics(
            recorder, config.dataset.dim, out["result"]["min_bound_gap_ratio"]
        )
        out["self_sum_s"] = sum(t["self_s"] for t in span_totals(recorder.spans).values())
        if spec.get("spans_path"):
            recorder.write(Path(spec["spans_path"]))
    return out


def main() -> int:
    spec = json.loads(sys.stdin.read())
    try:
        out = run_job(spec)
    except Exception:  # the parent counts the job as failed and goes on
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
