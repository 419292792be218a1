"""Span recorder that wraps otafl's public functions from outside the package.

Each wrap point is the module attribute a caller looks the function up by,
so ``trainer.local_pass`` (training) and ``precoding.local_pass`` (the alpha
pilot) are timed apart although they are one function. A span records its
name, start, end and parent; spans stay in memory until the job writes them.

Only the standard library is imported here, so that a job can time the
import of otafl (and numpy under it) itself.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path


def _local_pass_steps(args, kwargs, result) -> dict:
    etas = args[3] if len(args) > 3 else kwargs["etas"]
    return {"steps": len(etas)}


def _mac_bytes(args, kwargs, result) -> dict:
    inputs = args[0] if args else kwargs["inputs"]
    return {"bytes": sum(x.nbytes for x in inputs)}


def _selection(args, kwargs, result) -> dict:
    return {"useful": 0 if result is None else 1}


# (module the caller looks the name up in, attribute, span name, counter)
WRAPS = (
    ("harness", "parse_config", "harness.parse_config", None),
    ("harness", "simulate_trials", "harness.simulate_trials", None),
    ("harness", "resolve", "harness.resolve", None),
    ("harness", "tabulate", "harness.tabulate", None),
    ("harness", "analyze_comparison", "harness.analyze_comparison", None),
    ("harness", "estimate_bound_inputs", "harness.estimate_bound_inputs", None),
    ("harness", "generate_synthetic", "data.generate_synthetic", None),
    ("harness", "partition", "data.partition", None),
    ("harness", "stream_generator", "rng.stream_generator", None),
    ("harness", "solve_optimum", "objectives.solve_optimum", None),
    ("harness", "estimate_constants", "objectives.estimate_constants", None),
    ("harness", "estimate_alpha_mc", "precoding.estimate_alpha_mc", None),
    ("harness", "run_training", "trainer.run_training", None),
    ("precoding", "local_pass", "localsgd.pilot_pass", _local_pass_steps),
    ("trainer", "run_round", "trainer.run_round", None),
    ("trainer", "local_pass", "localsgd.local_pass", _local_pass_steps),
    ("trainer", "global_loss", "objectives.global_loss", None),
    ("trainer", "precode", "precoding.codec", None),
    ("trainer", "decode", "precoding.codec", None),
    ("trainer", "fading_precode", "precoding.codec", None),
    ("trainer", "fading_decode", "precoding.codec", None),
    ("trainer", "select_participants", "precoding.select_participants", _selection),
    ("trainer", "sample_rayleigh", "channel.sample_rayleigh", None),
    ("trainer", "awgn_mac", "channel.mac", _mac_bytes),
    ("trainer", "fading_mac", "channel.mac", _mac_bytes),
    ("trainer", "orthogonal_noiseless", "channel.mac", None),
    ("bounds", "validate_dominance", "bounds.validate_dominance", None),
)

# Untraced jobs time only the resolve call inside simulate_trials, which
# setup_s and train_steps_per_s need.
E2E_WRAPS = tuple(w for w in WRAPS if w[2] == "harness.resolve")


class Recorder:
    """In-memory spans: (span id, parent id, name, start ns, end ns)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack = [0]  # id 0 is the root span, added by close_root
        self._next_id = 1

    def open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int, name: str, start: int, end: int) -> None:
        self._stack.pop()
        self.spans.append((span_id, self._stack[-1], name, start, end))

    def add_span(self, name: str, start: int, end: int) -> None:
        """A span the job times itself, as a child of the innermost open span."""
        self.close(self.open(), name, start, end)

    def close_root(self, name: str, start: int, end: int) -> None:
        self.spans.append((0, -1, name, start, end))

    def count(self, name: str, values: dict) -> None:
        for key, value in values.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + value

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "run_id": self.run_id,
            "fields": ["span_id", "parent_id", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "counts": self.counts,
            "absent": self.absent,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")


def _wrapped(func, name: str, recorder: Recorder, counter):
    clock = time.monotonic_ns

    def wrapper(*args, **kwargs):
        span_id = recorder.open()
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span_id, name, start, clock())
        if counter is not None:
            recorder.count(name, counter(args, kwargs, result))
        return result

    wrapper.__wrapped__ = func
    return wrapper


def install(recorder: Recorder, wraps=WRAPS):
    """Wrap every listed attribute; returns a function that undoes it.

    A module or attribute that no longer exists is recorded as absent and
    skipped, so a renamed layer shows up in the report instead of failing.
    """
    undo = []
    for module_name, attr, name, counter in wraps:
        try:
            module = importlib.import_module(f"otafl.{module_name}")
            func = getattr(module, attr)
        except (ImportError, AttributeError):
            recorder.absent.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _wrapped(func, name, recorder, counter))
        undo.append((module, attr, func))

    def uninstall():
        for module, attr, func in reversed(undo):
            setattr(module, attr, func)

    return uninstall


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the part of it that its direct
    child spans cover (the union of their intervals).
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for _, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    totals: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - covered) / 1e9
    return totals


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(recorder: Recorder, dim: int, min_bound_gap_ratio: float) -> dict:
    """Per-layer metrics of one traced job, keyed by metric name.

    The kernel counts labelled "computed" take about 7d flops and 24d bytes
    per sample step (float64: one feature row read, theta read and
    written); no bandwidth is measured, so no roofline ratio is given.
    """
    totals = span_totals(recorder.spans)
    counts = recorder.counts

    def total(name: str) -> dict:
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    kernel, pilot = total("localsgd.local_pass"), total("localsgd.pilot_pass")
    gap, rounds = total("objectives.global_loss"), total("trainer.run_round")
    round_us = [(end - start) / 1e3 for _, _, n, start, end in recorder.spans if n == "trainer.run_round"]
    steps = counts.get("localsgd.local_pass.steps", 0)
    draws = total("channel.sample_rayleigh")["calls"]
    useful = counts.get("precoding.select_participants.useful", 0)
    alpha_mc = total("precoding.estimate_alpha_mc")
    partition = total("data.partition")

    return {
        "localsgd.train.ns_per_step": per(kernel["s"] * 1e9, steps),
        "localsgd.local_pass.calls": kernel["calls"],
        "localsgd.local_pass.s": kernel["s"],
        "localsgd.sample_steps": steps,
        "localsgd.mflops_computed": 7.0 * dim * steps / 1e6,
        "localsgd.ops_per_byte_computed": 7.0 / 24.0,
        "localsgd.pilot.ns_per_step": per(pilot["s"] * 1e9, counts.get("localsgd.pilot_pass.steps", 0)),
        "precoding.estimate_alpha_mc.s": alpha_mc["s"],
        "precoding.estimate_alpha_mc.self_s": alpha_mc["self_s"],
        "objectives.global_loss.calls": gap["calls"],
        "objectives.global_loss.s": gap["s"],
        "objectives.global_loss.us_per_call": per(gap["s"] * 1e6, gap["calls"]),
        "precoding.codec.calls": total("precoding.codec")["calls"],
        "precoding.codec.s": total("precoding.codec")["s"],
        "precoding.select_participants.calls": total("precoding.select_participants")["calls"],
        "precoding.select_participants.s": total("precoding.select_participants")["s"],
        "channel.mac.calls": total("channel.mac")["calls"],
        "channel.mac.s": total("channel.mac")["s"],
        "channel.bytes_superimposed": per(counts.get("channel.mac.bytes", 0), rounds["calls"]),
        "channel.sample_rayleigh.calls": draws,
        "channel.sample_rayleigh.s": total("channel.sample_rayleigh")["s"],
        "trainer.run_round.calls": rounds["calls"],
        "trainer.run_round.s": rounds["s"],
        "trainer.run_round.self_s": rounds["self_s"],
        "trainer.round_p50_us": _percentile(round_us, 50),
        "trainer.round_p99_us": _percentile(round_us, 99),
        "trainer.fading_redraws": total("precoding.select_participants")["calls"] - useful,
        "trainer.fading_draws_per_round": per(draws, useful),
        "trainer.run_training.calls": total("trainer.run_training")["calls"],
        "trainer.run_training.s": total("trainer.run_training")["s"],
        "rng.stream_generator.calls": total("rng.stream_generator")["calls"],
        "rng.stream_generator.s": total("rng.stream_generator")["s"],
        "data.partition.calls": partition["calls"],
        "data.partition.s": partition["s"],
        "data.partition.self_s": partition["self_s"],
        "objectives.solve_optimum.calls": total("objectives.solve_optimum")["calls"],
        "objectives.solve_optimum.s": total("objectives.solve_optimum")["s"],
        "harness.resolve.s": total("harness.resolve")["s"],
        "data.generate_synthetic.s": total("data.generate_synthetic")["s"],
        "objectives.estimate_constants.calls": total("objectives.estimate_constants")["calls"],
        "objectives.estimate_constants.s": total("objectives.estimate_constants")["s"],
        "harness.estimate_bound_inputs.s": total("harness.estimate_bound_inputs")["s"],
        "bounds.validate_dominance.s": total("bounds.validate_dominance")["s"],
        "bounds.min_bound_gap_ratio": min_bound_gap_ratio,
    }


# Units of the per-layer metrics; trace_overhead_frac is added by run.py.
LAYER_UNITS = {
    "localsgd.train.ns_per_step": "ns",
    "localsgd.local_pass.calls": "count",
    "localsgd.local_pass.s": "s",
    "localsgd.sample_steps": "count",
    "localsgd.mflops_computed": "Mflop",
    "localsgd.ops_per_byte_computed": "flop/B",
    "localsgd.pilot.ns_per_step": "ns",
    "precoding.estimate_alpha_mc.s": "s",
    "precoding.estimate_alpha_mc.self_s": "s",
    "objectives.global_loss.calls": "count",
    "objectives.global_loss.s": "s",
    "objectives.global_loss.us_per_call": "us",
    "precoding.codec.calls": "count",
    "precoding.codec.s": "s",
    "precoding.select_participants.calls": "count",
    "precoding.select_participants.s": "s",
    "channel.mac.calls": "count",
    "channel.mac.s": "s",
    "channel.bytes_superimposed": "B/round",
    "channel.sample_rayleigh.calls": "count",
    "channel.sample_rayleigh.s": "s",
    "trainer.run_round.calls": "count",
    "trainer.run_round.s": "s",
    "trainer.run_round.self_s": "s",
    "trainer.round_p50_us": "us",
    "trainer.round_p99_us": "us",
    "trainer.fading_redraws": "count",
    "trainer.fading_draws_per_round": "ratio",
    "trainer.run_training.calls": "count",
    "trainer.run_training.s": "s",
    "rng.stream_generator.calls": "count",
    "rng.stream_generator.s": "s",
    "data.partition.calls": "count",
    "data.partition.s": "s",
    "data.partition.self_s": "s",
    "objectives.solve_optimum.calls": "count",
    "objectives.solve_optimum.s": "s",
    "harness.resolve.s": "s",
    "data.generate_synthetic.s": "s",
    "objectives.estimate_constants.calls": "count",
    "objectives.estimate_constants.s": "s",
    "harness.estimate_bound_inputs.s": "s",
    "bounds.validate_dominance.s": "s",
    "bounds.min_bound_gap_ratio": "ratio",
    "trace_overhead_frac": "ratio",
}
