"""Experiment orchestration: Monte Carlo trials, aggregation, persistence.

One JSON config describes an experiment end to end (dataset, partition,
trainer, channel, precoding source). Trials are paired across schemes: every
scheme in a comparison sees identical data partitions, initial models, and
SGD sample draws per trial; only the channel noise / fading streams differ
by scheme. (config, seed) determines every result bit-exactly.

The transmit power budget is normalized to P = 1 and the noise variance is
derived from the configured SNR, since only the ratio P/sigma_w2 enters any
formula.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .bounds import SCHEDULE_KINDS, BoundInputs, schedule_shift
from .channel import RAYLEIGH_UNIT_POWER_SCALE
from .data import Dataset, PartitionSpec, generate_synthetic, load_csv, partition, standardize
from .localsgd import DEFAULT_THETA0_STD
from .objectives import ProbeBall, estimate_constants, hessian, solve_optimum
from .precoding import AlphaSchedule, FadingPolicy, alpha_upper_bound_schedule, estimate_alpha_mc
from .rng import stream_generator
from .trainer import (
    CHANNEL_KINDS,
    StepSchedule,
    TrainerConfig,
    TrialStreams,
    run_training,
    scheme_spec,
)
from .types import ShardBlock, UserShard

POWER = 1.0

_ALPHA_SOURCES = ("mc_pilot", "analytic_bound", "file")
_FADING_ONLY_KEYS = ("rayleigh_scale", "participants", "eligibility", "h_min")


def _check_keys(doc: Mapping, allowed: Sequence[str], where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown config keys in {where}: {sorted(unknown)}")


def _require(doc: Mapping, key: str, where: str):
    if key not in doc:
        raise ValueError(f"missing config key {key!r} in {where}")
    return doc[key]


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int
    total_samples: int
    noise_std: float = 1.0


@dataclass(frozen=True)
class CsvSpec:
    path: str
    header: bool = False
    standardize: bool = True


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "final_model"
    shift: float | str = "auto"  # numeric, or "auto" for the smallest valid shift

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"schedule kind must be one of {SCHEDULE_KINDS}")
        if isinstance(self.shift, str) and self.shift != "auto":
            raise ValueError("schedule shift must be a number or 'auto'")


@dataclass(frozen=True)
class TrainerSpec:
    scheme: str
    local_steps: int
    rounds: int
    schedule: ScheduleSpec = ScheduleSpec()
    theta0_std: float = DEFAULT_THETA0_STD
    ridge_lambda: float = 0.5
    non_precoded_gain: float | None = None

    def __post_init__(self):
        scheme_spec(self.scheme)
        if self.local_steps < 1 or self.rounds < 1:
            raise ValueError("local_steps and rounds must be >= 1")


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    snr_db: float | None = None
    rayleigh_scale: float = RAYLEIGH_UNIT_POWER_SCALE
    participants: int | None = None  # K (fading only; default ~ eligibility * N)
    eligibility: float = 0.8  # target P(h > h_min) used to calibrate h_min
    h_min: float | None = None  # explicit censoring threshold, overrides eligibility

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ValueError(f"channel kind must be one of {CHANNEL_KINDS}")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        if not (0.0 < self.eligibility < 1.0):
            raise ValueError("eligibility must lie in (0, 1)")


@dataclass(frozen=True)
class AlphaSpec:
    source: str = "mc_pilot"
    fraction: float = 0.2  # share of each shard used by the pilot
    pilot_trials: int = 10
    path: str | None = None  # source == "file"

    def __post_init__(self):
        if self.source not in _ALPHA_SOURCES:
            raise ValueError(f"alpha source must be one of {_ALPHA_SOURCES}")
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError("alpha fraction must lie in (0, 1]")
        if self.pilot_trials < 1:
            raise ValueError("pilot_trials must be >= 1")
        if self.source == "file" and not self.path:
            raise ValueError("alpha source 'file' needs a path")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    trials: int
    users: int
    dataset: SyntheticSpec | CsvSpec
    trainer: TrainerSpec
    channel: ChannelSpec
    partition_mode: str = "iid"
    skew_fraction: float = 0.2
    alpha: AlphaSpec = AlphaSpec()
    output: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.users < 1:
            raise ValueError("users must be >= 1")

    @property
    def partition_spec(self) -> PartitionSpec:
        return PartitionSpec(self.partition_mode, self.users, self.skew_fraction)


def parse_config(doc: Mapping) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON document, rejecting unknown keys."""
    _check_keys(
        doc,
        ["seed", "trials", "users", "dataset", "partition", "trainer", "channel", "alpha", "output"],
        "config",
    )
    dataset_doc = dict(_require(doc, "dataset", "config"))
    kind = _require(dataset_doc, "kind", "dataset")
    if kind == "synthetic":
        _check_keys(dataset_doc, ["kind", "dim", "total_samples", "noise_std"], "dataset")
        dataset: SyntheticSpec | CsvSpec = SyntheticSpec(
            dim=int(_require(dataset_doc, "dim", "dataset")),
            total_samples=int(_require(dataset_doc, "total_samples", "dataset")),
            noise_std=float(dataset_doc.get("noise_std", 1.0)),
        )
    elif kind == "csv":
        _check_keys(dataset_doc, ["kind", "path", "header", "standardize"], "dataset")
        dataset = CsvSpec(
            path=str(_require(dataset_doc, "path", "dataset")),
            header=bool(dataset_doc.get("header", False)),
            standardize=bool(dataset_doc.get("standardize", True)),
        )
    else:
        raise ValueError(f"dataset kind must be 'synthetic' or 'csv', got {kind!r}")

    partition_doc = dict(doc.get("partition", {}))
    _check_keys(partition_doc, ["mode", "skew_fraction"], "partition")

    trainer_doc = dict(_require(doc, "trainer", "config"))
    _check_keys(
        trainer_doc,
        ["scheme", "local_steps", "rounds", "schedule", "theta0_std", "ridge_lambda", "non_precoded_gain"],
        "trainer",
    )
    schedule_doc = dict(trainer_doc.get("schedule", {}))
    _check_keys(schedule_doc, ["kind", "shift"], "trainer.schedule")
    shift = schedule_doc.get("shift", "auto")
    trainer = TrainerSpec(
        scheme=str(_require(trainer_doc, "scheme", "trainer")),
        local_steps=int(_require(trainer_doc, "local_steps", "trainer")),
        rounds=int(_require(trainer_doc, "rounds", "trainer")),
        schedule=ScheduleSpec(
            kind=str(schedule_doc.get("kind", "final_model")),
            shift=shift if shift == "auto" else float(shift),
        ),
        theta0_std=float(trainer_doc.get("theta0_std", DEFAULT_THETA0_STD)),
        ridge_lambda=float(trainer_doc.get("ridge_lambda", 0.5)),
        non_precoded_gain=(
            None
            if trainer_doc.get("non_precoded_gain") is None
            else float(trainer_doc["non_precoded_gain"])
        ),
    )

    channel_doc = dict(_require(doc, "channel", "config"))
    _check_keys(channel_doc, ["kind", "snr_db", *_FADING_ONLY_KEYS], "channel")
    channel_kind = str(_require(channel_doc, "kind", "channel"))
    for key in _FADING_ONLY_KEYS:
        if key in channel_doc and channel_kind != "fading_mac":
            raise ValueError(f"channel key {key!r} needs kind 'fading_mac', got {channel_kind!r}")
    channel = ChannelSpec(
        kind=channel_kind,
        snr_db=None if channel_doc.get("snr_db") is None else float(channel_doc["snr_db"]),
        rayleigh_scale=float(channel_doc.get("rayleigh_scale", RAYLEIGH_UNIT_POWER_SCALE)),
        participants=(
            None if channel_doc.get("participants") is None else int(channel_doc["participants"])
        ),
        eligibility=float(channel_doc.get("eligibility", 0.8)),
        h_min=None if channel_doc.get("h_min") is None else float(channel_doc["h_min"]),
    )

    alpha_doc = dict(doc.get("alpha", {}))
    _check_keys(alpha_doc, ["source", "fraction", "pilot_trials", "path"], "alpha")
    alpha = AlphaSpec(
        source=str(alpha_doc.get("source", "mc_pilot")),
        fraction=float(alpha_doc.get("fraction", 0.2)),
        pilot_trials=int(alpha_doc.get("pilot_trials", 10)),
        path=alpha_doc.get("path"),
    )

    return ExperimentConfig(
        seed=int(_require(doc, "seed", "config")),
        trials=int(_require(doc, "trials", "config")),
        users=int(_require(doc, "users", "config")),
        dataset=dataset,
        trainer=trainer,
        channel=channel,
        partition_mode=str(partition_doc.get("mode", "iid")),
        skew_fraction=float(partition_doc.get("skew_fraction", 0.2)),
        alpha=alpha,
        output=doc.get("output"),
    )


def load_config(path) -> ExperimentConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def sigma_from_snr(snr_db: float | None, power: float = POWER) -> float:
    """Noise variance from a configured SNR; None means a noiseless channel."""
    if snr_db is None:
        return 0.0
    sigma_w2 = power / 10.0 ** (snr_db / 10.0)
    if abs(10.0 * math.log10(power / sigma_w2) - snr_db) > 1e-9:
        raise ValueError(f"SNR bookkeeping failed for snr_db={snr_db}")
    return sigma_w2


def calibrated_h_min(spec: ChannelSpec) -> float:
    """Censoring threshold matching the target eligibility under Rayleigh fading."""
    if spec.h_min is not None:
        return spec.h_min
    return spec.rayleigh_scale * math.sqrt(2.0 * math.log(1.0 / spec.eligibility))


def build_dataset(config: ExperimentConfig) -> Dataset:
    if isinstance(config.dataset, SyntheticSpec):
        rng = stream_generator(config.seed, "dataset")
        return generate_synthetic(
            config.dataset.dim, config.dataset.total_samples, config.dataset.noise_std, rng
        )
    dataset = load_csv(config.dataset.path, header=config.dataset.header)
    return standardize(dataset) if config.dataset.standardize else dataset


@dataclass(frozen=True)
class ResolvedExperiment:
    """Deterministic byproducts of a config: data, constants, schedule, alpha."""

    config: ExperimentConfig
    dataset: Dataset
    mu: float
    smoothness: float
    schedule: StepSchedule
    sigma_w2: float
    fading_policy: FadingPolicy | None
    alpha_schedule: AlphaSchedule | None


def _full_dataset_shard(dataset: Dataset) -> UserShard:
    return UserShard(user_id=1, features=dataset.features, targets=dataset.targets)


def _curvature(dataset: Dataset, lam: float) -> tuple[float, float]:
    eigs = np.linalg.eigvalsh(hessian([_full_dataset_shard(dataset)], lam))
    return float(eigs[0]), float(eigs[-1])


def _resolve_schedule(
    spec: ScheduleSpec, mu: float, smoothness: float, local_steps: int
) -> StepSchedule:
    if spec.shift == "auto":
        _, shift = schedule_shift(spec.kind, smoothness / mu, local_steps)
    else:
        shift = float(spec.shift)
    schedule = StepSchedule(kind=spec.kind, shift=shift, mu=mu)
    schedule.validate_against(smoothness, local_steps)
    return schedule


def _subsample_shards(
    shards: ShardBlock, fraction: float, rng: np.random.Generator
) -> ShardBlock:
    if fraction >= 1.0:
        return shards
    n_users, shard_size, _ = shards.features.shape
    k = max(1, int(round(fraction * shard_size)))
    picks = np.stack([rng.choice(shard_size, size=k, replace=False) for _ in range(n_users)])
    users = np.arange(n_users)[:, None]
    return ShardBlock(shards.features[users, picks], shards.targets[users, picks])


def _resolve_alpha(
    config: ExperimentConfig, dataset: Dataset, schedule: StepSchedule, sigma_w2: float
) -> AlphaSchedule:
    trainer, alpha = config.trainer, config.alpha
    if alpha.source == "file":
        loaded = AlphaSchedule.load(alpha.path)
        if loaded.rounds < trainer.rounds:
            raise ValueError(
                f"alpha file covers {loaded.rounds} rounds, need {trainer.rounds}"
            )
        return loaded

    pilot_shards = partition(
        dataset, config.partition_spec, stream_generator(config.seed, "alpha/partition")
    )
    if alpha.source == "mc_pilot":
        pilot_shards = _subsample_shards(
            pilot_shards, alpha.fraction, stream_generator(config.seed, "alpha/subsample")
        )
        return estimate_alpha_mc(
            pilot_shards,
            trainer.ridge_lambda,
            trainer.rounds,
            trainer.local_steps,
            POWER,
            alpha.pilot_trials,
            stream_generator(config.seed, "alpha/run"),
            step_fn=schedule.eta,
            theta0_std=trainer.theta0_std,
        )

    # analytic_bound: P / (H^2 eta^2 G^2) with G^2 estimated over a probe ball
    theta_star, _ = solve_optimum(pilot_shards, trainer.ridge_lambda)
    dim = dataset.feature_dim
    delta0 = trainer.theta0_std**2 * dim + float(theta_star @ theta_star)
    ball = ProbeBall(center=theta_star, radius=2.0 * math.sqrt(delta0))
    constants = estimate_constants(
        pilot_shards,
        trainer.ridge_lambda,
        ball,
        stream_generator(config.seed, "alpha/probe"),
        H=trainer.local_steps,
        P=POWER,
        sigma_w2=sigma_w2,
    )
    return alpha_upper_bound_schedule(
        trainer.local_steps, schedule.eta, constants.G2, POWER, trainer.rounds
    )


def resolve(config: ExperimentConfig, schemes: Sequence[str] | None = None) -> ResolvedExperiment:
    """Materialize the deterministic parts of an experiment."""
    schemes = list(schemes) if schemes is not None else [config.trainer.scheme]
    specs = [scheme_spec(scheme, config.channel.kind) for scheme in schemes]

    dataset = build_dataset(config)
    sigma_w2 = sigma_from_snr(config.channel.snr_db)
    mu, smoothness = _curvature(dataset, config.trainer.ridge_lambda)
    schedule = _resolve_schedule(
        config.trainer.schedule, mu, smoothness, config.trainer.local_steps
    )

    fading_policy = None
    if config.channel.kind == "fading_mac":
        k = config.channel.participants
        if k is None:
            k = max(1, min(config.users, round(config.channel.eligibility * config.users)))
        if not (1 <= k <= config.users):
            raise ValueError(f"participants must lie in [1, {config.users}]")
        fading_policy = FadingPolicy(
            h_min=calibrated_h_min(config.channel),
            participants=k,
            rayleigh_scale=config.channel.rayleigh_scale,
        )

    alpha_schedule = None
    if any(spec.needs_alpha for spec in specs):
        alpha_schedule = _resolve_alpha(config, dataset, schedule, sigma_w2)

    return ResolvedExperiment(
        config=config,
        dataset=dataset,
        mu=mu,
        smoothness=smoothness,
        schedule=schedule,
        sigma_w2=sigma_w2,
        fading_policy=fading_policy,
        alpha_schedule=alpha_schedule,
    )


def _trainer_config(resolved: ResolvedExperiment, scheme: str) -> TrainerConfig:
    trainer = resolved.config.trainer
    return TrainerConfig(
        scheme=scheme,
        local_steps=trainer.local_steps,
        rounds=trainer.rounds,
        step=resolved.schedule,
        ridge_lambda=trainer.ridge_lambda,
        theta0_std=trainer.theta0_std,
        power=POWER,
        non_precoded_gain=trainer.non_precoded_gain,
        sigma_w2=resolved.sigma_w2,
        fading=resolved.fading_policy if scheme_spec(scheme).fading else None,
    )


def trial_streams(config: ExperimentConfig, trial: int, scheme: str) -> TrialStreams:
    """Streams for one (trial, scheme) run; init/user streams are scheme-independent."""
    seed = config.seed
    return TrialStreams(
        init=stream_generator(seed, f"trial{trial}/init"),
        users=tuple(
            stream_generator(seed, f"trial{trial}/user{n}") for n in range(1, config.users + 1)
        ),
        noise=stream_generator(seed, f"trial{trial}/noise/{scheme}"),
        fading=stream_generator(seed, f"trial{trial}/fading/{scheme}"),
    )


def initial_model_for_trial(config: ExperimentConfig, trial: int, dim: int) -> np.ndarray:
    """The initial model run_training draws for this trial (any scheme)."""
    rng = stream_generator(config.seed, f"trial{trial}/init")
    return rng.normal(0.0, config.trainer.theta0_std, dim)


@dataclass(frozen=True)
class SchemeRuns:
    """Raw per-trial results for one scheme (arrays indexed [trial, round])."""

    gaps: np.ndarray
    power_max: np.ndarray
    power_per_user: np.ndarray  # [trial, round, user]
    participants: np.ndarray
    waits: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    config: ExperimentConfig
    schemes: Mapping[str, SchemeRuns]
    t_grid: np.ndarray  # global step count at each round
    theta0_dist2: np.ndarray  # per-trial ||theta0 - theta*||^2
    resolved: ResolvedExperiment


def simulate_trials(
    config: ExperimentConfig, schemes: Sequence[str] | None = None
) -> SimulationResult:
    """Run all trials for the requested schemes with paired streams."""
    schemes = list(schemes) if schemes is not None else [config.trainer.scheme]
    resolved = resolve(config, schemes)
    dataset = resolved.dataset
    trainer = config.trainer
    n_rounds, n_users, n_trials = trainer.rounds, config.users, config.trials

    runs = {
        scheme: SchemeRuns(
            gaps=np.zeros((n_trials, n_rounds)),
            power_max=np.zeros((n_trials, n_rounds)),
            power_per_user=np.zeros((n_trials, n_rounds, n_users)),
            participants=np.zeros((n_trials, n_rounds), dtype=np.int64),
            waits=np.zeros((n_trials, n_rounds), dtype=np.int64),
        )
        for scheme in schemes
    }
    theta0_dist2 = np.zeros(n_trials)

    for trial in range(n_trials):
        shards = partition(
            dataset,
            config.partition_spec,
            stream_generator(config.seed, f"trial{trial}/partition"),
        )
        hess = hessian(shards, trainer.ridge_lambda)
        theta_star, _ = solve_optimum(shards, trainer.ridge_lambda, hess)
        theta0 = initial_model_for_trial(config, trial, dataset.feature_dim)
        diff = theta0 - theta_star
        theta0_dist2[trial] = diff @ diff

        for scheme in schemes:
            try:
                traces = run_training(
                    shards,
                    _trainer_config(resolved, scheme),
                    resolved.alpha_schedule,
                    trial_streams(config, trial, scheme),
                    (theta_star, hess),
                )
            except Exception as exc:
                raise RuntimeError(f"trial {trial}, scheme {scheme}: {exc}") from exc
            run = runs[scheme]
            for i, trace in enumerate(traces):
                run.gaps[trial, i] = trace.gap
                run.power_max[trial, i] = trace.tx_power_max
                run.power_per_user[trial, i] = trace.tx_power_per_user
                run.participants[trial, i] = (
                    len(trace.participants) if trace.participants is not None else n_users
                )
                run.waits[trial, i] = trace.wait_count

    t_grid = trainer.local_steps * np.arange(1, n_rounds + 1)
    return SimulationResult(
        config=config, schemes=runs, t_grid=t_grid, theta0_dist2=theta0_dist2, resolved=resolved
    )


@dataclass(frozen=True)
class MetricsRow:
    scheme: str
    round: int
    t: int
    mean_gap: float
    stderr: float
    mean_power: float
    participants_mean: float
    wait_count: float


@dataclass(frozen=True)
class MetricsTable:
    rows: tuple[MetricsRow, ...] = field(default_factory=tuple)

    def for_scheme(self, scheme: str) -> list[MetricsRow]:
        return sorted((r for r in self.rows if r.scheme == scheme), key=lambda r: r.round)

    def mean_gaps(self, scheme: str) -> np.ndarray:
        return np.asarray([r.mean_gap for r in self.for_scheme(scheme)])


def _stderr(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.shape[0]))


def tabulate(result: SimulationResult) -> MetricsTable:
    rows = []
    h = result.config.trainer.local_steps
    for scheme, run in result.schemes.items():
        for i in range(run.gaps.shape[1]):
            rows.append(
                MetricsRow(
                    scheme=scheme,
                    round=i + 1,
                    t=(i + 1) * h,
                    mean_gap=float(run.gaps[:, i].mean()),
                    stderr=_stderr(run.gaps[:, i]),
                    mean_power=float(run.power_max[:, i].mean()),
                    participants_mean=float(run.participants[:, i].mean()),
                    wait_count=float(run.waits[:, i].mean()),
                )
            )
    return MetricsTable(rows=tuple(rows))


def run_experiment(
    config: ExperimentConfig, schemes: Sequence[str] | None = None
) -> MetricsTable:
    """Monte Carlo experiment: mean and standard error of the gap per round."""
    return tabulate(simulate_trials(config, schemes))


_CSV_COLUMNS = (
    "scheme",
    "round",
    "t",
    "mean_gap",
    "stderr",
    "mean_power",
    "participants_mean",
    "wait_count",
)


def _row_record(row: MetricsRow) -> dict:
    return {
        "scheme": row.scheme,
        "round": row.round,
        "t": row.t,
        "mean_gap": row.mean_gap,
        "stderr": row.stderr,
        "mean_power": row.mean_power,
        "participants_mean": row.participants_mean,
        "wait_count": row.wait_count,
    }


def export_table(table: MetricsTable, path, fmt: str | None = None) -> None:
    """Write a metrics table as CSV or JSON, losslessly for 64-bit floats."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt == "csv":
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for row in table.rows:
                writer.writerow(
                    [
                        row.scheme,
                        row.round,
                        row.t,
                        f"{row.mean_gap:.17g}",
                        f"{row.stderr:.17g}",
                        f"{row.mean_power:.17g}",
                        f"{row.participants_mean:.17g}",
                        f"{row.wait_count:.17g}",
                    ]
                )
    elif fmt == "json":
        payload = {"rows": [_row_record(row) for row in table.rows]}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def load_table(path, fmt: str | None = None) -> MetricsTable:
    """Re-import a table written by export_table; reproduces it exactly."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    rows = []
    if fmt == "csv":
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != _CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected CSV columns {reader.fieldnames}")
            for rec in reader:
                rows.append(
                    MetricsRow(
                        scheme=rec["scheme"],
                        round=int(rec["round"]),
                        t=int(rec["t"]),
                        mean_gap=float(rec["mean_gap"]),
                        stderr=float(rec["stderr"]),
                        mean_power=float(rec["mean_power"]),
                        participants_mean=float(rec["participants_mean"]),
                        wait_count=float(rec["wait_count"]),
                    )
                )
    elif fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        for rec in payload["rows"]:
            rows.append(MetricsRow(**rec))
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    return MetricsTable(rows=tuple(rows))


@dataclass(frozen=True)
class PairedComparison:
    first: str
    second: str
    mean_diff: float  # final gap of `second` minus final gap of `first`
    se_diff: float
    z: float


@dataclass(frozen=True)
class ComparisonReport:
    """Final-round scheme comparison with per-seed pairing and plateau flags."""

    schemes: tuple[str, ...]
    final_mean_gaps: Mapping[str, float]
    pairs: tuple[PairedComparison, ...]
    plateau_ratios: Mapping[str, float]  # mean_gap(R) / mean_gap(R//2)
    error_floor: Mapping[str, bool]  # ratio >= 0.5 flags an error floor

    def ordering_ok(self) -> bool:
        """Schemes were listed best to worst: every paired mean diff must be >= 0."""
        return all(pair.mean_diff >= 0 for pair in self.pairs)

    def to_dict(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "final_mean_gaps": dict(self.final_mean_gaps),
            "pairs": [asdict(p) for p in self.pairs],
            "plateau_ratios": dict(self.plateau_ratios),
            "error_floor": dict(self.error_floor),
            "ordering_ok": self.ordering_ok(),
        }


def analyze_comparison(
    result: SimulationResult, schemes: Sequence[str]
) -> ComparisonReport:
    """Ordering/plateau analysis of an already-simulated multi-scheme result."""
    schemes = list(schemes)
    if len(schemes) < 2:
        raise ValueError("need at least two schemes to compare")
    final = {s: result.schemes[s].gaps[:, -1] for s in schemes}
    pairs = []
    for first, second in zip(schemes, schemes[1:]):
        diffs = final[second] - final[first]
        se = _stderr(diffs)
        mean = float(diffs.mean())
        z = mean / se if se > 0 else math.inf if mean > 0 else (-math.inf if mean < 0 else 0.0)
        pairs.append(PairedComparison(first=first, second=second, mean_diff=mean, se_diff=se, z=z))

    plateau, floor = {}, {}
    n_rounds = result.t_grid.shape[0]
    for s in schemes:
        gaps = result.schemes[s].gaps.mean(axis=0)
        if n_rounds >= 2 and gaps[n_rounds // 2 - 1] > 0:
            ratio = float(gaps[-1] / gaps[n_rounds // 2 - 1])
        else:
            ratio = math.nan
        plateau[s] = ratio
        floor[s] = bool(ratio >= 0.5) if math.isfinite(ratio) else False

    return ComparisonReport(
        schemes=tuple(schemes),
        final_mean_gaps={s: float(final[s].mean()) for s in schemes},
        pairs=tuple(pairs),
        plateau_ratios=plateau,
        error_floor=floor,
    )


def compare_schemes(config: ExperimentConfig, schemes: Sequence[str]) -> ComparisonReport:
    """Run all schemes with paired seeds and report final-round ordering."""
    return analyze_comparison(simulate_trials(config, schemes), schemes)


def estimate_bound_inputs(
    config: ExperimentConfig,
    *,
    kind: str = "final_model",
    partition_samples: int = 3,
    probe_count: int = 32,
) -> BoundInputs:
    """Assemble conservative bound inputs for this experiment.

    Constants are estimated on several partition draws and combined
    pessimistically (max G2/Mn2/Gamma); delta0 is the larger of the analytic
    expectation theta0_std^2*d + ||theta*||^2 and the empirical trial mean.
    """
    if partition_samples < 1:
        raise ValueError("partition_samples must be >= 1")
    # resolve without the alpha pilot: bound evaluation never consumes alpha
    resolved = resolve(config, ["noise_free_local_sgd"])
    dataset, trainer = resolved.dataset, config.trainer
    lam = trainer.ridge_lambda

    theta_star, _ = solve_optimum([_full_dataset_shard(dataset)], lam)
    dim = dataset.feature_dim
    analytic_delta0 = trainer.theta0_std**2 * dim + float(theta_star @ theta_star)
    empirical = [
        float(np.sum((initial_model_for_trial(config, k, dim) - theta_star) ** 2))
        for k in range(config.trials)
    ]
    delta0 = max(analytic_delta0, float(np.mean(empirical)))

    ball = ProbeBall(center=theta_star, radius=2.0 * math.sqrt(delta0), count=probe_count)
    # partition() is an argument, so each draw's shard block is freed before
    # the next one is gathered
    draws = [
        estimate_constants(
            partition(
                dataset,
                config.partition_spec,
                stream_generator(config.seed, f"bound/partition{i}"),
            ),
            lam,
            ball,
            stream_generator(config.seed, "bound/probe"),
            H=trainer.local_steps,
            P=POWER,
            sigma_w2=resolved.sigma_w2,
        )
        for i in range(partition_samples)
    ]
    merged = replace(
        draws[0],
        L=max(c.L for c in draws),
        mu=min(c.mu for c in draws),
        G2=max(c.G2 for c in draws),
        Mn2=np.max([c.Mn2 for c in draws], axis=0),
        Gamma=max(c.Gamma for c in draws),
    )

    if config.trainer.schedule.kind == kind:
        # evaluate the bound at the schedule the training actually uses
        shift = resolved.schedule.shift
    else:
        _, shift = schedule_shift(kind, merged.L / merged.mu, trainer.local_steps)
    policy = resolved.fading_policy
    return BoundInputs(
        constants=merged,
        delta0=delta0,
        shift=shift,
        total_steps=trainer.rounds * trainer.local_steps,
        participants=policy.participants if policy else None,
        h_min=policy.h_min if policy else None,
    )
