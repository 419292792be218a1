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
import numbers
import weakref
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .bounds import SCHEDULE_KINDS, BoundInputs, schedule_shift
from .channel import RAYLEIGH_UNIT_POWER_SCALE
from .data import (
    Dataset,
    PartitionSpec,
    generate_synthetic,
    load_csv,
    partition,
    standardize,
)
from .localsgd import DEFAULT_THETA0_STD
from .objectives import ProbeBall, estimate_constants, grams_optimum, shard_grams
from .objectives import solve_optimum  # noqa: F401  (perfbench/spans.py times it here)
from .precoding import AlphaSchedule, FadingPolicy, alpha_upper_bound_schedule, estimate_alpha_mc
from .rng import stream_generator
from .trainer import (
    CHANNEL_KINDS,
    MAX_WAIT_REDRAWS,
    ROUND_CHUNK,
    StepSchedule,
    TrainerConfig,
    TrialStreams,
    run_training,
    scheme_spec,
)

POWER = 1.0
# The bound inputs take the pessimistic constants of this many partition
# draws, each probed at this many points of the ball around theta*.
BOUND_PARTITION_DRAWS = 3
BOUND_PROBES = 32

_ALPHA_SOURCES = ("mc_pilot", "analytic_bound", "file")
_FADING_ONLY_KEYS = ("rayleigh_scale", "participants", "eligibility", "h_min")


def _section(doc, where: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    return doc


def _check_keys(doc, allowed: Sequence[str], where: str) -> None:
    unknown = set(_section(doc, where)) - set(allowed)
    if unknown:
        raise ValueError(f"unknown config keys in {where}: {sorted(unknown)}")


def _require(doc, key: str, where: str):
    if key not in _section(doc, where):
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


DatasetSpec = SyntheticSpec | CsvSpec  # a dataset section's "kind" picks one
_DATASET_SPECS = {"synthetic": SyntheticSpec, "csv": CsvSpec}


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
        sigma_from_snr(self.snr_db)  # rejects an SNR with no usable noise variance
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
    dataset: DatasetSpec
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


def _field_kinds(cls) -> dict:
    """Each field of dataclass cls, in order, mapped to its type."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


class _Mistyped(Exception):
    """A JSON value of the wrong type; the message says what was expected."""


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise _Mistyped("a JSON boolean")
    return value


def _integer(value) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _Mistyped("an integral number")


def _real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _Mistyped("a number")
    return float(value)


def _string(value) -> str:
    if not isinstance(value, str):
        raise _Mistyped("a string")
    return value


def _shift(value) -> float | str:
    return value if value == "auto" else _real(value)


def _optional(convert):
    return lambda value: None if value is None else convert(value)


# How a JSON value becomes a spec field of each type; a value of another
# type is rejected, never converted (a bool is not a number here).
_COERCE = {
    int: _integer,
    float: _real,
    str: _string,
    bool: _boolean,
    float | None: _optional(_real),
    int | None: _optional(_integer),
    str | None: _optional(_string),
    float | str: _shift,  # schedule shift: a number or "auto"
}
# The partition section's keys, and the ExperimentConfig fields they set.
_PARTITION_KEYS = {"mode": "partition_mode", "skew_fraction": "skew_fraction"}
_PARTITION_FIELDS = {name: key for key, name in _PARTITION_KEYS.items()}


def _parse_value(kind, value, path: tuple[str, ...]):
    if kind == DatasetSpec:
        where = ".".join(path)
        dataset_kind = _require(value, "kind", where)
        if dataset_kind not in _DATASET_SPECS:
            kinds = " or ".join(repr(k) for k in _DATASET_SPECS)
            raise ValueError(f"{where} kind must be {kinds}, got {dataset_kind!r}")
        value = {key: v for key, v in value.items() if key != "kind"}
        kind = _DATASET_SPECS[dataset_kind]
    if is_dataclass(kind):
        return _parse_spec(kind, value, path)
    try:
        return _COERCE[kind](value)
    except _Mistyped as exc:
        if path[0] in _PARTITION_FIELDS:  # set from the partition section
            path = ("partition", _PARTITION_FIELDS[path[0]])
        raise ValueError(f"config key {'.'.join(path)} must be {exc}, got {value!r}") from None


def _parse_spec(cls, doc: Mapping, path: tuple[str, ...] = ()):
    """Build spec cls from its JSON section: a key per field, absent keys
    taking the field's default, nested specs parsed as sections."""
    where = ".".join(path) or "config"
    kinds = _field_kinds(cls)
    _check_keys(doc, kinds, where)
    values = {}
    for f in fields(cls):
        if f.name in doc:
            values[f.name] = _parse_value(kinds[f.name], doc[f.name], (*path, f.name))
        elif f.default is MISSING:
            raise ValueError(f"missing config key {f.name!r} in {where}")
    return cls(**values)


def parse_config(doc: Mapping) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON document, rejecting unknown keys."""
    flat = [f.name for f in fields(ExperimentConfig) if f.name not in _PARTITION_KEYS.values()]
    _check_keys(doc, [*flat, "partition"], "config")
    partition_doc = doc.get("partition", {})
    _check_keys(partition_doc, _PARTITION_KEYS, "partition")
    channel_doc = _section(doc.get("channel", {}), "channel")
    if "kind" in channel_doc and channel_doc["kind"] != "fading_mac":
        for key in _FADING_ONLY_KEYS:
            if key in channel_doc:
                raise ValueError(
                    f"channel key {key!r} needs kind 'fading_mac', got {channel_doc['kind']!r}"
                )
    doc = {key: value for key, value in doc.items() if key != "partition"}
    doc.update((_PARTITION_KEYS[key], value) for key, value in partition_doc.items())
    return _parse_spec(ExperimentConfig, doc)


def load_config(path) -> ExperimentConfig:
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_config(json.load(fh))


def sigma_from_snr(snr_db: float | None, power: float = POWER) -> float:
    """Noise variance from a configured SNR; None means a noiseless channel."""
    if snr_db is None:
        return 0.0
    try:
        sigma_w2 = power / 10.0 ** (snr_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # 10**(snr_db/10) beyond float range
        sigma_w2 = math.nan
    if not (math.isfinite(sigma_w2) and sigma_w2 > 0):
        raise ValueError(
            f"snr_db={snr_db} gives no finite positive noise variance P / 10**(snr_db/10)"
        )
    if abs(10.0 * math.log10(power / sigma_w2) - snr_db) > 1e-9:
        raise ValueError(f"SNR bookkeeping failed for snr_db={snr_db}")
    return sigma_w2


def calibrated_h_min(spec: ChannelSpec) -> float:
    """Censoring threshold matching the target eligibility under Rayleigh fading."""
    if spec.h_min is not None:
        return spec.h_min
    return spec.rayleigh_scale * math.sqrt(2.0 * math.log(1.0 / spec.eligibility))


def check_fading_supply(policy: FadingPolicy, n_users: int) -> None:
    """Reject a fading config whose rounds would starve before drawing any.

    One user clears h_min with probability q = exp(-h_min^2 / (2 scale^2))
    under Rayleigh fading, so a draw has at least K eligible users with
    probability p_K = P(Binomial(N, q) >= K), and a round waits for
    1/p_K - 1 redraws on average.
    """
    q = math.exp(-(policy.h_min**2) / (2.0 * policy.rayleigh_scale**2))
    n, k = n_users, policy.participants
    p_k = sum(math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(k, n + 1))
    redraws = 1.0 / p_k - 1.0 if p_k > 0 else math.inf
    if redraws > MAX_WAIT_REDRAWS:
        raise ValueError(
            f"fading rounds would starve: a draw has K={k} of N={n} users above "
            f"h_min={policy.h_min:.4g} with probability p_K={p_k:.3g}, so a round waits for "
            f"{redraws:.3g} redraws on average, more than MAX_WAIT_REDRAWS={MAX_WAIT_REDRAWS}"
        )


# Every dataset built in this process that something still holds, keyed by
# what determines its values: a config resolved again while a result of it is
# alive (estimate_bound_inputs after simulate_trials) reuses its dataset, and
# an entry goes when the last holder drops it.
_DATASETS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _dataset_key(config: ExperimentConfig) -> tuple:
    spec = config.dataset
    if isinstance(spec, SyntheticSpec):
        return (config.seed, spec)
    path = Path(spec.path).resolve()
    stat = path.stat()  # a rewritten file is read again
    return (config.seed, spec, str(path), stat.st_mtime_ns, stat.st_size)


def build_dataset(config: ExperimentConfig) -> Dataset:
    key = _dataset_key(config)
    dataset = _DATASETS.get(key)
    if dataset is not None:
        return dataset
    spec = config.dataset
    if isinstance(spec, SyntheticSpec):
        rng = stream_generator(config.seed, "dataset")
        dataset = generate_synthetic(spec.dim, spec.total_samples, spec.noise_std, rng)
    else:
        dataset = load_csv(spec.path, header=spec.header)
        dataset = standardize(dataset) if spec.standardize else dataset
    _DATASETS[key] = dataset
    return dataset


@dataclass(frozen=True)
class ResolvedExperiment:
    """Deterministic byproducts of a config: data, constants, schedule, alpha."""

    config: ExperimentConfig
    dataset: Dataset
    hessian: np.ndarray  # of the global objective on the full dataset
    mu: float
    smoothness: float
    schedule: StepSchedule
    sigma_w2: float
    fading_policy: FadingPolicy | None
    alpha_schedule: AlphaSchedule | None


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


def _subsample_rows(rows: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """The row ids of a fraction of each user's shard, drawn without replacement."""
    if fraction >= 1.0:
        return rows
    n_users, shard_size = rows.shape
    k = max(1, int(round(fraction * shard_size)))
    picks = np.stack([rng.choice(shard_size, size=k, replace=False) for _ in range(n_users)])
    return np.take_along_axis(rows, picks, axis=1)


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

    rows = partition(
        dataset, config.partition_spec, stream_generator(config.seed, "alpha/partition")
    )
    if alpha.source == "mc_pilot":
        # the pilot steps on the subsample's row ids; no sample is copied
        rows = _subsample_rows(
            rows, alpha.fraction, stream_generator(config.seed, "alpha/subsample")
        )
        return estimate_alpha_mc(
            dataset.shards(rows),
            trainer.ridge_lambda,
            trainer.rounds,
            trainer.local_steps,
            POWER,
            alpha.pilot_trials,
            stream_generator(config.seed, "alpha/run"),
            step_fn=schedule.eta,
            theta0_std=trainer.theta0_std,
        )

    # analytic_bound: P / (H^2 eta^2 G^2) with G^2 estimated over a probe ball;
    # the shard Grams and moments are formed once, for theta* and for the constants
    lam = trainer.ridge_lambda
    pilot_shards = dataset.shards(rows)
    grams = shard_grams(pilot_shards)
    theta_star, _ = grams_optimum(*grams, lam)
    delta0 = trainer.theta0_std**2 * dataset.feature_dim + float(theta_star @ theta_star)
    ball = ProbeBall(center=theta_star, radius=2.0 * math.sqrt(delta0))
    constants = estimate_constants(
        pilot_shards,
        lam,
        ball,
        stream_generator(config.seed, "alpha/probe"),
        H=trainer.local_steps,
        P=POWER,
        sigma_w2=sigma_w2,
        grams=grams,
    )
    return alpha_upper_bound_schedule(
        trainer.local_steps, schedule.eta, constants.G2, POWER, trainer.rounds
    )


def resolve(config: ExperimentConfig, schemes: Sequence[str] | None = None) -> ResolvedExperiment:
    """Materialize the deterministic parts of an experiment."""
    schemes = list(schemes) if schemes is not None else [config.trainer.scheme]
    specs = [scheme_spec(scheme, config.channel.kind) for scheme in schemes]
    repeated = sorted({scheme for scheme in schemes if schemes.count(scheme) > 1})
    if repeated:
        raise ValueError(f"schemes listed more than once: {repeated}")

    dataset = build_dataset(config)
    sigma_w2 = sigma_from_snr(config.channel.snr_db)
    _, full_hessian = dataset.whole_optimum(config.trainer.ridge_lambda)
    eigs = np.linalg.eigvalsh(full_hessian)
    mu, smoothness = float(eigs[0]), float(eigs[-1])
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
        check_fading_supply(fading_policy, config.users)

    alpha_schedule = None
    if any(spec.needs_alpha for spec in specs):
        alpha_schedule = _resolve_alpha(config, dataset, schedule, sigma_w2)

    return ResolvedExperiment(
        config=config,
        dataset=dataset,
        hessian=full_hessian,
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
        power=POWER,
        non_precoded_gain=trainer.non_precoded_gain,
        sigma_w2=resolved.sigma_w2,
        fading=resolved.fading_policy if scheme_spec(scheme).fading else None,
    )


def trial_streams(config: ExperimentConfig, trial: int, schemes: Sequence[str]) -> TrialStreams:
    """Streams of one trial's paired runs: the user streams, which all
    schemes share, and one noise and one fading stream per scheme."""
    seed = config.seed
    return TrialStreams(
        users=tuple(
            stream_generator(seed, f"trial{trial}/user{n}") for n in range(1, config.users + 1)
        ),
        noise=tuple(stream_generator(seed, f"trial{trial}/noise/{scheme}") for scheme in schemes),
        fading=tuple(stream_generator(seed, f"trial{trial}/fading/{scheme}") for scheme in schemes),
    )


def initial_model_for_trial(config: ExperimentConfig, trial: int, dim: int) -> np.ndarray:
    """The initial model all schemes of this trial start from."""
    rng = stream_generator(config.seed, f"trial{trial}/init")
    return rng.normal(0.0, config.trainer.theta0_std, dim)


@dataclass(frozen=True)
class SchemeRuns:
    """Raw per-trial results for one scheme (arrays indexed [trial, round])."""

    gaps: np.ndarray
    power_per_user: np.ndarray  # [trial, round, user]
    participants: np.ndarray
    waits: np.ndarray

    @property
    def power_max(self) -> np.ndarray:
        """The largest user transmit energy of each round."""
        return self.power_per_user.max(axis=-1)


@dataclass(frozen=True)
class SimulationResult:
    config: ExperimentConfig
    schemes: Mapping[str, SchemeRuns]
    t_grid: np.ndarray  # global step count at each round
    theta0_dist2: np.ndarray  # per-trial ||theta0 - theta*||^2
    resolved: ResolvedExperiment


# Trials train in blocks of at most this many bytes of per-trial state; a
# block's trials advance together, one run_training call per block.
TRIAL_BLOCK_BYTES = 16 << 20


def simulate_trials(
    config: ExperimentConfig, schemes: Sequence[str] | None = None
) -> SimulationResult:
    """Run all trials for the requested schemes with paired streams.

    Each trial's shards are row ids into the shared dataset; its optimum is
    solved from one pass over them, one shard gathered at a time. The trials
    then train in blocks of up to TRIAL_BLOCK_BYTES, one run_training call each.
    """
    schemes = list(schemes) if schemes is not None else [config.trainer.scheme]
    resolved = resolve(config, schemes)
    dataset = resolved.dataset
    trainer = config.trainer
    n_rounds, n_users, n_trials = trainer.rounds, config.users, config.trials
    lam, dim = trainer.ridge_lambda, dataset.feature_dim

    runs = {
        scheme: SchemeRuns(
            gaps=np.zeros((n_trials, n_rounds)),
            power_per_user=np.zeros((n_trials, n_rounds, n_users)),
            participants=np.zeros((n_trials, n_rounds), dtype=np.int64),
            waits=np.zeros((n_trials, n_rounds), dtype=np.int64),
        )
        for scheme in schemes
    }
    configs = [_trainer_config(resolved, scheme) for scheme in schemes]
    theta0_dist2 = np.zeros(n_trials)
    # A trial holds its shard row ids and those of its users' R*H sample
    # steps, then in float64 its Hessian, its schemes' iterates, one round's
    # gathered samples and models, and for a chunk of rounds its schemes'
    # channel noise and the gap call's two temporaries.
    row_dtype = np.min_scalar_type(len(dataset) - 1)
    shard_size, h = len(dataset) // n_users, trainer.local_steps
    chunk = min(n_rounds, ROUND_CHUNK)
    trial_bytes = row_dtype.itemsize * n_users * (shard_size + n_rounds * h) + 8 * dim * (
        dim + len(schemes) * (n_rounds + n_users + chunk) + h * n_users + 2 * chunk
    )
    block = max(1, TRIAL_BLOCK_BYTES // trial_bytes)

    for lo in range(0, n_trials, block):
        trials = range(lo, min(lo + block, n_trials))
        rows = np.empty((len(trials), n_users, shard_size), dtype=row_dtype)
        theta0 = np.empty((len(trials), dim))
        theta_stars = np.empty((len(trials), dim))
        hessians = np.empty((len(trials), dim, dim))
        for t, trial in enumerate(trials):
            stream = stream_generator(config.seed, f"trial{trial}/partition")
            rows[t] = partition(dataset, config.partition_spec, stream)
            theta_stars[t], hessians[t] = grams_optimum(*shard_grams(dataset.shards(rows[t])), lam)
            theta0[t] = initial_model_for_trial(config, trial, dim)
            diff = theta0[t] - theta_stars[t]
            theta0_dist2[trial] = diff @ diff
        in_block = slice(trials.start, trials.stop)
        traces = run_training(
            dataset,
            rows,
            theta0,
            configs,
            resolved.alpha_schedule,
            [trial_streams(config, trial, schemes) for trial in trials],
            (theta_stars, hessians),
            out=[(runs[s].gaps[in_block], runs[s].power_per_user[in_block]) for s in schemes],
            first_trial=lo,
        )
        for scheme, trace in zip(schemes, traces):
            participants = n_users if trace.participants is None else trace.participants.shape[-1]
            runs[scheme].participants[in_block] = participants
            runs[scheme].waits[in_block] = trace.waits

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


def _stderr(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.shape[0]))


def tabulate(result: SimulationResult) -> MetricsTable:
    rows = []
    h = result.config.trainer.local_steps
    for scheme, run in result.schemes.items():
        # one round per row: the row reductions give the bits of per-round
        # column reductions, which an axis-0 reduction does not once T > 8
        gaps = np.ascontiguousarray(run.gaps.T)
        n_trials = gaps.shape[1]
        if n_trials < 2:
            stderrs = np.zeros(gaps.shape[0])
        else:
            stderrs = gaps.std(axis=1, ddof=1) / math.sqrt(n_trials)
        columns = zip(
            gaps.mean(axis=1).tolist(),
            stderrs.tolist(),
            np.ascontiguousarray(run.power_max.T).mean(axis=1).tolist(),
            np.ascontiguousarray(run.participants.T).mean(axis=1).tolist(),
            np.ascontiguousarray(run.waits.T).mean(axis=1).tolist(),
        )
        for i, (mean_gap, stderr, mean_power, participants, waits) in enumerate(columns):
            rows.append(
                MetricsRow(
                    scheme=scheme,
                    round=i + 1,
                    t=(i + 1) * h,
                    mean_gap=mean_gap,
                    stderr=stderr,
                    mean_power=mean_power,
                    participants_mean=participants,
                    wait_count=waits,
                )
            )
    return MetricsTable(rows=tuple(rows))


def run_experiment(
    config: ExperimentConfig, schemes: Sequence[str] | None = None
) -> MetricsTable:
    """Monte Carlo experiment: mean and standard error of the gap per round."""
    return tabulate(simulate_trials(config, schemes))


def export_table(table: MetricsTable, path, fmt: str | None = None) -> None:
    """Write a metrics table as CSV or JSON, losslessly for 64-bit floats:
    one column or key per MetricsRow field."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt == "csv":
        kinds = _field_kinds(MetricsRow)
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(kinds)
            for row in table.rows:
                writer.writerow(
                    f"{getattr(row, name):.17g}" if kind is float else getattr(row, name)
                    for name, kind in kinds.items()
                )
    elif fmt == "json":
        payload = {"rows": [asdict(row) for row in table.rows]}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def load_table(path, fmt: str | None = None) -> MetricsTable:
    """Re-import a table written by export_table; reproduces it exactly."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt == "csv":
        kinds = _field_kinds(MetricsRow)
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or reader.fieldnames != list(kinds):
                raise ValueError(f"{path}: unexpected CSV columns {reader.fieldnames}")
            rows = [
                MetricsRow(**{name: kind(rec[name]) for name, kind in kinds.items()})
                for rec in reader
            ]
    elif fmt == "json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        rows = [MetricsRow(**rec) for rec in payload["rows"]]
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


def estimate_bound_inputs(config: ExperimentConfig, *, kind: str = "final_model") -> BoundInputs:
    """Assemble conservative bound inputs for this experiment.

    Constants are estimated on several partition draws and combined
    pessimistically (max G2/Mn2/Gamma); delta0 is the larger of the analytic
    expectation theta0_std^2*d + ||theta*||^2 and the empirical trial mean.
    """
    # resolve without the alpha pilot: bound evaluation never consumes alpha
    resolved = resolve(config, ["noise_free_local_sgd"])
    dataset, trainer = resolved.dataset, config.trainer
    lam = trainer.ridge_lambda

    theta_star, _ = dataset.whole_optimum(lam)
    dim = dataset.feature_dim
    analytic_delta0 = trainer.theta0_std**2 * dim + float(theta_star @ theta_star)
    empirical = [
        float(np.sum((initial_model_for_trial(config, k, dim) - theta_star) ** 2))
        for k in range(config.trials)
    ]
    delta0 = max(analytic_delta0, float(np.mean(empirical)))

    ball = ProbeBall(center=theta_star, radius=2.0 * math.sqrt(delta0), count=BOUND_PROBES)
    # each draw is read one shard at a time from its row ids
    draws = [
        estimate_constants(
            dataset.shards(
                partition(
                    dataset,
                    config.partition_spec,
                    stream_generator(config.seed, f"bound/partition{i}"),
                )
            ),
            lam,
            ball,
            stream_generator(config.seed, "bound/probe"),
            H=trainer.local_steps,
            P=POWER,
            sigma_w2=resolved.sigma_w2,
        )
        for i in range(BOUND_PARTITION_DRAWS)
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
