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
from functools import cached_property
from pathlib import Path
from typing import Mapping, NewType, Sequence, get_type_hints

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
from .localsgd import DEFAULT_THETA0_STD, spare_slot
from .objectives import ProbeBall, estimate_constants, estimate_g2
from .objectives import solve_optimum  # noqa: F401  (perfbench/spans.py times it here)
from .precoding import AlphaSchedule, FadingPolicy, alpha_upper_bound_schedule, estimate_alpha_mc
from .rng import stream_generator
from .trainer import (
    CHANNEL_KINDS,
    MAX_WAIT_REDRAWS,
    POWER,
    ROUND_CHUNK,
    StepSchedule,
    TrainerConfig,
    TrialStreams,
    check_ridge_and_gains,
    run_training,
    scheme_spec,
)

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
        if not self.theta0_std >= 0:
            raise ValueError(f"theta0_std must be non-negative, got {self.theta0_std}")
        check_ridge_and_gains(self.ridge_lambda, self.non_precoded_gain)


# An SNR in dB may be any number: sigma_from_snr rejects one that leaves no
# finite positive noise variance, a non-finite one included, and says so.
Decibels = NewType("Decibels", float)


@dataclass(frozen=True)
class ChannelSpec:
    kind: str
    snr_db: Decibels | None = None
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
    partition: PartitionSpec = PartitionSpec()
    alpha: AlphaSpec = AlphaSpec()
    output: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        k = self.channel.participants
        if k is not None and not (1 <= k <= self.users):
            raise ValueError(f"participants must lie in [1, {self.users}]")
        # partition checks a CSV's row count, which is known only once it is read
        n = self.dataset.total_samples if isinstance(self.dataset, SyntheticSpec) else self.users
        if n < self.users:
            raise ValueError(f"cannot split {n} samples between {self.users} users")
        lam = self.trainer.ridge_lambda
        if self.alpha.source == "analytic_bound" and not lam > 0:  # its G^2 estimate needs it
            raise ValueError(
                f"alpha source 'analytic_bound' needs trainer.ridge_lambda > 0, got {lam}"
            )
        self.fading_policy  # built and checked here, before any dataset is

    @cached_property
    def fading_policy(self) -> FadingPolicy | None:
        """The fading rounds' policy, None without fading. K defaults to about
        eligibility * N users, and h_min to the threshold a user clears with
        probability eligibility under Rayleigh fading."""
        channel, k, h_min = self.channel, self.channel.participants, self.channel.h_min
        if channel.kind != "fading_mac":
            return None
        if k is None:
            k = max(1, min(self.users, round(channel.eligibility * self.users)))
        if h_min is None:
            h_min = channel.rayleigh_scale * math.sqrt(2.0 * math.log(1.0 / channel.eligibility))
        policy = FadingPolicy(h_min=h_min, participants=k, rayleigh_scale=channel.rayleigh_scale)
        check_fading_supply(policy, self.users)
        return policy


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


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise _Mistyped("a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond float range
        raise _Mistyped("a finite number") from None


def _real(value) -> float:
    number = _number(value)
    if not math.isfinite(number):  # JSON admits NaN and Infinity
        raise _Mistyped("a finite number")
    return number


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
    Decibels | None: _optional(_number),
    int | None: _optional(_integer),
    str | None: _optional(_string),
    float | str: _shift,  # schedule shift: a number or "auto"
}


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
    channel_doc = _section(_section(doc, "config").get("channel", {}), "channel")
    if "kind" in channel_doc and channel_doc["kind"] != "fading_mac":
        for key in _FADING_ONLY_KEYS:
            if key in channel_doc:
                raise ValueError(
                    f"channel key {key!r} needs kind 'fading_mac', got {channel_doc['kind']!r}"
                )
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
    """Deterministic byproducts of a config: data, the paired schemes'
    TrainerConfig (step schedule, noise variance), fading policy, alpha."""

    config: ExperimentConfig
    dataset: Dataset
    trainer: TrainerConfig
    fading_policy: FadingPolicy | None  # the channel's, whether or not a fading scheme runs
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
    config: ExperimentConfig, dataset: Dataset, schedule: StepSchedule
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
        dataset, config.partition, config.users, stream_generator(config.seed, "alpha/partition")
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

    # analytic_bound: P / (H^2 eta^2 G^2) with G^2 estimated over a probe ball
    # around the partition's theta*, which the dataset's cached sums less the
    # dropped rows give; G^2 takes one pass that forms no Gram
    lam = trainer.ridge_lambda
    theta_star, _ = dataset.kept_optimum(dataset.dropped_rows(rows), lam)
    delta0 = trainer.theta0_std**2 * dataset.feature_dim + float(theta_star @ theta_star)
    ball = ProbeBall(center=theta_star, radius=2.0 * math.sqrt(delta0))
    g2 = estimate_g2(dataset.shards(rows), lam, ball, stream_generator(config.seed, "alpha/probe"))
    return alpha_upper_bound_schedule(trainer.local_steps, schedule.eta, g2, POWER, trainer.rounds)


def resolve(config: ExperimentConfig, schemes: Sequence[str] | None = None) -> ResolvedExperiment:
    """Materialize the deterministic parts of an experiment, with one
    TrainerConfig that holds the paired schemes (default: the config's)."""
    schemes = tuple(schemes) if schemes is not None else (config.trainer.scheme,)
    specs = [scheme_spec(scheme, config.channel.kind) for scheme in schemes]
    repeated = sorted({scheme for scheme in schemes if schemes.count(scheme) > 1})
    if repeated:
        raise ValueError(f"schemes listed more than once: {repeated}")

    trainer = config.trainer
    dataset = build_dataset(config)
    _, full_hessian = dataset.whole_optimum(trainer.ridge_lambda)
    eigs = np.linalg.eigvalsh(full_hessian)
    mu, smoothness = float(eigs[0]), float(eigs[-1])
    schedule = _resolve_schedule(trainer.schedule, mu, smoothness, trainer.local_steps)

    alpha_schedule = None
    if any(spec.needs_alpha for spec in specs):
        alpha_schedule = _resolve_alpha(config, dataset, schedule)

    return ResolvedExperiment(
        config=config,
        dataset=dataset,
        trainer=TrainerConfig(
            schemes=schemes,
            local_steps=trainer.local_steps,
            rounds=trainer.rounds,
            step=schedule,
            ridge_lambda=trainer.ridge_lambda,
            non_precoded_gain=trainer.non_precoded_gain,
            sigma_w2=sigma_from_snr(config.channel.snr_db),
            fading=config.fading_policy if any(spec.fading for spec in specs) else None,
        ),
        fading_policy=config.fading_policy,
        alpha_schedule=alpha_schedule,
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


def initial_distance2(theta0: np.ndarray, theta_star: np.ndarray) -> float:
    """||theta0 - theta*||^2, which the empirical delta0 of
    estimate_bound_inputs averages over the trials."""
    diff = theta0 - theta_star
    return float(diff @ diff)


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The trials' arrays as one (T, ...) array: a read-only broadcast view
    of the one array that they all are, else their stack."""
    first = arrays[0]
    if all(array is first for array in arrays):
        return np.broadcast_to(first, (len(arrays), *first.shape))
    return np.stack(arrays)


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
    resolved: ResolvedExperiment


# Trials train in blocks of at most this many bytes of per-trial state; a
# block's trials advance together, one run_training call per block.
TRIAL_BLOCK_BYTES = 16 << 20


def trial_block(config: ExperimentConfig, features: np.ndarray, n_schemes: int) -> int:
    """How many trials train together in one run_training call: as many as
    TRIAL_BLOCK_BYTES holds, at least one, for n_schemes paired schemes on
    the config's dataset with these (D, d) features.

    A trial holds its shard row ids and those of its users' R*H sample
    steps, then in float64 its schemes' iterates, the kernel's blocks (one
    round's intp row ids, gathered samples and targets, twice over when the
    blocks hold a spare slot, localsgd.spare_slot, and its schemes' models,
    step buffers and residuals), and for a chunk of rounds its schemes' channel noise and
    the gap call's two temporaries.
    """
    trainer, n_users = config.trainer, config.users
    n_rounds, h = trainer.rounds, trainer.local_steps
    n_samples, dim = features.shape
    row_dtype = np.min_scalar_type(n_samples - 1)
    chunk = min(n_rounds, ROUND_CHUNK)
    # a block's gathers offload only if all the trials' would
    slots = 1 + spare_slot((h, config.trials, n_users), features)
    trial_bytes = (
        row_dtype.itemsize * n_users * (n_samples // n_users + n_rounds * h)
        + 8 * dim * (n_schemes * (n_rounds + 2 * n_users + chunk) + slots * h * n_users + 2 * chunk)
        + 8 * n_users * (slots * 2 * h + n_schemes)
    )
    return max(1, TRIAL_BLOCK_BYTES // trial_bytes)


def simulate_trials(
    config: ExperimentConfig, schemes: Sequence[str] | None = None
) -> SimulationResult:
    """Run all trials for the requested schemes with paired streams.

    Each trial's shards are row ids into the shared dataset. Its optimum is
    that of the rows it keeps, from the dataset's cached sums less those of
    the fewer than N rows it drops (Dataset.kept_optimum), so when N divides
    D every trial shares the one read-only (theta*, H) that the dataset
    keeps. The trials then train in blocks of up to TRIAL_BLOCK_BYTES
    (trial_block), one run_training call each.
    """
    resolved = resolve(config, schemes)
    dataset, trainer = resolved.dataset, resolved.trainer
    schemes = trainer.schemes
    n_rounds, n_users, n_trials = trainer.rounds, config.users, config.trials
    lam, dim = trainer.ridge_lambda, dataset.feature_dim

    runs = {
        scheme: SchemeRuns(
            gaps=np.zeros((n_trials, n_rounds)),
            power_per_user=np.zeros((n_trials, n_rounds, n_users)),
            # a fading round's K senders, else all N users
            participants=np.full(
                (n_trials, n_rounds),
                trainer.fading.participants if scheme_spec(scheme).fading else n_users,
                dtype=np.int64,
            ),
            waits=np.zeros((n_trials, n_rounds), dtype=np.int64),
        )
        for scheme in schemes
    }
    row_dtype, shard_size = np.min_scalar_type(len(dataset) - 1), len(dataset) // n_users
    block = trial_block(config, dataset.features, len(schemes))

    for lo in range(0, n_trials, block):
        trials = range(lo, min(lo + block, n_trials))
        rows = np.empty((len(trials), n_users, shard_size), dtype=row_dtype)
        theta0 = np.empty((len(trials), dim))
        trial_optima = []
        for t, trial in enumerate(trials):
            stream = stream_generator(config.seed, f"trial{trial}/partition")
            rows[t] = partition(dataset, config.partition, n_users, stream)
            trial_optima.append(dataset.kept_optimum(dataset.dropped_rows(rows[t]), lam))
            theta0[t] = initial_model_for_trial(config, trial, dim)
        in_block = slice(trials.start, trials.stop)
        traces = run_training(
            dataset,
            rows,
            theta0,
            trainer,
            resolved.alpha_schedule,
            [trial_streams(config, trial, schemes) for trial in trials],
            tuple(_stacked(arrays) for arrays in zip(*trial_optima)),
            out=[(runs[s].gaps[in_block], runs[s].power_per_user[in_block]) for s in schemes],
            first_trial=lo,
        )
        for scheme, trace in zip(schemes, traces):
            runs[scheme].waits[in_block] = trace.waits

    t_grid = trainer.local_steps * np.arange(1, n_rounds + 1)
    return SimulationResult(config=config, schemes=runs, t_grid=t_grid, resolved=resolved)


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


def _stderr(values: np.ndarray) -> np.ndarray:
    """Standard error of the mean along the last axis; 0 with fewer than two values."""
    n = values.shape[-1]
    if n < 2:
        return np.zeros(values.shape[:-1])
    return values.std(axis=-1, ddof=1) / math.sqrt(n)


def tabulate(result: SimulationResult) -> MetricsTable:
    rows = []
    h = result.config.trainer.local_steps
    for scheme, run in result.schemes.items():
        # one round per row: the row reductions give the bits of per-round
        # column reductions, which an axis-0 reduction does not once T > 8
        gaps = np.ascontiguousarray(run.gaps.T)
        columns = zip(
            gaps.mean(axis=1).tolist(),
            _stderr(gaps).tolist(),
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
        se = float(_stderr(diffs))
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
        initial_distance2(initial_model_for_trial(config, k, dim), theta_star)
        for k in range(config.trials)
    ]
    delta0 = max(analytic_delta0, float(np.mean(empirical)))

    ball = ProbeBall(center=theta_star, radius=2.0 * math.sqrt(delta0), count=BOUND_PROBES)
    # each draw is read from its row ids, one shard per worker at a time
    draws = [
        estimate_constants(
            dataset.shards(
                partition(
                    dataset,
                    config.partition,
                    config.users,
                    stream_generator(config.seed, f"bound/partition{i}"),
                )
            ),
            lam,
            ball,
            stream_generator(config.seed, "bound/probe"),
            H=trainer.local_steps,
            P=POWER,
            sigma_w2=resolved.trainer.sigma_w2,
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
        shift = resolved.trainer.step.shift
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
