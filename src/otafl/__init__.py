"""Federated learning over shared wireless multiple-access channels.

Local SGD with over-the-air aggregation: users transmit model updates as
analog signals that superimpose on the uplink, and the COTAF scheme's
time-varying precoding plus server-side scaling keeps the channel noise from
stalling convergence. The package ships the protocol and its fading
extension, baseline schemes, closed-form convergence-bound calculators, and
a reproducible Monte Carlo experiment harness on ridge-regression objectives.

Model vectors are plain 1-D float64 numpy arrays.
"""

from .bounds import (
    BoundInputs,
    DominanceReport,
    base_error_constant,
    bound_final_model,
    bound_final_model_fading,
    bound_weighted_average,
    channel_error_constant,
    fading_channel_error_constant,
    partial_participation_penalty,
    validate_dominance,
    weight_sum,
)
from .channel import (
    RAYLEIGH_UNIT_POWER_SCALE,
    fading_mac,
    sample_noise,
    sample_rayleigh,
)
from .data import (
    Dataset,
    PartitionSpec,
    ShardRows,
    generate_synthetic,
    load_csv,
    partition,
    save_csv,
    standardize,
)
from .harness import (
    AlphaSpec,
    ChannelSpec,
    ComparisonReport,
    CsvSpec,
    ExperimentConfig,
    MetricsRow,
    MetricsTable,
    ScheduleSpec,
    SyntheticSpec,
    TrainerSpec,
    estimate_bound_inputs,
    export_table,
    load_config,
    load_table,
    parse_config,
    run_experiment,
    simulate_trials,
)
from .localsgd import DEFAULT_THETA0_STD, KernelBlocks, local_pass
from .objectives import (
    ProbeBall,
    estimate_constants,
    global_loss,
    quadratic_gap,
    solve_optimum,
)
from .precoding import (
    AlphaSchedule,
    FadingPolicy,
    alpha_upper_bound_schedule,
    decode,
    estimate_alpha_mc,
    precode,
    select_participants,
)
from .rng import stream_generator
from .trainer import (
    SCHEMES,
    RunTrace,
    StepSchedule,
    TrainerConfig,
    TrialStreams,
    run_round,
    run_training,
    step_averaged_model,
    step_final_model,
)
from .types import ProblemConstants, as_model_vector

__version__ = "0.1.0"
