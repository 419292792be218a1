"""Command-line interface.

Subcommands:
  simulate        run a Monte Carlo experiment and export per-round metrics
  bound           evaluate a convergence bound at requested step counts
  estimate-alpha  build a precoding schedule by noise-free pilot runs
  compare         run several schemes with paired seeds and report ordering
  partition       split a CSV dataset into per-user shard files

Exit codes: 0 success, 1 validation failure, 2 runtime/IO failure,
3 acceptance failure (compare --assert-ordering).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .bounds import (
    base_error_constant,
    bound_final_model,
    bound_final_model_fading,
    bound_weighted_average,
    channel_error_constant,
    check_total_steps,
    fading_channel_error_constant,
    partial_participation_penalty,
    weight_sum,
)
from .data import Dataset, PartitionSpec, load_csv, partition, save_csv
from .rng import stream_generator
from .trainer import SCHEME_TABLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otafl",
        description="Federated learning over shared wireless channels: simulation and bound validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output path (default: config output or stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("bound", help="evaluate a convergence bound")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--theorem",
        type=int,
        choices=(1, 2, 3),
        required=True,
        help="1 = weighted-average model, 2 = final model, 3 = final model under fading",
    )
    p.add_argument("--t", required=True, help="comma-separated step counts (multiples of H)")

    p = sub.add_parser("estimate-alpha", help="write a pilot-estimated alpha schedule")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="compare schemes with paired seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--schemes", required=True, help="comma-separated, listed best to worst")
    p.add_argument("--out", default=None, help="also export the per-round metrics table")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument(
        "--assert-ordering",
        action="store_true",
        help="exit 3 unless final mean gaps are non-decreasing in the listed order",
    )

    p = sub.add_parser("partition", help="split a CSV dataset into user shards")
    p.add_argument("--csv", required=True)
    p.add_argument("--mode", choices=("iid", "heterogeneous"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--header", action="store_true", help="skip one header line")
    p.add_argument("--skew", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_simulate(args) -> int:
    config = harness.load_config(args.config)
    table = harness.run_experiment(config)
    out = args.out or config.output
    if out:
        harness.export_table(table, out, fmt=args.format)
        print(f"wrote {len(table.rows)} rows to {out}")
    else:
        harness.export_table(table, "/dev/stdout", fmt=args.format or "csv")
    return 0


def _cmd_bound(args) -> int:
    config = harness.load_config(args.config)
    t_values = [int(v) for v in args.t.replace(",", " ").split()]
    if not t_values:
        raise ValueError("--t needs at least one step count")
    # the step grid and the channel are checked before the inputs are estimated
    steps = check_total_steps(t_values, config.trainer.local_steps)
    if args.theorem == 3 and config.fading_policy is None:
        raise ValueError("theorem 3 needs a fading channel config (participants, h_min)")
    kind = "averaged_model" if args.theorem == 1 else "final_model"
    inputs = harness.estimate_bound_inputs(config, kind=kind)
    c = inputs.constants

    bound_fn = (bound_weighted_average, bound_final_model, bound_final_model_fading)[args.theorem - 1]
    grid = replace(inputs, total_steps=steps)
    keys = [str(t) for t in t_values]

    payload = {
        "theorem": args.theorem,
        "B": base_error_constant(c),
        "C": channel_error_constant(c),
        "C_tilde": (
            fading_channel_error_constant(c, inputs.participants, inputs.h_min)
            if inputs.participants is not None and inputs.h_min is not None
            else None
        ),
        "D": (
            partial_participation_penalty(c, inputs.participants)
            if inputs.participants is not None
            else None
        ),
        "S_R": dict(zip(keys, weight_sum(inputs.shift, c.H, grid.total_steps // c.H).tolist())),
        "bounds": dict(zip(keys, bound_fn(grid).tolist())),
        "shift": inputs.shift,
        "delta0": inputs.delta0,
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_estimate_alpha(args) -> int:
    config = harness.load_config(args.config)
    kind = config.channel.kind
    # the precoded scheme that runs over each channel kind
    precoded = {k: s for s, spec in SCHEME_TABLE.items() if spec.needs_alpha for k in spec.channels}
    if kind not in precoded:
        accepted = " or ".join(map(repr, precoded))
        raise ValueError(f"estimate-alpha needs channel kind {accepted}, got {kind!r}")
    schedule = harness.resolve(config, [precoded[kind]]).alpha_schedule
    schedule.save(args.out)
    print(f"wrote alpha schedule for {schedule.rounds} rounds to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    config = harness.load_config(args.config)
    schemes = [s for s in args.schemes.replace(",", " ").split() if s]
    if len(schemes) < 2:  # checked before the schemes are trained
        raise ValueError(f"compare needs at least two schemes, got {schemes}")
    result = harness.simulate_trials(config, schemes)
    report = harness.analyze_comparison(result, schemes)
    print(json.dumps(report.to_dict(), indent=2))
    out = args.out or config.output
    if out:
        harness.export_table(harness.tabulate(result), out, fmt=args.format)
    if args.assert_ordering and not report.ordering_ok():
        print("ordering assertion failed", file=sys.stderr)
        return 3
    return 0


def _cmd_partition(args) -> int:
    dataset = load_csv(args.csv, header=args.header)
    spec = PartitionSpec(args.mode, args.n, args.skew)
    shards = dataset.shards(partition(dataset, spec, stream_generator(args.seed, "partition")))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for user, (features, targets) in enumerate(shards, start=1):
        save_csv(Dataset(features, targets), out_dir / f"user_{user:03d}.csv")
    n_users, shard_size, _ = shards.shape
    print(f"wrote {n_users} shards of {shard_size} samples to {out_dir}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "bound": _cmd_bound,
        "estimate-alpha": _cmd_estimate_alpha,
        "compare": _cmd_compare,
        "partition": _cmd_partition,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
