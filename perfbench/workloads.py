"""Benchmark workloads: fixed experiment shapes, parameterised only by a seed.

Each workload is one Monte Carlo experiment that a researcher would run
through ``otafl.harness``. The shapes follow the shipped configs; the trial
counts are the benchmark's own and set how long one job takes.
"""

from __future__ import annotations

from dataclasses import dataclass

# Master seed of the shipped configs; the seed code's results are recorded
# for it in reference.json.
DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Paired schemes, best to worst. The precoded one among them is the
    # config's trainer scheme and the curve checked against its bound.
    schemes: tuple[str, ...]
    bound: str  # name of the otafl.bounds function for the precoded curve
    users: int
    dim: int
    samples_per_user: int
    local_steps: int
    rounds: int
    trials: int
    channel: dict
    alpha: dict

    @property
    def precoded_scheme(self) -> str:
        return next(s for s in self.schemes if s in ("cotaf", "cotaf_fading"))

    def config(self, seed: int) -> dict:
        """The experiment document the program receives for this seed."""
        return {
            "seed": int(seed),
            "trials": self.trials,
            "users": self.users,
            "dataset": {
                "kind": "synthetic",
                "dim": self.dim,
                "total_samples": self.users * self.samples_per_user,
                "noise_std": 1.0,
            },
            "partition": {"mode": "iid"},
            "trainer": {
                "scheme": self.precoded_scheme,
                "local_steps": self.local_steps,
                "rounds": self.rounds,
                "schedule": {"kind": "final_model", "shift": "auto"},
            },
            "channel": dict(self.channel),
            "alpha": dict(self.alpha),
            "output": None,
        }

    def shape(self) -> dict:
        """d, N, D_n, H, R, trials and schemes, plus the dataset's size in bytes."""
        total = self.users * self.samples_per_user
        return {
            "d": self.dim,
            "N": self.users,
            "D_n": self.samples_per_user,
            "H": self.local_steps,
            "R": self.rounds,
            "trials": self.trials,
            "schemes": list(self.schemes),
            "dataset_bytes": 8 * total * (self.dim + 1),  # float64 features + targets
        }


def train_sample_steps(doc: dict, n_schemes: int) -> int:
    """Training sample steps of one job: trials x schemes x R x N x H (no pilot)."""
    trainer = doc["trainer"]
    return doc["trials"] * n_schemes * trainer["rounds"] * doc["users"] * trainer["local_steps"]


_AWGN = {"kind": "awgn_mac", "snr_db": -6.0}
_PILOT = {"source": "mc_pilot", "fraction": 0.2, "pilot_trials": 10}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_compare",
            why=(
                "the paper's headline three-scheme comparison at desk scale; the "
                "kernel and the MC alpha pilot dominate, the dataset fits in L2"
            ),
            schemes=("noise_free_local_sgd", "cotaf", "non_precoded_ota"),
            bound="bound_final_model",
            users=20,
            dim=20,
            samples_per_user=500,
            local_steps=10,
            rounds=200,
            trials=5,
            channel=_AWGN,
            alpha=_PILOT,
        ),
        Workload(
            name="fading_h1",
            why=(
                "fading COTAF with one local step per round, so gap evaluation, "
                "fading draws, selection, codec and MAC dominate, not the kernel"
            ),
            schemes=("cotaf_fading",),
            bound="bound_final_model_fading",
            users=20,
            dim=20,
            samples_per_user=500,
            local_steps=1,
            rounds=1000,
            trials=7,
            channel={"kind": "fading_mac", "snr_db": -6.0, "participants": 16, "eligibility": 0.8},
            alpha=_PILOT,
        ),
        Workload(
            name="fullscale_synth",
            why=(
                "full-scale shape (d=90, N=50, H=40) on a 72 MB synthetic set, far "
                "beyond L2; analytic alpha, so it is the control with no MC pilot"
            ),
            schemes=("cotaf",),
            bound="bound_final_model",
            users=50,
            dim=90,
            samples_per_user=2000,
            local_steps=40,
            rounds=250,
            trials=1,
            channel=_AWGN,
            alpha={"source": "analytic_bound"},
        ),
    )
}
