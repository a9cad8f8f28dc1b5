"""The four benchmark workloads: task inputs from a seed, and output oracles.

Each workload turns the benchmark seed into a stream of CLI invocations
(`task`), and checks every invocation's output file against an oracle that
does not reuse the code under test (`check`). Run-level statistics that need
many tasks, such as the pooled sqrt(N) slope of `cat`, are judged in
`finish`.

`tiny=True` shrinks every task to a size that runs in milliseconds, for the
harness self-test; it exercises the same code paths as the full size.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spinwhiten import rng

# Inputs drawn per run; a run that gets through more tasks cycles through them.
N_INPUTS = 4096
SHOTS = 4096


@dataclass
class Task:
    argv: list[str]
    out: Path
    expected: dict = field(default_factory=dict)


def phase_estimation_probs(gamma: float, n: int) -> np.ndarray:
    """Closed-form P(y) = sin^2(pi N d) / (N^2 sin^2(pi d)), d = gamma - y/N.

    Outcome distribution of the inverse transform of the phase-encoded state
    (Cleve, Ekert, Macchiavello & Mosca 1998); P = 1 where d is an integer.
    """
    return _closed_form(gamma - np.arange(1 << n) / (1 << n), 1 << n)


def _closed_form(delta: np.ndarray, dim: int) -> np.ndarray:
    s = np.sin(np.pi * delta)
    exact = s == 0.0
    safe = np.where(exact, 1.0, s)
    return np.where(exact, 1.0, np.sin(np.pi * dim * delta) ** 2 / (dim * dim * safe * safe))


def nearest_index(gamma: np.ndarray | float, n: int):
    """round(gamma * 2^n) mod 2^n, rounding halves up."""
    dim = 1 << n
    return np.floor(np.asarray(gamma) * dim + 0.5).astype(np.int64) % dim


def _ols_slope(x: list[float], y: list[float]) -> float:
    lx, ly = np.log(x), np.log(y)
    lx = lx - lx.mean()
    return float(lx @ (ly - ly.mean()) / (lx @ lx))


class Workload:
    """Task stream of one workload; subclasses fill in inputs and oracles."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / f"{self.name}.out"

    def prepare(self) -> None:
        """Write input files and draw per-task inputs (part of set-up)."""

    def task(self, index: int) -> Task:
        raise NotImplementedError

    def check(self, task: Task, stdout: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        raise NotImplementedError

    def finish(self) -> tuple[dict, list[str]]:
        """Run-level statistics and run-level failures."""
        return {}, []


class WhitenWorkload(Workload):
    """Canonical program over 10^6 spins, a new master seed per task."""

    name = "whiten"
    PROGRAM = "# ppv1\npulse90 t\nwhiten t\nencode r 8\niqft r\nacquire shots=4096\n"
    QUBITS = 8
    ACCEPTANCE_BOUND = 0.003  # acceptance criterion 3, for 10^6 spins

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.ensemble_size = 4096 if tiny else 10**6
        self.program = workdir / "canonical.pp"
        self.after: list[float] = []

    def prepare(self):
        self.program.write_text(self.PROGRAM, encoding="utf-8")
        draw = random.Random(self.seed).getrandbits
        self.seeds = [draw(32) for _ in range(N_INPUTS)]

    def task(self, index):
        argv = ["run", str(self.program), "--seed", str(self.seeds[index % N_INPUTS]),
                "--ensemble-size", str(self.ensemble_size), "--out", str(self.out)]
        return Task(argv, self.out, {"size": self.ensemble_size})

    def check(self, task, stdout):
        doc = json.loads(task.out.read_text(encoding="utf-8"))
        receiver = doc["receiver_signal"]["t"]
        size = task.expected["size"]
        if doc["ensemble_size"] != size:
            return f"ensemble_size {doc['ensemble_size']} != {size}"
        if receiver["before_whiten"] != 1.0:
            return f"before_whiten {receiver['before_whiten']!r} != 1.0"
        after = receiver["after_whiten"]
        if not after <= 5.0 / math.sqrt(size):
            return f"after_whiten {after!r} > 5/sqrt({size})"
        self.after.append(after)
        if doc["shots"] != SHOTS or sum(h["count"] for h in doc["histogram"]) != SHOTS:
            return "histogram does not hold every shot"
        encode = next(s for s in doc["statements"] if s["op"] == "encode")
        gamma = float(re.search(r"gamma=(\S+)", encode["detail"]).group(1))
        probs = phase_estimation_probs(gamma, self.QUBITS)
        peak = doc["peak_readout"]
        if peak["index"] != int(probs.argmax()):
            return f"peak index {peak['index']} != closed-form argmax {int(probs.argmax())}"
        if abs(peak["probability"] - probs[peak["index"]]) > 1e-9:
            return f"peak probability {peak['probability']!r} off the closed form"
        return None

    def finish(self):
        if not self.after:
            return {}, []
        within = sum(a <= self.ACCEPTANCE_BOUND for a in self.after) / len(self.after)
        return {"after_whiten_le_0.003_frac": within, "after_whiten_max": max(self.after)}, []


class CatWorkload(Workload):
    """`cat` over the default N list 1..1024, two seeds per task."""

    name = "cat"
    N_LIST = [1 << k for k in range(11)]
    TINY_N_LIST = [1, 2, 4]
    MIN_POOLED_SEEDS = 16  # below this the pooled slope is too noisy to judge

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.n_list = self.TINY_N_LIST if tiny else self.N_LIST
        self.seeds_per_task = 1 if tiny else 2
        self.means: list[list[float]] = []

    def prepare(self):
        draw = random.Random(self.seed).getrandbits
        self.seeds = [draw(32) for _ in range(N_INPUTS)]

    def task(self, index):
        argv = ["cat", "--n-list", ",".join(map(str, self.n_list)),
                "--seeds", str(self.seeds_per_task),
                "--seed", str(self.seeds[index % N_INPUTS]), "--out", str(self.out)]
        return Task(argv, self.out, {"n_list": self.n_list})

    def check(self, task, stdout):
        lines = task.out.read_text(encoding="utf-8").split("\n")
        if lines[0] != "N,mean_snr,std_snr" or lines[-1] != "":
            return "CSV header or trailing newline malformed"
        rows = [line.split(",") for line in lines[1:-1]]
        if any(len(row) != 3 for row in rows):
            return "CSV row without three fields"
        counts = [int(row[0]) for row in rows]
        means = [float(row[1]) for row in rows]
        stds = [float(row[2]) for row in rows]
        if counts != task.expected["n_list"]:
            return f"N column {counts} != {task.expected['n_list']}"
        if not all(math.isfinite(v) for v in means + stds):
            return "non-finite SNR in CSV"
        if min(means) <= 0.0 or min(stds) < 0.0:
            return "SNR mean not positive or std negative"
        printed = re.search(r"log-log slope: (\S+)", stdout)
        if printed is None or abs(float(printed.group(1)) - _ols_slope(counts, means)) > 1e-9:
            return "printed log-log slope disagrees with the CSV"
        self.means.append(means)
        return None

    def finish(self):
        pooled_seeds = len(self.means) * self.seeds_per_task
        if pooled_seeds < self.MIN_POOLED_SEEDS:
            return {"pooled_seeds": pooled_seeds}, []
        slope = _ols_slope(self.n_list, list(np.mean(self.means, axis=0)))
        stats = {"pooled_seeds": pooled_seeds, "pooled_loglog_slope": slope}
        failures = [] if abs(slope - 0.5) <= 0.05 else [f"pooled slope {slope} not 0.5+-0.05"]
        return stats, failures


class RegisterWorkload(Workload):
    """Inverse transform of a dyadic phase k/2^20 on one 20-qubit register."""

    name = "register"
    QUBITS = 20
    ENSEMBLE = 1000

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.qubits = 6 if tiny else self.QUBITS
        self.program = workdir / "register.pp"

    def prepare(self):
        rand = random.Random(self.seed)
        self.ks = [rand.randrange(1 << self.qubits) for _ in range(N_INPUTS)]

    def task(self, index):
        k = self.ks[index % N_INPUTS]
        whiten_seed = rng.seed_for_gamma(k / (1 << self.qubits))
        self.program.write_text(
            f"# ppv1\npulse90 t\nwhiten t seed={whiten_seed}\nencode r {self.qubits}\n"
            f"iqft r\nacquire shots={SHOTS}\n", encoding="utf-8")
        argv = ["run", str(self.program), "--seed", str(index),
                "--ensemble-size", str(self.ENSEMBLE), "--out", str(self.out)]
        return Task(argv, self.out, {"k": k})

    def check(self, task, stdout):
        doc = json.loads(task.out.read_text(encoding="utf-8"))
        peak = doc["peak_readout"]
        if peak["index"] != task.expected["k"]:
            return f"peak index {peak['index']} != k={task.expected['k']}"
        if not peak["probability"] >= 1.0 - 1e-9:
            return f"peak probability {peak['probability']!r} < 1 - 1e-9"
        if doc["shots"] != SHOTS or sum(h["count"] for h in doc["histogram"]) != SHOTS:
            return "histogram does not hold every shot"
        return None


class SweepWorkload(Workload):
    """`peak-sweep` at its defaults (n = 8, grid 10^4); the seed is unused."""

    name = "sweep"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        # Neither grid puts gamma * 2^n on a half-integer, where rounding would tie.
        self.qubits, self.grid = (4, 100) if tiny else (8, 10_000)

    def task(self, index):
        argv = ["peak-sweep", "--qubits", str(self.qubits), "--grid", str(self.grid),
                "--out", str(self.out)]
        return Task(argv, self.out, {"qubits": self.qubits, "grid": self.grid})

    def check(self, task, stdout):
        n, grid = task.expected["qubits"], task.expected["grid"]
        text = task.out.read_text(encoding="utf-8")
        header, _, body = text.partition("\n")
        if header != "gamma,argmax,peak_probability":
            return "CSV header malformed"
        table = np.array([row.split(",") for row in body.splitlines()], dtype=np.float64)
        if table.shape != (grid, 3):
            return f"CSV shape {table.shape} != ({grid}, 3)"
        gammas = np.arange(grid) / grid
        if not np.array_equal(table[:, 0], gammas):
            return "gamma column is not j / grid"
        expected = nearest_index(gammas, n)
        if not np.array_equal(table[:, 1], expected):
            return "argmax column differs from round(gamma * 2^n) mod 2^n"
        closed = _closed_form(gammas - expected / (1 << n), 1 << n)
        error = float(np.abs(table[:, 2] - closed).max())
        if error > 1e-9:
            return f"peak probability off the closed form by {error}"
        return None


WORKLOADS = {w.name: w for w in (WhitenWorkload, CatWorkload, RegisterWorkload, SweepWorkload)}
