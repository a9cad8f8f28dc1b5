"""Line-oriented pulse-program DSL: parser, protocol checker, interpreter.

A program is the five-step acquisition scheme spelled out one statement per
line:

    # ppv1
    pulse90 t
    whiten t seed=7
    encode r 4
    iqft r
    acquire shots=1024

Tokens are whitespace-separated; options use key=value; `#` starts a comment;
blank lines are ignored. The table GRAMMAR below is the whole syntax, each
keyword's statement class and arguments; parse and format_program both read
it. The checker enforces protocol order (whiten needs a prior 90-degree pulse
on the same target, encoding needs a whitened phase, transforms need an
encoded register, acquisition needs a register). The interpreter runs the
program against a spin ensemble of a given size and an n-qubit register, and
reports the acquisition histogram plus the receiver observable before and
after whitening.
"""

from __future__ import annotations

import re
import time
from dataclasses import astuple, dataclass, field, replace
from typing import NoReturn, Union

import numpy as np

from . import rng
from .ensemble import SpinEnsemble, gz_whiten, pulse90 as apply_pulse90, receiver_signal, with_seed
from .errors import OutOfRange, ProtocolError, PulseSyntaxError, QubitCountExceeded
from .qft import peak_readout, phase_encode, qft_circuit
from .statevector import DEFAULT_MAX_QUBITS, StateVector, apply_circuit, probabilities

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")

HEADER_COMMENT = "# ppv1"


@dataclass(frozen=True)
class Pulse90:
    target: str
    line_no: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Whiten:
    target: str
    seed: int | None = None
    line_no: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Encode:
    register: str
    qubits: int
    line_no: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Qft:
    register: str
    line_no: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Iqft:
    register: str
    line_no: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Acquire:
    shots: int
    line_no: int = field(default=0, compare=False)


Statement = Union[Pulse90, Whiten, Encode, Qft, Iqft, Acquire]


@dataclass(frozen=True)
class PulseProgram:
    statements: tuple[Statement, ...]
    source_name: str = field(default="<string>", compare=False)


# The DSL's one grammar, read by both parse and format_program: each keyword
# maps to its statement class and to that class's arguments in field order.
# An argument is a label and one of four forms:
NAME = "name"  # [a-z][a-z0-9_]*
COUNT = "count"  # positional integer >= 1
OPTION = "option"  # required label=<int >= 1>
SEED = "seed"  # optional seed=<int in [0, 2^64)>, last if present

_ECHO_CHARS = 40  # messages echo at most this much of an offending token

# `check` refuses an acquire of more shots: shots cost time, not memory, and
# 2**32 of them take about 2.5 minutes at 3e7 shots/s. The `cat` command holds
# its samples (shots times trace length) to the same limit.
MAX_SHOTS = 1 << 32
# `execute` refuses a larger ensemble: a receiver sum costs about 15 ms per
# 10**6 spins, so one over 2**32 spins takes about a minute.
MAX_SPINS = 1 << 32

GRAMMAR: dict[str, tuple[type, tuple[tuple[str, str], ...]]] = {
    "pulse90": (Pulse90, (("target name", NAME),)),
    "whiten": (Whiten, (("target name", NAME), ("seed", SEED))),
    "encode": (Encode, (("register name", NAME), ("qubit count", COUNT))),
    "qft": (Qft, (("register name", NAME),)),
    "iqft": (Iqft, (("register name", NAME),)),
    "acquire": (Acquire, (("shots", OPTION),)),
}
_KEYWORD = {cls: keyword for keyword, (cls, _) in GRAMMAR.items()}


def parse(source_text: str, source_name: str = "<string>") -> PulseProgram:
    """Parse source into an AST by GRAMMAR; every statement keeps its 1-based
    line, and a PulseSyntaxError names `source_name` with the line and the
    column of the offending token. Only \\n, \\r\\n and \\r end a line."""

    def fail(column: int, message: str) -> NoReturn:
        raise PulseSyntaxError(line_no, column, message, source_name)

    def cut(text: str) -> str:
        return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."

    statements: list[Statement] = []
    for line_no, line in enumerate(re.split(r"\r\n?|\n", source_text), start=1):
        tokens = [(m.start() + 1, m.group())
                  for m in re.finditer(r"\S+", line.split("#", 1)[0])]
        if not tokens:
            continue
        (column, keyword), *args = tokens
        if keyword not in GRAMMAR:
            fail(column, f"unknown keyword {cut(keyword)!r}")
        cls, arguments = GRAMMAR[keyword]
        most = len(arguments)
        fewest = sum(form != SEED for _, form in arguments)
        if not fewest <= len(args) <= most:
            counts = f"{fewest} or {most}" if fewest < most else f"{most}"
            # the column of the first extra token, or else of the last token
            fail(tokens[min(most + 1, len(args))][0],
                 f"{keyword} takes {counts} argument{'s' if most != 1 else ''}, "
                 f"got {len(args)}")
        values: list[str | int] = []
        for (column, text), (label, form) in zip(args, arguments):
            if form == NAME:
                if not _NAME_RE.match(text):
                    fail(column, f"expected {label} (got {cut(text)!r})")
                values.append(text)
                continue
            digits = text
            if form != COUNT:
                key, sep, digits = text.partition("=")
                if not sep or key != label:
                    fail(column, f"expected {label}=<int> (got {cut(text)!r})")
            if not _INT_RE.match(digits):
                fail(column, f"expected integer {label} (got {cut(digits)!r})")
            try:
                number = int(digits)
            except ValueError:  # beyond Python's int-string digit limit
                fail(column, f"integer {label} too long ({len(digits.lstrip('-'))} digits)")
            if form != SEED and number < 1:
                fail(column, f"{label} must be >= 1, got {cut(str(number))}")
            if form == SEED and not 0 <= number <= rng.MASK64:  # stream reads seeds mod 2^64
                fail(column, f"{label} must lie in [0, 2^64), got {cut(str(number))}")
            values.append(number)
        statements.append(cls(*values, line_no=line_no))
    return PulseProgram(tuple(statements), source_name)


def format_program(program: PulseProgram) -> str:
    """Canonical source text by GRAMMAR; parse(format_program(p)) equals p."""
    lines = [HEADER_COMMENT]
    for stmt in program.statements:
        keyword = _KEYWORD[type(stmt)]
        words = [str(value) if form in (NAME, COUNT) else f"{label}={value}"
                 for (label, form), value in zip(GRAMMAR[keyword][1], astuple(stmt))
                 if value is not None]  # only an absent seed is None
        lines.append(" ".join([keyword, *words]))
    return "\n".join(lines) + "\n"


def check(program: PulseProgram, max_qubits: int = DEFAULT_MAX_QUBITS) -> PulseProgram:
    """Enforce protocol order, the register-size limit and the shot limit;
    returns the program unchanged. Raises ProtocolError, QubitCountExceeded
    for a register wider than `max_qubits`, or OutOfRange for an acquire of
    more than MAX_SHOTS shots; each names the program's source and line."""
    pulsed: set[str] = set()
    whitened: set[str] = set()
    encoded: set[str] = set()
    for stmt in program.statements:
        problem = None
        if isinstance(stmt, Pulse90):
            pulsed.add(stmt.target)
        elif isinstance(stmt, Whiten):
            if stmt.target not in pulsed:
                problem = (f"whiten {stmt.target!r} before pulse90: only transverse "
                           "spins can be phase-whitened")
            whitened.add(stmt.target)
        elif isinstance(stmt, Encode):
            if not whitened:
                problem = "encode before any whiten: no whitened target phase to encode"
            elif stmt.qubits > max_qubits:
                raise QubitCountExceeded(
                    f"{program.source_name}:line {stmt.line_no}: register of "
                    f"{stmt.qubits} qubits exceeds max_qubits={max_qubits}"
                )
            encoded.add(stmt.register)
        elif isinstance(stmt, (Qft, Iqft)):
            if stmt.register not in encoded:
                problem = f"{_KEYWORD[type(stmt)]} on register {stmt.register!r} before encode"
        elif not encoded:  # Acquire
            problem = "acquire before any register was encoded"
        elif stmt.shots > MAX_SHOTS:
            raise OutOfRange(
                f"{program.source_name}:line {stmt.line_no}: {stmt.shots} shots "
                f"exceed the limit of {MAX_SHOTS}"
            )
        if problem:
            raise ProtocolError(stmt.line_no, problem, program.source_name)
    return program


@dataclass
class StageLog:
    line_no: int
    op: str
    detail: str
    elapsed_s: float


@dataclass
class RunReport:
    """Everything observable from one program run.

    Timings are kept out of the JSON form so identical (program, size, seed)
    runs serialize byte-identically.
    """

    source_name: str
    ensemble_size: int
    master_seed: int
    stages: list[StageLog]
    receiver: dict[str, dict[str, float]]  # target -> before/after magnitudes
    shots: int = 0
    histogram: np.ndarray | None = None
    peak: tuple[int, float] | None = None

    def to_json_dict(self) -> dict:
        stages = [{"line": stage.line_no, "op": stage.op, "detail": stage.detail}
                  for stage in self.stages]
        doc = {
            "source": self.source_name,
            "ensemble_size": self.ensemble_size,
            "master_seed": self.master_seed,
            "statements": stages,
            "receiver_signal": self.receiver,
            "shots": self.shots,
            "histogram": [
                {"index": int(i), "count": int(self.histogram[i])}
                for i in np.flatnonzero(self.histogram)
            ]
            if self.histogram is not None
            else [],
        }
        if self.peak is not None:
            doc["peak_readout"] = {"index": self.peak[0], "probability": self.peak[1]}
        return doc


# Shots drawn per block by `_sample_outcomes`: about 24 B each.
_SHOT_BLOCK = 1 << 16


def _sample_outcomes(probs: np.ndarray, scratch: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Histogram of `shots` draws from probs via the counter-based stream,
    counted in `scratch` (8 B per outcome, as `probabilities` returns it);
    probs is overwritten by its cumulative sum.

    Shot k draws uniform k of the seed's stream, a pure function of (seed,
    k), so the shots are drawn _SHOT_BLOCK at a time and each block's
    outcomes are counted into one histogram with `np.add.at`: the histogram
    equals the one drawn all at once, memory stays flat in shots, and no
    block builds a histogram of its own. Each block's draws are sorted in
    place first, so the searches walk the cumulative sum in order; sorting
    only permutes the draws, so the counts are the same.
    """
    cum = np.cumsum(probs, out=probs)
    counts = scratch.view(np.intp)
    counts.fill(0)
    for start in range(0, shots, _SHOT_BLOCK):
        draws = rng.uniforms(seed, min(_SHOT_BLOCK, shots - start), start)
        draws *= cum[-1]  # scale absorbs rounding in the total
        draws.sort()
        outcomes = np.searchsorted(cum, draws, side="right")
        np.clip(outcomes, 0, len(cum) - 1, out=outcomes)
        np.add.at(counts, outcomes, 1)
    return counts


def _read_again(statements: tuple[Statement, ...], register: str) -> bool:
    """Whether a statement reads `register` again before an encode replaces
    it: a transform of it, or an acquire while it is the active register."""
    active = register
    for stmt in statements:
        if isinstance(stmt, (Encode, Qft, Iqft)):
            if stmt.register == register:
                return not isinstance(stmt, Encode)
            active = stmt.register
        elif isinstance(stmt, Acquire) and active == register:
            return True
    return False


def execute(
    program: PulseProgram,
    ensemble_size: int,
    master_seed: int,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> RunReport:
    """Run a program after `check(program, max_qubits)` passes; an
    ensemble_size outside [1, MAX_SPINS] raises OutOfRange before any
    statement runs.

    Per-statement semantics: pulse90/whiten act on the named target ensemble
    (created on first pulse90 with a seed derived from the master seed unless
    the whiten statement pins one); encode reads the representative phase
    fraction — spin 0 of the most recently whitened ensemble — into a fresh
    register; qft/iqft transform the register; acquire samples the most
    recently touched register. The readout spends the register's buffer
    (`statevector.probabilities`), so an acquire reads out a copy when a
    later statement reads the same register: a transform of it, or an
    acquire while it is still the active register.
    """
    check(program, max_qubits)
    if ensemble_size < 1:
        raise OutOfRange(f"ensemble size must be >= 1, got {ensemble_size}")
    if ensemble_size > MAX_SPINS:
        raise OutOfRange(f"ensemble size {ensemble_size} exceeds the limit of {MAX_SPINS}")
    ensembles: dict[str, SpinEnsemble] = {}
    registers: dict[str, StateVector] = {}
    receiver: dict[str, dict[str, float]] = {}
    stages: list[StageLog] = []
    last_gamma: float | None = None
    active_register: str | None = None
    acquire_index = 0
    report = RunReport(
        source_name=program.source_name,
        ensemble_size=ensemble_size,
        master_seed=master_seed,
        stages=stages,
        receiver=receiver,
    )

    for position, stmt in enumerate(program.statements, start=1):
        started = time.perf_counter()
        if isinstance(stmt, Pulse90):
            seed = rng.derive(master_seed, f"ensemble:{stmt.target}")
            ens = ensembles.get(stmt.target) or SpinEnsemble.longitudinal(
                ensemble_size, seed
            )
            ens = apply_pulse90(ens)
            ensembles[stmt.target] = ens
            before = abs(receiver_signal(ens))
            receiver.setdefault(stmt.target, {})["before_whiten"] = before
            detail = f"target {stmt.target}, |receiver|={before:.17g}"
        elif isinstance(stmt, Whiten):
            ens = ensembles[stmt.target]
            if stmt.seed is not None:
                ens = with_seed(ens, stmt.seed)
            ens, last_gamma = gz_whiten(ens)
            ensembles[stmt.target] = ens
            after = abs(receiver_signal(ens))
            receiver.setdefault(stmt.target, {})["after_whiten"] = after
            detail = f"target {stmt.target}, |receiver|={after:.17g}"
        elif isinstance(stmt, Encode):
            registers[stmt.register] = phase_encode(last_gamma, stmt.qubits)
            active_register = stmt.register
            detail = f"register {stmt.register}, qubits {stmt.qubits}, gamma={last_gamma:.17g}"
        elif isinstance(stmt, (Qft, Iqft)):
            state = registers[stmt.register]
            circuit = qft_circuit(state.num_qubits, inverse=isinstance(stmt, Iqft))
            registers[stmt.register] = apply_circuit(state, circuit)
            active_register = stmt.register
            detail = f"register {stmt.register}, {len(circuit.gates)} gates"
        else:  # Acquire
            state = registers[active_register]
            # the readout spends the register: a later read needs a copy
            if _read_again(program.statements[position:], active_register):
                state = replace(state, amps=state.amps.copy())
            probs, scratch = probabilities(state)
            report.peak = peak_readout(probs)  # before sampling overwrites probs
            seed = rng.derive(master_seed, f"acquire:{acquire_index}")
            acquire_index += 1
            counts = _sample_outcomes(probs, scratch, stmt.shots, seed)
            report.shots += stmt.shots
            if report.histogram is None:
                report.histogram = counts
            else:  # acquires may target registers of different sizes
                size = max(len(report.histogram), len(counts))
                combined = np.zeros(size, dtype=np.int64)
                combined[: len(report.histogram)] += report.histogram
                combined[: len(counts)] += counts
                report.histogram = combined
            detail = (
                f"register {active_register}, shots {stmt.shots}, "
                f"mode {int(counts.argmax())}"
            )
        stages.append(
            StageLog(stmt.line_no, _KEYWORD[type(stmt)], detail,
                     time.perf_counter() - started)
        )
    return report
