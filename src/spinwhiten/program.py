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
blank lines are ignored. The checker enforces protocol order (whiten needs a
prior 90-degree pulse on the same target, encoding needs a whitened phase,
transforms need an encoded register, acquisition needs a register). The
interpreter runs the program against a spin ensemble of a given size and an
n-qubit register, and reports the acquisition histogram plus the receiver
observable before and after whitening.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import rng
from .ensemble import SpinEnsemble, gz_whiten, pulse90 as apply_pulse90, receiver_signal, with_seed
from .errors import ProtocolError, PulseSyntaxError
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


@dataclass
class _Token:
    text: str
    column: int  # 1-based


def _tokenize(line: str) -> list[_Token]:
    code = line.split("#", 1)[0]
    return [_Token(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _expect_name(token: _Token, line_no: int, what: str) -> str:
    if not _NAME_RE.match(token.text):
        raise PulseSyntaxError(
            line_no, token.column, f"expected {what} (got {token.text!r})"
        )
    return token.text


def _expect_int(text: str, token: _Token, line_no: int, what: str) -> int:
    if not _INT_RE.match(text):
        raise PulseSyntaxError(
            line_no, token.column, f"expected integer {what} (got {text!r})"
        )
    return int(text)


def _expect_option(token: _Token, line_no: int, key: str) -> int:
    name, sep, value = token.text.partition("=")
    if not sep or name != key:
        raise PulseSyntaxError(
            line_no, token.column, f"expected {key}=<int> (got {token.text!r})"
        )
    return _expect_int(value, token, line_no, key)


def _check_arity(tokens: list[_Token], line_no: int, keyword: str, count: int) -> None:
    if len(tokens) - 1 != count:
        extra = tokens[count + 1] if len(tokens) - 1 > count else tokens[-1]
        raise PulseSyntaxError(
            line_no,
            extra.column,
            f"{keyword} takes {count} argument{'s' if count != 1 else ''}, "
            f"got {len(tokens) - 1}",
        )


def parse(source_text: str, source_name: str = "<string>") -> PulseProgram:
    """Parse source into an AST; every statement keeps its 1-based line."""
    statements: list[Statement] = []
    for line_no, line in enumerate(source_text.splitlines(), start=1):
        tokens = _tokenize(line)
        if not tokens:
            continue
        keyword = tokens[0]
        if keyword.text == "pulse90":
            _check_arity(tokens, line_no, "pulse90", 1)
            statements.append(
                Pulse90(_expect_name(tokens[1], line_no, "target name"), line_no)
            )
        elif keyword.text == "whiten":
            if len(tokens) not in (2, 3):
                _check_arity(tokens, line_no, "whiten", 2)
            target = _expect_name(tokens[1], line_no, "target name")
            seed = _expect_option(tokens[2], line_no, "seed") if len(tokens) == 3 else None
            statements.append(Whiten(target, seed, line_no))
        elif keyword.text == "encode":
            _check_arity(tokens, line_no, "encode", 2)
            register = _expect_name(tokens[1], line_no, "register name")
            qubits = _expect_int(tokens[2].text, tokens[2], line_no, "qubit count")
            if qubits < 1:
                raise PulseSyntaxError(
                    line_no, tokens[2].column, f"qubit count must be >= 1, got {qubits}"
                )
            statements.append(Encode(register, qubits, line_no))
        elif keyword.text in ("qft", "iqft"):
            _check_arity(tokens, line_no, keyword.text, 1)
            register = _expect_name(tokens[1], line_no, "register name")
            cls = Qft if keyword.text == "qft" else Iqft
            statements.append(cls(register, line_no))
        elif keyword.text == "acquire":
            _check_arity(tokens, line_no, "acquire", 1)
            shots = _expect_option(tokens[1], line_no, "shots")
            if shots < 1:
                raise PulseSyntaxError(
                    line_no, tokens[1].column, f"shots must be >= 1, got {shots}"
                )
            statements.append(Acquire(shots, line_no))
        else:
            raise PulseSyntaxError(
                line_no, keyword.column, f"unknown keyword {keyword.text!r}"
            )
    return PulseProgram(tuple(statements), source_name)


def format_program(program: PulseProgram) -> str:
    """Canonical source text; parse(format_program(p)) equals p."""
    lines = [HEADER_COMMENT]
    for stmt in program.statements:
        if isinstance(stmt, Pulse90):
            lines.append(f"pulse90 {stmt.target}")
        elif isinstance(stmt, Whiten):
            suffix = f" seed={stmt.seed}" if stmt.seed is not None else ""
            lines.append(f"whiten {stmt.target}{suffix}")
        elif isinstance(stmt, Encode):
            lines.append(f"encode {stmt.register} {stmt.qubits}")
        elif isinstance(stmt, Qft):
            lines.append(f"qft {stmt.register}")
        elif isinstance(stmt, Iqft):
            lines.append(f"iqft {stmt.register}")
        else:
            lines.append(f"acquire shots={stmt.shots}")
    return "\n".join(lines) + "\n"


def check(program: PulseProgram) -> PulseProgram:
    """Enforce protocol order; returns the program unchanged when valid."""
    pulsed: set[str] = set()
    whitened: set[str] = set()
    encoded: set[str] = set()
    for stmt in program.statements:
        if isinstance(stmt, Pulse90):
            pulsed.add(stmt.target)
        elif isinstance(stmt, Whiten):
            if stmt.target not in pulsed:
                raise ProtocolError(
                    stmt.line_no,
                    f"whiten {stmt.target!r} before pulse90: only transverse "
                    "spins can be phase-whitened",
                )
            whitened.add(stmt.target)
        elif isinstance(stmt, Encode):
            if not whitened:
                raise ProtocolError(
                    stmt.line_no,
                    "encode before any whiten: no whitened target phase to encode",
                )
            encoded.add(stmt.register)
        elif isinstance(stmt, (Qft, Iqft)):
            keyword = "qft" if isinstance(stmt, Qft) else "iqft"
            if stmt.register not in encoded:
                raise ProtocolError(
                    stmt.line_no,
                    f"{keyword} on register {stmt.register!r} before encode",
                )
        elif isinstance(stmt, Acquire):
            if not encoded:
                raise ProtocolError(
                    stmt.line_no, "acquire before any register was encoded"
                )
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


def _sample_outcomes(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Histogram of `shots` draws from probs via the counter-based stream."""
    cum = np.cumsum(probs)
    draws = rng.uniforms(seed, shots) * cum[-1]  # scale absorbs rounding in the total
    outcomes = np.searchsorted(cum, draws, side="right")
    np.clip(outcomes, 0, len(probs) - 1, out=outcomes)
    return np.bincount(outcomes, minlength=len(probs))


def execute(
    program: PulseProgram,
    ensemble_size: int,
    master_seed: int,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> RunReport:
    """Run a checked program; raises ProtocolError on order violations.

    Per-statement semantics: pulse90/whiten act on the named target ensemble
    (created on first pulse90 with a seed derived from the master seed unless
    the whiten statement pins one); encode reads the representative phase
    fraction — spin 0 of the most recently whitened ensemble — into a fresh
    register; qft/iqft transform the register; acquire samples the most
    recently touched register.
    """
    check(program)
    if ensemble_size < 1:
        raise ValueError(f"ensemble size must be >= 1, got {ensemble_size}")
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

    for stmt in program.statements:
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
            registers[stmt.register] = phase_encode(last_gamma, stmt.qubits, max_qubits)
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
            probs = probabilities(state)
            seed = rng.derive(master_seed, f"acquire:{acquire_index}")
            acquire_index += 1
            counts = _sample_outcomes(probs, stmt.shots, seed)
            report.shots += stmt.shots
            if report.histogram is None:
                report.histogram = counts
            else:  # acquires may target registers of different sizes
                size = max(len(report.histogram), len(counts))
                combined = np.zeros(size, dtype=np.int64)
                combined[: len(report.histogram)] += report.histogram
                combined[: len(counts)] += counts
                report.histogram = combined
            report.peak = peak_readout(state)
            detail = (
                f"register {active_register}, shots {stmt.shots}, "
                f"mode {int(counts.argmax())}"
            )
        stages.append(
            StageLog(stmt.line_no, type(stmt).__name__.lower(), detail,
                     time.perf_counter() - started)
        )
    return report
