"""Command-line front end.

Subcommands tie the simulator into reproducible experiments:

    run         execute a .pp pulse program, write the run report
    qft-verify  check the synthesized transform against the direct matrix
    cat         Monte Carlo averaging study (SNR vs shot count)
    budget      staged spin-population table
    peak-sweep  concentration of the inverse transform over a phase grid

Exit codes: 0 success, 2 syntax/usage error (a request too large for memory
among them), 3 protocol error, 4 I/O error, 5 verification failure. One table
(`_EXIT_CODES`) maps exceptions to codes, with one `Error: ...` stderr line;
click reports bad flags itself, and any other exception is a bug (traceback).
Identical invocations (same flags, same seeds) write byte-identical files:
all randomness is counter-based and floats print with 17 significant digits.
Defaults may be set in an optional `spinwhiten.conf` (key=value lines) in the
working directory; flags win over the file.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from . import rng, signal as sig
from .errors import OutOfRange, ProtocolError, QubitCountExceeded, SpinWhitenError
from .program import MAX_SHOTS, execute, parse
from .qft import concentration_sweep, dft_matrix, qft_circuit
from .statevector import (
    ABSOLUTE_MAX_QUBITS,
    DEFAULT_MAX_QUBITS,
    ORACLE_MAX_QUBITS,
    dense_matrix,
)

EXIT_SYNTAX = 2
EXIT_PROTOCOL = 3
EXIT_IO = 4
EXIT_VERIFY = 5

CONFIG_NAME = "spinwhiten.conf"


@dataclass
class CliConfig:
    max_qubits: int = DEFAULT_MAX_QUBITS
    default_ensemble_size: int = 10**6
    output_format: str = "json"
    out_path: str | None = None
    master_seed: int = 0

    def validate(self) -> "CliConfig":
        if not 1 <= self.max_qubits <= ABSOLUTE_MAX_QUBITS:
            raise OutOfRange(
                f"max_qubits {self.max_qubits} outside [1, {ABSOLUTE_MAX_QUBITS}]")
        if self.default_ensemble_size < 1:
            raise OutOfRange("default_ensemble_size must be >= 1")
        if self.output_format not in ("csv", "json"):
            raise OutOfRange(f"unknown output_format {self.output_format!r}")
        _check_seed("master_seed", self.master_seed)
        return self


def _check_seed(name: str, seed: int) -> int:
    if not 0 <= seed <= rng.MASK64:  # streams read seeds mod 2^64, as for the DSL's seed=
        raise OutOfRange(f"{name} must lie in [0, 2^64), got {seed}")
    return seed


def _read_text(path: Path | str, what: str) -> str:
    """The file's UTF-8 text, a leading byte-order mark dropped after
    decoding, so a decode error's position is the file offset."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OutOfRange(f"{what} {path} is not UTF-8 text: {exc}") from exc


def load_config(path: Path | None) -> CliConfig:
    """Read key=value config; without --config, a missing file means defaults."""
    cfg = CliConfig()
    if path is None:
        path = Path(CONFIG_NAME)
        if not path.is_file():
            return cfg
    # only \n ends a line (`read_text` turns \r\n and \r into it), not \f
    for raw in _read_text(path, "config file").split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise OutOfRange(f"malformed config line: {raw!r}")
        if key in ("max_qubits", "default_ensemble_size", "master_seed"):
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise OutOfRange(
                    f"config key {key!r} needs an integer, got {value!r}") from exc
        elif key == "output_format":
            cfg.output_format = value
        elif key == "out_path":
            cfg.out_path = value
        else:
            raise OutOfRange(f"unknown config key {key!r}")
    return cfg.validate()


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _echo(message: str, err: bool = False) -> None:
    """click.echo to sys.stdout or sys.stderr as they are at call time.

    Without `file=`, click caches each stream in a WeakKeyDictionary whose
    value, for a text stream, is the stream itself, so every stream an
    in-process caller redirects into would be kept alive for good.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _g17(value: float) -> str:
    return f"{value:.17g}"


# Exception class -> exit code, first match wins. A bare ValueError is left
# out on purpose: it means a bug, so it keeps its traceback.
_EXIT_CODES = {
    ProtocolError: EXIT_PROTOCOL,
    QubitCountExceeded: EXIT_PROTOCOL,
    SpinWhitenError: EXIT_SYNTAX,
    OSError: EXIT_IO,
    MemoryError: EXIT_SYNTAX,
}


# No array numpy can index holds more than sys.maxsize bytes, so a size flag
# above this (complex128 elements, 16 bytes each) can never be allocated. It is
# refused up front as out of memory, where numpy would raise a bare ValueError.
_MAX_SIZE = sys.maxsize // 16


def _check_size(flag: str, value: int) -> None:
    if value > _MAX_SIZE:
        raise MemoryError(f"{flag} {value} exceeds {_MAX_SIZE} elements")


class _Main(click.Group):
    """The command group, and the one place where exceptions become exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(_EXIT_CODES) as exc:
            code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
            message = f"out of memory ({exc})" if isinstance(exc, MemoryError) else exc
            _echo(f"Error: {message}", err=True)
            sys.exit(code)


@click.group(cls=_Main)
@click.option("--config", "config_path", type=click.Path(path_type=Path), default=None,
              help=f"Config file (default: ./{CONFIG_NAME} when present).")
@click.pass_context
def main(ctx: click.Context, config_path: Path | None):
    """Desk-scale simulator of phase whitening + quantum Fourier readout."""
    ctx.obj = load_config(config_path)


@main.command("run")
@click.argument("program_path", type=str)
@click.option("--seed", type=int, default=None, help="Master seed (config default).")
@click.option("--ensemble-size", type=click.IntRange(min=1), default=None,
              help="Target spin count.")
@click.option("--out", "out_path", type=str, default=None, help="Report file path.")
@click.option("--format", "output_format", type=click.Choice(["json", "csv"]),
              default=None, help="Report format (config default).")
@click.pass_obj
def cmd_run(cfg: CliConfig, program_path: str, seed: int | None,
            ensemble_size: int | None, out_path: str | None,
            output_format: str | None):
    """Execute a pulse program and write its run report."""
    seed = cfg.master_seed if seed is None else _check_seed("--seed", seed)
    ensemble_size = cfg.default_ensemble_size if ensemble_size is None else ensemble_size
    output_format = output_format or cfg.output_format
    program = parse(_read_text(program_path, "program"), source_name=program_path)
    report = execute(program, ensemble_size, seed, max_qubits=cfg.max_qubits)

    out_path = out_path or cfg.out_path or f"run_report.{output_format}"
    if output_format == "json":
        _write_text(out_path, json.dumps(report.to_json_dict(), indent=2) + "\n")
    else:
        rows = ["index,count"]
        if report.histogram is not None:
            rows += [f"{i},{int(report.histogram[i])}"
                     for i in np.flatnonzero(report.histogram)]
        _write_text(out_path, "\n".join(rows) + "\n")
    for stage in report.stages:
        _echo(f"line {stage.line_no}: {stage.op} ({stage.elapsed_s:.3f}s)", err=True)
    if report.peak is not None:
        _echo(f"peak_readout: index={report.peak[0]} "
              f"probability={_g17(report.peak[1])}")
    else:
        _echo("peak_readout: no acquisition in program")
    _echo(f"report written to {out_path}")


@main.command("qft-verify")
@click.option("--max-qubits", "max_n", type=click.IntRange(1, ORACLE_MAX_QUBITS),
              default=8, help="Verify transforms for n = 1..k.")
def cmd_qft_verify(max_n: int):
    """Compare synthesized circuits against the direct transform matrix."""
    _echo("n,max_entrywise_error")
    worst = 0.0
    for n in range(1, max_n + 1):
        error = float(np.abs(dense_matrix(qft_circuit(n)) - dft_matrix(n)).max())
        worst = max(worst, error)
        _echo(f"{n},{_g17(error)}")
    if worst > 1e-12:
        _echo(f"Error: verification failed: max error {_g17(worst)} > 1e-12", err=True)
        sys.exit(EXIT_VERIFY)
    _echo(f"all transforms within 1e-12 (worst {_g17(worst)})")


@main.command("cat")
@click.option("--n-list", default="1,2,4,8,16,32,64,128,256,512,1024",
              help="Comma-separated averaging counts.")
@click.option("--seeds", type=click.IntRange(min=1), default=50,
              help="Monte Carlo repeats per N.")
@click.option("--line", "line_spec", default="125.0,1.0,inf",
              help="Spectral line as freq_hz,amp,t2_s.")
@click.option("--noise", type=float, default=sig.DEFAULT_CAT_NOISE_SIGMA,
              help="Complex noise std per component.")
@click.option("--length", type=int, default=sig.DEFAULT_CAT_LENGTH)
@click.option("--dwell", type=float, default=sig.DEFAULT_CAT_DWELL_S)
@click.option("--seed", type=int, default=None, help="Master seed (config default).")
@click.option("--out", "out_path", type=str, default=None, help="CSV output path.")
@click.pass_obj
def cmd_cat(cfg: CliConfig, n_list: str, seeds: int, line_spec: str, noise: float,
            length: int, dwell: float, seed: int | None, out_path: str | None):
    """Averaging study: SNR against number of averaged shots."""
    try:
        counts = [int(part) for part in n_list.split(",") if part.strip()]
        freq, amp, t2 = (float(part) for part in line_spec.split(","))
    except ValueError as exc:
        raise OutOfRange(f"malformed option: {exc}") from exc
    if not counts or min(counts) < 1:
        raise OutOfRange("--n-list needs positive integers")
    # a shot costs time in proportion to its samples, so the limit counts those
    samples = seeds * sum(counts) * length
    if samples > MAX_SHOTS:
        raise OutOfRange(f"{samples} samples (--seeds times the --n-list total times "
                         f"--length) exceed the limit of {MAX_SHOTS}")
    seed = cfg.master_seed if seed is None else _check_seed("--seed", seed)
    rows = sig.cat_experiment(
        counts, seeds, master_seed=seed,
        line=sig.SpectralLine(freq, amp, t2),
        noise_sigma=noise, length=length, dwell_s=dwell,
    )
    csv = ["N,mean_snr,std_snr"]
    csv += [f"{n},{_g17(mean)},{_g17(std)}" for n, mean, std in rows]
    out_path = out_path or cfg.out_path or "cat_snr.csv"
    _write_text(out_path, "\n".join(csv) + "\n")
    slope = sig.loglog_slope(rows)
    if slope is None:
        _echo("log-log slope: not applicable (need >= 2 distinct averaging counts)")
    else:
        _echo(f"log-log slope: {_g17(slope)}")
    _echo(f"csv written to {out_path}")


@main.command("budget")
@click.option("--stages", "overrides", default=None,
              help="Stage overrides, e.g. 'boltzmann=-5' or comma list.")
def cmd_budget(overrides: str | None):
    """Staged spin-population table (decade arithmetic)."""
    stages = dict(sig.DEFAULT_STAGES)
    if overrides is not None:
        parts = [part.strip() for part in overrides.split(",") if part.strip()]
        if not parts:
            raise OutOfRange("--stages given but empty")
        for part in parts:
            key, sep, value = part.partition("=")
            if not sep or key not in stages:
                raise OutOfRange(f"unknown or malformed stage override {part!r}")
            try:
                stages[key] = int(value)
            except ValueError as exc:
                raise OutOfRange(f"stage exponent must be integer: {part!r}") from exc
    chain = sig.spin_budget_chain(tuple(stages.items()))
    _echo("stage,cumulative_exponent,population")
    for stage in chain:
        _echo(f"{stage.label},{stage.exponent},{stage.population}")


@main.command("peak-sweep")
@click.option("--qubits", type=click.IntRange(1, 12), default=8,
              help="Register size n.")
@click.option("--grid", type=click.IntRange(2, None), default=10_000,
              help="Grid points over [0, 1).")
@click.option("--out", "out_path", type=str, default=None, help="CSV output path.")
@click.pass_obj
def cmd_peak_sweep(cfg: CliConfig, qubits: int, grid: int, out_path: str | None):
    """Concentration of the inverse transform over a dense phase grid."""
    _check_size("--grid", grid)
    gammas, argmax, peaks = concentration_sweep(qubits, grid)
    csv = ["gamma,argmax,peak_probability"]
    csv += map("{:.17g},{},{:.17g}".format, gammas.tolist(), argmax.tolist(), peaks.tolist())
    out_path = out_path or cfg.out_path or "peak_sweep.csv"
    _write_text(out_path, "\n".join(csv) + "\n")
    j = int(peaks.argmin())
    _echo(f"minimum peak probability: {_g17(float(peaks[j]))} "
          f"at gamma={_g17(float(gammas[j]))}")
    _echo(f"csv written to {out_path}")


if __name__ == "__main__":
    main()
