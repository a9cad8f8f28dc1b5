"""The command line's error contract.

Every input exits 0, 2, 3, 4 or 5; a failure ends in one `Error` line, never
in a traceback, and a success prints no NaN. The fuzz tests drive `cli.main`
in-process and change one flag, one config line or one DSL line of a small
valid invocation at a time, so most cases reach the computation. Every size
they can reach is bounded (qubits <= 8, grid <= 256, shots <= 4096, ensemble
<= 1000, length <= 1024, N <= 64, seeds <= 2), so no case allocates much.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from spinwhiten import errors
from spinwhiten.cli import main
from spinwhiten.ensemble import SpinEnsemble
from spinwhiten.program import check, execute, parse
from spinwhiten.qft import concentration_sweep, phase_encode
from spinwhiten.rng import seed_for_gamma
from spinwhiten.statevector import GateOp

FUZZ = settings(max_examples=300, derandomize=True, deadline=None, database=None)

BASE_PROGRAM = ["pulse90 t", "whiten t seed=7", "encode r 4", "iqft r", "acquire shots=256"]
CANONICAL = "\n".join(BASE_PROGRAM) + "\n"


def invoke(args: list[str], files: dict[str, bytes]):
    """Run the CLI in a fresh directory holding `files`; returns the result
    and the text of every file the run wrote."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, content in files.items():
            Path(name).write_bytes(content)
        result = runner.invoke(main, args)
        written = {path.name: path.read_text(encoding="utf-8", errors="replace")
                   for path in Path().iterdir() if path.is_file() and path.name not in files}
    return result, written


def assert_contract(args: list[str], files: dict[str, bytes] | None = None) -> None:
    result, written = invoke(args, files or {})
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise AssertionError(f"{args}: raised {result.exception!r}") from result.exception
    assert result.exit_code in (0, 2, 3, 4, 5), (args, result.exit_code, result.stderr)
    if result.exit_code == 0:
        assert "nan" not in result.stdout.lower(), (args, result.stdout)
        for name, text in written.items():
            assert "nan" not in text.lower(), (args, name)
    else:
        assert result.stderr.splitlines()[-1].startswith("Error"), (args, result.stderr)


def flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(st.just(name), values)


def options(flags: dict[str, str]) -> list[str]:
    return [part for item in flags.items() for part in item]


ints_text = st.integers().map(str)
floats_text = st.one_of(st.floats().map(repr), st.sampled_from(["", "x", "1e999", "-inf", "0x10"]))
out_names = st.sampled_from(["out.txt", "", ".", "missing_dir/out.txt"])

# --- one line of the base program replaced, inserted or deleted -------------

dsl_token = st.one_of(
    st.sampled_from(["t", "r", "s", "T", "9x", "r_2", "#", "# note", "seed=", "shots=x", "=3"]),
    st.integers(-2, 8).map(str),  # as a qubit count, at most 8
    st.builds("seed={}".format, st.integers()),
    st.builds("shots={}".format, st.integers(-2, 4096)),
)
dsl_line = st.builds(
    lambda keyword, args: " ".join([keyword, *args]),
    st.sampled_from(["pulse90", "whiten", "encode", "qft", "iqft", "acquire", "frobnicate", ""]),
    st.lists(dsl_token, max_size=3),
)


@st.composite
def programs(draw) -> bytes:
    lines = list(BASE_PROGRAM)
    at = draw(st.integers(0, len(lines)))
    action = draw(st.sampled_from(["replace", "insert", "delete"]))
    if action == "insert" or at == len(lines):
        lines.insert(at, draw(dsl_line))
    elif action == "replace":
        lines[at] = draw(dsl_line)
    else:
        del lines[at]
    return ("\n".join(lines) + "\n").encode()


RUN_BASE = {"--ensemble-size": "100", "--seed": "1", "--out": "report.json"}
run_flag = st.one_of(
    flag("--seed", ints_text),
    flag("--ensemble-size", st.integers(-2, 1000).map(str)),
    flag("--format", st.sampled_from(["json", "csv", "xml", ""])),
    flag("--out", out_names),
)
config_line = st.one_of(
    st.builds("{}={}".format,
              st.sampled_from(["max_qubits", "default_ensemble_size", "master_seed", "volume"]),
              st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["", "abc", "1.5"]))),
    st.builds("output_format={}".format, st.sampled_from(["json", "csv", "xml"])),
    st.builds("out_path={}".format, out_names),
    st.sampled_from(["no equals sign", "# comment only", ""]),
)


@FUZZ
@given(st.one_of(
    programs().map(lambda source: ("program", source)),
    st.binary(max_size=32).map(lambda source: ("program", source)),
    run_flag.map(lambda change: ("flag", change)),
    config_line.map(lambda line: ("config", line)),
))
def test_run_fuzz(case):
    kind, value = case
    files = {"prog.pp": CANONICAL.encode()}
    flags = dict(RUN_BASE)
    if kind == "program":
        files["prog.pp"] = value
    elif kind == "flag":
        flags.update([value])
    else:
        files["spinwhiten.conf"] = value.encode() + b"\n"
    assert_contract(["run", "prog.pp", *options(flags)], files)


@st.composite
def line_specs(draw) -> str:
    parts = ["125.0", "1.0", "inf"]
    parts[draw(st.integers(0, 2))] = draw(floats_text)
    return draw(st.sampled_from([",".join(parts), ",".join(parts[:2]), ",".join(parts + ["1"])]))


CAT_BASE = {"--n-list": "1,4", "--seeds": "2", "--out": "cat.csv"}


@FUZZ
@given(st.one_of(
    flag("--n-list", st.one_of(
        st.lists(st.integers(-1, 64), max_size=4).map(lambda ns: ",".join(map(str, ns))),
        st.sampled_from(["", ",", "1,zap", "1;2", "4,4"]))),
    flag("--seeds", st.integers(-1, 2).map(str)),
    flag("--line", line_specs()),
    flag("--noise", floats_text),
    flag("--length", st.integers(-4, 1024).map(str)),
    flag("--dwell", floats_text),
    flag("--seed", ints_text),
    flag("--out", out_names),
))
def test_cat_fuzz(change):
    assert_contract(["cat", *options({**CAT_BASE, **dict([change])})])


SWEEP_BASE = {"--qubits": "3", "--grid": "64", "--out": "sweep.csv"}


@FUZZ
@given(st.one_of(
    flag("--qubits", st.integers(-1, 8).map(str)),
    flag("--grid", st.integers(-2, 256).map(str)),
    flag("--out", out_names),
))
def test_peak_sweep_fuzz(change):
    assert_contract(["peak-sweep", *options({**SWEEP_BASE, **dict([change])})])


stage_part = st.builds(
    "{}={}".format,
    st.sampled_from(["avogadro", "sample_tube", "boltzmann", "solute", "quux", ""]),
    st.one_of(ints_text, st.sampled_from(["", "x", "1.5"])),  # exponents are refused before use
)


@FUZZ
@given(st.lists(stage_part, max_size=4).map(",".join),
       st.integers(-1, 8).map(str))
def test_budget_and_qft_verify_fuzz(stages, max_qubits):
    assert_contract(["budget", "--stages", stages])
    assert_contract(["qft-verify", "--max-qubits", max_qubits])


# --- the mapping itself -----------------------------------------------------


@pytest.mark.parametrize("source,code,prefix", [
    ("pulse90 t\nfrobnicate r\n", 2, "Error: prog.pp:line 2, column 1: "),
    ("whiten t\n", 3, "Error: prog.pp:line 1: "),
    (CANONICAL.replace("encode r 4", "encode r 25"), 3, "Error: prog.pp:line 3: "),
])
def test_program_errors_name_file_and_line(source, code, prefix):
    result, _ = invoke(["run", "prog.pp", "--ensemble-size", "4"], {"prog.pp": source.encode()})
    assert result.exit_code == code
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(prefix)


def test_unwritable_output_is_io_error():
    result, _ = invoke(["peak-sweep", "--qubits", "2", "--grid", "4", "--out", "no/such.csv"], {})
    assert result.exit_code == 4
    assert len(result.stderr.splitlines()) == 1
    assert "no/such.csv" in result.stderr


def test_bare_value_error_keeps_its_traceback(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr("spinwhiten.cli.concentration_sweep", broken)
    result, _ = invoke(["peak-sweep", "--qubits", "2", "--grid", "4"], {})
    assert isinstance(result.exception, ValueError)
    assert result.exit_code == 1


def test_check_refuses_a_register_wider_than_max_qubits():
    source = CANONICAL.replace("acquire", "encode s 5\nacquire")
    with pytest.raises(errors.QubitCountExceeded, match=r"<string>:line 5: .*max_qubits=4"):
        check(parse(source), max_qubits=4)


def test_phase_encode_guards_absolute_limit():
    for n in (0, 31):
        with pytest.raises(errors.QubitCountExceeded):
            phase_encode(0.0, n)


@pytest.mark.parametrize("call", [
    lambda: SpinEnsemble(0),
    lambda: phase_encode(1.0, 2),
    lambda: concentration_sweep(2, 1),
    lambda: GateOp.controlled_phase(0, 1, order=0),
    lambda: execute(parse(CANONICAL), ensemble_size=0, master_seed=0),
    lambda: seed_for_gamma(1.5),
    lambda: seed_for_gamma(0.1),
], ids=["ensemble", "gamma", "grid", "order", "execute", "seed-range", "seed-dyadic"])
def test_range_errors_are_domain_errors(call):
    with pytest.raises(errors.OutOfRange) as info:
        call()
    assert isinstance(info.value, errors.SpinWhitenError)
    assert isinstance(info.value, ValueError)
