"""Command-line contract: exit codes, file outputs, byte determinism."""

import contextlib
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from conftest import subprocess_env

MAGIC_SEED = 3192346357569502190  # whitening seed whose first gamma is 5/16

CANONICAL = (
    "pulse90 t\n"
    f"whiten t seed={MAGIC_SEED}\n"
    "encode r 4\n"
    "iqft r\n"
    "acquire shots=4096\n"
)
BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark, as some editors save files


def run_cli(*args, cwd, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "spinwhiten", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
        timeout=timeout,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "demo.pp").write_text(CANONICAL, encoding="utf-8")
    return tmp_path


class TestRun:
    def test_valid_program(self, workdir):
        result = run_cli("run", "demo.pp", "--seed", "7", "--ensemble-size", "100",
                         "--out", "report.json", cwd=workdir)
        assert result.returncode == 0
        assert "peak_readout: index=5" in result.stdout
        doc = json.loads((workdir / "report.json").read_text())
        assert doc["master_seed"] == 7
        assert sum(item["count"] for item in doc["histogram"]) == 4096
        assert doc["histogram"][0] == {"index": 5, "count": 4096}

    def test_csv_format(self, workdir):
        result = run_cli("run", "demo.pp", "--seed", "1", "--ensemble-size", "10",
                         "--out", "hist.csv", "--format", "csv", cwd=workdir)
        assert result.returncode == 0
        lines = (workdir / "hist.csv").read_text().splitlines()
        assert lines[0] == "index,count"
        assert lines[1] == "5,4096"

    def test_wide_register_csv_lists_nonzero_bins(self, tmp_path):
        source = CANONICAL.replace("encode r 4", "encode r 20")
        (tmp_path / "wide.pp").write_text(source, encoding="utf-8")
        for fmt in ("csv", "json"):
            result = run_cli("run", "wide.pp", "--ensemble-size", "10",
                             "--out", f"hist.{fmt}", "--format", fmt, cwd=tmp_path)
            assert result.returncode == 0
        lines = (tmp_path / "hist.csv").read_text().splitlines()
        doc = json.loads((tmp_path / "hist.json").read_text())
        assert lines == ["index,count"] + [
            f"{e['index']},{e['count']}" for e in doc["histogram"]
        ]
        assert lines[1:] == [f"{5 << 16},4096"]

    def test_missing_file_is_io_error(self, tmp_path):
        result = run_cli("run", "nope.pp", cwd=tmp_path)
        assert result.returncode == 4
        assert "nope.pp" in result.stderr

    def test_syntax_error_exit_code(self, tmp_path):
        (tmp_path / "bad.pp").write_text("pulse90 t\nfrobnicate r\n")
        result = run_cli("run", "bad.pp", cwd=tmp_path)
        assert result.returncode == 2
        assert "line 2" in result.stderr

    def test_protocol_error_exit_code(self, tmp_path):
        (tmp_path / "order.pp").write_text("whiten t\n")
        result = run_cli("run", "order.pp", cwd=tmp_path)
        assert result.returncode == 3
        assert "line 1" in result.stderr

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_non_positive_ensemble_size_is_usage_error(self, workdir, size):
        result = run_cli("run", "demo.pp", "--ensemble-size", size, cwd=workdir)
        assert result.returncode == 2
        assert "--ensemble-size" in result.stderr
        assert "Traceback" not in result.stderr

    def test_register_capped_by_max_qubits(self, tmp_path):
        (tmp_path / "wide.pp").write_text(
            "pulse90 t\nwhiten t\nencode r 25\niqft r\nacquire shots=2\n"
        )
        result = run_cli("run", "wide.pp", "--ensemble-size", "4", cwd=tmp_path)
        assert result.returncode == 3
        assert "max_qubits" in result.stderr


class TestQftVerify:
    def test_small_register_table(self, tmp_path):
        result = run_cli("qft-verify", "--max-qubits", "3", cwd=tmp_path)
        assert result.returncode == 0
        rows = result.stdout.strip().splitlines()
        assert rows[0] == "n,max_entrywise_error"
        assert len(rows) == 5  # header + 3 rows + summary
        for row in rows[1:4]:
            n, error = row.split(",")
            assert float(error) <= 1e-12

    def test_oracle_guard_is_usage_error(self, tmp_path):
        result = run_cli("qft-verify", "--max-qubits", "11", cwd=tmp_path)
        assert result.returncode == 2


class TestBudget:
    def test_default_chain(self, tmp_path):
        result = run_cli("budget", cwd=tmp_path)
        assert result.returncode == 0
        rows = result.stdout.strip().splitlines()
        assert rows[0] == "stage,cumulative_exponent,population"
        populations = [int(row.split(",")[2]) for row in rows[1:]]
        assert populations == [10**23, 10**20, 10**14, 10**11]

    def test_boltzmann_override(self, tmp_path):
        result = run_cli("budget", "--stages", "boltzmann=-5", cwd=tmp_path)
        assert result.returncode == 0
        last = result.stdout.strip().splitlines()[-1]
        assert int(last.split(",")[2]) == 10**12

    def test_empty_override_rejected(self, tmp_path):
        result = run_cli("budget", "--stages", "", cwd=tmp_path)
        assert result.returncode == 2

    def test_unknown_stage_rejected(self, tmp_path):
        result = run_cli("budget", "--stages", "quux=-1", cwd=tmp_path)
        assert result.returncode == 2


class TestPeakSweep:
    def test_grid_csv(self, tmp_path):
        # grid 100 at n=4 has no gamma exactly between two dyadics, so the
        # round-half-up rule matches the sweep's tie-free argmax everywhere
        result = run_cli("peak-sweep", "--qubits", "4", "--grid", "100",
                         "--out", "sweep.csv", cwd=tmp_path)
        assert result.returncode == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "gamma,argmax,peak_probability"
        assert len(rows) == 101
        for row in rows[1:]:
            gamma, argmax, peak = row.split(",")
            expected = int(float(gamma) * 16 + 0.5) % 16
            assert int(argmax) == expected
        # dyadic grid points (j = 0, 25, 50, 75) concentrate fully
        dyadic_peaks = [float(rows[1 + j].split(",")[2]) for j in (0, 25, 50, 75)]
        assert min(dyadic_peaks) >= 1 - 1e-12
        assert "minimum peak probability" in result.stdout

    def test_qubit_guard(self, tmp_path):
        result = run_cli("peak-sweep", "--qubits", "13", cwd=tmp_path)
        assert result.returncode == 2


class TestCat:
    def test_single_count_has_no_slope(self, tmp_path):
        result = run_cli("cat", "--n-list", "1", "--seeds", "3",
                         "--out", "cat.csv", cwd=tmp_path)
        assert result.returncode == 0
        assert "not applicable" in result.stdout
        rows = (tmp_path / "cat.csv").read_text().splitlines()
        assert rows[0] == "N,mean_snr,std_snr"
        assert len(rows) == 2

    def test_bad_n_list(self, tmp_path):
        result = run_cli("cat", "--n-list", "1,zap", cwd=tmp_path)
        assert result.returncode == 2

    @pytest.mark.parametrize("args,message", [
        (("--length", "100"), "power of two"),
        (("--line", "600,1,inf"), "Nyquist"),
        (("--length", "64"), "window"),
        (("--seeds", "0"), "--seeds"),
        (("--dwell", "0"), "dwell"),
        (("--dwell", "nan"), "dwell"),
        (("--noise", "nan"), "noise sigma"),
        (("--noise", "inf"), "noise sigma"),
        (("--line", "nan,1,inf"), "frequency"),
        (("--line", "125,inf,inf"), "amplitude"),
        (("--length", "512"), "peak window"),  # 125 Hz lands in bin 64
        (("--line", "200,1,inf"), "peak window"),  # bin 51
        (("--noise", "1e308"), "not finite"),  # the noise overflows to inf
        (("--line", "125,1e308,inf"), "not finite"),  # the average overflows
        (("--noise", "0"), "rounding error"),  # the noise window holds FFT rounding
        (("--noise", "1e-299"), "rounding error"),
    ])
    def test_invalid_input_is_usage_error(self, tmp_path, args, message):
        result = run_cli("cat", "--n-list", "1,2", *args, "--out", "cat.csv", cwd=tmp_path)
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if line.startswith("Error")] \
            == [result.stderr.splitlines()[-1]]
        assert not (tmp_path / "cat.csv").exists()


    @pytest.mark.parametrize("args", [
        ("--noise", "1e308"), ("--line", "125,1e308,inf"),
    ])
    def test_overflow_is_one_error_line_without_warning(self, tmp_path, args):
        result = run_cli("cat", "--n-list", "1,2", "--seeds", "2", *args, cwd=tmp_path)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: SNR not finite")
        assert "nan" not in result.stdout

    def test_small_noise_above_rounding_floor_runs(self, tmp_path):
        # noise RMS about 9e-14 of the peak, above the 64 eps rounding floor
        result = run_cli("cat", "--n-list", "1,4", "--seeds", "2", "--noise", "1e-12",
                         cwd=tmp_path)
        assert result.returncode == 0
        slope = float(result.stdout.splitlines()[0].removeprefix("log-log slope: "))
        assert slope == pytest.approx(0.4419, abs=0.02)

    def test_noise_beyond_sqrt_of_float_max_runs(self, tmp_path):
        # the noise bins' squares would overflow; estimate_snr scales them first
        result = run_cli("cat", "--n-list", "1,4", "--seeds", "2", "--noise", "1e200",
                         "--out", "cat.csv", cwd=tmp_path)
        assert result.returncode == 0
        assert result.stderr == ""
        rows = (tmp_path / "cat.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)

    def test_equal_counts_have_no_slope(self, tmp_path):
        result = run_cli("cat", "--n-list", "1,1", "--seeds", "2", cwd=tmp_path)
        assert result.returncode == 0
        assert "not applicable" in result.stdout
        assert "nan" not in result.stdout
        assert result.stderr == ""


class TestDeterminism:
    def test_run_twice_byte_identical(self, workdir):
        for name in ("a.json", "b.json"):
            result = run_cli("run", "demo.pp", "--seed", "5",
                             "--ensemble-size", "200", "--out", name, cwd=workdir)
            assert result.returncode == 0
        assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()

    def test_cat_twice_byte_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            result = run_cli("cat", "--n-list", "1,4", "--seeds", "4",
                             "--seed", "11", "--out", name, cwd=tmp_path)
            assert result.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_peak_sweep_twice_byte_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            result = run_cli("peak-sweep", "--qubits", "3", "--grid", "100",
                             "--out", name, cwd=tmp_path)
            assert result.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_stdout_equality_across_runs(self, tmp_path):
        first = run_cli("qft-verify", "--max-qubits", "4", cwd=tmp_path)
        second = run_cli("qft-verify", "--max-qubits", "4", cwd=tmp_path)
        assert first.stdout == second.stdout


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        (tmp_path / "spinwhiten.conf").write_text(
            "master_seed=5\ndefault_ensemble_size=50\nout_path=from_conf.json\n"
        )
        (tmp_path / "demo.pp").write_text(CANONICAL)
        result = run_cli("run", "demo.pp", cwd=tmp_path)
        assert result.returncode == 0
        doc = json.loads((tmp_path / "from_conf.json").read_text())
        assert doc["master_seed"] == 5
        assert doc["ensemble_size"] == 50

    def test_flags_override_config(self, tmp_path):
        (tmp_path / "spinwhiten.conf").write_text("master_seed=5\n")
        (tmp_path / "demo.pp").write_text(CANONICAL)
        result = run_cli("run", "demo.pp", "--seed", "9", "--ensemble-size", "10",
                         "--out", "r.json", cwd=tmp_path)
        assert result.returncode == 0
        assert json.loads((tmp_path / "r.json").read_text())["master_seed"] == 9

    def test_byte_order_mark_is_dropped(self, tmp_path):
        (tmp_path / "spinwhiten.conf").write_bytes(BOM + b"master_seed=5\n")
        (tmp_path / "demo.pp").write_text(CANONICAL)
        result = run_cli("run", "demo.pp", "--ensemble-size", "10", "--out", "r.json",
                         cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert json.loads((tmp_path / "r.json").read_text())["master_seed"] == 5

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "spinwhiten.conf").write_text("volume=11\n")
        result = run_cli("budget", cwd=tmp_path)
        assert result.returncode == 2

    def test_non_integer_value_rejected(self, tmp_path):
        (tmp_path / "spinwhiten.conf").write_text("max_qubits=abc\n")
        result = run_cli("budget", cwd=tmp_path)
        assert result.returncode == 2
        assert "max_qubits" in result.stderr
        assert "Traceback" not in result.stderr

    def test_config_max_qubits_rejects_wide_register(self, tmp_path):
        (tmp_path / "spinwhiten.conf").write_text("max_qubits=3\n")
        (tmp_path / "demo.pp").write_text(CANONICAL)  # encodes 4 qubits
        result = run_cli("run", "demo.pp", "--ensemble-size", "4", cwd=tmp_path)
        assert result.returncode == 3
        assert "max_qubits" in result.stderr


NOT_UTF8 = b"pulse90 t\n\xff\xfe\n"


class TestUnreadableInput:
    """Input that used to end in a traceback exits 2 with one Error line."""

    @pytest.mark.parametrize("args,files,message", [
        (("run", "bad.pp"), {"bad.pp": NOT_UTF8}, "bad.pp is not UTF-8"),
        (("--config", "bad.conf", "budget"), {"bad.conf": b"master_seed=\xff\n"},
         "bad.conf is not UTF-8"),
        (("budget", "--stages", "avogadro=5000"), {}, "10^5000"),
    ])
    def test_exits_two_with_one_error_line(self, tmp_path, args, files, message):
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        result = run_cli(*args, cwd=tmp_path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert [line for line in result.stderr.splitlines() if line.startswith("Error")] \
            == [result.stderr.splitlines()[-1]]
        assert message in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("prefix", [b"", BOM])
def test_decode_error_names_the_file_offset(tmp_path, prefix):
    # the byte-order mark is dropped after decoding, so it counts in the position
    from spinwhiten import cli
    from spinwhiten.errors import OutOfRange

    path = tmp_path / "bad.pp"
    path.write_bytes(prefix + b"pulse90 t\n\xff\n")
    with pytest.raises(OutOfRange) as info:
        cli._read_text(path, "program")
    assert str(info.value) == (
        f"program {path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        f"in position {len(prefix) + 10}: invalid start byte")


class TestOwnUsageErrors:
    """A bad value that the program itself rejects (not click's flag checks)
    prints exactly one Error line, with no usage lines before it."""

    @pytest.mark.parametrize("args,files,message", [
        (("--config", "b.conf", "budget"), {"b.conf": b"max_qubits=99\n"},
         "max_qubits 99 outside [1, 30]"),
        (("run", "bad.pp"), {"bad.pp": NOT_UTF8}, "program bad.pp is not UTF-8 text"),
        (("cat", "--n-list", "1,x"), {}, "malformed option"),
        (("budget", "--stages", "foo=1"), {}, "unknown or malformed stage override 'foo=1'"),
        pytest.param(("run", "long.pp"), {"long.pp": b"pulse90 t\nwhiten t seed=" + b"7" * 5000},
                     "long.pp:line 2, column 10: integer seed too long (5000 digits)",
                     id="dsl-int-5000-digits"),
        # 10**19 spins would take years of receiver sums; both routes refuse
        # them before any statement runs
        pytest.param(("run", "demo.pp", "--ensemble-size", str(10**19)),
                     {"demo.pp": CANONICAL.encode()},
                     "ensemble size 10000000000000000000 exceeds the limit of 4294967296",
                     id="ensemble-size-flag"),
        pytest.param(("run", "demo.pp"),
                     {"demo.pp": CANONICAL.encode(),
                      "spinwhiten.conf": b"default_ensemble_size=10000000000000000000\n"},
                     "ensemble size 10000000000000000000 exceeds the limit of 4294967296",
                     id="ensemble-size-config"),
        # the streams read a seed mod 2^64, so 2^64 would run as seed 0 and -1
        # as 2^64 - 1; every route refuses them, as the DSL's seed= does
        pytest.param(("run", "demo.pp", "--seed", str(1 << 64)), {"demo.pp": CANONICAL.encode()},
                     "--seed must lie in [0, 2^64), got 18446744073709551616", id="run-seed"),
        pytest.param(("cat", "--n-list", "1", "--seeds", "1", "--seed", "-1"), {},
                     "--seed must lie in [0, 2^64), got -1", id="cat-seed"),
        pytest.param(("run", "demo.pp"),
                     {"demo.pp": CANONICAL.encode(), "spinwhiten.conf": b"master_seed=-1\n"},
                     "master_seed must lie in [0, 2^64), got -1", id="master-seed-config"),
    ])
    def test_one_error_line(self, tmp_path, args, files, message):
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        result = run_cli(*args, cwd=tmp_path, timeout=60)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"Error: {message}")
        assert result.stdout == ""


OUT_OF_MEMORY = "out of memory"


class TestOversizedRequest:
    """A request whose first large array exceeds the 2**47-byte user address
    space, which no allocator can grant, exits 2 with one Error line instead
    of a MemoryError traceback; so does a --grid above sys.maxsize // 16,
    which numpy cannot index at all and the CLI refuses before allocating. A
    `cat` of more than 2**32 samples in all (--seeds times the --n-list total
    times --length) is refused as too much work before any shot is drawn, a
    count or length that no array could hold among them. (`run` has no such
    request: its shots are drawn in blocks of fixed size.)"""

    @pytest.mark.parametrize("args,refusal", [
        pytest.param(("peak-sweep", "--qubits", "4", "--grid", str(10**14)), OUT_OF_MEMORY,
                     id="sweep-grid"),  # 8e14 B of grid
        pytest.param(("cat", "--n-list", str(10**14), "--seeds", "1"),
                     "25600000000000000 samples (--seeds times the --n-list total times "
                     "--length) exceed the limit of 4294967296", id="cat-shots"),
        pytest.param(("cat", "--n-list", "1", "--seeds", str(10**19)),
                     "2560000000000000000000 samples (--seeds times the --n-list total times "
                     "--length) exceed the limit of 4294967296", id="cat-seeds"),
        # fewer than 2**32 shots, but 2**32 + 256 samples
        pytest.param(("cat", "--n-list", "16777217", "--seeds", "1"),
                     "4294967552 samples (--seeds times the --n-list total times "
                     "--length) exceed the limit of 4294967296", id="cat-samples"),
        pytest.param(("cat", "--length", str(1 << 45), "--n-list", "1", "--seeds", "1"),
                     "35184372088832 samples (--seeds times the --n-list total times "
                     "--length) exceed the limit of 4294967296", id="cat-length"),
        pytest.param(("cat", "--n-list", str(10**19), "--seeds", "1"),
                     "2560000000000000000000 samples (--seeds times the --n-list total times "
                     "--length) exceed the limit of 4294967296", id="cat-shots-above-int64"),
        pytest.param(("peak-sweep", "--qubits", "4", "--grid", str(10**19)), OUT_OF_MEMORY,
                     id="sweep-grid-above-int64"),
        pytest.param(("cat", "--length", str(1 << 62), "--n-list", "1", "--seeds", "1"),
                     "4611686018427387904 samples (--seeds times the --n-list total times "
                     "--length) exceed the limit of 4294967296", id="cat-length-above-intp-bytes"),
        pytest.param(("cat", "--n-list", str(1 << 61), "--seeds", "1"),
                     "590295810358705651712 samples (--seeds times the --n-list total times "
                     "--length) exceed the limit of 4294967296", id="cat-shots-above-intp-bytes"),
        pytest.param(("peak-sweep", "--qubits", "4", "--grid", str(1 << 61)), OUT_OF_MEMORY,
                     id="sweep-grid-above-intp-bytes"),
    ])
    def test_exits_two_with_one_error_line(self, tmp_path, args, refusal):
        result = run_cli(*args, cwd=tmp_path, timeout=60)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"Error: {refusal}")
        assert result.stdout == ""


def test_acquire_over_the_shot_limit_exits_two_at_once(tmp_path):
    # sampling 2**32 + 1 shots would take minutes; the check refuses them first
    source = CANONICAL.replace("shots=4096", f"shots={(1 << 32) + 1}")
    (tmp_path / "big.pp").write_text(source, encoding="utf-8")
    result = run_cli("run", "big.pp", cwd=tmp_path, timeout=60)
    assert result.returncode == 2
    assert result.stderr == (
        "Error: big.pp:line 5: 4294967297 shots exceed the limit of 4294967296\n")
    assert result.stdout == ""


GOLDEN_DIR = Path(__file__).parent / "golden"
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def test_program_with_byte_order_mark_writes_the_same_report(tmp_path):
    # one file name in two directories, since the report names its source
    source = (GOLDEN_DIR / "p01_canonical.pp").read_bytes()
    reports = []
    for name, prefix in (("plain", b""), ("bom", BOM)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "p01.pp").write_bytes(prefix + source)
        result = run_cli("run", "p01.pp", "--seed", "3", "--ensemble-size", "1000",
                         "--out", "report.json", cwd=tmp_path / name)
        assert result.returncode == 0, result.stderr
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


def run_python(script, cwd=None, **env_changes):
    """Run `script` in a fresh interpreter without BLAS_THREADS, unless given."""
    env = subprocess_env()
    env.pop(BLAS_THREADS, None)
    env.update(env_changes)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=cwd, env=env, check=True)


IMPORT_PROBE = """
import json, os, time
cpu, wall = time.process_time(), time.perf_counter()
import spinwhiten.cli
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps([threads, cpu, wall, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


class TestBlasThreads:
    """`import spinwhiten` loads OpenBLAS with one thread, so no idle worker
    spins a second core, and leaves the environment as it found it."""

    def test_import_leaves_one_thread_and_spins_no_second_core(self):
        threads, cpu, wall, _ = json.loads(run_python(IMPORT_PROBE).stdout)
        if threads is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert threads == 1
        assert cpu <= wall + 0.02

    def test_import_removes_the_variable_it_set(self):
        assert json.loads(run_python(IMPORT_PROBE).stdout)[3] is None

    def test_explicit_setting_is_kept(self):
        result = run_python(IMPORT_PROBE, **{BLAS_THREADS: "2"})
        assert json.loads(result.stdout)[3] == "2"

    def test_reports_do_not_depend_on_blas_thread_count(self, tmp_path):
        commands = [
            ["run", str(GOLDEN_DIR / "p01_canonical.pp"), "--seed", "7", "--out", "run.json"],
            ["cat", "--n-list", "1,4,16", "--seeds", "3", "--out", "cat.csv"],
            ["peak-sweep", "--qubits", "6", "--grid", "2000", "--out", "sweep.csv"],
        ]
        script = (
            "from spinwhiten.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    main(argv, standalone_mode=False)\n"
        )
        digests = []
        for name, env in (("default", {}), ("two", {BLAS_THREADS: "2"})):
            (tmp_path / name).mkdir()
            run_python(script, cwd=tmp_path / name, **env)
            digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in (tmp_path / name).iterdir()})
        assert sorted(digests[0]) == ["cat.csv", "run.json", "sweep.csv"]
        assert digests[0] == digests[1]


class TestInProcessStreams:
    """An in-process caller that redirects stdout and stderr gets its streams
    back: the command line keeps no reference to them after it returns."""

    def test_redirected_streams_are_released(self, tmp_path, monkeypatch):
        from spinwhiten import cli

        monkeypatch.chdir(tmp_path)  # no spinwhiten.conf is read
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(["budget"], standalone_mode=False)
            with pytest.raises(SystemExit) as exit_info:
                cli.main(["budget", "--stages", "quux=-1"], standalone_mode=False)
        assert exit_info.value.code == 2
        assert out.getvalue().startswith("stage,cumulative_exponent,population\n")
        assert err.getvalue().startswith("Error: ")
        released = weakref.ref(out), weakref.ref(err)
        del out, err
        gc.collect()
        assert [ref() for ref in released] == [None, None]
