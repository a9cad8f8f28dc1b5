"""Command-line contract: exit codes, file outputs, byte determinism."""

import json
import subprocess
import sys

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


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "spinwhiten", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
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
        (("--noise", "1e200"), "not finite"),  # squaring the noise bins overflows
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
        ("--noise", "1e308"), ("--line", "125,1e308,inf"), ("--noise", "1e200"),
    ])
    def test_overflow_is_one_error_line_without_warning(self, tmp_path, args):
        result = run_cli("cat", "--n-list", "1,2", "--seeds", "2", *args, cwd=tmp_path)
        assert result.returncode == 2
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: SNR not finite")
        assert "nan" not in result.stdout

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


class TestOversizedRequest:
    """A request whose first large array exceeds the 2**47-byte user address
    space, which no allocator can grant, exits 2 with one Error line instead
    of a MemoryError traceback."""

    @pytest.mark.parametrize("args", [
        ("run", "big.pp", "--ensemble-size", "10"),  # 8e14 B of shot draws
        ("peak-sweep", "--qubits", "4", "--grid", str(10**14)),  # 8e14 B of grid
        ("cat", "--n-list", str(10**14), "--seeds", "1"),  # 8e14 B of shot seeds
        ("cat", "--length", str(1 << 45), "--n-list", "1", "--seeds", "1"),  # 2**48 B
    ])
    def test_exits_two_with_one_error_line(self, tmp_path, args):
        (tmp_path / "big.pp").write_text(
            CANONICAL.replace("shots=4096", f"shots={10**14}"), encoding="utf-8")
        result = run_cli(*args, cwd=tmp_path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("Error: out of memory")
        assert result.stdout == ""
