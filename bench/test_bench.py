"""Self-test of the benchmark harness, at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
(pytest puts this directory on sys.path, so the harness modules import by
name.) The package's own suite under tests/ does not collect this file.
"""

from __future__ import annotations

import json

import pytest

import run

cli = run.import_program()

import spans  # noqa: E402  (needs spinwhiten importable first)
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name, tmp_path):
    workload = WORKLOADS[name](seed=3, workdir=tmp_path, tiny=True)
    workload.prepare()
    return workload


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_leaves_output_files_byte_identical(name, tmp_path):
    workload = _tiny(name, tmp_path)
    tracer = spans.Tracer(run.PACKAGE, run.MODULES)
    root = tracer.wrap("cli.main", cli.main)
    for index in (1, 2):
        task = workload.task(index)
        outputs = []
        for traced in (False, True):
            task.out.unlink(missing_ok=True)
            if traced:
                tracer.install()
            try:
                _, _, stdout, error = run.call(root if traced else cli.main, task.argv)
            finally:
                if traced:
                    tracer.uninstall()
            assert error is None
            assert workload.check(task, stdout) is None
            outputs.append(task.out.read_bytes())
        assert outputs[0] == outputs[1]
    assert set(run.EXPECTED_SPANS[name]) <= tracer.fired()


def test_wrong_expected_value_counts_as_a_failed_task(tmp_path):
    workload = _tiny("register", tmp_path)
    make_task = workload.task

    def task_with_wrong_k(index):
        task = make_task(index)
        if index == 2:
            task.expected["k"] = (task.expected["k"] + 1) % (1 << workload.qubits)
        return task

    workload.task = task_with_wrong_k
    result = run.timed_loop(workload, cli, seconds=0.0, count=3)
    assert [f.split(":")[0] for f in result["failures"]] == ["task 2"]
    metrics = run.end_to_end_metrics([0.1], result["untraced"], len(result["failures"]))
    assert metrics["ok_rate"] == pytest.approx(2 / 3)


def test_tracer_patches_from_import_bindings_and_restores_them():
    from spinwhiten import ensemble, program

    receiver_signal, execute = ensemble.receiver_signal, program.execute
    tracer = spans.Tracer(run.PACKAGE, run.MODULES)
    tracer.install()
    try:
        assert program.receiver_signal is ensemble.receiver_signal is not receiver_signal
        assert cli.execute is program.execute is not execute
    finally:
        tracer.uninstall()
    assert program.receiver_signal is ensemble.receiver_signal is receiver_signal
    assert cli.execute is program.execute is execute


def test_tail_leaves_ten_samples_above():
    times = [float(t) for t in range(24, 0, -1)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == pytest.approx(100 * 14 / 24)


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_listed_metric(trace, key, capsys):
    argv = ["--workload", "sweep", "--seed", "1", "--seconds", "0", "--trace", str(trace),
            "--tiny"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in BENCHMARK[key]}
