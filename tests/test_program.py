"""DSL parser, protocol checker, and interpreter."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinwhiten import rng
from spinwhiten.errors import OutOfRange, ProtocolError, PulseSyntaxError
from spinwhiten.program import (
    MAX_SHOTS,
    Acquire,
    Encode,
    Iqft,
    Pulse90,
    Qft,
    Whiten,
    _read_again,
    _sample_outcomes,
    check,
    execute,
    format_program,
    parse,
)
from spinwhiten.qft import peak_readout, phase_encode, qft_circuit
from spinwhiten.statevector import StateVector, apply_circuit, probabilities

GOLDEN_DIR = Path(__file__).parent / "golden"
MAGIC_SEED = rng.seed_for_gamma(5 / 16)  # = 3192346357569502190

CANONICAL = (
    "pulse90 t\n"
    f"whiten t seed={MAGIC_SEED}\n"
    "encode r 4\n"
    "iqft r\n"
    "acquire shots=4096\n"
)


def reference_histogram(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Every shot drawn at once, unsorted: the histogram `acquire` must equal."""
    cum = np.cumsum(probs)
    draws = rng.uniforms(seed, shots) * cum[-1]
    outcomes = np.clip(np.searchsorted(cum, draws, side="right"), 0, len(cum) - 1)
    return np.bincount(outcomes, minlength=len(cum))


class TestParse:
    def test_five_statement_program(self):
        program = parse("pulse90 t\nwhiten t seed=7\nencode r 4\niqft r\nacquire shots=1024")
        assert program.statements == (
            Pulse90("t"),
            Whiten("t", 7),
            Encode("r", 4),
            Iqft("r"),
            Acquire(1024),
        )
        assert [s.line_no for s in program.statements] == [1, 2, 3, 4, 5]

    def test_empty_source(self):
        assert parse("").statements == ()

    def test_comments_and_blanks_ignored(self):
        program = parse("# ppv1\n\n  # note\npulse90 t  # trailing\n")
        assert program.statements == (Pulse90("t"),)
        assert program.statements[0].line_no == 4

    @pytest.mark.parametrize("separator", list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
                             ids=lambda c: f"U+{ord(c):04X}")
    def test_lines_end_only_at_newlines(self, separator):
        # str.splitlines also breaks at these; inside a comment they are text
        program = parse(f"pulse90 t # x{separator}y\nwhiten t # x{separator}y\r\n"
                        "encode r 4\riqft r\n")
        assert [s.line_no for s in program.statements] == [1, 2, 3, 4]
        with pytest.raises(PulseSyntaxError) as info:
            parse(f"pulse90 t # x{separator}y\nrelax t")
        assert (info.value.line, info.value.column) == (2, 1)

    def test_whiten_without_seed(self):
        assert parse("whiten t").statements == (Whiten("t", None),)

    def test_qft_with_wrong_arity_is_syntax_error(self):
        with pytest.raises(PulseSyntaxError) as info:
            parse("qft 4 r")
        assert info.value.line == 1

    def test_register_name_must_be_a_name(self):
        with pytest.raises(PulseSyntaxError) as info:
            parse("qft 4")
        assert info.value.line == 1
        assert info.value.column == 5

    def test_unknown_keyword(self):
        with pytest.raises(PulseSyntaxError) as info:
            parse("pulse90 t\nrelax t")
        assert info.value.line == 2
        assert info.value.column == 1

    def test_malformed_option(self):
        with pytest.raises(PulseSyntaxError):
            parse("acquire shots")
        with pytest.raises(PulseSyntaxError):
            parse("acquire count=5")
        with pytest.raises(PulseSyntaxError):
            parse("whiten t seed=abc")

    def test_non_integer_qubits(self):
        with pytest.raises(PulseSyntaxError) as info:
            parse("encode r four")
        assert info.value.column == 10

    def test_rejects_non_positive_counts(self):
        with pytest.raises(PulseSyntaxError):
            parse("encode r 0")
        with pytest.raises(PulseSyntaxError):
            parse("acquire shots=0")

    def test_rejects_uppercase_names(self):
        with pytest.raises(PulseSyntaxError):
            parse("pulse90 Target")

    def test_error_reports_source_column(self):
        with pytest.raises(PulseSyntaxError) as info:
            parse("pulse90     97bad")
        assert info.value.column == 13

    @pytest.mark.parametrize("source,line,column,message", [
        # one case per argument form
        ("pulse90 Target", 1, 9, "expected target name (got 'Target')"),
        ("qft 4", 1, 5, "expected register name (got '4')"),
        ("encode r four", 1, 10, "expected integer qubit count (got 'four')"),
        ("encode r 0", 1, 10, "qubit count must be >= 1, got 0"),
        ("acquire count=5", 1, 9, "expected shots=<int> (got 'count=5')"),
        ("acquire shots", 1, 9, "expected shots=<int> (got 'shots')"),
        ("acquire shots=x", 1, 9, "expected integer shots (got 'x')"),
        ("acquire shots=0", 1, 9, "shots must be >= 1, got 0"),
        ("whiten t seed=abc", 1, 10, "expected integer seed (got 'abc')"),
        ("whiten t shots=1", 1, 10, "expected seed=<int> (got 'shots=1')"),
        # seeds outside the stream's [0, 2^64), which would alias mod 2^64
        ("whiten t seed=-1", 1, 10, "seed must lie in [0, 2^64), got -1"),
        ("whiten t seed=18446744073709551616", 1, 10,
         "seed must lie in [0, 2^64), got 18446744073709551616"),
        # long tokens are echoed to 40 characters plus an ellipsis
        pytest.param("pulse90 " + "T" * 5000, 1, 9,
                     f"expected target name (got {'T' * 40 + '...'!r})", id="name-5000-chars"),
        pytest.param("pulse90 t\nwhiten t seed=" + "x" * 5000, 2, 10,
                     f"expected integer seed (got {'x' * 40 + '...'!r})", id="seed-5000-chars"),
        pytest.param("whiten t seed=" + "9" * 100, 1, 10,
                     f"seed must lie in [0, 2^64), got {'9' * 40}...", id="seed-100-digits"),
        # integers past Python's int-string digit limit
        pytest.param("pulse90 t\nwhiten t seed=-" + "9" * 5000, 2, 10,
                     "integer seed too long (5000 digits)", id="seed-5000-digits"),
        pytest.param("encode r " + "9" * 5000, 1, 10,
                     "integer qubit count too long (5000 digits)", id="count-5000-digits"),
        pytest.param("acquire shots=" + "9" * 5000, 1, 9,
                     "integer shots too long (5000 digits)", id="shots-5000-digits"),
        # arity: the column is the first extra token, or the last token given
        ("qft 4 r", 1, 7, "qft takes 1 argument, got 2"),
        ("pulse90 t u", 1, 11, "pulse90 takes 1 argument, got 2"),
        ("encode r", 1, 8, "encode takes 2 arguments, got 1"),
        ("acquire", 1, 1, "acquire takes 1 argument, got 0"),
        ("whiten", 1, 1, "whiten takes 1 or 2 arguments, got 0"),
        ("whiten t seed=1 x", 1, 17, "whiten takes 1 or 2 arguments, got 3"),
        # keyword
        ("relax t", 1, 1, "unknown keyword 'relax'"),
        ("pulse90 t\n\n  frobnicate x", 3, 3, "unknown keyword 'frobnicate'"),
    ])
    def test_error_message(self, source, line, column, message):
        with pytest.raises(PulseSyntaxError) as info:
            parse(source, source_name="p.pp")
        assert (info.value.line, info.value.column) == (line, column)
        assert str(info.value) == f"p.pp:line {line}, column {column}: {message}"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", sorted(GOLDEN_DIR.glob("*.pp")), ids=lambda p: p.stem
    )
    def test_golden_corpus(self, path):
        source = path.read_text(encoding="utf-8")
        program = parse(source, source_name=path.name)
        printed = format_program(program)
        assert parse(printed) == program
        # printing is canonical: a second pass is byte-identical
        assert format_program(parse(printed)) == printed

    @pytest.mark.parametrize("source", ["whiten t\n", "whiten t seed=18446744073709551615\n"])
    def test_whiten_seed_forms(self, source):
        program = parse(source)
        printed = format_program(program)
        assert printed == "# ppv1\n" + source
        assert parse(printed) == program

    def test_corpus_has_twenty_programs(self):
        assert len(list(GOLDEN_DIR.glob("*.pp"))) == 20


class TestCheck:
    def test_canonical_program_passes(self):
        program = parse(CANONICAL)
        assert check(program) is program

    def test_whiten_requires_prior_pulse(self):
        with pytest.raises(ProtocolError) as info:
            check(parse("whiten t"))
        assert info.value.line == 1

    def test_whiten_target_must_match_pulse_target(self):
        with pytest.raises(ProtocolError):
            check(parse("pulse90 a\nwhiten b"))

    def test_encode_requires_prior_whiten(self):
        with pytest.raises(ProtocolError) as info:
            check(parse("encode r 4"))
        assert info.value.line == 1

    def test_transform_requires_encoded_register(self):
        source = "pulse90 t\nwhiten t\nencode r 4\niqft other"
        with pytest.raises(ProtocolError) as info:
            check(parse(source))
        assert info.value.line == 4

    def test_acquire_requires_a_register(self):
        with pytest.raises(ProtocolError) as info:
            check(parse("pulse90 t\nwhiten t\nacquire shots=8"))
        assert info.value.line == 3

    def test_shot_limit_passes(self):
        program = parse(CANONICAL.replace("shots=4096", f"shots={MAX_SHOTS}"))
        assert check(program) is program

    def test_one_shot_over_the_limit_is_refused_with_its_line(self):
        source = CANONICAL.replace("shots=4096", f"shots={MAX_SHOTS + 1}")
        with pytest.raises(OutOfRange, match=r"^big\.pp:line 5: 4294967297 shots exceed"):
            check(parse(source, "big.pp"))


class TestExecute:
    def test_dyadic_representative_concentrates(self):
        program = parse(CANONICAL)
        # oracle first: the exact final distribution puts everything on 5
        report = execute(program, ensemble_size=100, master_seed=1)
        assert report.peak[0] == 5
        assert report.peak[1] >= 1 - 1e-12
        assert report.histogram.sum() == 4096
        assert report.histogram[5] / 4096 >= 0.99

    def test_histogram_counts_sum_to_shots(self):
        source = CANONICAL.replace("acquire shots=4096", "acquire shots=100\nacquire shots=50")
        report = execute(parse(source), ensemble_size=10, master_seed=0)
        assert report.shots == 150
        assert report.histogram.sum() == 150

    @pytest.mark.parametrize("qubits, shots", [(3, 3 * 2**16 + 17), (17, 2**18 + 5)])
    def test_streamed_histogram_equals_one_shot_draw(self, qubits, shots):
        # Shots are drawn in blocks; every uniform drawn at once must give
        # the same histogram.
        source = f"pulse90 t\nwhiten t seed=7\nencode r {qubits}\niqft r\nacquire shots={shots}"
        report = execute(parse(source), ensemble_size=10, master_seed=3)
        state = apply_circuit(phase_encode(rng.uniforms(7, 1)[0], qubits),
                              qft_circuit(qubits, inverse=True))
        expected = reference_histogram(probabilities(state)[0], shots, rng.derive(3, "acquire:0"))
        assert report.histogram.dtype == expected.dtype
        assert np.array_equal(report.histogram, expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_sorted_blocks_equal_unsorted_draws(self, seed):
        # ties, zero bins (leading, inner and trailing) and a total below 1;
        # the shots span several blocks and end in a partial one
        gen = np.random.default_rng(seed)
        bins = int(gen.integers(1, 80))
        levels = np.array([0.0, 0.0, 1 / 8, 1 / 8, 1 / 3, gen.random()])
        probs = gen.choice(levels, size=bins)
        probs[gen.integers(bins)] = 0.5
        probs *= gen.uniform(0.2, 0.999) / probs.sum()
        shots = int(gen.integers(1, 3 * 2**16 + 100))
        counts = _sample_outcomes(probs.copy(), np.empty(bins), shots, seed)
        assert np.array_equal(counts, reference_histogram(probs, shots, seed))
        assert not counts[probs == 0].any()

    @pytest.mark.parametrize("tail, second_circuit", [
        ("acquire shots=3000\nacquire shots=2000\n", None),
        ("acquire shots=3000\nqft r\nacquire shots=2000\n", qft_circuit(6)),
    ])
    def test_register_read_after_acquire_equals_reports_from_copies(self, tail, second_circuit):
        # the first readout reads a copy, since a later statement reads the register
        source = f"pulse90 t\nwhiten t seed=7\nencode r 6\niqft r\n{tail}"
        report = execute(parse(source), ensemble_size=10, master_seed=3)
        state = apply_circuit(phase_encode(rng.uniforms(7, 1)[0], 6), qft_circuit(6, inverse=True))
        expected = np.zeros(64, dtype=np.int64)
        for index, shots in enumerate((3000, 2000)):
            if index and second_circuit is not None:
                state = apply_circuit(state, second_circuit)
            probs = probabilities(StateVector(6, state.amps.copy(), state.order))[0]
            peak = peak_readout(probs)
            expected += reference_histogram(probs, shots, rng.derive(3, f"acquire:{index}"))
        assert np.array_equal(report.histogram, expected)
        assert report.peak == peak
        assert report.shots == 5000

    @pytest.mark.parametrize("tail, read", [
        ("", False),
        ("acquire shots=1", True),
        ("pulse90 t\nqft r", True),
        ("iqft r", True),
        ("encode r 3\nacquire shots=1", False),
        ("encode s 3\nacquire shots=1", False),
        ("encode s 3\nacquire shots=1\niqft r", True),
        ("qft s\nacquire shots=1\nencode r 3\nqft r", False),
    ])
    def test_read_again_finds_later_reads_of_the_register(self, tail, read):
        assert _read_again(parse(tail).statements, "r") is read

    def test_acquire_memory_flat_in_shots(self):
        # drawn at once, 10^7 shots would hold about 24 B each: 240 MB
        peaks = []
        for shots in (2**17, 10**7):
            program = parse(f"pulse90 t\nwhiten t seed=7\nencode r 3\niqft r\nacquire shots={shots}")
            tracemalloc.start()
            try:
                report = execute(program, ensemble_size=10, master_seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.histogram.sum() == shots
        assert peaks[1] <= peaks[0] + 2**16

    def test_execute_checks_protocol(self):
        with pytest.raises(ProtocolError):
            execute(parse("whiten t"), ensemble_size=10, master_seed=0)

    def test_bit_reproducible(self):
        program = parse(CANONICAL)
        a = execute(program, ensemble_size=500, master_seed=9)
        b = execute(program, ensemble_size=500, master_seed=9)
        assert np.array_equal(a.histogram, b.histogram)
        assert a.to_json_dict() == b.to_json_dict()

    def test_master_seed_changes_unseeded_whiten(self):
        source = "pulse90 t\nwhiten t\nencode r 6\niqft r\nacquire shots=64"
        a = execute(parse(source), ensemble_size=50, master_seed=1)
        b = execute(parse(source), ensemble_size=50, master_seed=2)
        assert a.to_json_dict() != b.to_json_dict()

    def test_explicit_seed_overrides_master(self):
        a = execute(parse(CANONICAL), ensemble_size=50, master_seed=1)
        b = execute(parse(CANONICAL), ensemble_size=50, master_seed=2)
        # whitening pinned by statement seed: same gamma, same histogram mode
        assert a.peak == b.peak
        assert int(a.histogram.argmax()) == int(b.histogram.argmax())

    def test_receiver_recorded_before_and_after(self):
        report = execute(parse(CANONICAL), ensemble_size=10_000, master_seed=3)
        receiver = report.receiver["t"]
        assert receiver["before_whiten"] == pytest.approx(1.0, abs=1e-12)
        assert receiver["after_whiten"] <= 5 / np.sqrt(10_000)

    def test_dyadic_modes_across_sizes(self):
        for n, k in [(2, 1), (4, 11), (6, 40), (8, 200)]:
            seed = rng.seed_for_gamma(k / (1 << n))
            source = (
                "pulse90 t\n"
                f"whiten t seed={seed}\n"
                f"encode r {n}\n"
                "iqft r\n"
                "acquire shots=256\n"
            )
            report = execute(parse(source), ensemble_size=8, master_seed=0)
            assert int(report.histogram.argmax()) == k
            assert report.peak[0] == k

    def test_forward_transform_lands_on_negated_index(self):
        # encode(k/2^n) equals the forward transform of |k>, and the
        # transform squared is the parity permutation, so qft (not iqft)
        # concentrates on -k mod 2^n.
        seed = rng.seed_for_gamma(5 / 16)
        source = (
            "pulse90 t\n"
            f"whiten t seed={seed}\n"
            "encode r 4\n"
            "qft r\n"
            "acquire shots=512\n"
        )
        report = execute(parse(source), ensemble_size=8, master_seed=0)
        assert report.peak[0] == (16 - 5) % 16
        assert report.peak[1] >= 1 - 1e-12

    def test_rejects_bad_ensemble_size(self):
        with pytest.raises(ValueError):
            execute(parse(CANONICAL), ensemble_size=0, master_seed=0)

    def test_register_size_capped_by_max_qubits(self):
        from spinwhiten.errors import QubitCountExceeded

        source = "pulse90 t\nwhiten t\nencode r 5\niqft r\nacquire shots=4"
        with pytest.raises(QubitCountExceeded):
            execute(parse(source), ensemble_size=4, master_seed=0, max_qubits=4)
        report = execute(parse(source), ensemble_size=4, master_seed=0, max_qubits=5)
        assert report.histogram.sum() == 4

    def test_twenty_qubit_register_allocation_peak(self):
        # the 16 MiB state alone: its readout writes the probabilities and
        # the histogram into the state's own buffer, and the transform adds
        # no second state (32.31 MiB when both were arrays of their own)
        k = 12345
        source = (f"pulse90 t\nwhiten t seed={rng.seed_for_gamma(k / 2**20)}\n"
                  "encode r 20\niqft r\nacquire shots=4096\n")
        program = parse(source)
        tracemalloc.start()
        try:
            report = execute(program, ensemble_size=1000, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.peak[0] == k
        assert peak <= 17.5 * 2**20


class TestRunReportJson:
    def test_shape_and_determinism_fields(self):
        report = execute(parse(CANONICAL), ensemble_size=20, master_seed=4)
        doc = report.to_json_dict()
        assert doc["source"] == "<string>"
        assert doc["ensemble_size"] == 20
        assert doc["master_seed"] == 4
        assert [entry["op"] for entry in doc["statements"]] == [
            "pulse90", "whiten", "encode", "iqft", "acquire",
        ]
        assert all("elapsed_s" not in entry for entry in doc["statements"])
        assert sum(item["count"] for item in doc["histogram"]) == 4096
        assert doc["peak_readout"]["index"] == 5

    def test_histogram_lists_only_populated_bins(self):
        report = execute(parse(CANONICAL), ensemble_size=20, master_seed=4)
        doc = report.to_json_dict()
        assert all(item["count"] > 0 for item in doc["histogram"])

    @pytest.mark.parametrize("whiten", [f"whiten t seed={MAGIC_SEED}", "whiten t"])
    def test_wide_register_lists_exactly_its_nonzero_bins(self, whiten):
        # 20 qubits: gamma 5/16 is dyadic (one bin); the derived seed is not
        source = f"pulse90 t\n{whiten}\nencode r 20\niqft r\nacquire shots=4096\n"
        report = execute(parse(source), ensemble_size=20, master_seed=4)
        entries = report.to_json_dict()["histogram"]
        counts = report.histogram.tolist()
        assert entries == [
            {"index": i, "count": c} for i, c in enumerate(counts) if c != 0
        ]
        assert all(type(e["index"]) is int and type(e["count"]) is int for e in entries)
        if "seed=" in whiten:
            assert entries == [{"index": 5 << 16, "count": 4096}]
        else:
            assert len(entries) > 1
