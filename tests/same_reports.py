"""Compare what two source trees report, command by command.

Usage: python tests/same_reports.py PARENT_SRC [--env KEY=VALUE ...]

Runs each command of a fixed list through ``python -m spinwhiten`` once with
this checkout's ``src`` on PYTHONPATH and once with PARENT_SRC (the ``src``
directory of another checkout, usually the parent commit's), each run in its
own empty temporary directory. It compares the exit code, stdout, stderr
(with the per-statement wall times of `run` left out) and every file the
command wrote (the programs of PROGRAMS, written there first, left out),
prints one line per command, and exits 1 if any of them differ. The two
sides run under different hash seeds (PYTHONHASHSEED 1 and 2), so a report
that hangs on set or dict order differs even between two copies of one tree. CI runs ``python tests/same_reports.py src``, this tree
against itself; a change meant to keep every report byte-identical also runs
it by hand against its parent's ``src``. pytest does not collect it, and a
change that moves digits on purpose fails the comparison with its parent.

``--env KEY=VALUE`` (repeatable) sets a variable for the PARENT_SRC side
only. CI also runs ``python tests/same_reports.py src --env
OPENBLAS_NUM_THREADS=2``: `import spinwhiten` keeps a value the caller set,
so that side runs its matrix products on two OpenBLAS threads, and a report
whose digits depend on how OpenBLAS splits a product across threads differs.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = sorted((HERE / "golden").glob("*.pp"))
CANONICAL = str(HERE / "golden" / "p01_canonical.pp")
GOLDEN_ARGS = ["--seed", "3", "--ensemble-size", "100000"]
# Programs beside the golden corpus, written into each command's directory:
# a 20-qubit register read out at a non-dyadic phase (a many-bin histogram),
# and a register read again after an acquire (its readout reads a copy).
PROGRAMS = {
    "wide_non_dyadic.pp": "pulse90 t\nwhiten t\nencode r 20\niqft r\nacquire shots=100000\n",
    "read_after_acquire.pp": ("pulse90 t\nwhiten t\nencode r 5\niqft r\nacquire shots=1000\n"
                              "acquire shots=500\nqft r\nacquire shots=700\n"),
}

COMMANDS = [
    *(["run", str(path), *GOLDEN_ARGS] for path in GOLDEN),
    *(["run", name, *GOLDEN_ARGS] for name in PROGRAMS),
    ["run", CANONICAL, *GOLDEN_ARGS, "--format", "csv"],
    ["run", CANONICAL, "--seed", "7"],
    ["cat", "--seeds", "3"],
    ["cat", "--noise", "0", "--line", "125,1,0.05", "--n-list", "1,2,4096", "--seeds", "2"],
    ["cat", "--line", "600,1,inf"],  # refused: the line misses the peak window
    ["cat", "--noise", "0"],  # refused: the noise window holds only rounding
    # refused: the noise window lies outside a 64-bin spectrum
    ["cat", "--length", "64", "--line", "468.75,1,0.02", "--n-list", "1,2", "--seeds", "1"],
    ["peak-sweep"],
    ["peak-sweep", "--qubits", "4", "--grid", "32"],
    ["peak-sweep", "--qubits", "12", "--grid", "1000"],  # chunks of 4 rows
    ["peak-sweep", "--qubits", "1", "--grid", "3"],  # one partial chunk
    ["budget"],
    ["qft-verify"],
]

# `run` ends each statement's stderr line with its wall time: "line 3: whiten (0.012s)".
_WALL_TIME = re.compile(rb"^(line \d+: \S+) \(\d+\.\d+s\)$", re.MULTILINE)


def outcome(src: Path, args: list[str], hash_seed: int,
            extra_env: dict[str, str]) -> dict[str, object]:
    """Exit code, output streams and written files of one command."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONHASHSEED": str(hash_seed), **extra_env}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in PROGRAMS.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "spinwhiten", *args],
                              cwd=tmp, env=env, capture_output=True, check=False)
        files = {path.relative_to(tmp).as_posix(): path.read_bytes()
                 for path in sorted(Path(tmp).rglob("*"))
                 if path.is_file() and path.name not in PROGRAMS}
    return {"exit code": done.returncode, "stdout": done.stdout,
            "stderr": _WALL_TIME.sub(rb"\1", done.stderr), "files": files}


def _assignment(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not key or not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tests/same_reports.py")
    parser.add_argument("parent_src", metavar="PARENT_SRC", type=Path,
                        help="a directory holding the spinwhiten package")
    parser.add_argument("--env", type=_assignment, action="append", default=[],
                        metavar="KEY=VALUE", help="set for the PARENT_SRC side only")
    options = parser.parse_args(argv[1:])
    if not (options.parent_src / "spinwhiten").is_dir():
        parser.error(f"{options.parent_src} holds no spinwhiten package")
    sides = ((HERE.parent / "src", {}), (options.parent_src.resolve(), dict(options.env)))
    failed = 0
    for args in COMMANDS:
        ours, theirs = (outcome(src, args, seed, env)
                        for seed, (src, env) in enumerate(sides, 1))
        differ = [key for key in ours if ours[key] != theirs[key]]
        failed += bool(differ)
        command = " ".join(Path(arg).name if arg.endswith(".pp") else arg for arg in args)
        verdict = f"DIFFERENT {', '.join(differ)}" if differ else "identical"
        print(f"{verdict}: {command} (exit {ours['exit code']})")
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
