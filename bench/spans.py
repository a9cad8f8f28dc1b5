"""Span tracing of spinwhiten's layers from outside the package.

`Tracer` wraps every public function of the named modules. A wrapper is
installed on every binding of the original function object in the package:
the defining module, the package's re-exports, and names bound with
`from ... import` (as in `program` and `cli`). Nothing under src/ changes,
and `uninstall` restores each binding, so untraced tasks run the original
code.

Spans are aggregated in memory as they close, per function name
("module.function"): calls, self time, exceptions raised through
the call, work counters computed from the call's arguments, and distinct
argument keys per traced task (for useful-work ratios). Self time is the
span's duration minus the time covered by its child spans. Spans read the
wall clock (`perf_counter`): a CPU-time clock costs a system call per read,
which would multiply the overhead on the many tiny spans of `cat`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable


def _inverse_qft_gates(n: int) -> int:
    # n Hadamards, n(n-1)/2 controlled phases, floor(n/2) swaps
    return n + n * (n - 1) // 2 + n // 2


# Work counters from call arguments: span -> counter -> (parameter names, f).
COUNTERS: dict[str, dict[str, tuple[tuple[str, ...], Callable]]] = {
    "rng.uniforms": {"draws": (("count",), int)},
    "rng.normals": {"draws": (("count",), int)},
    "ensemble.receiver_signal": {"spins": (("ensemble",), len)},
    "statevector.apply_circuit": {
        "amp_gate_passes": (("circuit",), lambda c: len(c.gates) << c.num_qubits),
    },
    "qft.concentration_sweep": {
        "amp_gate_passes": (("n", "grid_points"),
                            lambda n, grid: grid * _inverse_qft_gates(n) << n),
    },
    "fourier.fft_forward": {"points": (("x",), len)},
    "program.execute": {
        "shots": (("program",),
                  lambda p: sum(getattr(s, "shots", 0) for s in p.statements)),
    },
}

# Calls with equal keys within one task repeat work: span -> (parameter names, key).
DISTINCT_KEYS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "fourier.bit_reverse_indices": (("n",), lambda n: n),
    "signal.synth_fid": (("lines", "length", "dwell_s"),
                         lambda lines, length, dwell: (tuple(lines), length, dwell)),
}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    keys: set = field(default_factory=set)
    task_calls: int = 0  # calls since the current traced task began
    tasks_called: int = 0  # traced tasks with at least one call
    useful_ratio_sum: float = 0.0  # sum over those tasks of distinct keys / calls

    def useful_ratio(self) -> float:
        """Mean over traced tasks of distinct argument keys per call; 0 if never called."""
        return self.useful_ratio_sum / self.tasks_called if self.tasks_called else 0.0


def _arg_reader(fn: Callable, names: tuple[str, ...]) -> Callable | None:
    """reader(args, kwargs) -> values of parameters `names`; None if one is gone."""
    params = list(inspect.signature(fn).parameters.values())
    where = {p.name: (i, p.default) for i, p in enumerate(params)}
    if not set(names) <= set(where):
        return None
    slots = [where[name] + (name,) for name in names]

    def read(args, kwargs):
        return [args[i] if i < len(args) else kwargs.get(name, default)
                for i, default, name in slots]

    return read


class Tracer:
    """Wraps the public functions of spinwhiten modules and aggregates spans."""

    def __init__(self, package: str, modules: list[str]):
        self.package = package
        self.stats: dict[str, SpanStats] = {}
        self.unavailable: list[str] = []  # counters whose parameters no longer exist
        self.tasks = 0
        self._stack: list[float] = []
        self._bindings: list[tuple[ModuleType, str, Callable, Callable]] = []
        for short in modules:
            module = sys.modules[f"{package}.{short}"]
            for attr, fn in sorted(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    self._bind(f"{short}.{attr}", fn)

    def _bind(self, name: str, fn: Callable) -> None:
        wrapper = self.wrap(name, fn)
        prefix = self.package + "."
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name == self.package or module_name.startswith(prefix):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._bindings.append((module, attr, fn, wrapper))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return `fn` wrapped in a span called `name`."""
        stats = self.stats.setdefault(name, SpanStats())
        hooks = self._hooks(name, fn, stats)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.task_calls += 1
                stats.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                for hook in hooks:
                    hook(args, kwargs)

        return wrapper

    def _hooks(self, name: str, fn: Callable, stats: SpanStats) -> list[Callable]:
        hooks = []
        for counter, (names, compute) in COUNTERS.get(name, {}).items():
            read = _arg_reader(fn, names)
            if read is None:
                self.unavailable.append(f"{name}.{counter}")
                continue
            stats.counters[counter] = 0

            def count(args, kwargs, counter=counter, compute=compute, read=read):
                stats.counters[counter] += compute(*read(args, kwargs))

            hooks.append(count)
        if name in DISTINCT_KEYS:
            names, key = DISTINCT_KEYS[name]
            read = _arg_reader(fn, names)
            if read is None:
                self.unavailable.append(f"{name}.keys")
            else:
                hooks.append(lambda args, kwargs: stats.keys.add(key(*read(args, kwargs))))
        return hooks

    def install(self) -> None:
        """Start a traced task: swap every binding to its wrapper."""
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        for stats in self.stats.values():
            stats.keys.clear()
            stats.task_calls = 0

    def uninstall(self) -> None:
        """End a traced task: restore the original bindings."""
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)
        self.tasks += 1
        for stats in self.stats.values():
            if stats.task_calls:
                stats.tasks_called += 1
                stats.useful_ratio_sum += len(stats.keys) / stats.task_calls

    def fired(self) -> set[str]:
        return {name for name, stats in self.stats.items() if stats.calls}
