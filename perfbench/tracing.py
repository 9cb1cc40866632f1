"""Span tracing of cifm's public functions, installed from outside the package.

Each traced function is replaced at every place it is looked up: the module
that defines it, the package namespace, and every sibling module that
imported it by name (``cifm.verify.mul24``, ``cifm.fp32.mul24`` and so on).
The suite functions are replaced inside ``verify.SUITES`` and the netlist
evaluators on the ``CellNetlist`` class. Spans are kept in memory; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs whose calls are spans; the span key is "module.function".
FUNCTIONS = (
    ("multiplier", "mul4"),
    ("multiplier", "mul12"),
    ("multiplier", "mul24"),
    ("multiplier", "export_netlist"),
    ("fp32", "fp_mul"),
    ("softfloat", "softfloat_mul"),
    ("revlogic", "expand"),
    ("revlogic", "simulate"),
    ("revlogic", "simulate_inverse"),
    ("revlogic", "metrics_of"),
    ("verify", "run_suite"),
)


def _vectors(value) -> int:
    return value.size if isinstance(value, np.ndarray) else 1


def _evaluate_work(args, kwargs):
    netlist, operands = args[0], args[1]
    return _vectors(next(iter(operands.values()))), len(netlist.cells)


def _simulate_work(args, kwargs):
    rev, inputs = args[0], args[1]
    return _vectors(next(iter(inputs.values()))), len(rev.gates)


def _inverse_work(args, kwargs):
    rev, final_values = args[0], args[1]
    return _vectors(final_values[0]), len(rev.gates)


_WORK = {
    "bitcore.evaluate_nets": _evaluate_work,
    "revlogic.simulate": _simulate_work,
    "revlogic.simulate_inverse": _inverse_work,
}


class Tracer:
    """Installs span-recording wrappers; :meth:`restore` puts the originals back."""

    def __init__(self) -> None:
        self.keys: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: dict[int, tuple[int, int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        work = _WORK.get(key)
        counts_cases = key.startswith("verify.suite.")
        keys, starts, ends, parents, stack = (
            self.keys, self.starts, self.ends, self.parents, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(keys)
            keys.append(key)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if work is not None:
                self.work[idx] = work(args, kwargs)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counts_cases:
                self.work[idx] = (result.total, 1)
            return result

        return traced

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        import cifm
        from cifm import verify
        from cifm.bitcore import CellNetlist

        modules = [m for n, m in sys.modules.items() if n == "cifm" or n.startswith("cifm.")]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(getattr(cifm, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for suite, fn in list(verify.SUITES.items()):
            self._patched.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = self._wrap(f"verify.suite.{suite}", fn)
        for method in ("evaluate", "evaluate_nets"):
            fn = CellNetlist.__dict__[method]
            self._patch(CellNetlist, method, self._wrap(f"bitcore.{method}", fn))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def summary(self) -> defaultdict:
        """Per key: calls, inclusive and self seconds, vectors (cases for a suite)
        and vectors times netlist size (cells or gates). Unseen keys read 0."""
        n = len(self.keys)
        dur = np.array(self.ends[:n]) - np.array(self.starts[:n])
        parents = np.array(self.parents[:n], dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "vectors": 0, "elem_vectors": 0}
        )
        for idx, key in enumerate(self.keys[:n]):
            row = out[key]
            row["calls"] += 1
            row["s"] += float(dur[idx])
            row["self_s"] += float(self_s[idx])
            if idx in self.work:
                vectors, size = self.work[idx]
                row["vectors"] += vectors
                row["elem_vectors"] += vectors * size
        return out
