"""Span tracer that wraps entangler_lab functions from outside the library.

`Tracer.install` replaces each function named in `LAYERS` with a wrapper, in
every loaded `entangler_lab` module that holds a reference to it, so calls
made inside the library are traced too.  A class listed there has its
`__init__` wrapped, which times construction plus validation.
`Tracer.uninstall` puts the original functions back.

Each call opens a span.  A span's self time is its duration minus the time
covered by the spans it directly encloses, so the self times of all spans
under a root add up to the root's duration.  Spans are aggregated as they
close: per name, the call count, total and self time, and the dense bytes
the call computed (from the shapes of its arguments and result, never
measured).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> functions (or classes) traced; each becomes span "<module>.<name>".
LAYERS = {
    "state_core": ("PureState",),
    "class_operators": ("class_operator",),
    "concurrence": ("bilinear_condition", "classify", "epr_expansion_3q", "ghz_expansion_3q"),
    "oracle": ("oracle_classify", "partial_trace", "wootters_concurrence", "three_tangle", "verdicts_agree"),
    "entangler": ("build_r", "phase_swap_decomposition", "check_unitary", "apply_entangler", "proposition_check"),
    "braid": ("check_ybe", "check_braid_relations", "check_quasitriangular"),
    "cli": ("main", "render_json"),
}

# Both explicit three-party expansions are reported as one layer.
SPAN_NAMES = {
    "concurrence.epr_expansion_3q": "concurrence.expansion",
    "concurrence.ghz_expansion_3q": "concurrence.expansion",
}

# Computed-bytes metrics: metric -> spans whose computed bytes it sums.
COMPUTED_METRICS = {
    "class_operators.class_operator.computed_mb": ("class_operators.class_operator",),
    "concurrence.bilinear_condition.computed_mb": ("concurrence.bilinear_condition",),
    "entangler.dense_mb": ("entangler.build_r", "entangler.phase_swap_decomposition", "entangler.check_unitary"),
    "braid.generator_mb": ("braid.check_braid_relations",),
}

ROOT_SPAN = "bench.op"
COMPLEX_BYTES = 16


def _span(qualified: str) -> str:
    return SPAN_NAMES.get(qualified, qualified)


def span_names() -> list[str]:
    """Every span a traced run can report, library layers first."""
    names = []
    for module_name, functions in LAYERS.items():
        for fname in functions:
            span = _span(f"{module_name}.{fname}")
            if span not in names:
                names.append(span)
    return names + [ROOT_SPAN]


def _square_bytes(d: int, count: int = 1) -> int:
    return count * d * d * COMPLEX_BYTES


def _computed_bytes_hooks(package: str) -> dict:
    """Per span: a function (args, result) -> dense bytes the call computed."""
    class_operators = importlib.import_module(f"{package}.class_operators")
    cache_info = getattr(getattr(class_operators, "_class_operator_cached", None), "cache_info", None)
    last_misses = [cache_info().misses if cache_info else 0]

    def class_operator(args, result):
        # Only an operator that was built (a cache miss) is computed.
        if cache_info is not None:
            misses = cache_info().misses
            built, last_misses[0] = misses > last_misses[0], misses
            if not built:
                return 0
        return _square_bytes(result.dim)

    def check_braid_relations(args, result):
        rep = args[0]
        return (rep.n - 1) * _square_bytes(rep.v_dim**rep.n)

    return {
        "class_operators.class_operator": class_operator,
        "concurrence.bilinear_condition": lambda args, result: _square_bytes(args[1].dim),
        "entangler.build_r": lambda args, result: _square_bytes(result.dim),
        # swap gate P and the products P@R, R@P
        "entangler.phase_swap_decomposition": lambda args, result: _square_bytes(args[0].dim, 3),
        # R R^dagger and the identity it is compared with
        "entangler.check_unitary": lambda args, result: _square_bytes(
            getattr(args[0], "mat", args[0]).shape[0], 2
        ),
        "braid.check_braid_relations": check_braid_relations,
    }


class Tracer:
    """Aggregated spans: name -> [calls, total_s, self_s, computed_bytes]."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self._frames = [[0.0]]  # child time covered so far, one entry per open span
        self._patched = []  # (owner, attribute, original) replaced by install

    def call(self, name: str, fn, *args, hook=None, **kwargs):
        """Run fn inside a span called `name`."""
        frame = [0.0]
        self._frames.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - t0
            self._frames.pop()
            self._frames[-1][0] += duration
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[0]
        if hook is not None:
            stat[3] += hook(args, result)
        return result

    def credit_child(self, seconds: float) -> None:
        """Count time spent in a traced child process as child time of the open span."""
        self._frames[-1][0] += seconds

    def merge(self, stats: dict) -> None:
        for name, values in stats.items():
            mine = self.stats[name]
            for i, v in enumerate(values):
                mine[i] += v

    def _wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)

        return traced

    def install(self, package: str = "entangler_lab") -> None:
        """Wrap every function in LAYERS that the installed library defines."""
        hooks = _computed_bytes_hooks(package)
        originals = {}
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"{package}.{module_name}")
            for fname in names:
                obj = getattr(module, fname, None)
                if obj is None:
                    continue
                qualified = f"{module_name}.{fname}"
                span = _span(qualified)
                if isinstance(obj, type):
                    self._patched.append((obj, "__init__", obj.__init__))
                    obj.__init__ = self._wrapper(span, obj.__init__, None)
                else:
                    originals[id(obj)] = self._wrapper(span, obj, hooks.get(qualified))
        loaded = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Undo `install`; the stats gathered so far are kept."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
