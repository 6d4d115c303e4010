"""Layer tracing for the benchmark's traced runs.

``Tracer.install`` replaces each traced public function of ``eschbaz`` with a
wrapper, at every module attribute that holds it: callers inside the package
name-import some functions (``survey`` calls ``window_scan`` by its bare name)
and call others through a module (``embedding`` calls
``bazaikin.is_free_baz``), so patching only the defining module would miss
calls.  The wrappers aggregate calls, total time and time spent in traced
callees per boundary; a scan makes millions of predicate calls, so only the
spans of ops and of the coarse boundaries in ``KEPT_SPANS`` are kept.

Untraced runs never construct a Tracer, so timed code is never wrapped.
Calls made in other processes (``scan_box`` with workers > 1) are not seen;
every workload runs its library calls in the harness process.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# (defining module, function) pairs wrapped in traced runs.
TRACED = (
    ("survey", "scan_box"),
    ("survey", "verify_known_counterexamples"),
    ("survey", "verify_infinite_families"),
    ("survey", "verify_cohomogeneity_one"),
    ("eschenburg", "is_free"),
    ("eschenburg", "is_pc_metric"),
    ("eschenburg", "pc_normal_form"),
    ("embedding", "window_scan"),
    ("embedding", "make_certificate"),
    ("embedding", "nonsingular_shift"),
    ("embedding", "certified_shift"),
    ("embedding", "shift_prime_product"),
    ("embedding", "homotopy_distinct_embeddings"),
    ("bazaikin", "is_free_baz"),
    ("bazaikin", "is_pc_baz"),
    ("bazaikin", "h6_order"),
    ("bazaikin", "freeness_failures"),
    ("arith", "factorize"),
    ("arith", "elementary_symmetric"),
    ("cli", "run"),
)

KEPT_SPANS = {
    "survey.scan_box",
    "survey.verify_known_counterexamples",
    "survey.verify_infinite_families",
    "survey.verify_cohomogeneity_one",
    "embedding.homotopy_distinct_embeddings",
    "cli.run",
}

MODULES = ("arith", "eschenburg", "bazaikin", "embedding", "survey", "cli")


class Tracer:
    """Per-boundary call counts and self times, plus kept spans.

    A frame on ``_stack`` is ``[time in traced callees, kept span id]``; a
    boundary's self time is its total time minus its callees' time.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, callee_s]
        self.counters: Counter = Counter()
        self.factorize_inputs: set[int] = set()
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [getattr(package, name) for name in MODULES]
        for module_name, func_name in TRACED:
            original = getattr(getattr(package, module_name), func_name, None)
            if original is None:
                continue
            name = f"{module_name}.{func_name}"
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        keep = name in KEPT_SPANS
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, self._open_span(name) if keep else None]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if keep:
                    self.spans[frame[1]]["end"] = perf_counter()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self.spans.append({"id": len(self.spans), "name": name, "parent": parent,
                           "start": perf_counter(), "end": None})
        return len(self.spans) - 1

    def op(self, fn, *args):
        """Run one op as a root span; returns (result, seconds)."""
        frame = [0.0, self._open_span("op")]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args), perf_counter() - start
        finally:
            self._stack.pop()
            self.spans[frame[1]]["end"] = perf_counter()

    # -- reporting ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        stat = self.stats.get(name, [0, 0.0, 0.0])
        return stat[1] - stat[2]


def _count_spaces(tracer: Tracer, args, result) -> None:
    stats, _rows = result
    tracer.counters["survey.spaces"] += stats.total


def _record_factorize_input(tracer: Tracer, args, result) -> None:
    tracer.factorize_inputs.add(args[0])


_RESULT_HOOKS = {
    "survey.scan_box": _count_spaces,
    "arith.factorize": _record_factorize_input,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, shifts_checked: int | None) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit).

    ``shifts_checked`` is the workload's own count of window shifts when it
    knows one (the scan workloads); otherwise shifts are counted as calls of
    ``make_certificate`` and ``nonsingular_shift``.
    """
    t = tracer
    m: dict[str, tuple[float, str]] = {}
    spaces = t.counters["survey.spaces"]
    m["survey.scan_box.s"] = (t.total_s("survey.scan_box"), "s")
    m["survey.self_s"] = (t.self_s("survey.scan_box"), "s")
    m["survey.spaces"] = (spaces, "count")
    m["survey.verify.s"] = (sum(t.total_s(f"survey.{f}") for f in (
        "verify_known_counterexamples", "verify_infinite_families",
        "verify_cohomogeneity_one")), "s")
    for module, funcs in (
        ("eschenburg", ("is_free", "is_pc_metric", "pc_normal_form")),
        ("embedding", ("window_scan", "make_certificate", "nonsingular_shift",
                       "certified_shift", "shift_prime_product",
                       "homotopy_distinct_embeddings")),
        ("bazaikin", ("is_free_baz", "is_pc_baz", "h6_order", "freeness_failures")),
        ("arith", ("factorize", "elementary_symmetric")),
    ):
        for func in funcs:
            name = f"{module}.{func}"
            m[f"{name}.calls"] = (t.calls(name), "count")
            m[f"{name}.self_s"] = (t.self_s(name), "s")
    m["eschenburg.dedup_ratio"] = (_ratio(spaces, t.calls("eschenburg.pc_normal_form")), "ratio")
    if shifts_checked is None:
        shifts_checked = t.calls("embedding.make_certificate") + t.calls("embedding.nonsingular_shift")
    baz_calls = sum(t.calls(f"bazaikin.{f}") for f in (
        "is_free_baz", "is_pc_baz", "h6_order", "freeness_failures"))
    m["bazaikin.calls_per_shift"] = (_ratio(baz_calls, shifts_checked), "ratio")
    m["arith.factorize.distinct_ratio"] = (
        _ratio(len(t.factorize_inputs), t.calls("arith.factorize")), "ratio")
    m["cli.run.calls"] = (t.calls("cli.run"), "count")
    m["cli.self_s"] = (t.self_s("cli.run"), "s")
    m["cli.bytes_out"] = (t.counters["cli.bytes_out"], "bytes")
    m["cli.failed"] = (t.counters["cli.failed"], "count")
    return m
