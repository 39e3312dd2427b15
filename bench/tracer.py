"""Span tracing of the package from outside it, and the per-layer metrics derived from the spans.

``Tracer.install`` wraps every public function of the seven layer modules
and patches the wrapper in under every name a package module looks the
function up by: ``protocol`` imports ``eve_apply``, ``apply_depolarizing``
and others by name, ``code5`` imports ``apply_pauli_string``, and so on, so
patching only the home module would miss those calls.  Each call records a
span (function, start, end, parent span, operation id) into flat in-memory
arrays; ``save`` writes them out once the run is over.

A span's self time is its duration minus the durations of its child spans.
Functions named by ``PER_LAYER`` that the package no longer defines are
listed in ``Tracer.absent`` and their metrics read 0; the run goes on.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import ModuleType

import numpy as np

PACKAGE = "patternqkd"
LAYERS = ("quantum_core", "code5", "patterns", "channel", "protocol", "analysis", "cli")

# Per-function metrics, named "<layer>.<function>.<statistic>" where the
# statistic is calls, s (inclusive time) or self_s (self time), either per
# block, per set, or (with no suffix) per operation.
FUNCTION_METRICS = (
    "protocol.block_rng.calls_per_block",
    "protocol.block_rng.s_per_block",
    "protocol.run_block.self_s_per_block",
    "protocol.estimate_mqer.s",
    "protocol.sift.s",
    "protocol.run_session.s",
    "code5.decode_block.calls_per_block",
    "code5.decode_block.self_s_per_block",
    "code5.extract_syndrome.s_per_block",
    "code5.encode_logical.calls_per_block",
    "quantum_core.apply_pauli_string.calls_per_block",
    "quantum_core.apply_pauli_string.self_s_per_block",
    "quantum_core.apply_permutation.calls_per_block",
    "quantum_core.apply_permutation.self_s_per_block",
    "quantum_core.inner_product.calls_per_set",
    "quantum_core.inner_product.self_s_per_set",
    "channel.eve_apply.self_s_per_block",
    "channel.apply_depolarizing.s_per_block",
    "channel.sample_block_loss.s_per_block",
    "patterns.valid_pattern_sets.s",
    "patterns.all_patterns.s",
    "patterns.invert.calls_per_block",
    "analysis.chi_physical_sweep.s",
    "analysis.holevo_bit_conditioned_gram.self_s_per_set",
    "analysis.gram_entropy.calls_per_set",
    "analysis.gram_entropy.self_s_per_set",
    "analysis.pattern_state.calls_per_set",
    "cli.format_records.s_per_block",
    "cli.cmd_simulate.self_s_per_block",
    "cli.cmd_analyze.self_s",
)

# Metrics computed from run outcomes or from several spans: (name, unit, better).
DERIVED_METRICS = (
    ("protocol.arrived_ratio", "ratio", "higher"),
    ("protocol.bob_decode_useful_ratio", "ratio", "higher"),
    ("cli.records_bytes_per_block", "B/block", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.untraced_frac", "ratio", "lower"),
) + tuple((f"layer.{layer}.self_share", "ratio", "lower") for layer in LAYERS)

# Functions the derived metrics read besides those in FUNCTION_METRICS.
_DERIVED_FUNCTIONS = ("code5.decode_block", "channel.eve_apply")


def parse_function_metric(name: str) -> tuple[str, str, str]:
    """Split a FUNCTION_METRICS name into (function, statistic, per)."""
    for statistic in ("self_s", "calls", "s"):
        for per in ("block", "set"):
            if name.endswith(f".{statistic}_per_{per}"):
                return name[: -len(f".{statistic}_per_{per}")], statistic, per
        if name.endswith(f".{statistic}"):
            return name[: -len(f".{statistic}")], statistic, "op"
    raise ValueError(f"not a per-function metric name: {name}")


def _function_metric_unit(name: str) -> str:
    _, statistic, per = parse_function_metric(name)
    return f"{'calls' if statistic == 'calls' else 's'}/{per}"


PER_LAYER = tuple(
    (name, _function_metric_unit(name), "lower") for name in FUNCTION_METRICS
) + DERIVED_METRICS


class Tracer:
    """Records a span per call of every public function of the package's layers."""

    def __init__(self) -> None:
        self.functions: list[str] = []
        self.absent: list[str] = []
        self.op = -1
        self._function = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[ModuleType, str, object, object]] = []

    def install(self) -> None:
        """Wrap the layers' public functions wherever the package refers to them.

        The wrappers are made on the first call; later calls re-apply them,
        so one tracer can be switched on and off between operations.
        """
        if not self._patches:
            self._make_patches()
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def _make_patches(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        for layer in LAYERS:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, original in list(vars(home).items()):
                if (
                    attr.startswith("_")
                    or isinstance(original, type)
                    or not callable(original)
                    or getattr(original, "__module__", None) != home.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for name, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, name, original, wrapper))
        wanted = {parse_function_metric(m)[0] for m in FUNCTION_METRICS} | set(_DERIVED_FUNCTIONS)
        self.absent = sorted(wanted - set(self.functions))

    def _wrap(self, name: str, fn):
        function_id = len(self.functions)
        self.functions.append(name)
        functions, parents, ops = self._function, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(functions)
            functions.append(function_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return wrapper

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as columns; ``parent`` is a span index or -1."""
        return {
            "function": np.frombuffer(self._function, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.functions), **self.spans())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    return duration - covered


def function_table(tracer: Tracer) -> dict[str, tuple[int, float, float]]:
    """Per function: (calls, inclusive seconds, self seconds)."""
    spans = tracer.spans()
    n = len(tracer.functions)
    ids = spans["function"]
    calls = np.bincount(ids, minlength=n)
    inclusive = np.bincount(ids, weights=spans["end"] - spans["start"], minlength=n)
    own = np.bincount(ids, weights=self_times(spans), minlength=n)
    return {
        name: (int(calls[i]), float(inclusive[i]), float(own[i]))
        for i, name in enumerate(tracer.functions)
    }


def per_layer_metrics(
    tracer: Tracer,
    traced: list,
    untraced_seconds: list[float],
    per: str,
) -> dict[str, float]:
    """Every PER_LAYER metric from the traced operations' spans and outcomes.

    ``traced`` holds the traced operations' outcomes in op-id order, ``per``
    names what a row is ("block" or "set"), and ``untraced_seconds`` are the
    wall times of the same operation run with tracing removed.
    """
    table = function_table(tracer)
    ops = len(traced)
    rows = sum(o.rows for o in traced)
    denominators = {"op": ops, "block": rows if per == "block" else 0, "set": rows if per == "set" else 0}
    values: dict[str, float] = {}
    for name in FUNCTION_METRICS:
        function, statistic, unit = parse_function_metric(name)
        calls, inclusive, own = table.get(function, (0, 0.0, 0.0))
        total = {"calls": calls, "s": inclusive, "self_s": own}[statistic]
        values[name] = total / denominators[unit] if denominators[unit] else 0.0

    spans = tracer.spans()
    names = np.array(tracer.functions + ["-"])
    parent_names = names[np.where(spans["parent"] >= 0, spans["function"][spans["parent"]], -1)]
    bob_decodes = int(np.sum(
        (names[spans["function"]] == "code5.decode_block") & (parent_names != "channel.eve_apply")
    ))
    sent = sum(int(o.report.get("blocks_sent", 0)) for o in traced)
    lost = sum(int(o.report.get("blocks_lost", 0)) for o in traced)
    sifted = sum(int(o.report.get("blocks_sifted", 0)) for o in traced)
    blocks = denominators["block"]
    values["protocol.arrived_ratio"] = (sent - lost) / sent if sent else 0.0
    values["protocol.bob_decode_useful_ratio"] = sifted / bob_decodes if bob_decodes else 0.0
    values["cli.records_bytes_per_block"] = (
        sum(o.output_bytes for o in traced) / blocks if blocks else 0.0
    )

    # The first traced operation is cold; leave it out of the overhead when others exist.
    warm = [o.seconds for o in traced[1:]] or [o.seconds for o in traced]
    values["trace.overhead_frac"] = statistics.median(warm) / statistics.median(untraced_seconds) - 1.0
    # Coverage is taken below cli.main, which wraps the whole operation:
    # its own self time (argument parsing, dispatch) counts as uncovered.
    wall = sum(o.seconds for o in traced)
    duration = spans["end"] - spans["start"]
    root = spans["parent"] < 0
    main = root & (names[spans["function"]] == "cli.main")
    under_main = np.zeros(len(root), dtype=bool)
    under_main[~root] = main[spans["parent"][~root]]
    covered = float(np.sum(duration[(root & ~main) | under_main]))
    values["trace.untraced_frac"] = (wall - covered) / wall
    for layer in LAYERS:
        own = sum(t[2] for name, t in table.items() if name.split(".")[0] == layer)
        values[f"layer.{layer}.self_share"] = own / wall
    return values
