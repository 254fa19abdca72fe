"""Span tracing of the ybqc layers from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records a span (op id, parent span, name, start,
end) in memory, wherever the function is referenced across the package
(`from .atomic import f` copies included).  `uninstall()` restores the
originals.  `layer_metrics()` turns the spans of the traced ops into the
per-layer numbers; `write()` stores the raw spans once, at the end.

A span's self time is its duration minus the durations of its direct
children.  The op's root span is `scenario.run_scenario`; its self time
is the part of the op that no named span covers.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("atomic", "addressing", "dipole", "engine", "protocols",
           "compiler", "feasibility", "scenario")
ROOT = "scenario.run_scenario"

# (metric, span names, kind) -- kind "total" sums whole spans, "self"
# sums self times, "calls" counts spans; all are per traced op.
SPAN_METRICS = (
    ("addressing.resonance_map_s", ("addressing.resonance_map",), "total"),
    ("addressing.validate_s", ("addressing.validate_gradients",), "total"),
    ("addressing.plan_s", ("addressing.plan_gradients",), "total"),
    ("dipole.coupling_calls", ("dipole.ddi_coupling",), "calls"),
    ("engine.assemble_s", ("engine.segment_hamiltonian",), "total"),
    ("engine.propagate_s", ("engine.segment_propagator",), "self"),
    ("engine.apply_s", ("engine.apply_propagator",), "total"),
    ("engine.segments", ("engine.segment_propagator",), "calls"),
    ("protocols.scan_s", ("protocols.three_photon_scan",), "total"),
    ("protocols.scan_calls", ("protocols.three_photon_scan",), "calls"),
    ("protocols.measure_s", ("protocols.measure_qubit",), "total"),
    ("protocols.measure_calls", ("protocols.measure_qubit",), "calls"),
    ("compiler.compile_s", ("compiler.compile_circuit",), "self"),
    ("compiler.execute_s", ("compiler.execute_schedule",), "total"),
    ("feasibility.report_s", ("feasibility.build_feasibility_report",),
     "total"),
    ("scenario.load_s", ("scenario.load_scenario",), "total"),
    ("scenario.emit_s", ("scenario.emit_detuning_curves",
                         "scenario.emit_level_sweep",
                         "scenario.emit_addressing_spectrum",
                         "scenario.schedule_to_json",
                         "scenario.result_to_json"), "total"),
    ("scenario.write_s", ("scenario.write_artifacts",), "total"),
)

# Per-layer metrics in report order, with units.
UNITS = {f"{m}.self_s": "s" for m in MODULES}
UNITS.update({"atomic.spectrum_calls": "count",
              "atomic.spectrum_distinct_ratio": "fraction"})
UNITS.update({name: "count" if name.endswith(("_calls", "segments"))
              else "s" for name, _, _ in SPAN_METRICS})
UNITS.update({"engine.live_fraction": "fraction",
              "scenario.bytes_written": "bytes",
              "trace.op_s_p50": "s", "trace.overhead_s": "s",
              "trace.uncovered_share": "fraction",
              "trace.spans": "count"})


class Tracer:
    def __init__(self):
        # [op, parent, name, start, end]; a span's id is its list index
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._patched: list[tuple] = []
        # zeeman_spectrum fields per op; live fraction per propagation
        self.spectrum_fields: dict[int, list] = defaultdict(list)
        self.live: list[float] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if name == "atomic.zeeman_spectrum":
            fields = self.spectrum_fields

            def before(args, kwargs):
                fields[self.op].append(kwargs.get("B", args[1]
                                                  if len(args) > 1 else None))
        elif name == "engine.segment_propagator":
            live = self.live

            def before(args, kwargs):
                amps = (args[0] if args else kwargs["reg"]).amps
                live.append(float((amps != 0).sum()) / amps.size)
        else:
            before = None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(spans)
            spans.append([self.op, stack[-1] if stack else -1, name,
                          clock(), 0.0])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][4] = clock()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced module."""
        mods = [importlib.import_module(f"ybqc.{m}") for m in MODULES]
        package = [m for name, m in sys.modules.items()
                   if name == "ybqc" or name.startswith("ybqc.")]
        for short, mod in zip(MODULES, mods):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[float]:
        selfs = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                selfs[s[1]] -= s[4] - s[3]
        return selfs

    def layer_metrics(self, ops: list[int], bytes_written: list[int],
                      untraced_times: list[float]) -> dict:
        """Per-op per-layer metrics over the traced ops."""
        n = max(len(ops), 1)
        selfs = self.self_times()
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        op_wall, op_self = [], []
        for s, self_t in zip(self.spans, selfs):
            name = s[2]
            total[name] += s[4] - s[3]
            own[name] += self_t
            calls[name] += 1
            layer_self[name.split(".")[0]] += self_t
            if name == ROOT:
                op_wall.append(s[4] - s[3])
                op_self.append(self_t)
        out = {f"{m}.self_s": layer_self[m] / n for m in MODULES}
        n_spec = calls["atomic.zeeman_spectrum"]
        distinct = sum(len(set(v)) for v in self.spectrum_fields.values())
        out["atomic.spectrum_calls"] = n_spec / n
        out["atomic.spectrum_distinct_ratio"] = distinct / n_spec \
            if n_spec else 0.0
        for metric, names, kind in SPAN_METRICS:
            src = {"total": total, "self": own, "calls": calls}[kind]
            out[metric] = sum(src[nm] for nm in names) / n
        out["engine.live_fraction"] = statistics.fmean(self.live) \
            if self.live else 0.0
        out["scenario.bytes_written"] = sum(bytes_written) / n
        traced_p50 = statistics.median(op_wall)
        out["trace.op_s_p50"] = traced_p50
        out["trace.overhead_s"] = traced_p50 - statistics.median(
            untraced_times)
        out["trace.uncovered_share"] = sum(op_self) / sum(op_wall)
        out["trace.spans"] = len(self.spans) / n
        return {k: out[k] for k in UNITS}

    def write(self, path) -> None:
        """Store every span as one JSON line: op, id, parent, name,
        start and end (seconds, perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(json.dumps([op, sid, parent, name, start, end])
                         + "\n")
