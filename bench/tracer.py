"""Outside-in tracing of morphlie's layers.

The layer map (``layers.json``) lists, for each module of ``src/morphlie``,
groups of public functions.  ``Tracer.install`` wraps each listed function and
rebinds the wrapper wherever a ``morphlie.*`` module holds the original
object (``cli.py`` imports ``rank`` by name, for example), so every call
site is traced.  Methods are patched on their class.  A listed function
that no longer exists raises ``LayerMapError``: a refactor cannot silently
zero a layer.

Spans (group, start, end, parent) are kept in memory for the one request a
process serves and handed back by ``report`` with its request id;
``request_layers`` turns them into self times and calls per group, and
``per_layer_metrics`` sums those over a run into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


class LayerMapError(Exception):
    pass


def load_layers(path=LAYERS_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "morphlie" or name.startswith("morphlie."))]


class Tracer:
    """The spans and counters of the one request a process serves."""

    def __init__(self):
        self.groups: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.rank_inputs: set = set()

    def _bump(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _rank_probe(self, m) -> None:
        """Size, fill and coefficient counters of one rank input."""
        rows = m.to_lists()
        nnz, bits = 0, 0
        for row in rows:
            for x in row:
                if x:
                    nnz += 1
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        self._bump("rank_cells", m.rows * m.cols)
        self._bump("rank_nnz", nnz)
        self.counters["rank_max_bits"] = max(self.counters.get("rank_max_bits", 0), bits)
        self.rank_inputs.add((m.rows, m.cols, hash(tuple(map(tuple, rows)))))
        self.counters["rank_distinct"] = len(self.rank_inputs)

    def _load_probe(self, *args) -> None:
        text = next((a for a in args if isinstance(a, str)), "")
        self._bump("bytes_in", len(text.encode("utf-8")))

    def _dump_probe(self, text) -> None:
        self._bump("bytes_out", len(text.encode("utf-8")) + 1)

    def _wrap(self, fn, gid: int, key: str):
        """fn inside a span; counters are taken outside the timed region."""
        before = {"linalg.rank": self._rank_probe, "documents.load": self._load_probe}.get(key)
        after = self._dump_probe if key == "documents.dump" else None
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (gid, start, end, parent)
            if after is not None:
                after(out)
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, layers: dict | None = None) -> None:
        """Wrap every function of the layer map; raise LayerMapError on a gap."""
        layers = load_layers() if layers is None else layers
        importlib.import_module("morphlie.cli")
        missing = []
        plans = []
        for layer, groups in layers.items():
            try:
                module = importlib.import_module(f"morphlie.{layer}")
            except ImportError:
                missing.append(f"morphlie.{layer}")
                continue
            for group, names in groups.items():
                key = f"{layer}.{group}"
                gid = len(self.groups)
                self.groups.append(key)
                for name in names:
                    owner_name, _, attr = name.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    raw = vars(owner).get(attr) if owner is not None else None
                    if raw is None:
                        missing.append(f"morphlie.{layer}.{name}")
                        continue
                    plans.append((module, owner, attr, raw, gid, key))
        if missing:
            raise LayerMapError("layer map names functions that do not exist: "
                                + ", ".join(missing))
        modules = _package_modules()
        for module, owner, attr, raw, gid, key in plans:
            descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if descriptor else raw
            wrapped = self._wrap(fn, gid, key)
            if owner is not module:
                setattr(owner, attr, descriptor(wrapped) if descriptor else wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapped)

    def report(self, request_id) -> dict:
        """Everything recorded in this process, ready to be written as JSON."""
        return {"request": request_id, "groups": list(self.groups),
                "spans": [list(s) for s in self.spans if s is not None],
                "counters": dict(self.counters)}


# -- aggregation (runs in the benchmark process) ------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover, in seconds."""
    own = [(s[2] - s[1]) for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return [x / 1e9 for x in own]


def request_layers(trace: dict) -> dict:
    """Per-group self seconds, call counts and the longest rank call of one request."""
    groups, spans = trace["groups"], trace["spans"]
    own = self_times(spans)
    out = {"self": {g: 0.0 for g in groups}, "calls": {g: 0 for g in groups},
           "rank_max_call_s": 0.0, "counters": trace["counters"]}
    for s, t in zip(spans, own):
        g = groups[s[0]]
        out["self"][g] += t
        out["calls"][g] += 1
        if g == "linalg.rank":
            out["rank_max_call_s"] = max(out["rank_max_call_s"], (s[2] - s[1]) / 1e9)
    return out


def per_layer_metrics(requests: list[dict], passes: int, traced_pass_s: float,
                      plain_pass_s: float) -> dict:
    """The benchmark's per-layer metrics, per pass over the workload."""
    tot_self: dict[str, float] = {}
    tot_calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    max_call = 0.0
    max_bits = 0
    for r in requests:
        for g, v in r["self"].items():
            tot_self[g] = tot_self.get(g, 0.0) + v
        for g, v in r["calls"].items():
            tot_calls[g] = tot_calls.get(g, 0) + v
        for k, v in r["counters"].items():
            if k == "rank_max_bits":
                max_bits = max(max_bits, v)
            else:
                counters[k] = counters.get(k, 0) + v
        max_call = max(max_call, r["rank_max_call_s"])

    def s(*groups):
        return sum(tot_self.get(g, 0.0) for g in groups) / passes

    def c(*groups):
        return sum(tot_calls.get(g, 0) for g in groups) / passes

    rank_calls = c("linalg.rank")
    distinct = counters.get("rank_distinct", 0) / passes
    return {
        "linalg.rank_s": (s("linalg.rank"), "s"),
        "linalg.rank_share": (s("linalg.rank") / traced_pass_s if traced_pass_s else 0.0, "ratio"),
        "linalg.rank_calls": (rank_calls, "count"),
        "linalg.rank_distinct": (distinct, "count"),
        "linalg.rank_useful_ratio": (distinct / rank_calls if rank_calls else 1.0, "ratio"),
        "linalg.rank_cells": (counters.get("rank_cells", 0) / passes, "count"),
        "linalg.rank_nnz": (counters.get("rank_nnz", 0) / passes, "count"),
        "linalg.rank_max_bits": (max_bits, "bits"),
        "linalg.rank_max_call_s": (max_call, "s"),
        "linalg.matmul_s": (s("linalg.matmul"), "s"),
        "linalg.matmul_calls": (c("linalg.matmul"), "count"),
        "linalg.stack_s": (s("linalg.stack"), "s"),
        "linalg.solve_s": (s("linalg.solve"), "s"),
        "cecomplex.assemble_s": (s("cecomplex.assemble", "cecomplex.pullback"), "s"),
        "cecomplex.calls": (c("cecomplex.assemble", "cecomplex.pullback"), "count"),
        "cecomplex.pullback_calls": (c("cecomplex.pullback"), "count"),
        "cohomology.assemble_s": (s("cohomology.differential"), "s"),
        "cohomology.differential_calls": (c("cohomology.differential"), "count"),
        "groups.assemble_s": (s("groups.differential"), "s"),
        "groups.differential_calls": (c("groups.differential"), "count"),
        "documents.load_s": (s("documents.load"), "s"),
        "documents.bytes_in": (counters.get("bytes_in", 0) / passes, "bytes"),
        "documents.dump_s": (s("documents.dump"), "s"),
        "documents.bytes_out": (counters.get("bytes_out", 0) / passes, "bytes"),
        "algebras.validate_s": (s("algebras.validate"), "s"),
        "groups.validate_s": (s("groups.validate"), "s"),
        "extensions.build_s": (s("extensions.build"), "s"),
        "extensions.extract_s": (s("extensions.extract"), "s"),
        "shlie.check_s": (s("shlie.check"), "s"),
        "shlie.convert_s": (s("shlie.convert"), "s"),
        "cli.self_s": (s("cli.main"), "s"),
        "trace.pass_s": (traced_pass_s, "s"),
        "trace.overhead_frac": (traced_pass_s / plain_pass_s - 1 if plain_pass_s else 0.0,
                                "ratio"),
    }
