"""Per-layer tracing from outside the package.

Tracer.install() wraps every public function of the modules in LAYERS
(and the from_json_obj constructors of their classes) in every module
namespace that binds it: `from .core import ...` copies names into the
other modules and the package, so patching only the defining module
would miss the nested calls. Interval constructions are counted through
Interval.__post_init__. Spans (name, start, end, parent, operation id)
are kept in memory and folded into per-function call counts and self
times by flush(); a span's self time is its duration minus that of its
child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("core", "scenarios", "pipeline", "reporting", "cli")


def _emit_table_name(args, kwargs) -> str:
    which = args[1] if len(args) > 1 else kwargs.get("which")
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt", "markdown")
    return f"reporting.emit_table.{which}.{fmt}"


def _cli_main_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0] if argv else 'none'}"


# Span names that depend on the arguments of the call.
_NAMERS = {"reporting.emit_table": _emit_table_name, "cli.main": _cli_main_name}

# Counters recorded at the layer boundary: (counter name, value from the
# call's arguments and result). Costly ones are deferred to flush() so
# that they do not land in the caller's self time.
_COUNTERS = {
    "pipeline.parse_invoice": lambda a, k, r: ("parse", (a[0] if a else k["document"], len(r))),
    "pipeline.verify_items": lambda a, k, r: ("verify", r),
    "pipeline.render_output_json": lambda a, k, r: ("add", ("pipeline.render_output_json.bytes_out", len(r))),
    "reporting.emit_bundle_json": lambda a, k, r: ("add", ("reporting.emit_bundle_json.bytes_out", len(r))),
    "reporting.load_config": lambda a, k, r: ("config", (a[0] if a else k["path"], r)),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.n_spans = 0
        self._intervals = [0]
        self._pending: list = []
        self._patches: list = []
        self._config_sizes: dict = {}

    # -------------------------------------------------------------- patching

    def _wrap(self, name: str, fn):
        spans, stack, pending = self.spans, self.stack, self._pending
        namer, counter = _NAMERS.get(name), _COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (namer(args, kwargs) if namer else name,
                                start, end, parent, self.op)
            if counter is not None:
                pending.append(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        modules = {short: importlib.import_module(f"{self.package.__name__}.{short}")
                   for short in LAYERS}
        wrappers = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and "from_json_obj" in vars(obj):
                    fn = vars(obj)["from_json_obj"].__func__
                    self._patch(obj, "from_json_obj",
                                classmethod(self._wrap(f"{short}.{attr}.from_json_obj", fn)))
        for namespace in (self.package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])

        interval = modules["core"].Interval
        original = interval.__post_init__
        count = self._intervals

        def counted_post_init(obj):
            count[0] += 1
            original(obj)

        self._patch(interval, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, value = self._patches.pop()
            setattr(target, attr, value)

    # ------------------------------------------------------------ aggregates

    def flush(self) -> None:
        """Fold the recorded spans and deferred counters into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, _parent, _op) in enumerate(spans):
            self.calls[name] += 1
            self.total_s[name] += end - start
            self.self_s[name] += (end - start) - child[index]
        self.n_spans += len(spans)
        spans.clear()
        counters = self.counters
        for kind, payload in self._pending:
            if kind == "add":
                counters[payload[0]] += payload[1]
            elif kind == "parse":
                document, matched = payload
                counters["pipeline.parse_invoice.lines_scanned"] += len(document.splitlines())
                counters["pipeline.parse_invoice.items_matched"] += matched
            elif kind == "verify":
                counters["pipeline.verify_items.failures"] += sum(not r.ok for r in payload)
            elif kind == "config":
                files, size = self._config_read(Path(payload[0]))
                counters["reporting.load_config.files_read"] += files
                counters["reporting.load_config.bytes_read"] += size
        self._pending.clear()
        counters["core.Interval.constructed"] += self._intervals[0]
        self._intervals[0] = 0

    def _config_read(self, path: Path) -> tuple[int, int]:
        """Files and bytes load_config reads for a config file."""
        if path not in self._config_sizes:
            refs = json.loads(path.read_text(encoding="utf-8"))["scenarios"]
            files = [path, *((path.parent / ref) for ref in refs)]
            self._config_sizes[path] = (len(files), sum(f.stat().st_size for f in files))
        return self._config_sizes[path]

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counters": dict(self.counters),
                "spans": self.n_spans}

    def merge(self, totals: dict) -> None:
        """Add the totals of a tracer that ran in another process."""
        for name, n in totals["calls"].items():
            self.calls[name] += n
        for name, s in totals["self_s"].items():
            self.self_s[name] += s
        for name, s in totals["total_s"].items():
            self.total_s[name] += s
        for name, v in totals["counters"].items():
            self.counters[name] += v
        self.n_spans += totals["spans"]


def layer_metrics(totals: dict, ops: int) -> dict[str, float]:
    """Per-operation layer metrics: <layer>.<function>.calls and .self_us,
    the boundary counters, and the parse match ratio."""
    out = {}
    for name, n in totals["calls"].items():
        out[f"{name}.calls"] = n / ops
        out[f"{name}.self_us"] = totals["self_s"][name] / ops * 1e6
    for name, value in totals["counters"].items():
        out[name] = value / ops
    scanned = totals["counters"].get("pipeline.parse_invoice.lines_scanned", 0)
    if scanned:
        matched = totals["counters"]["pipeline.parse_invoice.items_matched"]
        out["pipeline.parse_invoice.match_ratio"] = matched / scanned
    return out
