"""In-memory spans around stpa-loc's public functions, for the traced run.

The tracer swaps each public layer function for a wrapper, in every
``stpa_loc`` module that refers to it, so calls between layers nest:
``model_fingerprint`` inside ``render_json`` is a child span of it. A
span records its name, start, end, parent and the command or pass it
belongs to. A layer's self time is its span time minus the time its
child spans cover. Nothing under ``src/`` changes; the wrappers are
removed when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Public functions timed as layers, by module, with an optional counter
# taken from (args, result) after the span ends.
LAYERS = {
    "dsl": {
        "parse_model": lambda a, r: {"bytes": len(a[0].encode("utf-8"))},
        "parse_scenarios": lambda a, r: {"bytes": len(a[0].encode("utf-8"))},
        "serialize_model": None,
    },
    "model": {
        "validate_model": lambda a, r: {"diagnostics": len(r)},
        "model_fingerprint": None,
    },
    "analysis": {
        "enumerate_ucas": lambda a, r: {"ucas": len(r), "confirmed": sum(u.is_confirmed for u in r)},
        "derive_constraints": None,
        "trace_pathway": None,
        "match_catalog": lambda a, r: {"hits": int(bool(r))},
        "ledger_load": lambda a, r: {"records": len(r)},
        "ledger_register": None,
        "ledger_resolve": None,
        "ledger_save": None,
        "ledger_exposure": None,
    },
    "report": {
        "build_table": lambda a, r: {"rows": len(r)},
        "render_csv": None,
        "render_markdown": None,
        "render_json": None,
        "render_pathway": None,
    },
    "catalog": {
        "load_catalog": None,
        "generate_prompts": lambda a, r: {"prompts": len(r)},
    },
}


class Tracer:
    def __init__(self) -> None:
        # one list per span: name, start_ns, end_ns, parent index, group, counts
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.group = ""

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.group, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][5] = count(args, result)
            return result

        return traced

    @contextmanager
    def instrument(self):
        """Swap in the wrappers for the duration of the block."""
        wrappers = {}
        for module, functions in LAYERS.items():
            mod = importlib.import_module(f"stpa_loc.{module}")
            for name, count in functions.items():
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self.wrap(f"{module}.{name}", fn, count))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "stpa_loc" and not mod_name.startswith("stpa_loc."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def summary(self, group: str) -> dict[str, dict]:
        """Per layer name within one group: self_s, total_s, calls and counts."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span[4] == group and span[3] is not None:
                parent = span[3]
                child_ns[parent] = child_ns.get(parent, 0) + span[2] - span[1]
        out: dict[str, dict] = {}
        for index, (name, start, end, _parent, grp, counts) in enumerate(self.spans):
            if grp != group:
                continue
            entry = out.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns.get(index, 0)) / 1e9
            entry["calls"] += 1
            for key, value in (counts or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def root_total(self, group: str) -> float:
        """Seconds covered by the top-level spans of a group."""
        return sum((s[2] - s[1]) / 1e9 for s in self.spans if s[4] == group and s[3] is None)

    def write(self, path: Path, meta: dict) -> None:
        names = ("name", "start_ns", "end_ns", "parent", "group", "counts")
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **dict(zip(names, span))}) + "\n")


def median_of(summaries: list[dict[str, dict]], name: str, key: str) -> float:
    """Median over groups of one layer's value; 0 where the layer never ran."""
    return statistics.median(s.get(name, {}).get(key, 0) for s in summaries) if summaries else 0.0
