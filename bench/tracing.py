"""Per-layer tracing by wrapping library functions at run time.

``install`` replaces each hooked function with a wrapper that records a
span, on every module attribute that refers to it: the defining module
and every ``turaevgenus`` module that imported the name (``census``
calls ``isomorphic`` through its own global, for instance).
``networkx.check_planarity`` is wrapped on the ``networkx`` module,
where the program looks it up.

A layer's time is self time: a span's duration minus the time of the
spans it encloses, so nested layers are not counted twice.  Spans are
kept in memory, only while an item runs, and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (module, function, layer, call counter, output-size counter)
HOOKS = (
    ("turaevgenus.diagram", "parse_pd", "diagram.parse_pd", None, None),
    ("turaevgenus.diagram", "turaev_genus_diagram", "diagram.state_genus", None, None),
    ("turaevgenus.diagram", "state_circle_counts", "diagram.state_genus", None, None),
    ("turaevgenus.diagram", "is_adequate", "diagram.is_adequate", None, None),
    ("turaevgenus.diagram", "jones_polynomial", "diagram.bracket", None, None),
    ("turaevgenus.diagram", "bracket_span", "diagram.bracket", None, None),
    ("turaevgenus.diagram", "kauffman_bracket", "diagram.bracket",
     "diagram.bracket_calls", None),
    ("turaevgenus.decompose", "decompose", "decompose.decompose", None, None),
    ("turaevgenus.adgraph", "to_ribbon", "ribbon.genus", None, None),
    ("turaevgenus.ribbon", "ribbon_genus", "ribbon.genus", None, None),
    ("turaevgenus.adgraph", "parse_graph_file", "adgraph.parse_graph", None, None),
    ("turaevgenus.adgraph", "validate_adg", "adgraph.validate", None, None),
    ("turaevgenus.adgraph", "turaev_genus_graph", "adgraph.genus_recursion", None, None),
    ("networkx", "check_planarity", "adgraph.planarity", "adgraph.planarity_calls", None),
    ("turaevgenus.construct", "embed_planar", "construct.embed", None, None),
    ("turaevgenus.construct", "realize_diagram", "construct.realize", None, None),
    ("turaevgenus.families", "classify_genus", "families.classify", None, None),
    ("turaevgenus.families", "is_reduced", "families.is_reduced", None, None),
    ("turaevgenus.families", "isomorphic", "families.isomorphic",
     "families.isomorphic_calls", None),
    ("turaevgenus.families", "automorphisms", "families.isomorphic", None, None),
    ("turaevgenus.census", "simple_connected_graphs", "census.stage1", None,
     "census.stage1_graphs"),
    ("turaevgenus.census", "connected_atoms", "census.stage2", None, "census.atoms"),
    ("turaevgenus.census", "enumerate_adgs", "census.enumerate", None, "census.graphs"),
    ("turaevgenus.census", "census", "census.group", None, "census.classes"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in HOOKS))
COUNTERS = tuple(c for hook in HOOKS for c in hook[3:] if c)


class Tracer:
    def __init__(self):
        self.active = False
        self.item = None
        self.spans: list[tuple] = []  # (layer, item, parent, start, end)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []  # [span index, start, child time]
        self._restore: list[tuple] = []
        self.missing: set[str] = set()

    def wrap(self, fn, layer: str, calls: str | None, sizes: str | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[1]
                self.self_time[layer] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (layer, self.item, parent, frame[1], end)
            if calls:
                self.counts[calls] += 1
            if sizes:
                self.counts[sizes] += len(out)
            return out
        return traced

    def install(self) -> None:
        """Wrap every hook; hooks not found are noted in ``missing``."""
        for module_name, attr, layer, calls, sizes in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(fn, layer, calls, sizes)
            holders = [module] + [
                m for name, m in list(sys.modules.items())
                if m is not None and (name == "turaevgenus" or name.startswith("turaevgenus."))
            ]
            for holder in dict.fromkeys(holders):
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, wrapper)
                        self._restore.append((holder, name, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    def write(self, path) -> None:
        layers = {layer: i for i, layer in enumerate(LAYERS)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "layers": LAYERS,
                "fields": ["layer", "item", "parent", "start_s", "end_s"],
                "spans": [
                    (layers[layer], item, parent, round(start, 7), round(end, 7))
                    for layer, item, parent, start, end in self.spans
                ],
            }, fh, separators=(",", ":"))
