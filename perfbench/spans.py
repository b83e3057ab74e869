"""Spans and counters around the public entry points of each stellar module.

Nothing in the library is edited.  `Tracer.install` rebinds every name
that refers to a wrapped function, in every loaded stellar module (so
`degree` is replaced both in `stellar.group`, where `is_flat` resolves it,
and in `stellar.invariants`, which imported it by name), and sets wrapped
methods on their classes.  `uninstall` puts the originals back, so the
untraced passes run the library untouched.

A span records name, start, end, parent span and input id.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
time its child spans cover.  Functions called per generator are counted,
not timed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, input id]
        self.counts: Counter = Counter()
        self.input_id: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (namespace, attribute, original, replacement)

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.input_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = _now()

    def timed(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        tracer, counts, calls = self, self.counts, name + "_calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        counts, calls = self.counts, name + "_calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    # -- rebinding -------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap the entry points listed in `probes`."""
        modules = [m for n, m in sys.modules.items() if n == "stellar" or n.startswith("stellar.")]
        for module, attr, kind, name, after in probes(lib):
            original = getattr(module, attr)
            wrap = self.timed if kind == "span" else self.counted
            if isinstance(module, type):  # a method: set it on the class
                raw = module.__dict__[attr]
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                new = wrap(name, func, after)
                if isinstance(raw, staticmethod):
                    new = staticmethod(new)
                self._patch(module, attr, raw, new)
                continue
            new = wrap(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, new)

    def _patch(self, namespace, attr, original, new) -> None:
        setattr(namespace, attr, new)
        self._patches.append((namespace, attr, original, new))

    def uninstall(self) -> None:
        for namespace, attr, original, _ in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches = []


def _count_into(name: str, measure: Callable[[tuple, Any], int]) -> Callable:
    def after(counts, args, result):
        counts[name] += measure(args, result)

    return after


def _snf_entries(counts, args, result):
    rows = args[0]
    counts["homology.snf_entries"] += len(rows) * (len(rows[0]) if rows else 0)


def probes(lib):
    """(namespace, attribute, span|count, metric stem, post-call hook)."""
    Complex = lib.complexes.Complex
    Quotient = lib.quotient.QuotientComplex
    unknown = lib.moves.Recognition.UNKNOWN
    return [
        (Complex, "__init__", "count", "complexes.init", None),
        (Complex, "link", "count", "complexes.link", None),
        (Complex, "residual", "count", "complexes.residual", None),
        (lib.moves, "subdivide", "count", "moves.subdivide", None),
        (lib.moves, "weld", "count", "moves.weld", None),
        (lib.moves, "weld_factor", "count", "moves.weld_factor",
         _count_into("moves.weld_factor_ok", lambda a, r: 1)),
        (lib.moves, "recognize", "span", "moves.recognize",
         _count_into("moves.recognize_unknown", lambda a, r: r is unknown)),
        (lib.manifold, "check_manifold", "span", "manifold.check",
         _count_into("manifold.links", lambda a, r: len(r.link_results))),
        (lib.homology, "smith_normal_form", "span", "homology.snf", _snf_entries),
        (lib.homology, "homology_from_boundaries", "span", "homology.h1", None),
        (lib.homology, "complex_h1", "span", "homology.h1", None),
        (Quotient, "from_structure", "span", "quotient.from_structure",
         _count_into("quotient.cells", lambda a, r: sum(len(c) for c in r.cells.values()))),
        (Quotient, "boundary_matrices", "span", "quotient.boundary_matrices", None),
        (Quotient, "h1", "span", "quotient.h1", None),
        (lib.structure, "build_structure", "span", "structure.build",
         _count_into("structure.steps", lambda a, r: len(r.steps))),
        (lib.structure, "verify_structure", "span", "structure.verify", None),
        (lib.group, "degree", "span", "group.degree", None),
        (lib.group, "gamma_graph", "span", "group.gamma", None),
        (lib.group, "order_of", "count", "group.order_of", None),
        (lib.group, "face_classes", "count", "group.face_classes", None),
        (lib.group, "p0", "count", "group.p0", None),
        (lib.lens, "lens_structure", "span", "lens.build", None),
        (lib.invariants, "structure_report", "span", "invariants.report", None),
        (lib.invariants, "quotient_collapses_to_point", "span", "invariants.collapse", None),
        (lib.invariants, "classify_flat_quotient", "span", "invariants.classify", None),
        (lib.invariants, "sphere_workflow", "span", "invariants.workflow", None),
        (lib.io, "loads", "span", "io.parse", None),
        (lib.io, "parse_complex", "span", "io.parse", None),
        (lib.io, "parse_structure", "span", "io.parse", None),
        (lib.io, "dumps", "span", "io.dumps", None),
        (lib.cli, "main", "span", "cli.main", None),
    ]


LAYERS = ("moves", "manifold", "homology", "quotient", "structure", "group",
          "lens", "invariants", "io", "cli")


def span_totals(spans: List[list]) -> Dict[str, float]:
    """Per span name: inclusive seconds of the outermost spans of that name
    (`<name>_s`), and self seconds of all of them (`<name>_self_s`); per
    layer: summed self seconds (`<layer>.self_s`)."""
    child: Dict[int, float] = Counter()
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Dict[str, float] = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        self_s = duration - child[i]
        out[f"{name}_self_s"] += self_s
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += self_s
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}_s"] += duration
    return out


def write_spans(path, spans: List[list]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, (name, start, end, parent, input_id) in enumerate(spans):
            handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "input": input_id}) + "\n")
