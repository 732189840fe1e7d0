"""Spans around the program's layer boundaries, recorded from outside.

`Tracer.wrap` replaces a module or class attribute with a function that
records one span per call and then calls the original; `restore` puts every
original back.  The program's source is never edited: the wrappers sit on
the attributes through which callers reach each function, so a function
that another module imported by name is wrapped in that importing module.

Spans live in four parallel arrays (layer id, parent span, start, end) so a
run with millions of calls stays small; they are summarised, and can be
written out, once the traced work has finished.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span named `name` around every call of `owner.attr`."""
        original = getattr(owner, attr)
        layer_id = self._ids.setdefault(name, len(self._ids))
        if layer_id == len(self.names):
            self.names.append(name)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        open_spans = self._open

        def traced(*args, **kwargs):
            i = len(layer)
            layer.append(layer_id)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(i)
            start.append(perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                open_spans.pop()

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, inclusive seconds, and self seconds (a
        span's duration minus the time its child spans cover)."""
        n = len(self.layer)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += duration[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.layer[i]]]
            row["calls"] += 1
            row["total_s"] += duration[i]
            row["self_s"] += duration[i] - covered[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the layer, parent, start and end
        arrays as raw machine values in that order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"layers": self.names, "spans": len(self.layer),
                  "arrays": ["layer:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(fh)
