"""Spans around surfcomplex's public functions, recorded from outside.

`Tracer.install` rebinds each listed function to a wrapper in every
surfcomplex module that holds a reference to it, so calls made through the
package, through `toruscomplex.connect_path`, or through a
`from .exactlin import det` binding inside another module are all seen.
Each call records one span (name, start, end, parent span, operation id)
in flat arrays; `uninstall` restores the originals.  A name the program
does not define is skipped, and its metrics read zero.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute) pairs wrapped in spans, by metric name prefix.
FUNCTIONS = {
    "exactlin": ("xgcd", "det", "complete_to_unimodular", "inverse_unimodular",
                 "minors_gcd", "invariant_factors"),
    "toruscomplex": ("connect_path", "two_hop_path", "edge_witness", "s1_edge",
                     "enumerate_vertices", "build_graph", "truncation_diameter",
                     "bfs_distance", "farey_neighbors", "graph_to_json_dict",
                     "graph_to_dot"),
    "seifert": ("normalize", "h1", "classify_surface_complex", "info_json_dict"),
    "cli": ("main",),
}
# Dataclass validation hooks: (module, class, method, span name or None to
# count calls only).
HOOKS = (
    ("exactlin", "IntMatrix", "__post_init__", None),
    ("toruscomplex", "PathCertificate", "__post_init__", "toruscomplex.PathCertificate.verify"),
)


class Tracer:
    def __init__(self, modules: dict):
        """modules maps short names ("exactlin", ...) to imported modules;
        the package itself goes under "surfcomplex"."""
        self.modules = modules
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        kind, start, end, parent, op = self.kind, self.start, self.end, self.parent, self.op
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, obj, attr: str, new) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self) -> None:
        for short, attrs in FUNCTIONS.items():
            home = self.modules.get(short)
            for attr in attrs:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapped = self._span(f"{short}.{attr}", original)
                for mod in self.modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapped)
        for short, cls_name, meth, span in HOOKS:
            cls = getattr(self.modules.get(short), cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                continue
            name = f"{short}.{cls_name}.{meth}"
            self._rebind(cls, meth, self._span(span, original) if span else self._counter(name, original))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def times(self) -> tuple[Counter, Counter, Counter]:
        """(calls, self seconds, total seconds), by span name."""
        child = array("d", bytes(8 * len(self.kind)))
        for idx in range(len(self.kind)):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        calls, self_s, total = Counter(), Counter(), Counter()
        for idx in range(len(self.kind)):
            name = self.names[self.kind[idx]]
            dur = self.end[idx] - self.start[idx]
            calls[name] += 1
            self_s[name] += dur - child[idx]
            total[name] += dur
        return calls, self_s, total

    def write(self, path) -> None:
        """Spans as gzip'd TSV: span, name, start, end, parent, operation."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for idx in range(len(self.kind)):
                f.write(
                    f"{idx}\t{self.names[self.kind[idx]]}\t{self.start[idx] - t0:.9f}\t"
                    f"{self.end[idx] - t0:.9f}\t{self.parent[idx]}\t{self.op[idx]}\n"
                )
