"""Span tracer for the traced benchmark run, recorded from outside strongdim.

`Tracer.install()` replaces each public function named in GROUPS by a
recording wrapper at every `strongdim.*` module binding of it, and
`uninstall()` puts the originals back, so untraced runs execute the
unmodified package. `bfs_from` stays untraced inside `strongdim.graph`,
so `graph.bfs` counts only the BFS calls made from other modules.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# group -> (home module, public functions). The group is the metric prefix;
# its first dotted part is the package module (the layer) it belongs to.
GROUPS = {
    "graph.apsp": ("strongdim.graph", ("all_pairs_distances",)),
    "graph.bfs": ("strongdim.graph", ("bfs_from",)),
    "graph.parse": ("strongdim.graph", ("parse_edge_list",)),
    "graph.other": ("strongdim.graph", ("require_connected", "to_edge_list", "generate")),
    "dimension.check": ("strongdim.dimension", ("is_strong_resolving_set", "is_resolving_set")),
    "dimension.srgraph": ("strongdim.dimension", ("strong_resolving_graph",)),
    "dimension.other": ("strongdim.dimension", ("strong_dimension", "brute_force_dimension")),
    "cover": ("strongdim.cover", ("min_vertex_cover",)),
    "embedding.certify": ("strongdim.embedding", ("is_w_resolved", "is_isometric_in_product")),
    "embedding.dve": ("strongdim.embedding", ("distance_vector_embedding",)),
    "constructions.build": ("strongdim.constructions", (
        "gn_family", "cycle_embedding", "l3n_family", "tree_dim3_embedding",
        "tree_dim4_embedding", "four_leaf_tree", "five_leaf_tree",
    )),
    "search": ("strongdim.search", (
        "threshold_dimension", "tau_gap_experiment", "exists_supergraph_resolved_by",
        "dim2_pruned_search",
    )),
    "search.auts": ("strongdim.search", ("graph_automorphisms",)),
}
ROOT = "cli"  # the span the harness opens around each cli.main call
_SKIP = {("strongdim.graph", "bfs_from")}


def _result_count(group: str, result) -> int:
    """Per-call counter read from a function's return value."""
    if group == "dimension.check":
        return int(bool(result))
    if group == "cover":
        return result.nodes_explored
    if group == "embedding.certify":
        return int(not result.ok)
    if group == "search.auts":
        return len(result) if result is not None else 0
    return 0


class Tracer:
    """Spans in parallel arrays: name id, start, end, parent span, job id."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_group: list[str] = [ROOT]
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.result_count = array("q")
        self.current_job = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.result_count.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call_root(self, fn, *args):
        """Run fn as one job under a root `cli` span."""
        self.current_job += 1
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, group: str):
        name_id = len(self.names)
        self.names.append(f"{fn.__module__}.{fn.__name__}")
        self.name_group.append(group)
        open_, close, counts = self._open, self._close, self.result_count

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            counts[idx] = _result_count(group, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "strongdim" or name.startswith("strongdim."))]
        for group, (home, funcs) in GROUPS.items():
            for fname in funcs:
                orig = getattr(sys.modules[home], fname)
                wrapper = self._wrap(orig, group)
                for mod in modules:
                    if getattr(mod, fname, None) is orig and (mod.__name__, fname) not in _SKIP:
                        self._patched.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def spans(self) -> list[tuple[int, float, float, int, int]]:
        """(name id, start, end, parent span, job id) per span; names are in self.names."""
        return list(zip(self.name_id, self.start, self.end, self.parent, self.job))

    def write(self, path) -> None:
        """Write every span once, as JSON with a shared name table."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "names": self.names, "spans": self.spans()}, fh)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to the parent and merged before subtracting, so the
    self times of all spans sum to the time covered by the root spans and
    nested calls within one layer are never counted twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            elif ce > cur_e:
                cur_e = ce
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


def group_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per group: calls, self time and the summed result counter."""
    totals = {g: {"calls": 0, "self_s": 0.0, "count": 0} for g in [ROOT, *GROUPS]}
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    for name_id, self_s, count in zip(tracer.name_id, selfs, tracer.result_count):
        t = totals[tracer.name_group[name_id]]
        t["calls"] += 1
        t["self_s"] += self_s
        t["count"] += count
    return totals
