"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 input error (parse failure,
disconnected graph, bad parameters), 3 threshold budget exhausted (partial
JSON still printed). All JSON output is deterministic: keys are sorted and
no wall-clock values are emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import constructions as cons
from .cover import min_vertex_cover
from .dimension import brute_force_dimension, strong_dimension, strong_resolving_graph
from .embedding import (
    Embedding,
    certify,
    render_grid,
)
from .graph import (
    Graph,
    GraphError,
    generate,
    is_tree,
    parse_edge_list,
    require_connected,
    to_edge_list,
)
from .search import (
    PlacementSearchConfig,
    tau_gap_experiment,
    threshold_dimension,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_graph(path: str) -> Graph:
    g = parse_edge_list(Path(path).read_text())
    require_connected(g)
    return g


def _int_params(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise GraphError(f"params must be comma-separated integers, got {text!r}")


def _cmd_dim(args) -> int:
    g = _load_graph(args.input)
    res = strong_dimension(g) if args.mode == "strong" else brute_force_dimension(g, "metric")
    out = res.to_json()
    if args.oracle:
        oracle = brute_force_dimension(g, args.mode)
        out["oracle"] = oracle.to_json()
        out["oracle_agrees"] = oracle.value == res.value
    _emit(out)
    return EXIT_OK


def _cmd_srgraph(args) -> int:
    g = _load_graph(args.input)
    sr = strong_resolving_graph(g)
    sys.stdout.write(to_edge_list(sr))
    isolated = [sr.labels[v] for v in range(sr.n) if sr.degree(v) == 0]
    for lb in sorted(isolated):
        print(f"# isolated {lb}")
    return EXIT_OK


def _cmd_cover(args) -> int:
    g = _load_graph(args.input)
    res = min_vertex_cover(g)
    _emit({"size": res.size, "cover": list(res.cover), "nodes_explored": res.nodes_explored})
    return EXIT_OK


def _search_config(args) -> PlacementSearchConfig:
    return PlacementSearchConfig(
        node_budget=args.budget,
        symmetry_pruning=not args.no_symmetry,
        jobs=args.jobs,
    )


def _cmd_threshold(args) -> int:
    g = _load_graph(args.input)
    res = threshold_dimension(g, args.mode, _search_config(args), max_k=args.max_k)
    _emit(res.to_json())
    return EXIT_OK if res.status == "exact" else EXIT_BUDGET


def _cmd_certify(args) -> int:
    g = _load_graph(args.input)
    emb = Embedding.from_json(json.loads(Path(args.embedding).read_text()))
    res = certify(emb, g, strong=args.mode == "strong")
    _emit({"verdict": res.ok, "clause": res.clause, "detail": res.detail})
    if args.render and emb.k == 2:
        for line in render_grid(emb).splitlines():
            print(f"# {line}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = _int_params(args.params) if args.params else []
    family = args.family
    emb = None
    if family in ("path", "complete", "star"):
        g = generate(family, n=_one(params, family))
    elif family == "multipartite":
        g = generate("complete_multipartite", sizes=params)
    elif family == "random_tree":
        g = generate("random_tree", n=_one(params, family), seed=args.seed)
    elif family == "cycle":
        n = _one(params, family)
        g = generate("cycle", n=n)
        if n >= 4:
            emb = cons.cycle_embedding(n)
    elif family == "type":
        if len(params) != 3:
            raise GraphError("type family needs params TYPE,M,N")
        g = cons.type_graph(cons.StarPairSpec(params[1], params[2], params[0]))
    elif family == "tree4":
        if len(params) != 5:
            raise GraphError("tree4 needs params K1,K2,K3,K4,K5")
        p4 = cons.FourLeafTreeParams(*params)
        g = cons.four_leaf_tree(p4)
        emb = cons.tree_dim3_embedding(p4)
    elif family == "tree5":
        if len(params) != 7:
            raise GraphError("tree5 needs params K1..K7")
        p5 = cons.FiveLeafTreeParams(*params)
        g = cons.five_leaf_tree(p5)
        emb = cons.tree_dim4_embedding(p5)
    elif family == "l3n":
        g, emb = cons.l3n_family(_one(params, family))
    elif family == "gn":
        g = cons.gn_family(_one(params, family))
    else:
        raise GraphError(f"unknown family {family!r}")
    sys.stdout.write(to_edge_list(g))
    if emb is not None and args.embedding_out:
        Path(args.embedding_out).write_text(json.dumps(emb.to_json(), indent=2, sort_keys=True) + "\n")
    if emb is not None and args.render:
        for line in render_grid(emb).splitlines():
            print(f"# {line}")
    return EXIT_OK


def _one(params: list[int], family: str) -> int:
    if len(params) != 1:
        raise GraphError(f"{family} needs a single integer parameter")
    return params[0]


def _cmd_bounds(args) -> int:
    g = _load_graph(args.input)
    out: dict = {}
    coloring = cons.greedy_coloring(g)
    h, bound = cons.chromatic_bound_supergraph(g, coloring)
    out["chromatic"] = {
        "classes": [list(cl) for cl in coloring.classes],
        "bound": bound,
        "strong_dimension_of_H": strong_dimension(h).value,
    }
    if is_tree(g) and g.n >= 2:
        ht, bt = cons.tree_bound_supergraph(g)
        out["tree"] = {"bound": bt, "strong_dimension_of_H": strong_dimension(ht).value}
    else:
        out["tree"] = None
    _emit(out)
    return EXIT_OK


def _cmd_gap(args) -> int:
    if args.n < 1:
        raise GraphError(f"--n must be at least 1, got {args.n}")
    cfg = _search_config(args)
    reports = []
    for i in range(1, args.n + 1):
        rep = tau_gap_experiment(i, cfg, max_k=args.max_k)
        print(rep.row())
        reports.append(rep)
    if args.json:
        _emit([r.to_json() for r in reports])
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="strongdim", description="strong dimension and threshold strong dimension toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dim", help="(strong) dimension of a graph")
    d.add_argument("--input", required=True)
    d.add_argument("--mode", choices=("metric", "strong"), default="strong")
    d.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    d.set_defaults(func=_cmd_dim)

    s = sub.add_parser("srgraph", help="edge list of the mutually-maximally-distant pair graph")
    s.add_argument("--input", required=True)
    s.set_defaults(func=_cmd_srgraph)

    c = sub.add_parser("cover", help="exact minimum vertex cover")
    c.add_argument("--input", required=True)
    c.set_defaults(func=_cmd_cover)

    t = sub.add_parser("threshold", help="threshold (strong) dimension by placement search")
    t.add_argument("--input", required=True)
    t.add_argument("--mode", choices=("metric", "strong"), default="strong")
    t.add_argument("--budget", type=int, default=10_000_000, help="search nodes per anchor set")
    t.add_argument("--max-k", type=int, default=None)
    t.add_argument("--jobs", type=int, default=1)
    t.add_argument("--no-symmetry", action="store_true")
    t.set_defaults(func=_cmd_threshold)

    ce = sub.add_parser("certify", help="verify an embedding JSON against a graph")
    ce.add_argument("--input", required=True)
    ce.add_argument("--embedding", required=True)
    ce.add_argument("--mode", choices=("resolved", "strong"), default="strong")
    ce.add_argument("--render", action="store_true")
    ce.set_defaults(func=_cmd_certify)

    ge = sub.add_parser("gen", help="emit a graph family as an edge list")
    ge.add_argument(
        "--family",
        required=True,
        choices=("path", "cycle", "complete", "star", "multipartite", "random_tree",
                 "type", "tree4", "tree5", "l3n", "gn"),
    )
    ge.add_argument("--params", default="", help="comma-separated integers")
    ge.add_argument("--seed", type=int, default=0)
    ge.add_argument("--embedding-out", default=None, help="write the embedding JSON here")
    ge.add_argument("--render", action="store_true", help="append an ASCII grid as comments")
    ge.set_defaults(func=_cmd_gen)

    b = sub.add_parser("bounds", help="constructive upper bounds with verified dimensions")
    b.add_argument("--input", required=True)
    b.set_defaults(func=_cmd_bounds)

    ga = sub.add_parser("gap-experiment", help="threshold vs threshold-strong table rows")
    ga.add_argument("--n", type=int, required=True)
    ga.add_argument("--budget", type=int, default=2_000_000)
    ga.add_argument("--max-k", type=int, default=None)
    ga.add_argument("--jobs", type=int, default=1)
    ga.add_argument("--no-symmetry", action="store_true")
    ga.add_argument("--json", action="store_true")
    ga.set_defaults(func=_cmd_gap)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (GraphError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
