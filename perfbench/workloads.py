"""The benchmark's workloads: seeded inputs, CLI job lists and output checks.

Each workload writes its inputs into a work directory (this is set-up) and
returns the `strongdim` CLI jobs to run on them. Every job carries a check
of its own output; checks raise CheckError and use only perfbench.check for
certificates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from check import CheckError, check_embedding, check_strong_resolving, parse_edges


@dataclass
class Job:
    argv: list[str]
    expect_rc: int
    check: Callable[["JobOutput"], None]  # raises CheckError
    stdout_to: Path | None = None  # the harness saves stdout here (a later job's input)
    writes: Path | None = None  # a file the job writes; its text is part of the output


@dataclass
class JobOutput:
    rc: int | None
    stdout: str
    stderr: str
    written: str = ""

    def json(self):
        """The JSON document in stdout, after any plain-text rows."""
        lines = self.stdout.splitlines()
        for i, line in enumerate(lines):
            if line.startswith(("{", "[")):
                return json.loads("\n".join(lines[i:]))
        raise CheckError("no JSON in stdout")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: Callable[[int, Path], list[Job]]
    digests: list[str]  # digest() of each job's seed-0 output
    seeded: bool = True  # False: every seed gets the seed-0 inputs


def relabel(edges: list[tuple[str, str]], seed: int) -> str:
    """Edge-list text; seed 0 keeps labels and line order, other seeds
    permute the labels and shuffle the lines."""
    if seed:
        rng = random.Random(seed)
        labels = sorted({x for e in edges for x in e})
        image = labels[:]
        rng.shuffle(image)
        name = dict(zip(labels, image))
        edges = [(name[u], name[v]) for u, v in edges]
        rng.shuffle(edges)
    return "".join(f"{u} {v}\n" for u, v in edges)


def _gn_edges(n: int) -> list[tuple[str, str]]:
    from strongdim.constructions import gn_family

    g = gn_family(n)
    return [(g.labels[u], g.labels[v]) for u, v in g.edges()]


def _level_refuted(level: dict) -> bool:
    return level["refuted"] == level["sets_total"] and level["budget_exhausted"] == 0


# --- refute-k2 --------------------------------------------------------------

REFUTE_GN = (2, 3)


def plan_refute_k2(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for n in REFUTE_GN:
        path = workdir / f"gn{n}.txt"
        path.write_text(relabel(_gn_edges(n), seed))

        def check(out: JobOutput) -> None:
            res = out.json()
            value, levels = res["value"], res["stats"]["levels"]
            if res["status"] != "bounds" or value["lo"] != 3 or not value["hi"] >= 3:
                raise CheckError(f"expected bounds with lo 3, got {res['status']} {value}")
            if res["witness_W"] is not None or [lv["k"] for lv in levels] != [1, 2]:
                raise CheckError("a k <= 2 anchor set was accepted")
            if not all(_level_refuted(lv) for lv in levels):
                raise CheckError("some k <= 2 anchor set was not refuted exhaustively")

        jobs.append(Job(["threshold", "--input", str(path), "--mode", "strong", "--max-k", "2"],
                        3, check))
    return jobs


# --- sweep-k3 ---------------------------------------------------------------


def plan_sweep_k3(seed: int, workdir: Path) -> list[Job]:
    graphs = {n: parse_edges(relabel(_gn_edges(n), 0)) for n in (1, 2)}

    def check_result(res: dict, n: int, strong: bool) -> None:
        if res["witness_W"] is None:
            return
        if res["embedding"]["anchors"] != res["witness_W"]:
            raise CheckError(f"G_{n}: embedding anchors differ from the witness")
        check_embedding(graphs[n], res["embedding"], strong)

    def check(out: JobOutput) -> None:
        g1, g2 = out.json()
        if (g1["n"], g1["vertices"], g2["n"], g2["vertices"]) != (1, 23, 2, 44):
            raise CheckError("unexpected corridor instances")
        if (g1["tau"]["value"], g1["tau_s"]["value"], g2["tau"]["value"]) != (2, 3, 2):
            raise CheckError("G_1 must give tau 2, tau_s 3 and G_2 tau 2")
        ts = g2["tau_s"]
        lo, hi = (ts["value"], ts["value"]) if ts["status"] == "exact" else (
            ts["value"]["lo"], ts["value"]["hi"])
        if not lo <= 3 <= hi:
            raise CheckError(f"G_2 tau_s bounds [{lo}, {hi}] exclude 3")
        for rep, n in ((g1, 1), (g2, 2)):
            check_result(rep["tau"], n, strong=False)
            check_result(rep["tau_s"], n, strong=True)

    return [Job(["gap-experiment", "--n", "2", "--max-k", "3", "--budget", "128", "--json"],
                0, check)]


# --- dim-random -------------------------------------------------------------

# (vertices, generator seed): random spanning tree plus 2n extra edges, so
# about 4 extra incident edges per vertex. The structures are fixed; --seed
# relabels them and shuffles the edge lines. Relabelling moves one graph's
# cover work by 10-20 %, so many mid-sized graphs are used, not a few large
# ones: over seeds 101-110 the summed cover nodes of 16 graphs of 60-65
# vertices spread by 0.086, those of these 32 by 0.039.
DIM_GRAPHS = tuple((n, g) for n in (55, 58) for g in range(16))


def random_graph_edges(n: int, gen_seed: int) -> list[tuple[str, str]]:
    rng = random.Random(f"dim-random:{n}:{gen_seed}")
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    target = len(edges) + 2 * n
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return [(f"v{u}", f"v{v}") for u, v in sorted(edges)]


def plan_dim_random(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for i, (n, gen_seed) in enumerate(DIM_GRAPHS):
        text = relabel(random_graph_edges(n, gen_seed), seed)
        path = workdir / f"random{i}.txt"
        path.write_text(text)
        graph = parse_edges(text)

        def check(out: JobOutput, graph=graph) -> None:
            res = out.json()
            if res["method"] != "reduction" or res["value"] != len(res["witness"]):
                raise CheckError("dimension value differs from the witness size")
            check_strong_resolving(graph, res["witness"])

        jobs.append(Job(["dim", "--input", str(path), "--mode", "strong"], 0, check))
    return jobs


# --- certify-families -------------------------------------------------------


def family_params(seed: int) -> dict[str, list[int]]:
    """Seeded parameters with a near-constant total size (about 1400 vertices)."""
    rng = random.Random(f"certify-families:{seed}")

    def composition(total: int, parts: int) -> list[int]:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]

    k1, k2, k3, k4, k5 = composition(300, 5)
    t = composition(300, 6)
    t.append(rng.randint(1, t[0]))  # k7: the extra path attaches at v_k7 of the central path
    return {
        "cycle": [rng.randint(396, 400)],
        "l3n": [rng.randint(131, 133)],
        "tree4": [k1, max(k2, k3), min(k2, k3), max(k4, k5), min(k4, k5)],
        "tree5": [t[0], max(t[1], t[2]), min(t[1], t[2]), max(t[3], t[4]), min(t[3], t[4]),
                  t[5], t[6]],
    }


def plan_certify_families(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for family, params in family_params(seed).items():
        graph_path = workdir / f"{family}.txt"
        emb_path = workdir / f"{family}.emb.json"

        def check_gen(out: JobOutput) -> None:
            check_embedding(parse_edges(out.stdout), json.loads(out.written), strong=True)

        def check_certify(out: JobOutput) -> None:
            res = out.json()
            if res["verdict"] is not True or res["clause"] is not None:
                raise CheckError(f"certify rejected the embedding: {res}")

        jobs.append(Job(["gen", "--family", family, "--params", ",".join(map(str, params)),
                         "--embedding-out", str(emb_path)],
                        0, check_gen, stdout_to=graph_path, writes=emb_path))
        jobs.append(Job(["certify", "--input", str(graph_path), "--embedding", str(emb_path),
                         "--mode", "strong"], 0, check_certify))
    return jobs


WORKLOADS = {w.name: w for w in (
    Workload(
        "refute-k2",
        "exhaustive k<=2 refutation of the corridor graphs G_2 and G_3: per-anchor-set APSP "
        "and resolving checks, almost no DFS",
        plan_refute_k2,
        digests=["13ff722a5ab4a863", "c750fcfade6c500a"],
    ),
    Workload(
        "sweep-k3",
        "the paper's corridor table (gap-experiment up to G_2, k<=3, budget 128): placement "
        "DFS, orbit grouping and budget schedule",
        plan_sweep_k3,
        seeded=False,
        digests=["c1d1adeeee35ec09"],
    ),
    Workload(
        "dim-random",
        "strong dimension of 32 random graphs with 55-58 vertices: the MMD graph and the "
        "exact vertex cover; no search",
        plan_dim_random,
        digests=["d4a80ff44b44621d", "0b99d73e78a8d41f", "bdfa034721dea02f", "882dea44843b55be",
                 "23b3d4922094f884", "e46ea5271c4d18fe", "435c9a6e0c482256", "c89349f921f504c2",
                 "43179fb734d3f9de", "76099116be4a8462", "cb710da0f8090517", "9daaf033f14b2352",
                 "b2ccaf24bd497b15", "082fdbf124d7d779", "206e392cff5f5c74", "95c79eb8dbf2e1d2",
                 "71d37e8ecd925395", "d360be22213a06d8", "6dc0e2da3507c722", "3627f3acc5c06eaf",
                 "316d40aa688006d4", "a3bab87620d1640e", "43f83c3a5cefe35a", "053d5f09d0d60916",
                 "807ed20884579ba3", "3b7b1f37bf5de475", "12c27b3e76341956", "ddc86b62760a8299",
                 "ca6714bed7b79927", "c3beab639b28c5e3", "64f854b8ba783614", "db77903cfb78e353"],
    ),
    Workload(
        "certify-families",
        "gen plus certify of cycle, l3n and 4-/5-leaf tree embeddings near 400 vertices: "
        "constructions and embedding certification",
        plan_certify_families,
        digests=["42d42e9a5d896913", "05e1f1587abc4889", "0db46a13c946e636", "05e1f1587abc4889",
                 "ef05c2bd26b509c4", "05e1f1587abc4889", "8fecb0859e66e1e8", "05e1f1587abc4889"],
    ),
)}
