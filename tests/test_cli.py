import json
import random

import pytest

from strongdim import (
    Graph,
    complete_graph,
    cycle_graph,
    distance_vector_embedding,
    path_graph,
    to_edge_list,
)
from strongdim.cli import main
from strongdim.constructions import (
    FiveLeafTreeParams,
    FourLeafTreeParams,
    cycle_embedding,
    five_leaf_tree,
    four_leaf_tree,
)


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.txt"
    p.write_text(to_edge_list(complete_graph(5)))
    return str(p)


@pytest.fixture
def c7_file(tmp_path):
    p = tmp_path / "c7.txt"
    p.write_text(to_edge_list(cycle_graph(7)))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_strong_k5(capsys, k5_file):
    code, out, _ = run(capsys, "dim", "--input", k5_file, "--mode", "strong")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 4 and payload["method"] == "reduction"


def test_dim_oracle_flag(capsys, c7_file):
    code, out, _ = run(capsys, "dim", "--input", c7_file, "--oracle")
    payload = json.loads(out)
    assert code == 0 and payload["oracle_agrees"] and payload["oracle"]["value"] == 4


def test_srgraph_lists_isolated(capsys, tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text(to_edge_list(path_graph(4)))
    code, out, _ = run(capsys, "srgraph", "--input", str(p))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 3"
    assert "# isolated 1" in lines and "# isolated 2" in lines


def test_cover(capsys, k5_file):
    code, out, _ = run(capsys, "cover", "--input", k5_file)
    payload = json.loads(out)
    assert code == 0 and payload["size"] == 4


def test_threshold_c7_exact(capsys, c7_file):
    code, out, _ = run(capsys, "threshold", "--input", c7_file, "--mode", "strong")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "exact" and payload["value"] == 2
    assert payload["embedding"] is not None


def test_threshold_budget_exit_code(capsys, tmp_path):
    from strongdim.constructions import gn_family

    p = tmp_path / "g1.txt"
    p.write_text(to_edge_list(gn_family(1)))
    code, out, _ = run(capsys, "threshold", "--input", str(p), "--budget", "3", "--max-k", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "bounds"


def test_threshold_lo_equal_to_strong_dimension_is_exact(capsys, tmp_path):
    # --max-k 1 refutes k = 1 on C4, and the strong basis of size 2 closes the gap
    p = tmp_path / "c4.txt"
    p.write_text(to_edge_list(cycle_graph(4)))
    code, out, _ = run(capsys, "threshold", "--input", str(p), "--mode", "strong", "--max-k", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "exact" and payload["value"] == 2
    assert payload["embedding"]["anchors"] == payload["witness_W"]
    emb = tmp_path / "emb.json"
    emb.write_text(json.dumps(payload["embedding"]))
    code, out, _ = run(capsys, "certify", "--input", str(p), "--embedding", str(emb), "--mode", "strong")
    assert code == 0 and json.loads(out)["verdict"] is True


def test_threshold_byte_identical(capsys, c7_file):
    _, out1, _ = run(capsys, "threshold", "--input", c7_file)
    _, out2, _ = run(capsys, "threshold", "--input", c7_file)
    assert out1 == out2


def test_certify_good_and_corrupted(capsys, tmp_path, c7_file):
    emb = cycle_embedding(7)
    good = tmp_path / "emb.json"
    good.write_text(json.dumps(emb.to_json()))
    code, out, _ = run(capsys, "certify", "--input", c7_file, "--embedding", str(good), "--mode", "strong")
    assert code == 0 and json.loads(out)["verdict"] is True

    broken = emb.to_json()
    broken["placement"]["3"] = [emb.side - 1, emb.side - 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "certify", "--input", c7_file, "--embedding", str(bad), "--mode", "resolved")
    assert code == 0  # a false verdict is still a successful run
    payload = json.loads(out)
    assert payload["verdict"] is False and payload["clause"].startswith("W-resolved")


def test_certify_render_skips_a_coordinate_of_the_wrong_length(capsys, tmp_path, c7_file):
    broken = cycle_embedding(7).to_json()
    broken["placement"]["3"] = [1, 2, 3]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "certify", "--input", c7_file, "--embedding", str(bad), "--render")
    assert code == 0
    lines = out.splitlines()
    payload = json.loads("\n".join(ln for ln in lines if not ln.startswith("#")))
    assert payload["verdict"] is False and payload["clause"] == "range"
    grid = [ln for ln in lines if ln.startswith("#")]
    assert "3" not in "".join(grid) and "6" in "".join(grid)  # only the bad cell is left out


@pytest.mark.parametrize("case", ["extra_anchor", "missing_anchor", "anchor_outside_graph"])
def test_certify_anchors_must_be_k_vertices(capsys, tmp_path, c7_file, case):
    emb = cycle_embedding(7).to_json()
    if case == "extra_anchor":
        emb["anchors"].append(next(lb for lb in emb["placement"] if lb not in emb["anchors"]))
    elif case == "missing_anchor":
        emb["anchors"].pop()  # coordinate 1 would go unchecked
    else:
        emb["placement"]["zz"] = [emb["side"] - 1, emb["side"] - 1]
        emb["anchors"][0] = "zz"
    p = tmp_path / "emb.json"
    p.write_text(json.dumps(emb))
    code, out, _ = run(capsys, "certify", "--input", c7_file, "--embedding", str(p))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False and payload["clause"] == "domain"


@pytest.mark.parametrize("mode", ["resolved", "strong"])
@pytest.mark.parametrize("cell", [[0, 0, 0], [0, 0]])
def test_certify_placed_label_outside_graph_is_domain(capsys, tmp_path, c7_file, mode, cell):
    emb = cycle_embedding(7).to_json()
    emb["placement"]["zz"] = cell
    p = tmp_path / "emb.json"
    p.write_text(json.dumps(emb))
    code, out, _ = run(capsys, "certify", "--input", c7_file, "--embedding", str(p), "--mode", mode)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False and payload["clause"] == "domain"
    assert "'zz'" in payload["detail"]


def test_certify_render_is_bounded_by_the_placement(capsys, tmp_path, c7_file):
    emb = cycle_embedding(7).to_json()
    emb["side"] = 2000
    p = tmp_path / "emb.json"
    p.write_text(json.dumps(emb))
    code, out, _ = run(capsys, "certify", "--input", c7_file, "--embedding", str(p), "--render")
    assert code == 0
    grid = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert len(grid) == 7 and max(map(len, grid)) < 20


def test_certify_render_draws_no_grid_when_k_is_not_2(capsys, tmp_path):
    """--render draws a k = 2 grid only: with a k = 3 embedding (K4's strong basis)
    certify prints the verdict JSON alone, as without --render, and exits 0."""
    g = complete_graph(4)
    emb = distance_vector_embedding(g, g.labels[:3])
    gp, ep = tmp_path / "k4.txt", tmp_path / "emb.json"
    gp.write_text(to_edge_list(g))
    ep.write_text(json.dumps(emb.to_json()))
    argv = ("certify", "--input", str(gp), "--embedding", str(ep))
    _, plain, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--render")
    assert code == 0 and err == "" and out == plain
    assert json.loads(out)["verdict"] is True


def test_certify_malformed_embedding_is_input_error(capsys, tmp_path, c7_file):
    good = cycle_embedding(7).to_json()
    bad_coordinate = json.loads(json.dumps(good))
    bad_coordinate["placement"]["3"] = 5
    for broken in ({**good, "k": "x"}, [good], bad_coordinate):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(broken))
        code, out, err = run(capsys, "certify", "--input", c7_file, "--embedding", str(p))
        assert code == 2 and out == "" and err.startswith("input error: embedding")


def test_jobs_is_not_an_option(capsys, c7_file):
    """The anchor-set sweep runs in one process: --jobs is an unknown option."""
    for argv in (("threshold", "--input", c7_file), ("gap-experiment", "--n", "1")):
        code, out, err = run(capsys, *argv, "--jobs", "2")
        assert code == 1 and out == "" and err.startswith("usage error: ") and "--jobs" in err


def test_gen_families(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--family", "cycle", "--params", "7")
    assert code == 0 and len(out.splitlines()) == 7

    ej = tmp_path / "emb.json"
    code, out, _ = run(
        capsys, "gen", "--family", "tree4", "--params", "3,4,4,4,3", "--embedding-out", str(ej)
    )
    assert code == 0
    payload = json.loads(ej.read_text())
    assert payload["anchors"] == ["y4", "u4"]
    assert payload["placement"]["y4"] == [0, 9]

    code, out, _ = run(capsys, "gen", "--family", "gn", "--params", "2")
    assert code == 0 and len(out.splitlines()) == 121

    code, out, _ = run(capsys, "gen", "--family", "l3n", "--params", "4", "--render")
    assert code == 0
    assert any(line.startswith("# ") for line in out.splitlines())


@pytest.mark.parametrize(
    "family, params, n, m",
    [
        ("path", "5", 5, 4),
        ("complete", "5", 5, 10),
        ("star", "4", 5, 4),
        ("multipartite", "2,3", 5, 6),
        ("random_tree", "9", 9, 8),
    ],
)
def test_gen_standard_families(capsys, family, params, n, m):
    from strongdim import parse_edge_list, random_tree

    code, out, _ = run(capsys, "gen", "--family", family, "--params", params, "--seed", "3")
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, g.m) == (n, m)
    if family == "random_tree":
        assert out == to_edge_list(random_tree(n, seed=3))


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("cycle", "5,x", "comma-separated integers"),
        ("type", "2,3", "TYPE,M,N"),
        ("tree4", "3,4,4,4", "K1,K2,K3,K4,K5"),
        ("tree5", "3,2,1,2,1,2", "K1..K7"),
        ("path", "", "single integer"),
        ("star", "3,4", "single integer"),
        ("gn", "1,2", "single integer"),
        ("cycle", "0", "cycle needs n >= 3"),
        ("cycle", "2", "cycle needs n >= 3"),
        ("random_tree", "0", "tree needs n >= 1"),
    ],
)
def test_gen_bad_params_are_input_errors(capsys, family, params, message):
    code, out, err = run(capsys, "gen", "--family", family, "--params", params)
    assert code == 2 and out == "" and err.startswith("input error: ") and message in err


def test_gen_tree5_embedding_certifies(capsys, tmp_path):
    g, ej = tmp_path / "t5.txt", tmp_path / "t5.json"
    code, out, _ = run(
        capsys, "gen", "--family", "tree5", "--params", "3,2,1,2,1,2,2", "--embedding-out", str(ej)
    )
    assert code == 0
    g.write_text(out)
    code, out, _ = run(capsys, "certify", "--input", str(g), "--embedding", str(ej))
    assert code == 0 and json.loads(out)["verdict"] is True


@pytest.mark.parametrize("family, params", [("cycle", "7"), ("l3n", "3"), ("tree4", "2,2,1,1,1")])
def test_gen_embedding_out_certifies(capsys, tmp_path, family, params):
    g, ej = tmp_path / "g.txt", tmp_path / "emb.json"
    code, out, _ = run(
        capsys, "gen", "--family", family, "--params", params, "--embedding-out", str(ej)
    )
    assert code == 0
    g.write_text(out)
    code, out, _ = run(capsys, "certify", "--input", str(g), "--embedding", str(ej))
    assert code == 0 and json.loads(out)["verdict"] is True


@pytest.mark.parametrize(
    "family, params",
    [("path", "4"), ("complete", "4"), ("star", "3"), ("multipartite", "2,3"),
     ("random_tree", "6"), ("type", "3,2,3"), ("gn", "1"), ("cycle", "3")],
)
def test_gen_embedding_out_without_an_embedding_is_input_error(capsys, tmp_path, family, params):
    stale = tmp_path / "emb.json"
    stale.write_text("from an earlier run\n")
    for flag in (["--embedding-out", str(stale)], ["--render"]):
        code, out, err = run(capsys, "gen", "--family", family, "--params", params, *flag)
        assert code == 2 and out == "" and "builds no embedding" in err, flag
    assert stale.read_text() == "from an earlier run\n"


@pytest.mark.parametrize(
    "family, params, tree",
    [("tree4", "1,1,2,1,1", four_leaf_tree(FourLeafTreeParams(1, 1, 2, 1, 1))),
     ("tree5", "1,1,2,1,1,2,1", five_leaf_tree(FiveLeafTreeParams(1, 1, 2, 1, 1, 2, 1)))],
)
def test_gen_unnormalized_tree_prints_its_edges_but_builds_no_embedding(capsys, tmp_path, family,
                                                                        params, tree):
    """Only the embedding needs K2 >= K3 and K4 >= K5; the tree itself exists."""
    assert run(capsys, "gen", "--family", family, "--params", params) == (0, to_edge_list(tree), "")
    stale = tmp_path / "emb.json"
    stale.write_text("from an earlier run\n")
    code, out, err = run(capsys, "gen", "--family", family, "--params", params,
                         "--embedding-out", str(stale))
    assert code == 2 and out == "" and "params must be normalized" in err
    assert stale.read_text() == "from an earlier run\n"


def test_gen_is_parse_compatible(capsys):
    from strongdim import parse_edge_list

    code, out, _ = run(capsys, "gen", "--family", "type", "--params", "2,2,3")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n > 0


@pytest.mark.parametrize("family", ["path", "complete", "random_tree", "multipartite"])
def test_gen_one_vertex_is_input_error(capsys, family):
    code, out, err = run(capsys, "gen", "--family", family, "--params", "1")
    assert code == 2 and out == "" and err.startswith("input error: ")


def test_gen_star_with_one_leaf(capsys):
    assert run(capsys, "gen", "--family", "star", "--params", "1") == (0, "0 1\n", "")


@pytest.mark.parametrize(
    "family, params",
    [
        ("path", "4"),
        ("cycle", "5"),
        ("complete", "4"),
        ("star", "3"),
        ("multipartite", "2,3"),
        ("random_tree", "6"),
        ("type", "3,2,3"),
        ("tree4", "2,2,1,1,1"),
        ("tree5", "3,2,1,2,1,2,2"),
        ("l3n", "3"),
        ("gn", "1"),
    ],
)
def test_gen_round_trips(capsys, family, params):
    from strongdim import (
        complete_graph,
        complete_multipartite_graph,
        cycle_graph,
        parse_edge_list,
        path_graph,
        random_tree,
        star_graph,
    )
    from strongdim import constructions as cons

    p = [int(x) for x in params.split(",")]
    built = {
        "path": lambda: path_graph(p[0]),
        "cycle": lambda: cycle_graph(p[0]),
        "complete": lambda: complete_graph(p[0]),
        "star": lambda: star_graph(p[0]),
        "multipartite": lambda: complete_multipartite_graph(p),
        "random_tree": lambda: random_tree(p[0], seed=4),
        "type": lambda: cons.type_graph(cons.StarPairSpec(p[1], p[2], p[0])),
        "tree4": lambda: cons.four_leaf_tree(cons.FourLeafTreeParams(*p)),
        "tree5": lambda: cons.five_leaf_tree(cons.FiveLeafTreeParams(*p)),
        "l3n": lambda: cons.l3n_family(p[0])[0],
        "gn": lambda: cons.gn_family(p[0]),
    }[family]()
    code, out, _ = run(capsys, "gen", "--family", family, "--params", params, "--seed", "4")
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, g.label_edges()) == (built.n, built.label_edges())


def test_bounds_tree(capsys, tmp_path):
    from strongdim import random_tree

    p = tmp_path / "t.txt"
    p.write_text(to_edge_list(random_tree(12, seed=3)))
    code, out, _ = run(capsys, "bounds", "--input", str(p))
    payload = json.loads(out)
    assert code == 0
    assert payload["tree"]["bound"] == payload["tree"]["strong_dimension_of_H"]
    assert payload["chromatic"]["bound"] == payload["chromatic"]["strong_dimension_of_H"]


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(4),
        cycle_graph(5),
        Graph.from_label_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]),
    ],
    ids=["C4", "C5", "paw"],
)
def test_bounds_non_tree(capsys, tmp_path, g):
    p = tmp_path / "g.txt"
    p.write_text(to_edge_list(g))
    code, out, _ = run(capsys, "bounds", "--input", str(p))
    payload = json.loads(out)
    assert code == 0 and payload["tree"] is None
    assert (payload["chromatic"]["bound"], payload["chromatic"]["strong_dimension_of_H"]) == (2, 2)


def test_gap_experiment_row(capsys):
    code, out, _ = run(capsys, "gap-experiment", "--n", "1", "--budget", "3000000", "--max-k", "3")
    assert code == 0
    assert "G_1" in out and "tau=2" in out


def test_gap_experiment_json(capsys):
    code, out, _ = run(
        capsys, "gap-experiment", "--n", "1", "--max-k", "2", "--budget", "20", "--json"
    )
    assert code == 0
    row, _, text = out.partition("\n")
    assert row.startswith("G_1")
    (report,) = json.loads(text)
    assert report["n"] == 1 and report["vertices"] == 23
    assert {"tau", "tau_s"} <= set(report)


def test_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, "dim")  # missing --input
    assert code == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("x x\n")
    code, _, err = run(capsys, "dim", "--input", str(bad))
    assert code == 2 and "self-loop" in err
    disc = tmp_path / "disc.txt"
    disc.write_text("a b\nc d\n")
    code, _, err = run(capsys, "dim", "--input", str(disc))
    assert code == 2 and "disconnected" in err
    code, _, err = run(capsys, "cover", "--input", str(tmp_path / "missing.txt"))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "--input", "{dir}"),
        ("dim", "--input", "{latin1}"),
        ("certify", "--input", "{c7}", "--embedding", "{dir}"),
        ("gen", "--family", "cycle", "--params", "5", "--embedding-out", "{dir}"),
    ],
    ids=["dim-directory", "dim-not-utf8", "certify-directory", "gen-out-directory"],
)
def test_unreadable_files_are_input_errors(capsys, tmp_path, c7_file, argv):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("caf\xe9 b\n".encode("latin-1"))
    paths = {"dir": str(tmp_path), "latin1": str(latin1), "c7": c7_file}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2 and out == "" and err.startswith("input error: ")


def test_unknown_family(capsys):
    code, _, err = run(capsys, "gen", "--family", "moebius")
    assert code == 1  # argparse choice violation is a usage error


def test_gap_experiment_rejects_nonpositive_n(capsys):
    for n in ("0", "-3"):
        code, out, err = run(capsys, "gap-experiment", "--n", n)
        assert code == 2 and out == "" and "--n" in err


@pytest.mark.parametrize("max_k", ["-1", "0"])
def test_max_k_below_one_is_input_error(capsys, tmp_path, max_k):
    p = tmp_path / "p3.txt"
    p.write_text(to_edge_list(path_graph(3)))
    code, out, err = run(capsys, "threshold", "--input", str(p), "--max-k", max_k)
    assert code == 2 and out == "" and "max_k" in err
    code, out, err = run(capsys, "gap-experiment", "--n", "1", "--max-k", max_k)
    assert code == 2 and out == "" and "max_k" in err


def test_python_m_strongdim_runs_the_cli(k5_file):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import strongdim

    src = str(Path(strongdim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "strongdim", "cover", "--input", k5_file],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["size"] == 4


def test_main_module_exits_with_the_cli_code(capsys, monkeypatch):
    """strongdim.__main__, run in this process, exits with cli.main's code."""
    import runpy

    monkeypatch.setattr("sys.argv", ["strongdim", "gen", "--family", "path", "--params", "3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("strongdim", run_name="__main__")
    assert exc.value.code == 0 and capsys.readouterr().out == "0 1\n1 2\n"
    monkeypatch.setattr("sys.argv", ["strongdim", "gen", "--family", "path", "--params", "x"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("strongdim", run_name="__main__")
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("input error: ")


def test_cli_import_loads_no_process_pool(c7_file):
    """No strongdim code path loads concurrent.futures.process or multiprocessing:
    neither importing the CLI nor running a threshold sweep in process loads them."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import strongdim

    src = str(Path(strongdim.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, sys, strongdim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = strongdim.cli.main(['threshold', '--input', {c7_file!r}])\n"
        "print(code, '\"status\": \"exact\"' in out.getvalue(), "
        "sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 True []"


def test_help_returns_zero_instead_of_exiting(capsys):
    """-h/--help prints the help to stdout and main returns 0: an in-process caller
    that catches only Exception gets a code, not a SystemExit."""
    for argv in (["--help"], ["-h"], ["dim", "--help"], ["gen", "-h"], ["dim", "--input", "x", "-h"]):
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0 and out.err == "" and out.out.startswith("usage: strongdim"), argv
    assert "--mode" in run(capsys, "dim", "--help")[1]


def test_help_does_not_depend_on_the_terminal_width(capsys, monkeypatch):
    """Help is wrapped at 78 columns whatever $COLUMNS says, and building the parser
    or printing its help never asks the terminal for its size."""
    import shutil

    from strongdim.cli import build_parser

    def refuse(*args, **kwargs):
        raise AssertionError("asked the terminal for its size")

    monkeypatch.setattr(shutil, "get_terminal_size", refuse)
    build_parser()
    for argv in (["--help"], ["threshold", "--help"], ["gen", "-h"], ["gap-experiment", "-h"]):
        outs = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            outs.append(run(capsys, *argv)[1])
        assert outs[0] == outs[1], argv


def test_repeated_in_process_main_calls_match_fresh_processes(capsys, k5_file):
    """main can be called many times in one process: a success, a usage error,
    --help and another success each give the exit code and stdout of a fresh
    `python -m strongdim` run of the same argv."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import strongdim

    src = str(Path(strongdim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    jobs = [(["cover", "--input", k5_file], 0), (["dim", "--mode", "strong"], 1),
            (["dim", "--help"], 0), (["gen", "--family", "cycle", "--params", "5"], 0)]
    for argv, expected in jobs:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "strongdim", *argv], capture_output=True,
                               text=True, env=env, timeout=60)
        assert code == expected == fresh.returncode and out == fresh.stdout, argv


def _gen_into_a_pipe_closed_after_one_line(unbuffered: bool) -> tuple[int, bytes]:
    """Run gen with about 200 KB of edges, far more than a pipe holds, read one line,
    close the pipe; the exit code and stderr."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import strongdim

    src = str(Path(strongdim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "strongdim", "gen", "--family", "path", "--params", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"0 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=60), err


def test_gen_into_a_closed_pipe_exits_quietly():
    """A reader that leaves early (`| head`) ends gen with 141, as SIGPIPE would, and no
    message: the closed stdout is not an input error."""
    assert _gen_into_a_pipe_closed_after_one_line(unbuffered=False) == (141, b"")


def test_unbuffered_gen_into_a_closed_pipe_exits_quietly():
    """Unbuffered (PYTHONUNBUFFERED), the text stdout drops the rest of a short write
    without an error; the CLI writes the rest itself, so the closed pipe is still seen."""
    assert _gen_into_a_pipe_closed_after_one_line(unbuffered=True) == (141, b"")


def test_dim_runs_one_connectivity_bfs(capsys, monkeypatch, c7_file):
    """dim checks a loaded graph's connectivity once: _load_graph's require_connected is
    the only bfs_from call, as Graph.distances() reads connectivity off its own matrix."""
    import strongdim.graph

    calls = []
    real = strongdim.graph.bfs_from
    monkeypatch.setattr(strongdim.graph, "bfs_from", lambda *a: calls.append(a[1]) or real(*a))
    code, out, _ = run(capsys, "dim", "--input", c7_file)
    assert code == 0 and json.loads(out)["value"] == 4
    assert calls == [0]


def test_memory_exhaustion_is_exit_4_with_one_line(capsys, monkeypatch, c7_file):
    """A MemoryError inside a command ends in exit code 4, one line on stderr and
    nothing on stdout, never a traceback or the usage-error code 1."""
    import strongdim.cli

    def exhausted(text):
        raise MemoryError

    monkeypatch.setattr(strongdim.cli, "parse_edge_list", exhausted)
    code, out, err = run(capsys, "dim", "--input", c7_file)
    assert (code, out, err) == (4, "", "out of memory\n")


def test_a_key_error_in_a_command_is_not_an_input_error(capsys, monkeypatch, c7_file):
    """No input makes a command raise KeyError (a malformed embedding is a GraphError),
    so one from inside a command is a defect and propagates instead of exiting 2."""
    import strongdim.cli

    def broken(text):
        raise KeyError("x")

    monkeypatch.setattr(strongdim.cli, "parse_edge_list", broken)
    with pytest.raises(KeyError, match="x"):
        strongdim.cli.main(["dim", "--input", c7_file])


_DOCUMENTED_CODES = {0, 1, 2, 3, 4, 141}


def _junk_edge_text(rng) -> str:
    """A small graph's edge list with a few lines broken or added."""
    g = rng.choice((cycle_graph(rng.randrange(3, 8)), path_graph(rng.randrange(2, 8)),
                    complete_graph(rng.randrange(2, 5))))
    lines = to_edge_list(g).splitlines()
    junk = ["", "a", "a a", "0 1 2", "#", "# c", "x\ty", "é è", "1 -", "0 0", "\x00 1",
            "  ", "a b", "0 99", "0\x0b1", "0 1 # c", "\ufeff0 1"]
    for _ in range(rng.randrange(4)):
        at = rng.randrange(len(lines) + 1)
        if rng.random() < 0.3 and lines:
            lines[min(at, len(lines) - 1)] = rng.choice(junk)
        else:
            lines.insert(at, rng.choice(junk))
    return "\n".join(lines) + rng.choice(("", "\n"))


def _junk_embedding_text(rng) -> str:
    """C7's distance-vector embedding as JSON with one to three fields mangled."""
    emb = distance_vector_embedding(cycle_graph(7), ["0", "2"]).to_json()
    values = [None, True, -1, 0, 1, 2, 7, 3.5, "x", "", [], {}, [0], [1, 2], [[0, 1]], {"0": [0, 0]},
              10**6, [-1, 3], ["0", "0"]]
    for _ in range(rng.randrange(1, 4)):
        key = rng.choice(sorted(emb))
        action = rng.randrange(4)
        if action == 0:
            emb.pop(key, None)
        elif action == 1:
            emb[key] = rng.choice(values)
        elif action == 2 and isinstance(emb.get(key), dict) and emb[key]:
            inner = rng.choice(sorted(emb[key]))
            emb[key][inner] = rng.choice(values)
        else:
            emb[rng.choice(("extra", key))] = rng.choice(values)
    text = json.dumps(emb)
    if rng.random() < 0.15:
        text = text[: rng.randrange(len(text))]
    return rng.choice((text, json.dumps([emb]), "null", "7")) if rng.random() < 0.1 else text


def _junk(rng, *good: str) -> str:
    """One of the good values, or a junk one about a third of the time."""
    return rng.choice(good if rng.random() < 0.7 else ("", "x", "-1", "0", "1.5", "--", "é", "1e3"))


def test_cli_fuzz_ends_every_call_in_a_documented_code(capsys, tmp_path):
    """A seeded fuzz: 400 in-process main calls over all eight commands with junk edge
    lines, mangled embedding JSON, junk flag values and now and then a missing file, a
    directory or a file that is not UTF-8 for a path. Each returns a documented exit
    code and prints no traceback; every value is small, so no call searches for long."""
    rng = random.Random(2024)
    commands = ["dim", "srgraph", "cover", "threshold", "certify", "gen", "bounds",
                "gap-experiment"]
    families = ["path", "cycle", "complete", "star", "multipartite", "random_tree", "type",
                "tree4", "tree5", "l3n", "gn", "wheel"]
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("0 1\ncaf\xe9 1\n".encode("latin-1"))
    unreadable = [str(tmp_path / "missing.txt"), str(tmp_path), str(latin1)]
    seen_codes = set()
    for t in range(400):
        command = commands[t % len(commands)]
        argv = [command]
        if command not in ("gen", "gap-experiment"):
            graph = tmp_path / f"g{t}.txt"
            graph.write_text(_junk_edge_text(rng) if rng.random() < 0.6 else to_edge_list(
                cycle_graph(rng.randrange(3, 8))))
            argv += ["--input", str(graph) if rng.random() < 0.9 else rng.choice(unreadable)]
        if command in ("dim", "threshold"):
            argv += ["--mode", _junk(rng, "metric", "strong", "strong")]
        if command == "dim" and rng.random() < 0.5:
            argv.append("--oracle")
        if command in ("threshold", "gap-experiment"):
            argv += ["--budget", _junk(rng, "5", "40", "200"), "--max-k", _junk(rng, "1", "2", "3")]
            if rng.random() < 0.3:
                argv.append("--no-symmetry")
        if command == "gap-experiment":
            argv += ["--n", _junk(rng, "1", "1")]
            if rng.random() < 0.5:
                argv.append("--json")
        if command == "certify":
            emb = tmp_path / f"e{t}.json"
            emb.write_text(_junk_embedding_text(rng))
            emb = str(emb) if rng.random() < 0.9 else rng.choice(unreadable)
            argv += ["--embedding", emb, "--mode", _junk(rng, "resolved", "strong")]
            if rng.random() < 0.5:
                argv.append("--render")
        if command == "gen":
            argv += ["--family", rng.choice(families)]
            argv += ["--params", _junk(rng, "2", "5", "8", "3,4", "1,2,3", "2,2,1", "3,2,2,1,1",
                                       "2,2,2,1,1,1,1", "1,,2", ",")]
            if rng.random() < 0.3:
                argv += ["--seed", _junk(rng, "3")]
            if rng.random() < 0.3:
                argv += ["--embedding-out", rng.choice((str(tmp_path / f"o{t}.json"), str(tmp_path)))]
            if rng.random() < 0.3:
                argv.append("--render")
        if rng.random() < 0.1:
            argv.insert(rng.randrange(1, len(argv) + 1), _junk(rng, "--bogus", "-z"))
        code = main(argv)
        out = capsys.readouterr()
        assert code in _DOCUMENTED_CODES and "Traceback" not in out.err, (argv, code, out.err)
        seen_codes.add(code)
    assert seen_codes == {0, 1, 2, 3}, seen_codes  # 4 and 141 need no memory or a closed pipe
