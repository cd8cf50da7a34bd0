import json

import pytest

from strongdim import to_edge_list, complete_graph, cycle_graph, path_graph
from strongdim.cli import main
from strongdim.constructions import cycle_embedding


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


def test_certify_malformed_embedding_is_input_error(capsys, tmp_path, c7_file):
    good = cycle_embedding(7).to_json()
    bad_coordinate = json.loads(json.dumps(good))
    bad_coordinate["placement"]["3"] = 5
    for broken in ({**good, "k": "x"}, [good], bad_coordinate):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(broken))
        code, out, err = run(capsys, "certify", "--input", c7_file, "--embedding", str(p))
        assert code == 2 and out == "" and err.startswith("input error: embedding")


def test_threshold_rejects_nonpositive_jobs(capsys, c7_file):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "threshold", "--input", c7_file, "--jobs", jobs)
        assert code == 2 and out == "" and "jobs" in err


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


def test_gen_tree5_embedding_certifies(capsys, tmp_path):
    g, ej = tmp_path / "t5.txt", tmp_path / "t5.json"
    code, out, _ = run(
        capsys, "gen", "--family", "tree5", "--params", "3,2,1,2,1,2,2", "--embedding-out", str(ej)
    )
    assert code == 0
    g.write_text(out)
    code, out, _ = run(capsys, "certify", "--input", str(g), "--embedding", str(ej))
    assert code == 0 and json.loads(out)["verdict"] is True


def test_gen_is_parse_compatible(capsys):
    from strongdim import parse_edge_list

    code, out, _ = run(capsys, "gen", "--family", "type", "--params", "2,2,3")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n > 0


def test_bounds_tree(capsys, tmp_path):
    from strongdim import random_tree

    p = tmp_path / "t.txt"
    p.write_text(to_edge_list(random_tree(12, seed=3)))
    code, out, _ = run(capsys, "bounds", "--input", str(p))
    payload = json.loads(out)
    assert code == 0
    assert payload["tree"]["bound"] == payload["tree"]["strong_dimension_of_H"]
    assert payload["chromatic"]["bound"] == payload["chromatic"]["strong_dimension_of_H"]


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
