"""The package keeps only what its own code or the benchmark's span table reaches."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Reference definitions that their fast forms are tested against: the MMD graph is
# built from distance layers, never by is_mmd per pair, and the resolving checks read
# anchor rows, never strongly_resolves per pair.
REFERENCES = {"is_mmd", "strongly_resolves"}


def _definitions():
    """Each top-level def, class and module constant of src/strongdim as (name, kind,
    where), kind "def" or "constant", and every name that code elsewhere in the
    package or a string of perfbench/spans.py mentions."""
    reached = {n.value for n in ast.walk(ast.parse((ROOT / "perfbench" / "spans.py").read_text()))
               if isinstance(n, ast.Constant)}
    found = []
    for path in sorted((ROOT / "src" / "strongdim").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own, kind = {node.name}, "def"
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                kind = "constant"
            else:
                own, kind = set(), None
            found += [(name, kind, f"{path.name}:{node.lineno}") for name in sorted(own)
                      if not name.startswith("__")]
            # the names and attributes that node's code mentions, less its own names
            reached |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)} - own
    return found, reached


def test_every_public_definition_is_reached():
    """Each public top-level def and class of src/strongdim (but __init__) is named by
    code elsewhere in the package or by a string of perfbench/spans.py; a checker that
    only tests need belongs in tests/lemmas.py."""
    found, reached = _definitions()
    public = [(name, at) for name, kind, at in found
              if kind == "def" and not name.startswith("_") and not at.startswith("__init__")]
    assert len(public) > 50
    assert [(name, at) for name, at in public if name not in reached | REFERENCES] == []


def test_every_private_definition_and_constant_is_reached():
    """Each private top-level def and class and each module constant of src/strongdim is
    named by code elsewhere in the package, so no helper or cap outlives its last user."""
    found, reached = _definitions()
    private = [(name, at) for name, kind, at in found
               if kind == "constant" or name.startswith("_")]
    assert len(private) > 30
    assert [(name, at) for name, at in private if name not in reached] == []
