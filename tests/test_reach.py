"""The package keeps only what its own code or the benchmark's span table reaches."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Reference definitions that their fast forms are tested against: the MMD graph is
# built from distance layers, never by is_mmd per pair, and the resolving checks read
# anchor rows, never strongly_resolves per pair.
REFERENCES = {"is_mmd", "strongly_resolves"}


def test_every_public_definition_is_reached():
    """Each public top-level def and class of src/strongdim (but __init__) is named by
    code elsewhere in the package or by a string of perfbench/spans.py; a checker that
    only tests need belongs in tests/lemmas.py."""
    reached = {n.value for n in ast.walk(ast.parse((ROOT / "perfbench" / "spans.py").read_text()))
               if isinstance(n, ast.Constant)}
    public = []
    for path in sorted((ROOT / "src" / "strongdim").glob("*.py")):
        for node in [] if path.name == "__init__.py" else ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                public.append((own, f"{path.name}:{node.lineno}"))
            # the names and attributes that node's code mentions, less its own name
            reached |= {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)} - {own}
    assert len(public) > 50
    assert [(name, at) for name, at in public if name not in reached | REFERENCES] == []
