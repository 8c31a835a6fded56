import ast
from pathlib import Path

HERE = Path(__file__).parent


def test_every_oracle_has_a_caller():
    """Each top-level function of oracles.py is named by a test module
    (called, or handed to a helper that calls it) or by another oracle,
    so a retired comparison cannot leave its oracle behind."""
    tree = ast.parse((HERE / "oracles.py").read_text())
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    used = set()
    for node in defs:
        used |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id != node.name}
    for path in HERE.glob("test_*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "oracles":
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom) and n.module == "oracles":
                used |= {alias.name for alias in n.names}
    assert sorted(node.name for node in defs if node.name not in used) == []
