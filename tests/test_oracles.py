import ast
from pathlib import Path

HERE = Path(__file__).parent
SRC = HERE.parent / "src" / "lmgroups"


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


def test_every_private_helper_has_a_caller():
    """Each private top-level function or class of the package is named
    somewhere in its source outside its own definition, so a retired path
    cannot leave its helper behind."""
    private, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_"):
                private.append(f"{path.stem}.{own}")
            names = set()
            for n in ast.walk(top):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    names.add(n.attr)
                elif isinstance(n, ast.alias):
                    names.add(n.name)
            used |= names - {own}
    assert len(private) > 40
    assert [name for name in private if name.split(".")[1] not in used] == []
