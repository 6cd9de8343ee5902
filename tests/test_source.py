import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "endotriv"


def test_package_has_no_assert_statements():
    # invariants raise real errors: `python -O` drops assert statements
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{f.name}:{node.lineno}" for f in files
             for node in ast.walk(ast.parse(f.read_text(), str(f)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_matgrp_public_names_are_reached_from_the_package():
    # no public API that only tests reach: each public function of matgrp is
    # used inside matgrp or as mg./matgrp. from another module, and each
    # public MatrixGroup/Subgroup method is an attribute read somewhere in src/
    trees = {f.stem: ast.parse(f.read_text(), str(f)) for f in sorted(SRC.glob("*.py"))}
    matgrp = trees["matgrp"]
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    attrs = {node.attr for _, node in nodes if isinstance(node, ast.Attribute)}
    via_module = {node.attr for name, node in nodes
                  if name != "matgrp" and isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id in ("mg", "matgrp")}
    inside = {node.id for node in ast.walk(matgrp) if isinstance(node, ast.Name)}

    def public_defs(body):
        return [d.name for d in body if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")]

    unreached = [f for f in public_defs(matgrp.body) if f not in via_module | inside]
    for cls in matgrp.body:
        if isinstance(cls, ast.ClassDef) and cls.name in ("MatrixGroup", "Subgroup"):
            unreached += [f"{cls.name}.{m}" for m in public_defs(cls.body) if m not in attrs]
    assert not unreached, unreached
