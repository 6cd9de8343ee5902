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


# public names that nothing in the package reaches, each with its reason
REACHED_FROM_OUTSIDE = {
    "rho.rho_chain_naive": "the naive twin that the tests diff the chain engine against",
    "liea.levi_normalizer_equal_blocks": "criterion 4's block normalizer",
    "backend.backend_name": "read by the benchmark's environment record",
}


def _public_defs(body):
    return [d.name for d in body if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")]


def test_public_names_are_reached_from_the_package():
    # no public API that only tests reach: each public module-level function is
    # used inside its module, or from another module through a from-import or
    # the name it imports the module as, and each public method of a public
    # class is an attribute read somewhere in src/
    trees = {f.stem: ast.parse(f.read_text(), str(f)) for f in sorted(SRC.glob("*.py"))}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    attrs = {node.attr for _, node in nodes if isinstance(node, ast.Attribute)}
    unreached = []
    for mod, tree in trees.items():
        aliases, from_imported = {}, set()
        for name, node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and name != mod:
                for a in node.names:
                    if node.module is None and a.name == mod:
                        aliases.setdefault(name, set()).add(a.asname or a.name)
                    elif node.module == mod:
                        from_imported.add(a.name)
        via_module = {node.attr for name, node in nodes
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases.get(name, ())}
        inside = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unreached += [f"{mod}.{f}" for f in _public_defs(tree.body)
                      if f not in inside | via_module | from_imported]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                unreached += [f"{mod}.{cls.name}.{m}" for m in _public_defs(cls.body)
                              if m not in attrs]
    assert sorted(unreached) == sorted(REACHED_FROM_OUTSIDE)
