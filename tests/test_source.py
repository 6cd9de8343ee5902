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


# optional parameters of public functions that no call in src/ or perfbench/ sets
SET_FROM_OUTSIDE = {
    "liea.levi_normalizer_equal_blocks(cap=)": "criterion 4's block normalizer takes no caller's cap",
}


def _optional_params(fn, method):
    pos = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    skip = 1 if method and not static else 0  # self or cls
    out = {a: pos.index(a) - skip for a in pos[len(pos) - len(fn.args.defaults):]}
    out.update({a.arg: None for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None})
    return out


def test_optional_parameters_are_set_by_some_caller():
    # an option that no caller sets is a configuration nothing runs: each is
    # passed by keyword or by position in some call of that name (a call with
    # *args or **kwargs sets them all; `cls(...)` calls every class); a
    # function stored or passed as a value is called through another name,
    # so its options count as set
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    calls, called, named = {}, set(), set()
    for f in files:
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = getattr(fn, "attr", None) or getattr(fn, "id", None)
                calls.setdefault(name, []).append(node)
                called.add(fn)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node)
    as_value = {node.id for node in named - called}
    unset = []
    for f in sorted(SRC.glob("*.py")):
        tree = ast.parse(f.read_text(), str(f))
        defs = [(None, d) for d in tree.body if isinstance(d, ast.FunctionDef)]
        defs += [(c.name, d) for c in tree.body if isinstance(c, ast.ClassDef)
                 and not c.name.startswith("_")
                 for d in c.body if isinstance(d, ast.FunctionDef)]
        for cls, fn in defs:
            if fn.name.startswith("_") and fn.name != "__init__":
                continue
            if cls is None and fn.name in as_value:
                continue
            names = [cls, "cls"] if fn.name == "__init__" else [fn.name]
            sites = [c for n in names for c in calls.get(n, [])]
            for param, index in _optional_params(fn, cls is not None).items():
                if not any(any(k.arg in (param, None) for k in c.keywords)
                           or any(isinstance(a, ast.Starred) for a in c.args)
                           or (index is not None and len(c.args) > index) for c in sites):
                    unset.append(f"{f.stem}.{(cls + '.') if cls else ''}{fn.name}({param}=)")
    assert sorted(unset) == sorted(SET_FROM_OUTSIDE)
