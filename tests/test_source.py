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


# numpy's sort-based set routines carry tens of microseconds of wrapper per
# call; on index sets over a group a mask over [0, |G|) or one merge pass does
# the same work (matgrp._mask, matgrp._merge_sorted)
SET_ROUTINES = {"isin", "in1d", "insert", "meshgrid", "setdiff1d", "union1d", "intersect1d"}


def test_package_calls_no_numpy_set_routines():
    found = []
    for f in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if (isinstance(node, ast.Attribute) and node.attr in SET_ROUTINES
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                found.append(f"{f.name}:{node.lineno}: np.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                found += [f"{f.name}:{node.lineno}: {a.name}" for a in node.names
                          if a.name in SET_ROUTINES]
    assert not found, found


# a bare np.unique (no index, inverse or count asked for) takes numpy 2.4's
# hash path and then sorts its result: on int64 arrays of 300 to 133 000
# values that is 3-15x slower than the one sort and neighbour mask of
# matgrp._sorted_unique, which serves every such call
UNIQUE_RETURNS = {"return_index", "return_inverse", "return_counts"}


def test_package_calls_no_bare_np_unique():
    found = []
    for f in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            fn = node.func if isinstance(node, ast.Call) else None
            if (isinstance(fn, ast.Attribute) and fn.attr == "unique"
                    and isinstance(fn.value, ast.Name) and fn.value.id in ("np", "numpy")
                    and not UNIQUE_RETURNS & {k.arg for k in node.keywords}):
                found.append(f"{f.name}:{node.lineno}")
    assert not found, found


# subgroup routines pass elements as the sorted index array Subgroup.idx and
# test membership on a mask (matgrp._mask); the frozenset view is for outside
def test_package_reads_no_subgroup_members():
    found = [f"{f.name}:{node.lineno}" for f in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text(), str(f)))
             if isinstance(node, ast.Attribute) and node.attr == "members"]
    assert not found, found


# public names that nothing in the package reaches, each with its reason
REACHED_FROM_OUTSIDE = {
    "rho.rho_chain_naive": "the naive twin that the tests diff the chain engine against",
    "backend.backend_name": "read by the benchmark's environment record",
    "matgrp.Subgroup.members": "read by the benchmark's certify answers",
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
SET_FROM_OUTSIDE: dict[str, str] = {}


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


# the element key's format (its integer width, the numberings, the state that
# `locate` reads) is known to matgrp alone; other modules look matrices up
# through locate, lookup_batch, index_of and image
KEY_FORMAT_NAMES = {"INT_KEY_LIMIT", "DIRECT_LIMIT", "_DirectNumbering", "_SortedNumbering",
                    "_Lookup", "_lookup"}


def test_only_matgrp_names_the_key_format():
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    found = [f"{f.name}:{node.lineno}: {name}" for f in files if f != SRC / "matgrp.py"
             for node in ast.walk(ast.parse(f.read_text(), str(f)))
             for name in [getattr(node, "attr", None) or getattr(node, "id", None)]
             if name in KEY_FORMAT_NAMES]
    assert not found, found
