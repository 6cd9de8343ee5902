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


# a closure's membership lives in one mask over the parent (matgrp._mask):
# matgrp._closure_indices builds no Python set to grow it in
def test_closure_builds_no_python_set():
    tree = ast.parse((SRC / "matgrp.py").read_text())
    closure = next(d for d in tree.body
                   if isinstance(d, ast.FunctionDef) and d.name == "_closure_indices")
    found = [f"matgrp.py:{node.lineno}" for node in ast.walk(closure)
             if isinstance(node, (ast.Set, ast.SetComp))
             or (isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) in ("set", "frozenset"))]
    assert not found, found
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_mask"
               for node in ast.walk(closure))


def _calls(node, name):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def test_twin_forms_its_products_a_block_at_a_time():
    # the naive twin's peak is its table plus one block: every product array,
    # a _products or _times call or the table fill's acts.take, is formed in
    # the body of a loop over the pieces of the one block helper, _blocks
    tree = ast.parse((SRC / "rho.py").read_text())
    inside = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        pieces = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                  and _calls(node.value, "_blocks") for t in node.targets}
        for loop in ast.walk(fn):
            if isinstance(loop, ast.For) and (_calls(loop.iter, "_blocks")
                                              or getattr(loop.iter, "id", None) in pieces):
                inside.update(id(node) for stmt in loop.body for node in ast.walk(stmt))
    products = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) in ("_products", "_times")
                     or (getattr(node.func, "attr", None) == "take"
                         and getattr(node.func.value, "id", None) == "acts"))]
    assert len(products) >= 5
    found = [f"rho.py:{node.lineno}" for node in products if id(node) not in inside]
    assert not found, found


def test_twin_holds_no_frozenset():
    # the naive twin holds its sets as boolean masks over G, keyed by their
    # bytes: no frozenset from its table to the certificates
    lines = (SRC / "rho.py").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("def _naive_table"))
    end = next(i for i, line in enumerate(lines) if line == "# evidence and certificates")
    found = [f"rho.py:{i + 1}" for i in range(start, end) if "frozenset" in lines[i]]
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
    # class is an attribute read somewhere in src/; the package's re-exports
    # in __init__ reach nothing, as __init__ reads none of them
    trees = {f.stem: ast.parse(f.read_text(), str(f)) for f in sorted(SRC.glob("*.py"))}
    nodes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)]
    attrs = {node.attr for _, node in nodes if isinstance(node, ast.Attribute)}
    unreached = []
    for mod, tree in trees.items():
        aliases, from_imported = {}, set()
        for name, node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 1 \
                    and name not in (mod, "__init__"):
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


def _is_dataclass(cls):
    return any((getattr(d, "id", None) or getattr(getattr(d, "func", None), "id", None))
               == "dataclass" for d in cls.decorator_list)


def test_dataclass_fields_are_read_in_the_package():
    # a field that nothing in src/ reads is state carried for the tests
    # alone: each field of a public dataclass is an attribute read somewhere
    trees = [ast.parse(f.read_text(), str(f)) for f in sorted(SRC.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{a.target.id}" for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              and _is_dataclass(cls)
              for a in cls.body if isinstance(a, ast.AnnAssign)
              and isinstance(a.target, ast.Name) and a.target.id not in read]
    assert not unread, unread


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


def test_one_rule_chooses_the_numbering():
    # the row orbit and the element closure take their numbering from
    # matgrp._numbering alone, so one rule decides between table and sorted keys
    tree = ast.parse((SRC / "matgrp.py").read_text())
    own = {d.name: (d.lineno, d.end_lineno) for d in tree.body
           if isinstance(d, (ast.ClassDef, ast.FunctionDef))}
    assert {"_DirectNumbering", "_SortedNumbering", "_numbering"} <= own.keys()
    found = [f"matgrp.py:{node.lineno}: {node.id}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in ("_DirectNumbering", "_SortedNumbering")
             and not any(lo <= node.lineno <= hi for name, (lo, hi) in own.items()
                         if name in ("_numbering", node.id))]
    assert not found, found


def test_from_imports_are_read_in_their_module():
    # a leftover import would count its function as reached in
    # test_public_names_are_reached_from_the_package; the package's
    # __init__ re-exports names and reads none of them
    found = []
    for f in sorted(SRC.glob("*.py")):
        if f.name == "__init__.py":
            continue
        tree = ast.parse(f.read_text(), str(f))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [f"{f.name}:{node.lineno}: {a.asname or a.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  for a in node.names if (a.asname or a.name) not in read]
    assert not found, found


# polynomial arithmetic over GF(q) has one implementation, gf's: the field
# bootstrap and FieldSpec.singer_block run on it, and no other module calls
# its routines or keeps a copy under their names
def test_only_gf_names_the_polynomial_routines():
    gf_tree = ast.parse((SRC / "gf.py").read_text())
    routines = {d.name for d in gf_tree.body if isinstance(d, ast.FunctionDef)
                and d.name.startswith(("_poly_", "_least_", "_is_irreducible"))}
    assert {"_poly_mul", "_poly_rem", "_least_irreducible", "_least_primitive"} <= routines
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    found = [f"{f.name}:{node.lineno}: {name}" for f in files if f != SRC / "gf.py"
             for node in ast.walk(ast.parse(f.read_text(), str(f)))
             for name in [getattr(node, "attr", None) or getattr(node, "id", None)
                          or getattr(node, "name", None)]
             if name in routines]
    assert not found, found


# a certificate's verdict is read off its clauses in one place: only
# rho.check_certificate builds a report with a verdict other than SKIPPED
def test_only_check_certificate_gives_a_verdict():
    files = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    inside, found = [], []
    for f in files:
        tree = ast.parse(f.read_text(), str(f))
        checker = [(d.lineno, d.end_lineno) for d in tree.body if f == SRC / "rho.py"
                   and isinstance(d, ast.FunctionDef) and d.name == "check_certificate"]
        for node in ast.walk(tree):
            fn = node.func if isinstance(node, ast.Call) else None
            if (getattr(fn, "attr", None) or getattr(fn, "id", None)) != "CertificateReport":
                continue
            verdict = next((k.value for k in node.keywords if k.arg == "verdict"),
                           node.args[0] if node.args else None)
            if any(lo <= node.lineno <= hi for lo, hi in checker):
                inside.append(node.lineno)
            elif not (isinstance(verdict, ast.Constant) and verdict.value == "SKIPPED"):
                found.append(f"{f.name}:{node.lineno}")
    assert inside and not found, found


# a count is refused in one place: matgrp.refuse_over raises CapExceeded when
# the count exceeds its cap; the closure alone builds its refusal itself,
# before it knows how far the closure will run
def test_only_refuse_over_builds_a_count_refusal():
    tree = ast.parse((SRC / "matgrp.py").read_text())
    allowed = [(d.lineno, d.end_lineno) for d in tree.body
               if isinstance(d, ast.FunctionDef) and d.name == "refuse_over"]
    allowed += [(d.lineno, d.end_lineno) for c in tree.body
                if isinstance(c, ast.ClassDef) and c.name == "MatrixGroup"
                for d in c.body if isinstance(d, ast.FunctionDef) and d.name == "generate"]
    assert len(allowed) == 2
    inside, found = [], []
    for f in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            fn = node.func if isinstance(node, ast.Call) else None
            if (getattr(fn, "attr", None) or getattr(fn, "id", None)) != "CapExceeded":
                continue
            if f == SRC / "matgrp.py" and any(lo <= node.lineno <= hi for lo, hi in allowed):
                inside.append(node.lineno)
            else:
                found.append(f"{f.name}:{node.lineno}")
    assert len(inside) == 2 and not found, found


# a chain request is checked in one place: the max_i and Q refusals are
# written only in rho._require_chain, and both chain engines call it
CHAIN_REQUEST_MESSAGES = ("max_i must", "Q must")


def test_one_check_refuses_a_chain_request():
    tree = ast.parse((SRC / "rho.py").read_text())
    defs = {d.name: d for d in tree.body if isinstance(d, ast.FunctionDef)}
    check = defs["_require_chain"]
    for engine in ("rho_chain", "rho_chain_naive"):
        assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require_chain"
                   for node in ast.walk(defs[engine])), engine
    inside, found = [], []
    for f in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.startswith(CHAIN_REQUEST_MESSAGES):
                if f == SRC / "rho.py" and check.lineno <= node.lineno <= check.end_lineno:
                    inside.append(node.value)
                else:
                    found.append(f"{f.name}:{node.lineno}")
    assert len(inside) == 3 and not found, found


# every failure the (S) clause can report is pinned by a test: each string
# its checks return, an f-string read by its longest literal piece, is named
# by some test file
SYLOW_CLAUSE_CHECKS = {"_check_sylow_image", "_check_whole_group",
                       "_check_diagonal_characters", "_check_isotypic_blocks"}


def _literal(node):
    if isinstance(node, ast.JoinedStr):
        return max((v.value for v in node.values if isinstance(v, ast.Constant)), key=len)
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def test_every_sylow_clause_failure_is_named_by_a_test():
    tree = ast.parse((SRC / "rho.py").read_text())
    checks = [d for d in tree.body
              if isinstance(d, ast.FunctionDef) and d.name in SYLOW_CLAUSE_CHECKS]
    assert {d.name for d in checks} == SYLOW_CLAUSE_CHECKS
    details = [(node.lineno, _literal(node.value)) for d in checks for node in ast.walk(d)
               if isinstance(node, ast.Return) and _literal(node.value) is not None]
    tests = "".join(f.read_text() for f in sorted(Path(__file__).parent.rglob("*.py")))
    missing = [f"rho.py:{line}: {text!r}" for line, text in details if text not in tests]
    assert len(details) > len(checks) and not missing, missing


# the enumeration cap is the argument alone: nothing in the package reads
# the environment, so an answer (and a cached one) depends on its arguments
def test_package_reads_no_environment():
    found = []
    for f in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(), str(f))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
                found.append(f"{f.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{f.name}:{node.lineno}: {a.name}" for a in node.names]
    assert not found, found


# each input rule is refused in one place: its message is raised (or returned
# as a failed hypothesis) only in the routine that decides it, and the entry
# points that take the tuple call it
INPUT_RULES = {"dimension n=": ("liea.py", "check_tuple"),
               " is not prime": ("liea.py", "check_tuple"),
               " is not a prime power": ("gf.py", "prime_power_split"),
               "divide q-1": ("liea.py", "scalar_center_order"),
               " must divide the scalar center": ("liea.py", "check_tuple"),
               " does not divide |": ("liea.py", "require_p_divides")}
RULE_CALLERS = {"check_tuple": {"compute_params", "enumerate_quotient", "quotient_sylow",
                                "parse_group_spec", "replay_proof_certificates"},
                "require_p_divides": {"classify", "quotient_sylow", "build_sylow"},
                "scalar_center_order": {"check_tuple"}}


def test_one_routine_refuses_each_input_rule():
    inside, found, callers = set(), [], {}
    for f in sorted(SRC.glob("*.py")):
        tree = ast.parse(f.read_text(), str(f))
        for d in tree.body:
            if not isinstance(d, ast.FunctionDef):
                continue
            for node in ast.walk(d):
                name = getattr(getattr(node, "func", None), "attr", None) \
                    or getattr(getattr(node, "func", None), "id", None)
                if isinstance(node, ast.Call) and name in RULE_CALLERS:
                    callers.setdefault(name, set()).add(d.name)
                message = node.exc if isinstance(node, ast.Raise) else \
                    node.value if isinstance(node, ast.Return) else None
                if message is None:
                    continue
                for c in ast.walk(message):
                    if not (isinstance(c, ast.Constant) and isinstance(c.value, str)):
                        continue
                    for marker, home in INPUT_RULES.items():
                        if marker in c.value:
                            if (f.name, d.name) == home:
                                inside.add(marker)
                            else:
                                found.append(f"{f.name}:{c.lineno}: {marker!r}")
    assert inside == set(INPUT_RULES) and not found, found
    for rule, expected in RULE_CALLERS.items():
        assert expected <= callers.get(rule, set()), (rule, expected - callers.get(rule, set()))
