"""Tests of the benchmark's tracer and instrumentation.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import layers
from tracer import Tracer


class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_excludes_children():
    tr = Tracer(clock=FakeClock())

    def leaf():
        return 1

    def outer(depth):
        total = tr_leaf() + tr_leaf()
        if depth:
            total += tr_outer(depth - 1)
        return total

    tr_leaf = tr.wrap("leaf", leaf)
    tr_outer = tr.wrap("outer", outer)
    assert tr_outer(1) == 4
    # clock readings: outer(1) opens at 1, leaf 2-3, leaf 4-5, outer(0) opens
    # at 6, its leaves 7-8 and 9-10, closes at 11; outer(1) closes at 12
    leaf_st, outer_st = tr.stats["leaf"], tr.stats["outer"]
    assert leaf_st.calls == 4 and leaf_st.self_s == 4.0 and leaf_st.total_s == 4.0
    assert outer_st.calls == 2
    assert outer_st.total_s == 11.0          # the recursive call is not counted twice
    assert outer_st.self_s == (11 - 1 - 1 - 5) + (5 - 1 - 1)
    parents = list(tr.span_parent)
    names = [tr.names[i] for i in tr.span_name]
    assert names == ["outer", "leaf", "leaf", "outer", "leaf", "leaf"]
    assert parents == [-1, 0, 0, 0, 3, 3]


def test_exception_closes_span_and_reaches_probe():
    tr = Tracer(clock=FakeClock())
    seen = []

    def probe(st, args, result, exc, token):
        seen.append(type(exc).__name__)

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom, probe)()
    assert tr.stats["boom"].calls == 1 and tr.stats["boom"].depth == 0
    assert seen == ["KeyError"] and tr._stack == []


def _snapshot():
    from endotriv import matgrp
    mods = {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "endotriv" or name.startswith("endotriv.")}
    return mods, dict(matgrp.MatrixGroup.__dict__)


def test_restore_puts_back_every_original():
    import endotriv.cli  # noqa: F401  (load every layer module)
    from endotriv import matgrp
    before_mods, before_cls = _snapshot()
    patches = layers.instrument(Tracer())
    assert endotriv.classify.classify is not before_mods["endotriv.classify"]["classify"]
    patches.restore()
    after_mods, after_cls = _snapshot()
    for name, attrs in before_mods.items():
        for attr, val in attrs.items():
            assert after_mods[name][attr] is val, f"{name}.{attr}"
    for attr, val in before_cls.items():
        assert matgrp.MatrixGroup.__dict__[attr] is val, attr


def test_wrapping_reaches_import_bound_names():
    from endotriv import classify, cli, corpus, gf, liea
    original, original_field_spec = classify.classify, gf.field_spec
    tr = Tracer()
    patches = layers.instrument(tr)
    try:
        assert corpus.classify is classify.classify is cli.classify
        assert cli.classify is not original
        assert cli.run_corpus is corpus.run_corpus
        assert liea.field_spec is gf.field_spec is not original_field_spec
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["corpus", "run", "--json", "--filter", "name=GL(1,5)"])
    finally:
        patches.restore()
    assert code == 0 and json.loads(buf.getvalue())["counts"]["PASS"] == 1
    assert tr.stats["cli.main"].calls == 1
    assert tr.stats["corpus.run_corpus"].calls == 1
    assert tr.stats["classify.classify"].calls == 1
    assert classify.classify is original and liea.field_spec is original_field_spec


def test_generate_stays_a_working_classmethod():
    from endotriv import matgrp
    from endotriv.gf import field_spec
    gens = [[[0, 2], [1, 0]], [[1, 1], [1, 2]]]
    tr = Tracer()
    patches = layers.instrument(tr)
    try:
        assert isinstance(matgrp.MatrixGroup.__dict__["generate"], classmethod)
        G = matgrp.MatrixGroup.generate(field_spec(3), gens, name="Q8")
        assert isinstance(G, matgrp.MatrixGroup) and G.order == 8
        with pytest.raises(matgrp.CapExceeded):
            matgrp.MatrixGroup.generate(field_spec(3), gens, cap=4)
    finally:
        patches.restore()
    st = tr.stats["matgrp.generate"]
    assert st.calls == 2 and st.counters["elements"] == 8
    assert st.counters["cap_rejects"] == 1 and st.counters["wasted_elements"] == 5
    assert matgrp.MatrixGroup.generate(field_spec(3), gens).order == 8


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(layers.__file__).resolve().parents[1]
                       / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "wall_cal_s", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} == {"oracle", "fuzz", "certify"}


def test_counted_accessor_records_no_span():
    tr = Tracer(clock=FakeClock())
    outer = tr.wrap("outer", lambda f: f() + f())
    leaf = tr.count("leaf", lambda: 1)
    assert outer(leaf) == 2
    assert tr.stats["leaf"].calls == 2 and tr.stats["leaf"].total_s == 2.0
    assert [tr.names[i] for i in tr.span_name] == ["outer"]
    assert tr.stats["outer"].self_s == 5.0   # counted time stays in the caller


def test_target_the_program_no_longer_has_is_skipped(monkeypatch):
    import endotriv.cli  # noqa: F401
    from endotriv import matgrp
    monkeypatch.delattr(matgrp.MatrixGroup, "cayley")
    monkeypatch.delattr(matgrp, "_closure_indices")
    layers.instrument(Tracer()).restore()
