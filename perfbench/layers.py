"""What the traced pass wraps, and the per-layer metrics it reports.

The traced pass wraps, from outside the program:

- every public module-level function of the layer modules below;
- the two private functions the split needs (`matgrp._closure_indices`,
  `classify._cyclic_ext_ab`);
- the `MatrixGroup` methods of the enumeration, lookup and index layers.

Span names are ``<module>.<function>``; methods drop the class name
(``matgrp.generate``).  `matgrp.cayley`, an accessor that every index
operation calls, is only counted and timed, without spans.  A target the
program no longer has is skipped, so the benchmark keeps running across
changes to the program; its metrics then read 0.  `PER_LAYER` lists every
metric a traced run prints, in the order of BENCHMARK.json.
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import Patches, Tracer

PACKAGE = "endotriv"
LAYER_MODULES = ("gf", "backend", "matgrp", "classify", "rho", "corpus", "cli")
PRIVATE_TARGETS = (("matgrp", "_closure_indices"), ("classify", "_cyclic_ext_ab"))
MATRIXGROUP_METHODS = ("generate", "central_quotient", "lookup_batch", "cayley",
                       "right_mul_batch", "sandwich_all", "conj_map")

KERNELS = ("mm_one", "mm_pairs", "inverse_many", "det_many", "canon_min")
SUBGROUP_ALGEBRA = (
    "sandwich_all", "conj_map", "find_generators", "normalizer", "centralizer",
    "commutator_subgroup", "normal_closure", "quotient_structure",
    "all_subgroups", "elementary_abelian_subgroups",
    "subgroup_conjugacy_classes", "sylow_subgroup_of")
CERTIFICATE_BUILDERS = ("build_central_scalar_certificate",
                        "build_torus_quotient_certificate",
                        "build_block_count_certificate")


def _metric_table() -> list[tuple[str, str]]:
    rows = [("gf.field_spec.misses", "count"), ("gf.field_spec.total_s", "s")]
    for k in KERNELS:
        rows += [(f"backend.{k}.calls", "count"), (f"backend.{k}.rows", "rows"),
                 (f"backend.{k}.self_s", "s"), (f"backend.{k}.bytes", "bytes-computed")]
    rows += [("matgrp.generate.calls", "count"), ("matgrp.generate.elements", "count"),
             ("matgrp.generate.self_s", "s"), ("matgrp.generate.total_s", "s"),
             ("matgrp.generate.cap_rejects", "count"),
             ("matgrp.generate.wasted_elements", "count"),
             ("matgrp.generate.waste_ratio", "ratio"),
             ("matgrp.central_quotient.calls", "count"),
             ("matgrp.central_quotient.elements", "count"),
             ("matgrp.central_quotient.total_s", "s"),
             ("matgrp.lookup_batch.calls", "count"), ("matgrp.lookup_batch.rows", "rows"),
             ("matgrp.lookup_batch.self_s", "s"),
             ("matgrp.cayley.calls", "count"), ("matgrp.cayley.total_s", "s"),
             ("matgrp._closure_indices.calls", "count"),
             ("matgrp._closure_indices.elements", "count"),
             ("matgrp._closure_indices.self_s", "s"),
             ("matgrp.right_mul_batch.calls", "count"),
             ("matgrp.right_mul_batch.rows", "rows"),
             ("matgrp.right_mul_batch.self_s", "s")]
    for f in SUBGROUP_ALGEBRA:
        rows += [(f"matgrp.{f}.calls", "count"), (f"matgrp.{f}.total_s", "s")]
    rows += [("classify.classify.calls", "count"), ("classify.classify.self_s", "s"),
             ("classify._cyclic_ext_ab.hits", "count"),
             ("classify._cyclic_ext_ab.misses", "count"),
             ("classify._cyclic_ext_ab.refusals", "count"),
             ("classify._cyclic_ext_ab.total_s", "s"),
             ("classify._cyclic_ext_ab.hit_ratio", "ratio")]
    for f in ("cyclic_quotient_normalizer", "tf_rank_oracle"):
        rows += [(f"classify.{f}.calls", "count"), (f"classify.{f}.total_s", "s")]
    for f in ("rho_chain", "rho_chain_naive", "check_certificate"):
        rows += [(f"rho.{f}.calls", "count"), (f"rho.{f}.total_s", "s")]
    rows += [("rho.build_certificate.total_s", "s"), ("corpus.run.self_s", "s"),
             ("cli.main.total_s", "s"), ("trace.overhead_s", "s"),
             ("fail_ratio", "ratio"), ("tail_item_s", "s")]
    return rows


PER_LAYER = _metric_table()


# ---------------------------------------------------------------------------
# probes: counters taken at the layer boundary

def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for x in obj:
            yield from _arrays(x)


def _first_array(args):
    return next((a for a in args if isinstance(a, np.ndarray)), None)


def kernel_probe(st, args, result, exc, token):
    """Rows of the batch, and bytes computed from every array in and out."""
    batch = _first_array(args)
    st.counters["rows"] += 0 if batch is None else batch.shape[0]
    st.counters["bytes"] += sum(a.nbytes for a in _arrays(tuple(args) + (result,)))


def rows_probe(st, args, result, exc, token):
    batch = _first_array(args)
    st.counters["rows"] += 0 if batch is None else len(batch)


def group_probe(st, args, result, exc, token):
    """Elements enumerated; a CapExceeded raise is a cap reject whose
    `needed` count is the work thrown away."""
    if exc is None:
        st.counters["elements"] += result.order
    elif type(exc).__name__ == "CapExceeded":
        st.counters["cap_rejects"] += 1
        st.counters["wasted_elements"] += exc.needed or 0


def closure_probe(st, args, result, exc, token):
    if exc is None:
        st.counters["elements"] += len(result)


class CacheProbe:
    """Hits and misses of an lru_cache, from its cache_info around the call;
    a call that raised is also counted as a refusal."""

    def __init__(self, cached):
        self.cached = cached

    def before(self, args):
        return self.cached.cache_info()

    def __call__(self, st, args, result, exc, token):
        info = self.cached.cache_info()
        st.counters["hits"] += info.hits - token.hits
        st.counters["misses"] += info.misses - token.misses
        if exc is not None:
            st.counters["refusals"] += 1


PROBES = {
    **{f"backend.{k}": kernel_probe for k in KERNELS},
    "matgrp.lookup_batch": rows_probe,
    "matgrp.right_mul_batch": rows_probe,
    "matgrp.generate": group_probe,
    "matgrp.central_quotient": group_probe,
    "matgrp._closure_indices": closure_probe,
}
COUNTED_ONLY = ("matgrp.cayley",)


def _public_functions(mod):
    for attr, val in vars(mod).items():
        if (not attr.startswith("_") and callable(val) and not isinstance(val, type)
                and getattr(val, "__module__", None) == mod.__name__):
            yield attr, val


def instrument(tracer: Tracer) -> Patches:
    """Wrap every target in a span; the caller must call `restore()`."""
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_MODULES}
    targets = []
    for m, mod in mods.items():
        targets += [(m, attr, fn) for attr, fn in _public_functions(mod)]
    targets += [(m, attr, getattr(mods[m], attr)) for m, attr in PRIVATE_TARGETS
                if hasattr(mods[m], attr)]

    patches = Patches(PACKAGE)
    try:
        for m, attr, fn in targets:
            name = f"{m}.{attr}"
            probe = PROBES.get(name)
            if hasattr(fn, "cache_info"):
                probe = CacheProbe(fn)
            patches.patch_everywhere(fn, tracer.wrap(name, fn, probe))
        cls = mods["matgrp"].MatrixGroup
        for attr in MATRIXGROUP_METHODS:
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            name = f"matgrp.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, PROBES.get(name)))
            elif name in COUNTED_ONLY:
                new = tracer.count(name, raw)
            else:
                new = tracer.wrap(name, raw, PROBES.get(name))
            patches.patch(cls, attr, new)
    except BaseException:
        patches.restore()
        raise
    return patches


# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, overhead_s: float, fail_ratio: float,
                 tail_s: float) -> dict[str, float]:
    """Every metric of `PER_LAYER`, from the aggregates of one traced pass
    and, for the last three, from the run."""
    stats = tracer.stats
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        st = stats.get(span)
        if st is None:
            out[name] = 0.0
        elif field == "calls":
            out[name] = float(st.calls)
        elif field in ("total_s", "self_s"):
            out[name] = getattr(st, field)
        else:
            out[name] = st.counters.get(field, 0.0)

    gen = stats.get("matgrp.generate")
    if gen is not None:
        wasted = gen.counters.get("wasted_elements", 0.0)
        out["matgrp.generate.waste_ratio"] = _ratio(
            wasted, wasted + gen.counters.get("elements", 0.0))
    ext = stats.get("classify._cyclic_ext_ab")
    if ext is not None:
        out["classify._cyclic_ext_ab.hit_ratio"] = _ratio(
            ext.counters.get("hits", 0.0), float(ext.calls))
    out["rho.build_certificate.total_s"] = sum(
        (stats[f"rho.{b}"].total_s for b in CERTIFICATE_BUILDERS if f"rho.{b}" in stats), 0.0)
    out["corpus.run.self_s"] = stats["corpus.run_corpus"].self_s \
        if "corpus.run_corpus" in stats else 0.0
    out["trace.overhead_s"] = overhead_s
    out["fail_ratio"] = fail_ratio
    out["tail_item_s"] = tail_s
    return out
