#!/usr/bin/env python3
"""The endotriv benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): oracle, fuzz, certify.

--trace 0 measures the end-to-end metrics with tracing off: set-up time in
fresh processes, then untraced passes over the seed's items while they fit
in --seconds (at least one), reporting medians.  Both times are calibrated
to the host's speed (calib.py): a reference kernel runs every 0.1 s while
the program works (and just before and after each set-up probe), and the
program's time is given in seconds at the speed at which that kernel takes
calib.REF_S.  The raw times are printed too.
--trace 1 runs one untraced pass and one traced pass over the same items,
without calibration, and reports the per-layer split, with the difference
of the two walls as the tracing overhead, and the tail latency of the
untraced pass.  Spans are written to perfbench/out/ when the run ends.

Before every pass the program's caches (`gf.field_spec`,
`classify._cyclic_ext_ab`) are emptied.  Every answer is checked; the
answers digest must agree between passes.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
MAX_PASSES = 5
TAIL_BEYOND = 10   # items the tail percentile must leave beyond it


def _load_program():
    """Import endotriv from this checkout's source tree, never from elsewhere."""
    pkg = SRC / "endotriv"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import endotriv
    if Path(endotriv.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: endotriv imported from {endotriv.__file__}, not {pkg}")


class Crash(str):
    """An exception a workload item raised where the check expects an answer."""


@dataclass
class Pass:
    wall_s: float                # raw program time
    cal_s: float | None          # calibrated program time, when sampled
    latencies: list[float]
    failed: int
    digest: str

    @property
    def tail(self) -> tuple[float, float, int]:
        """(latency, percentile, samples) at the highest percentile that
        leaves at least TAIL_BEYOND items beyond it."""
        lat = sorted(self.latencies)
        k = max(len(lat) - TAIL_BEYOND - 1, 0)
        return lat[k], 100.0 * (k + 1) / len(lat), len(lat)


def run_pass(wl, items, caches, tracer=None, sampler=None) -> Pass:
    """One pass over the items; with a `sampler` (calib.Sampler) the host's
    speed is sampled throughout and the time spent sampling is left out of
    the pass and of every item's latency."""
    from layers import instrument

    for c in caches:
        c.cache_clear()
    if any(c.cache_info().currsize for c in caches):
        raise RuntimeError("program caches are not empty before the pass")
    gc.collect()
    answers, latencies = {}, []
    patches = instrument(tracer) if tracer is not None else None
    busy = (lambda: sampler.busy_s) if sampler is not None else (lambda: 0.0)
    try:
        with sampler.running() if sampler is not None else contextlib.nullcontext():
            clock = time.perf_counter
            start = clock()
            for it in items:
                if tracer is not None:
                    tracer.item = it.id
                t, b = clock(), busy()
                try:
                    answers[it.id] = wl.run(it.key)
                except Exception as exc:  # an item that crashes is a failure, not an abort
                    answers[it.id] = Crash(f"{type(exc).__name__}: {exc}")
                latencies.append(clock() - t - (busy() - b))
            wall = clock() - start
    finally:
        if patches is not None:
            patches.restore()
    cal = None
    if sampler is not None:
        wall, cal = sampler.times()
    failed = sum(1 for it in items if not _checked(wl, it, answers[it.id]))
    blob = json.dumps(sorted(answers.items()), sort_keys=True, default=str)
    return Pass(wall, cal, latencies, failed, hashlib.sha256(blob.encode()).hexdigest())


def _checked(wl, item, answer) -> bool:
    if isinstance(answer, Crash):
        return False
    try:
        return bool(wl.check(item.key, answer))
    except Exception:  # a malformed answer fails its check
        return False


def program_caches() -> list:
    """The program's lru caches that every pass starts without; one a later
    version of the program no longer has is skipped."""
    import importlib
    out = []
    for mod, attr in (("gf", "field_spec"), ("classify", "_cyclic_ext_ab")):
        fn = getattr(importlib.import_module(f"endotriv.{mod}"), attr, None)
        if hasattr(fn, "cache_clear"):
            out.append(fn)
    return out


def setup_seconds(wl) -> tuple[float, float]:
    """Fresh process to ready: import the CLI, build its parser and the
    workload's field tables.  (raw, calibrated) seconds, the latter at the
    host speed that kernel runs just before and just after read; the caller
    keeps this process, and so the probe, on one core."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), *map(str, wl.fields)]
    before = calib.kernel_seconds()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw = float(done.stdout.split()[-1]) - start
    return raw, calib.calibrated(raw, before, calib.kernel_seconds())


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(wl) -> dict:
    import numpy as np
    from endotriv import backend
    from endotriv import matgrp as mg

    digest = hashlib.sha256()
    for f in sorted((SRC / "endotriv").rglob("*")):
        if f.is_file() and f.suffix in (".py", ".tsv"):
            digest.update(f.relative_to(SRC).as_posix().encode())
            digest.update(f.read_bytes())
    return {"backend": backend.backend_name(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "enumeration_cap": mg.enumeration_cap(wl.cap), "git_commit": git_commit(),
            "source_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["oracle", "fuzz", "certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    _load_program()
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    caches = program_caches()
    items = wl.items(args.seed, SRC)
    env = environment(wl)
    print("env: " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cores)})   # probe and kernel runs on one core
        try:
            setups = [setup_seconds(wl) for _ in range(SETUP_PROBES)]
        finally:
            os.sched_setaffinity(0, cores)
        sampler = calib.Sampler()
        passes: list[Pass] = []
        refs = []
        begun = time.perf_counter()
        while True:
            passes.append(run_pass(wl, items, caches, sampler=sampler))
            refs.append(sampler.ref_s())
            spent = time.perf_counter() - begun
            if len(passes) >= MAX_PASSES or spent * (len(passes) + 1) / len(passes) > args.seconds:
                break
        print(f"raw: setup_s {statistics.median(r for r, _ in setups)} s (median of "
              f"{len(setups)}), pass walls {[p.wall_s for p in passes]} s")
        print(f"host: reference kernel {statistics.median(refs) * 1e3:.3f} ms "
              f"(median over the passes; {calib.REF_S * 1e3:.3f} ms uncontended)")
        metrics = {
            "setup_s": (statistics.median(c for _, c in setups), "s"),
            "wall_cal_s": (statistics.median(p.cal_s for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        plain = run_pass(wl, items, caches)
        tracer = Tracer()
        traced = run_pass(wl, items, caches, tracer)
        passes = [plain, traced]
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.save(spans)
        print(f"spans: {tracer.span_count} written to {spans.relative_to(ROOT)}")
    tail_s, pct, samples = passes[0].tail
    print(f"tail_item_s: {tail_s} s at p{pct:.1f} of {samples} items (untraced pass)")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    if args.trace == 1:
        units = dict(layers.PER_LAYER)
        values = layers.layer_values(tracer, traced.wall_s - plain.wall_s,
                                     failed / attempted, tail_s)
        metrics = {k: (v, units[k]) for k, v in values.items()}

    print(f"fail_ratio: {failed / attempted} ratio ({failed} of {attempted} items)")
    print(f"answers digest: {' '.join(sorted(digests))} over {len(passes)} passes")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")

    result = {"correct": failed == 0 and len(digests) == 1,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "env": env,
                                  "pass_walls_s": [p.wall_s for p in passes],
                                  "pass_cal_s": [p.cal_s for p in passes],
                                  "setups_s": setups if args.trace == 0 else [],
                                  "digests": sorted(digests), **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
