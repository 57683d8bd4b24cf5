"""Span tracer that instruments the mbch package from outside.

``install()`` replaces each traced function, wherever an ``mbch`` module
holds it, by a wrapper that records one span per call.  ``from .freelie
import to_lyndon_coords`` copies the binding into ``verify``, ``cli`` and
other modules, and ``verify.SUITES`` keeps the check functions in a dict,
so every module namespace and every module-level dict is searched for
the original object.  Methods are replaced on their class, under every
name the class binds them to (``__rmul__ = __mul__``).

Spans stay in memory as ``(span_id, parent_id, name, start, end, ok,
terms_out)`` and are handed out once, when the job ends, each prefixed
with the job id (the process id).  ``summarize`` turns them into
per-function call counts and self times: a span's self time is its
duration minus the durations of its direct children.  No file of the
traced program changes, and the program's stdout is left alone.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# Metric name -> attribute path inside the module named by its first part.
TARGETS = {
    "series.BiSeries.mul": "BiSeries.__mul__",
    "series.BiSeries.divide_exact": "BiSeries.divide_exact",
    "series.BiSeries.inverse": "BiSeries.inverse",
    "assoc.NCSeries.mul": "NCSeries.__mul__",
    "assoc.nc_exp": "nc_exp",
    "assoc.nc_log": "nc_log",
    "assoc.bch_log_oracle": "bch_log_oracle",
    "assoc.zassenhaus_oracle": "zassenhaus_oracle",
    "freelie.to_lyndon_coords": "to_lyndon_coords",
    "freelie.lyndon_coords_of_assoc": "lyndon_coords_of_assoc",
    "freelie.to_assoc": "to_assoc",
    "freelie.right_normed": "right_normed",
    "freelie.Derivation.call": "Derivation.__call__",
    "freelie.ideal_membership": "ideal_membership",
    "bch.bch_recursive": "bch_recursive",
    "bch.bch_dynkin": "bch_dynkin",
    "bch.hausdorff_h1": "hausdorff_h1",
    "metabelian.project": "project",
    "metabelian.h_series": "h_series",
    "metabelian.hausdorff_closed": "hausdorff_closed",
    "metabelian.goldberg_c": "goldberg_c",
    "metabelian.zassenhaus_closed": "zassenhaus_closed",
    "metabelian.kv_solve": "kv_solve",
    "metabelian.kv_verify": "kv_verify",
    "tilde.hausdorff_tilde": "hausdorff_tilde",
    "tilde.tilde_dy": "tilde_dy",
    "tilde.tilde_act": "tilde_act",
    "tilde.expand_to_free": "expand_to_free",
    "verify.check_bch": "check_bch",
    "verify.check_metabelian": "check_metabelian",
    "verify.check_zassenhaus": "check_zassenhaus",
    "verify.check_kv": "check_kv",
    "verify.check_deeper": "check_deeper",
    "cli.main": "main",
}

MODULES = sorted({name.split(".")[0] for name in TARGETS})

# Exact work counts, read from a traced call's result through public API.
TERMS_OUT = {
    "freelie.to_lyndon_coords": len,
    "assoc.NCSeries.mul": lambda r: len(r.word_dict()),
    "series.BiSeries.divide_exact": lambda r: sum(1 for _ in r.terms()),
}

_spans: list[tuple] = []
_stack: list[int] = [0]


def _wrap(name: str, fn, count):
    spans, stack, clock = _spans, _stack, time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = len(spans) + len(stack)
        parent = stack[-1]
        stack.append(sid)
        ok = False
        start = clock()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = clock()
            stack.pop()
            n = count(result) if ok and count is not None else 0
            spans.append((sid, parent, name, start, end, ok, n))

    return traced


def install() -> None:
    """Wrap every target in every loaded ``mbch`` module that holds it."""
    mods = [m for k, m in sorted(sys.modules.items()) if k == "mbch" or k.startswith("mbch.")]
    replace: dict[int, object] = {}
    for name, path in TARGETS.items():
        owner = sys.modules["mbch." + name.split(".")[0]]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(name, original, TERMS_OUT.get(name))
        replace[id(original)] = wrapper
        if cls_path:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
    for mod in mods:
        for key, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, key, replace[id(value)])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in replace:
                        value[k] = replace[id(v)]


def spans() -> list[tuple]:
    """Spans recorded so far as ``(job_id, span_id, ...)``, in order of completion."""
    job = os.getpid()
    return [(job, *s) for s in _spans]


def summarize(spans: list) -> dict[str, float]:
    """Per-function and per-module calls, self time, errors and work counts."""
    child_time: dict[tuple[int, int], float] = {}
    for job, _sid, parent, _name, start, end, _ok, _n in spans:
        child_time[job, parent] = child_time.get((job, parent), 0.0) + (end - start)
    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for mod in MODULES:
        out[f"{mod}.self_s"] = 0.0
        out[f"{mod}.errors"] = 0
    for name in TERMS_OUT:
        out[f"{name}.terms_out"] = 0
    for job, sid, _parent, name, start, end, ok, n in spans:
        mod = name.split(".")[0]
        self_s = (end - start) - child_time.get((job, sid), 0.0)
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{mod}.self_s"] += self_s
        if not ok:
            out[f"{mod}.errors"] += 1
        if name in TERMS_OUT:
            out[f"{name}.terms_out"] += n
    return out
