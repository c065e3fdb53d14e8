"""Per-layer tracing installed from outside the library.

Tracer.install() wraps every public function and method of the layer
modules and rebinds every module attribute that refers to a wrapped
function (the modules import each other's names with `from .x import`),
and Tracer.remove() puts the originals back, so untraced runs execute
unmodified library code.

Each wrapped call is a span (name, start, end, parent span, task id).
Spans are kept in flat arrays up to a cap and written out at the end;
call counts, self times (span duration minus child spans) and raised
counts are kept for every call.  A few calls also feed work counts that do
not depend on the machine: memo hits, tail-cut doublings, inversion steps.

Self times in a traced run include the tracer's own per-call cost; the
overhead ratio reported beside them says how large that is.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("realcore", "hilbert", "directsum", "gframes", "gallery", "cli")

# the `what` argument of certified_tail_cut, by call site
TAIL_CUTS = {
    "coordinate square sum": "coordinate-square-sum",   # hilbert
    "sum norm datum": "sum-norm-datum",                 # directsum
    "row coefficient oracle": "row-coefficient-oracle", # gframes
    "component expansion": "component-expansion",       # gframes
    "input norm datum": "input-norm-datum",             # gframes
    "norm gate": "norm-gate",                           # gallery
}

# constructors whose results are tagged so that the approx self time of
# the names they produce can be attributed to them
BUILDERS = {
    "gframes": ("synthesis", "analysis", "frame_operator",
                "invert_frame_operator"),
    "gallery": ("gated_adjoint", "gated_dual_tau", "remark_frame_operator",
                "upper_u_operator", "column_lower_adjoint",
                "lower_u_synthesis"),
}

TASK_OPS = ("norm", "inner", "sum-inner", "apply", "gated-apply",
            "dual-apply", "frame-op", "reconstruct")

DIRECTSUM = ("sum_inner_product", "component_cut", "sum_to_fourier",
             "fourier_to_sum")


def _per_layer() -> dict[str, str]:
    """Metric name -> unit, in report order."""
    m = {
        "realcore.CReal.approx.calls": "count",
        "realcore.CReal.approx.exact_calls": "count",
        "realcore.CReal.approx.hit_ratio": "ratio",
    }
    for slug in TAIL_CUTS.values():
        for stat, unit in (("calls", "count"), ("doublings", "count"),
                           ("self_s", "s"), ("raised", "count")):
            m[f"realcore.certified_tail_cut.{slug}.{stat}"] = unit
    m.update({
        "realcore.creal_sum.calls": "count",
        "realcore.creal_sum.terms": "count",
        "realcore.creal_compare.calls": "count",
        "realcore.creal_compare.self_s": "s",
        "realcore.dyadic_round.calls": "count",
        "hilbert.VectorName.approx.calls": "count",
        "hilbert.VectorName.approx.hit_ratio": "ratio",
        "hilbert.VectorName.approx.self_s": "s",
        "hilbert.FiniteCombo.add.calls": "count",
        "hilbert.FiniteCombo.add.terms_out": "count",
        "hilbert.inner_product.calls": "count",
        "hilbert.linear_combination.calls": "count",
        "hilbert.linear_combination.pairs": "count",
        "hilbert.vector_from_coefficients.calls": "count",
        "hilbert.riesz_representer.calls": "count",
    })
    for fn in DIRECTSUM:
        m[f"directsum.{fn}.calls"] = "count"
        m[f"directsum.{fn}.self_s"] = "s"
    m.update({
        "gframes.OperatorName.apply.calls": "count",
        "gframes.OperatorName.apply.memo_hit_ratio": "ratio",
        "gframes.OperatorName.apply.distinct_inputs": "count",
        "gframes.richardson_iterate.calls": "count",
        "gframes.richardson_iterate.steps": "count",
        "gframes.richardson_iterate.max_precision": "bits",
        "gframes.richardson_iterate.self_s": "s",
    })
    for layer, names in BUILDERS.items():
        for b in names:
            m[f"{layer}.{b}.approx_self_s"] = "s"
    m["cli.load_document.s"] = "s"
    m["cli.build_registry.s"] = "s"
    for op in TASK_OPS:
        m[f"cli.execute_task.{op}.s"] = "s"
    m["trace.overhead_ratio"] = "ratio"
    return m


PER_LAYER = _per_layer()

# spans kept per traced run (28 bytes each); counts and self times cover
# every call regardless
SPAN_CAP = 2_000_000


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.task = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.raised: list[int] = []
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_task = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.unknown_cuts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._quantize: Callable[[int], int] = lambda n: n
        self.retired_inputs = 0
        self._seen_apply: dict = {}
        self.reset_identity()

    def reset_identity(self) -> None:
        """Forget the names seen so far.  The tables below hold the objects
        they key by id(), so an id cannot be reused while it is recorded;
        call between independent parts of a pass to release them."""
        self.retired_inputs += len(self._seen_apply)
        self._seen_creal: dict[int, tuple[object, set]] = {}
        self._seen_vec: dict[int, tuple[object, set]] = {}
        self._seen_apply: dict[tuple[int, int], tuple[object, object]] = {}
        self._tags: dict[int, tuple[object, str]] = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        realcore = importlib.import_module("exactframes.realcore")
        self._quantize = getattr(realcore, "quantize_precision", self._quantize)
        hooks = self._hooks()
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"exactframes.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qual = f"{layer}.{name}"
                    replace[id(obj)] = self._wrap(obj, qual, hooks.get(qual))
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(obj, f"{layer}.{name}", hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "exactframes"
                                   or mod_name.startswith("exactframes.")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = replace.get(id(val))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls: type, qual: str, hooks: dict) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qual}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(member.__func__, name, hooks.get(name)))
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, name, hooks.get(name))
            else:
                continue
            self._patches.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the wrapper --------------------------------------------------

    def _wrap(self, fn: Callable, qual: str, hook: Optional[Callable]) -> Callable:
        nid = len(self.names)
        self.names.append(qual)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.raised.append(0)
        perf = time.perf_counter
        stack = self.stack
        sp_name, sp_parent, sp_task = self.sp_name, self.sp_parent, self.sp_task
        sp_start, sp_end = self.sp_start, self.sp_end
        calls, self_s, raised_n = self.calls, self.self_s, self.raised
        cap = SPAN_CAP
        tracer = self

        def finish(entry: list, t0: float, t1: float, raised: bool) -> tuple[float, float]:
            stack.pop()
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            own = dur - entry[1]
            calls[nid] += 1
            self_s[nid] += own
            if raised:
                raised_n[nid] += 1
            if entry[0] >= 0:
                sp_end[entry[0]] = t1
            return dur, own

        def wrapper(*args, **kwargs):
            t0 = perf()
            idx = len(sp_name)
            if idx < cap:
                sp_name.append(nid)
                sp_parent.append(stack[-1][0] if stack else -1)
                sp_task.append(tracer.task)
                sp_start.append(t0)
                sp_end.append(0.0)
            else:
                idx = -1
            entry = [idx, 0.0]
            stack.append(entry)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                dur, own = finish(entry, t0, perf(), True)
                if hook is not None:
                    tracer._run_hook(hook, args, kwargs, None, dur, own, True)
                raise
            dur, own = finish(entry, t0, perf(), False)
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, out, dur, own, False)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qual)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _run_hook(self, hook, args, kwargs, out, dur, own, raised) -> None:
        # bookkeeping time is taken out of the caller's self time
        t = time.perf_counter()
        hook(args, kwargs, out, dur, own, raised)
        if self.stack:
            self.stack[-1][1] += time.perf_counter() - t

    # -- work counts --------------------------------------------------

    def _tag(self, obj, label: str) -> None:
        self._tags[id(obj)] = (obj, label)

    def _tag_of(self, obj) -> Optional[str]:
        hit = self._tags.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    def _hooks(self) -> dict[str, Callable]:
        c = self.counts
        quantize = self._quantize

        def seen(table: dict, obj, n: int, prefix: str) -> None:
            entry = table.get(id(obj))
            if entry is None or entry[0] is not obj:
                entry = table[id(obj)] = (obj, set())
            q = quantize(n)
            if q in entry[1]:
                c[prefix + ".hits"] += 1
            else:
                entry[1].add(q)
            c[prefix + ".lazy_calls"] += 1

        def creal_approx(args, kwargs, out, dur, own, raised):
            x, n = args[0], _arg(args, kwargs, 1, "n")
            if x.exact_value is not None:
                c["realcore.CReal.approx.exact_calls"] += 1
            elif not raised:
                seen(self._seen_creal, x, n, "realcore.CReal.approx")

        def vec_approx(args, kwargs, out, dur, own, raised):
            v, n = args[0], _arg(args, kwargs, 1, "n")
            if v.exact_combo is None and not raised:
                seen(self._seen_vec, v, n, "hilbert.VectorName.approx")
            label = self._tag_of(v)
            if label is not None:
                c[f"{label}.approx_self_s"] += own

        def tail_cut(args, kwargs, out, dur, own, raised):
            what = _arg(args, kwargs, 5, "what", "tail certificate")
            slug = TAIL_CUTS.get(what)
            if slug is None:
                self.unknown_cuts[what] += 1
                return
            key = f"realcore.certified_tail_cut.{slug}"
            c[key + ".calls"] += 1
            c[key + ".self_s"] += own
            if raised:
                c[key + ".raised"] += 1
            else:
                start = _arg(args, kwargs, 6, "start", 4)
                c[key + ".doublings"] += math.log2(out / start)

        def creal_sum(args, kwargs, out, dur, own, raised):
            terms = _arg(args, kwargs, 0, "terms")
            c["realcore.creal_sum.terms"] += len(terms) if hasattr(terms, "__len__") else 0

        def combo_add(args, kwargs, out, dur, own, raised):
            if out is not None:
                c["hilbert.FiniteCombo.add.terms_out"] += len(out.terms)

        def lincomb(args, kwargs, out, dur, own, raised):
            pairs = _arg(args, kwargs, 1, "pairs")
            c["hilbert.linear_combination.pairs"] += len(pairs) if hasattr(pairs, "__len__") else 0

        def apply(args, kwargs, out, dur, own, raised):
            op, f = args[0], _arg(args, kwargs, 1, "f")
            key = (id(op), id(f))
            hit = self._seen_apply.get(key)
            if hit is not None and hit[0] is op and hit[1] is f:
                c["gframes.OperatorName.apply.hits"] += 1
            else:
                self._seen_apply[key] = (op, f)
            label = self._tag_of(op)
            if label is not None and out is not None:
                self._tag(out, label)      # the outermost builder wins

        def propagate(args, kwargs, out, dur, own, raised):
            label = self._tag_of(args[0])
            if label is not None and out is not None:
                self._tag(out, label)

        def richardson(args, kwargs, out, dur, own, raised):
            c["gframes.richardson_iterate.steps"] += _arg(args, kwargs, 4, "steps", 0)
            prec = _arg(args, kwargs, 5, "precision", 0)
            key = "gframes.richardson_iterate.max_precision"
            c[key] = max(c[key], prec)

        def total(name: str) -> Callable:
            def hook(args, kwargs, out, dur, own, raised):
                c[name] += dur
            return hook

        def execute_task(args, kwargs, out, dur, own, raised):
            task = _arg(args, kwargs, 1, "task")
            c[f"cli.execute_task.{task.op}.s"] += dur

        hooks = {
            "realcore.CReal.approx": creal_approx,
            "hilbert.VectorName.approx": vec_approx,
            "realcore.certified_tail_cut": tail_cut,
            "realcore.creal_sum": creal_sum,
            "hilbert.FiniteCombo.add": combo_add,
            "hilbert.linear_combination": lincomb,
            "gframes.OperatorName.apply": apply,
            "gframes.GFrameName.op": propagate,
            "directsum.SumName.component": propagate,
            "gframes.richardson_iterate": richardson,
            "cli.load_document": total("cli.load_document.s"),
            "cli.build_registry": total("cli.build_registry.s"),
            "cli.execute_task": execute_task,
        }
        for layer, names in BUILDERS.items():
            for b in names:
                label = f"{layer}.{b}"

                def builder(args, kwargs, out, dur, own, raised, label=label):
                    if out is not None:
                        self._tag(out, label)

                hooks[label] = builder
        return hooks

    # -- results ------------------------------------------------------

    def _stat(self, qual: str, stat: str) -> float:
        try:
            nid = self.names.index(qual)
        except ValueError:
            return 0
        return {"calls": self.calls, "self_s": self.self_s,
                "raised": self.raised}[stat][nid]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead ratio."""
        c = self.counts
        out: dict[str, float] = {}
        for name in PER_LAYER:
            base, _, stat = name.rpartition(".")
            if name == "trace.overhead_ratio":
                continue
            if stat == "hit_ratio":
                out[name] = _ratio(c[base + ".hits"], c[base + ".lazy_calls"])
            elif stat == "memo_hit_ratio":
                out[name] = _ratio(c[base + ".hits"], self._stat(base, "calls"))
            elif stat == "distinct_inputs":
                out[name] = self.retired_inputs + len(self._seen_apply)
            elif stat in ("calls", "self_s", "raised") \
                    and not base.startswith("realcore.certified_tail_cut."):
                out[name] = self._stat(base, stat)
            else:
                out[name] = c[name]
        return out

    def write_spans(self, directory: Path) -> None:
        """The spans as flat little-endian arrays plus a JSON index."""
        directory.mkdir(parents=True, exist_ok=True)
        n = len(self.sp_name)
        for field in ("sp_name", "sp_parent", "sp_task", "sp_start", "sp_end"):
            with open(directory / f"{field[3:]}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
        index = {"spans": n, "cap": SPAN_CAP, "names": self.names,
                 "fields": {"name": "int32 index into names",
                            "parent": "int32 span index or -1",
                            "task": "int32 task index or -1",
                            "start": "float64 perf_counter seconds",
                            "end": "float64 perf_counter seconds"}}
        (directory / "index.json").write_text(json.dumps(index, indent=1))
