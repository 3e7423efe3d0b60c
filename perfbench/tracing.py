"""Spans around the package's layers, installed from outside the package.

Each layer's public functions are replaced, where their consumers bound
them, by a wrapper that records a span: name, start, end, parent span and
request id.  The kernel functions are wrapped in the modules that import
them by name (``dunklweyl.opalg.op_mul`` and so on), so only calls from
the consumers count, not the kernel's calls to itself.  Self time is a
span's duration minus the time of its child spans.

Wrappers are installed only around traced passes and removed after, so
untraced passes run the program unmodified.  A target that does not exist
marks its layer absent; the run goes on without it.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Per span name, spans beyond this many are aggregated but not stored.
SPANS_KEPT_PER_NAME = 20000

# Counters that the after-call hooks derive from arguments and results.
COUNTERS = {
    "kernel.op_mul": ["kernel.op_mul." + c for c in (
        "pairs", "terms_out", "yield", "max_terms", "coeff_bits_max")],
    "opalg.render": ["opalg.render.bytes"],
    "relations.check": ["relations.identities", "relations.residual_terms"],
}

# Arithmetic and comparison methods count as public API of a value type.
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
    "__hash__", "__bool__", "__str__",
}


def _public_methods(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if (not name.startswith("_") or name in _OPERATORS)
            and (inspect.isfunction(value)
                 or isinstance(value, (classmethod, staticmethod)))]


def _coeff_bits(op: dict) -> int:
    best = 0
    for poly in op.values():
        for coeff in poly.values():
            for part in coeff:
                bits = part.bit_length()
                if bits > best:
                    best = bits
    return best


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[tuple] = []
        self.kept: Dict[str, int] = defaultdict(int)
        self.dropped = 0
        self.next_id = 0
        self.request_id = -1
        self.absent: List[str] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        self.build_cache_info: Optional[Callable] = None
        self._plan()

    # recording ------------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Callable] = None
             ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [tracer.next_id, name, time.perf_counter(), 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer._close(frame, end)
            if after is not None:
                # Counting is the tracer's own work: keep it out of the
                # caller's self time.  A result it cannot read (the data
                # layout changed) marks its counters absent, and the
                # request goes on.
                try:
                    after(args, result)
                except Exception:
                    tracer.absent.extend(
                        c for c in COUNTERS[name] if c not in tracer.absent)
                if tracer.stack:
                    tracer.stack[-1][3] += time.perf_counter() - end
            return result

        return wrapper

    def _close(self, frame: list, end: float) -> None:
        span_id, name, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.kept[name] < SPANS_KEPT_PER_NAME:
            self.kept[name] += 1
            self.spans.append((span_id, parent[0] if parent else None, name,
                               start, end, self.request_id))
        else:
            self.dropped += 1

    # targets --------------------------------------------------------------

    def _plan(self) -> None:
        """Resolve every target now; install() only swaps them in."""
        self._targets: List[Tuple[object, str, str, Optional[Callable]]] = []
        mods = {}
        for short in ("cli", "dsl", "relations", "builders", "states",
                      "opalg", "scalars"):
            try:
                mods[short] = importlib.import_module(f"dunklweyl.{short}")
            except ImportError:
                self.absent.append(short)

        def add(owner, attr, name, after=None):
            if owner is None or not hasattr(owner, attr):
                self.absent.append(name)
                return
            self._targets.append((owner, attr, name, after))

        cli = mods.get("cli")
        add(cli, "main", "cli.main")
        add(cli, "parse_eval", "dsl.parse_eval")

        # Kernel entry points, wherever a consumer bound them by name.
        found = set()
        for short in ("opalg", "scalars", "states", "relations",
                      "builders", "dsl"):
            mod = mods.get(short)
            for attr in dir(mod) if mod else ():
                name = None
                if attr == "op_mul":
                    name, after = "kernel.op_mul", self._after_op_mul
                elif attr in ("op_add", "op_sub", "op_scale"):
                    name, after = "kernel.op_linear", None
                elif attr.startswith("poly_"):
                    name, after = "kernel.poly", None
                elif attr.startswith("bn_"):
                    name, after = "kernel.bn", None
                if name and callable(getattr(mod, attr)):
                    self._targets.append((mod, attr, name, after))
                    found.add(name)
        for name in ("kernel.op_mul", "kernel.op_linear", "kernel.poly",
                     "kernel.bn"):
            if name not in found:
                self.absent.append(name)

        scalars = mods.get("scalars")
        for cls_name in ("Scalar", "BaseNumber"):
            cls = getattr(scalars, cls_name, None)
            for attr in _public_methods(cls) if cls else ():
                add(cls, attr, "scalars")
            if cls is None:
                self.absent.append(f"scalars.{cls_name}")

        opalg = mods.get("opalg")
        elem = getattr(opalg, "OperatorElement", None)
        laurent = getattr(opalg, "LaurentPolynomial", None)
        special = {"__mul__": "opalg.mul", "__rmul__": "opalg.mul",
                   "__pow__": "opalg.mul",
                   "substitute_params": "opalg.substitute",
                   "__str__": "opalg.render"}
        for attr in _public_methods(elem) if elem else ():
            name = special.get(attr, "opalg.other")
            after = self._after_render if name == "opalg.render" else None
            add(elem, attr, name, after)
        for attr in _public_methods(laurent) if laurent else ():
            add(laurent, attr, "opalg.laurent")
        if elem is None or laurent is None:
            self.absent.append("opalg")

        builders = mods.get("builders")
        build = getattr(builders, "build", None)
        self.build_cache_info = getattr(build, "cache_info", None)
        if self.build_cache_info is None:
            self.absent.append("builders.build.misses")
        for short in ("builders", "relations", "states", "dsl"):
            mod = mods.get(short)
            if build is not None and getattr(mod, "build", None) is build:
                add(mod, "build", "builders.build")
        if build is None:
            self.absent.append("builders.build")

        relations = mods.get("relations")
        add(relations, "check", "relations.check", self._after_check)

        states = mods.get("states")
        for attr in ("apply", "fock", "eigencheck"):
            add(states, attr, f"states.{attr}")
        for attr in ("spectrum_table", "ladder_norm_coefficients"):
            add(states, attr, "states.other")

    def _after_op_mul(self, args: tuple, result: dict) -> None:
        a, b = args[0], args[1]
        c = self.counts
        c["kernel.op_mul.pairs"] += len(a) * len(b)
        c["kernel.op_mul.terms_out"] += len(result)
        size = max(len(a), len(b), len(result))
        if size > c["kernel.op_mul.max_terms"]:
            c["kernel.op_mul.max_terms"] = size
        bits = _coeff_bits(result)
        if bits > c["kernel.op_mul.coeff_bits_max"]:
            c["kernel.op_mul.coeff_bits_max"] = bits

    def _after_render(self, args: tuple, result: str) -> None:
        self.counts["opalg.render.bytes"] += len(result.encode())

    def _after_check(self, args: tuple, report) -> None:
        self.counts["relations.identities"] += len(report.identities)
        self.counts["relations.residual_terms"] += sum(
            ir.residual_terms for ir in report.identities)

    # install --------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, after in self._targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.span(name, raw.__func__, after))
            else:
                wrapped = self.span(name, raw, after)
            self._patches.append((owner, attr, raw, wrapped))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw, _ = self._patches.pop()
            setattr(owner, attr, raw)

    def reset(self) -> None:
        """Forget aggregates and spans, keeping the installed targets."""
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.spans.clear()
        self.kept.clear()
        self.dropped = 0
