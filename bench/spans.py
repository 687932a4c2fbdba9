"""Per-layer tracing of the sumrank package from outside its source.

`Tracer.install()` wraps every public function of the layer modules and
rebinds the wrapper in every loaded `sumrank` module that holds the
original, so calls between layers are traced too; `uninstall()` puts the
originals back. Each call is a span (name, start, end, parent). A span's
self time is its duration minus the time of its child spans; it is added to
per-name totals when the span closes, so memory stays flat however many
calls a batch makes (the verify workload makes millions).
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator, Optional

LAYERS = ("qkit", "compositions", "volumes", "intersections", "oracle", "report", "cli")
LITERAL_FORMULAS = (
    "intersections.theorem1_literal",
    "intersections.theorem2_literal",
    "intersections.theorem3_literal",
)
ENUMERATIONS = (
    "oracle.count_sphere",
    "oracle.count_intersection",
    "oracle.count_rank1_additive",
    "oracle.els_pair_count_check",
)
GENERATORS = ("compositions.enumerate_bounded", "compositions.enumerate_uniform")

_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class _TracedIterator:
    """Times each step of a composition generator as its own span."""

    __slots__ = ("_it", "_tracer")

    def __init__(self, it: Iterator, tracer: "Tracer"):
        self._it = it
        self._tracer = tracer

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        frame = tracer.open("compositions.next")
        start = tracer.clock()
        try:
            item = next(self._it)
        finally:
            tracer.close(frame, start, count=False)
        tracer.counts["compositions.profiles"] += 1
        return item


class Tracer:
    """Span recorder and call-boundary counters for one traced batch."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.j_args: set[tuple] = set()
        self._rebound: list[tuple[Any, str, Any]] = []
        self._originals: dict[str, Any] = {}
        self._wd_misses = 0

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> _Frame:
        frame = _Frame(name)
        self.stack.append(frame)
        return frame

    def close(self, frame: _Frame, start: float, count: bool = True) -> None:
        duration = self.clock() - start
        self.stack.pop()
        self.self_s[frame.name] += duration - frame.child
        if count:
            self.calls[frame.name] += 1
        if self.stack:
            self.stack[-1].child += duration

    def parent(self) -> Optional[str]:
        return self.stack[-1].name if self.stack else None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        clock = self.clock
        after = _AFTER.get(name)
        generator = name in GENERATORS

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(frame, start)
                if type(exc).__name__ == "OracleBudgetError" and not (
                    tracer.parent() or ""
                ).startswith("oracle."):
                    tracer.counts["oracle.budget_refusals"] += 1
                raise
            tracer.close(frame, start)
            if after is not None:
                after(tracer, args, kwargs, result)
            if generator and not isinstance(result, _TracedIterator):
                result = _TracedIterator(iter(result), tracer)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap each layer's public functions wherever sumrank refers to them."""
        import importlib

        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "sumrank"]
        for layer in LAYERS:
            module = importlib.import_module(f"sumrank.{layer}")
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = fn
                wrapper = self._wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._rebound.append((holder, key, fn))
        wd = self._originals["volumes.weight_distribution"]
        self._wd_misses = wd.cache_info().misses

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._rebound):
            setattr(holder, key, fn)
        self._rebound.clear()

    # -- results -------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def metrics(self, oracle_answers: int) -> dict[str, float]:
        """Per-layer metrics of the traced batch; read before any other sumrank call."""
        calls = self.calls
        counts = self.counts

        def layer_calls(layer: str) -> int:
            return sum(v for k, v in calls.items() if k.startswith(layer + "."))

        def hit_ratio(names: tuple[str, ...]) -> float:
            hits = misses = 0
            for name in names:
                info = self._originals[name].cache_info()
                hits += info.hits
                misses += info.misses
            return hits / (hits + misses) if hits + misses else 0.0

        qkit_cached = tuple(
            n for n, fn in self._originals.items()
            if n.startswith("qkit.") and hasattr(fn, "cache_info")
        )
        j_calls = calls["intersections.rank_sphere_intersection_J"]
        computed = counts["volumes.entries_computed"]
        candidates = counts["oracle.candidates"]
        return {
            "qkit.calls": layer_calls("qkit"),
            "qkit.self_s": self.layer_self_s("qkit"),
            "qkit.q_krawtchouk.calls": calls["qkit.q_krawtchouk"],
            "qkit.cache_hit_ratio": hit_ratio(qkit_cached),
            "compositions.profiles": counts["compositions.profiles"],
            "compositions.self_s": self.layer_self_s("compositions"),
            "volumes.weight_distribution.calls": calls["volumes.weight_distribution"],
            "volumes.self_s": self.layer_self_s("volumes"),
            "volumes.cache_hit_ratio": hit_ratio(("volumes.weight_distribution",)),
            "volumes.coeff_mults": counts["volumes.coeff_mults"],
            "volumes.output_bits": counts["volumes.output_bits"],
            "volumes.entries_used_ratio": (
                counts["volumes.entries_used"] / computed if computed else 0.0
            ),
            "intersections.J.calls": j_calls,
            "intersections.J.distinct_ratio": len(self.j_args) / j_calls if j_calls else 0.0,
            "intersections.exact.self_s": self.self_s["intersections.sumrank_intersection_exact"],
            "intersections.literal.self_s": sum(self.self_s[n] for n in LITERAL_FORMULAS),
            "intersections.self_s": self.layer_self_s("intersections"),
            "oracle.enumerations": sum(calls[n] for n in ENUMERATIONS),
            "oracle.matrix_rank.calls": calls["oracle.matrix_rank"],
            "oracle.self_s": self.layer_self_s("oracle"),
            "oracle.budget_refusals": counts["oracle.budget_refusals"],
            "oracle.candidates": candidates,
            "oracle.candidates_per_answer": (
                candidates / oracle_answers if oracle_answers else 0.0
            ),
            "report.records": calls["report.make_record"],
            "report.bytes": counts["report.bytes"],
            "report.self_s": self.layer_self_s("report"),
            "cli.self_s": self.layer_self_s("cli"),
        }


# -- counters taken at call boundaries, after a call returns -----------------


def _weight_distribution(tracer: Tracer, args: tuple, kwargs: dict, result: tuple) -> None:
    misses = tracer._originals["volumes.weight_distribution"].cache_info().misses
    if misses != tracer._wd_misses:
        tracer._wd_misses = misses
        p = args[0] if args else kwargs["p"]
        mu = p.mu
        tracer.counts["volumes.coeff_mults"] += sum((k * mu + 1) * (mu + 1) for k in range(p.ell))
        tracer.counts["volumes.output_bits"] += sum(c.bit_length() for c in result)
        tracer.counts["volumes.entries_computed"] += len(result)
    if tracer.parent() not in ("volumes.sphere_volume", "volumes.ball_volume"):
        tracer.counts["volumes.entries_used"] += len(result)


def _radius(args: tuple, kwargs: dict) -> tuple[Any, int]:
    p = args[0] if args else kwargs["p"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    return p, t


def _sphere_volume(tracer: Tracer, args: tuple, kwargs: dict, result: int) -> None:
    p, t = _radius(args, kwargs)
    tracer.counts["volumes.entries_used"] += 1 if t <= p.max_weight else 0


def _ball_volume(tracer: Tracer, args: tuple, kwargs: dict, result: int) -> None:
    p, t = _radius(args, kwargs)
    tracer.counts["volumes.entries_used"] += min(t, p.max_weight) + 1


def _j(tracer: Tracer, args: tuple, kwargs: dict, result: int) -> None:
    tracer.j_args.add(args + tuple(sorted(kwargs.items())))


def _space(tracer: Tracer, args: tuple, kwargs: dict, result: int) -> None:
    p = args[0] if args else kwargs["p"]
    tracer.counts["oracle.candidates"] += p.space_size


def _rank1(tracer: Tracer, args: tuple, kwargs: dict, result: int) -> None:
    n, m, _r, q = (list(args) + [None] * 4)[:4]
    n = kwargs.get("n", n)
    m = kwargs.get("m", m)
    q = kwargs.get("q", q)
    tracer.counts["oracle.candidates"] += q ** (m * n)


def _els(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    k, _a, q = (list(args) + [None] * 3)[:3]
    tracer.counts["oracle.candidates"] += kwargs.get("q", q) ** kwargs.get("k", k)


def _rendered(tracer: Tracer, args: tuple, kwargs: dict, result: str) -> None:
    tracer.counts["report.bytes"] += len(result.encode())


_AFTER: dict[str, Callable[[Tracer, tuple, dict, Any], None]] = {
    "volumes.weight_distribution": _weight_distribution,
    "volumes.sphere_volume": _sphere_volume,
    "volumes.ball_volume": _ball_volume,
    "intersections.rank_sphere_intersection_J": _j,
    "oracle.count_sphere": _space,
    "oracle.count_intersection": _space,
    "oracle.count_rank1_additive": _rank1,
    "oracle.els_pair_count_check": _els,
    "report.report_to_json": _rendered,
    "report.report_to_text": _rendered,
}
