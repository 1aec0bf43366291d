"""In-memory spans around calls into ellstab's public functions.

A `Tracer` replaces module bindings (``galois_image.curve_box`` and so on)
with timing wrappers, so the package itself is never edited.  Each call of a
wrapped function becomes a span with a name, start, end, parent span and run
id.  Functions called too often for one span per call (``frobenius_trace``
runs ~170k times in the per_curve workload) are "hot": they keep a call count
and a total time instead, and that time is charged to the enclosing span as
covered by a child, so self times stay correct.  Spans stay in memory until
`write_jsonl` at the end of the run.
"""

import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str
    hot_child_s: float = 0.0  # time of hot calls made directly inside this span


@dataclass
class Hot:
    calls: int = 0
    total_s: float = 0.0


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.hot: dict[str, Hot] = {}
        self._stack: list[Span] = []
        self._hot_depth = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), 0.0, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError("spans must close in LIFO order")

    def _hot_done(self, name: str, elapsed: float) -> None:
        h = self.hot.setdefault(name, Hot())
        h.calls += 1
        h.total_s += elapsed
        # a hot call nested in another hot call is already inside that one's time
        if self._hot_depth == 0 and self._stack:
            self._stack[-1].hot_child_s += elapsed

    def wrap(self, fn, name: str, hot: bool = False, on_result=None):
        """A wrapper around fn that records a span (or a hot count) per call.

        on_result(args, kwargs, result) runs after the call, outside its span.
        """
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                tracer._hot_depth += 1
                t0 = tracer.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = tracer.clock() - t0
                    tracer._hot_depth -= 1
                    tracer._hot_done(name, elapsed)
        else:
            def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(span)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_iter(self, fn, name: str):
        """Wrap a generator function: each next() is timed as one hot call."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                tracer._hot_depth += 1
                t0 = tracer.clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = tracer.clock() - t0
                    tracer._hot_depth -= 1
                    tracer._hot_done(name, elapsed)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing at module bindings -----------------------------------

    def install(self, module, attr: str, name: str, mode: str = "span", on_result=None) -> bool:
        """Replace module.attr by a traced wrapper; False if the binding is absent."""
        fn = getattr(module, attr, None)
        if fn is None or not callable(fn):
            return False
        if mode == "iter":
            wrapped = self.wrap_iter(fn, name)
        else:
            wrapped = self.wrap(fn, name, hot=(mode == "hot"), on_result=on_result)
        self._installed.append((module, attr, fn))
        setattr(module, attr, wrapped)
        return True

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
            for name, h in sorted(self.hot.items()):
                fh.write(json.dumps({"hot": name, "calls": h.calls, "total_s": h.total_s,
                                     "run_id": self.run_id}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its direct children's durations and hot calls.

    Spans close in LIFO order on one stack (`Tracer.end`), so a span's direct
    children never overlap one another and lie inside it.
    """
    children_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children_s[s.parent] = children_s.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - children_s.get(s.id, 0.0) - s.hot_child_s for s in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + selfs[s.id]
    return out
