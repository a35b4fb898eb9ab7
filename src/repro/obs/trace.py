"""Per-op span tracing in simulated time.

A :class:`Tracer` hangs off ``Simulator.tracer`` (``None`` when tracing
is off — the engine and every instrumentation site guard on that, so an
untraced run executes no observability code beyond a ``None`` check).
Spans form trees: every simulated process carries a "current span"
context that the engine saves/restores across suspensions, exactly like
task-local state in an async runtime.  Because span bookkeeping never
creates events or timeouts, enabling tracing cannot perturb simulated
timings — traced and untraced runs are timing-identical by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "install_tracer",
    "uninstall_tracer",
    "traced_op",
]

class Span:
    """One timed interval in an op's life, in simulated microseconds."""

    __slots__ = (
        "sid", "parent", "name", "node", "op", "start", "end",
        "nbytes", "outcome", "attrs", "late",
    )

    def __init__(self, sid: int, parent: Optional["Span"], name: str,
                 node: Optional[int], op: Optional[int], start: float,
                 nbytes: int, attrs: Optional[Dict[str, Any]]):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.node = node
        self.op = op
        self.start = start
        self.end: Optional[float] = None
        self.nbytes = nbytes
        self.outcome: Optional[str] = None
        self.attrs = attrs
        # True if this span finished after its parent already ended
        # (e.g. a transport retry outliving a LITE-level retried op).
        self.late = False

    @property
    def duration(self) -> Optional[float]:
        """Span length in simulated us, or None if unfinished."""
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        dur = "?" if self.end is None else f"{self.end - self.start:.3f}"
        return f"Span({self.sid} {self.name} @{self.node} {dur}us {self.outcome})"


class Tracer:
    """Records a forest of spans against the simulator clock."""

    __slots__ = ("sim", "spans", "current", "_sid_counter", "_op_counter")

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Span] = []
        # Span the running process is currently inside (task-local; the
        # engine swaps it on every process suspend/resume).
        self.current: Optional[Span] = None
        self._sid_counter = 0
        self._op_counter = 0

    # -- span lifecycle -------------------------------------------------

    def begin(self, name: str, node: Optional[int] = None, nbytes: int = 0,
              **attrs: Any) -> Span:
        """Open a child of the current span and make it current."""
        parent = self.current
        self._sid_counter += 1
        span = Span(
            self._sid_counter, parent, name,
            node if node is not None else (parent.node if parent else None),
            parent.op if parent is not None else None,
            self.sim.now, nbytes, attrs or None,
        )
        self.spans.append(span)
        self.current = span
        return span

    def begin_op(self, name: str, node: Optional[int] = None,
                 nbytes: int = 0, **attrs: Any) -> Span:
        """Open a top-level op span (fresh op id)."""
        span = self.begin(name, node=node, nbytes=nbytes, **attrs)
        self._op_counter += 1
        span.op = self._op_counter
        return span

    def end(self, span: Span, outcome: str = "ok") -> Span:
        """Close ``span`` and pop it from the current-context chain."""
        span.end = self.sim.now
        span.outcome = outcome
        parent = span.parent
        if parent is not None and parent.end is not None \
                and parent.end < span.end:
            span.late = True
        # Restore context.  Normally span IS current; after an exception
        # unwound inner spans without ending them, walk up from current
        # to find it, leaving the skipped spans unfinished.
        node = self.current
        while node is not None:
            if node is span:
                self.current = span.parent
                break
            node = node.parent
        return span

    def instant(self, name: str, node: Optional[int] = None, nbytes: int = 0,
                **attrs: Any) -> Span:
        """Record a zero-width marker (never becomes current)."""
        parent = self.current
        self._sid_counter += 1
        now = self.sim.now
        span = Span(
            self._sid_counter, parent, name,
            node if node is not None else (parent.node if parent else None),
            parent.op if parent is not None else None,
            now, nbytes, attrs or None,
        )
        span.end = now
        span.outcome = "ok"
        self.spans.append(span)
        return span

    def interval(self, name: str, start: float, end: float,
                 node: Optional[int] = None, nbytes: int = 0,
                 parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Record an already-elapsed interval (e.g. the DMA tail of an
        RNIC pipeline occupancy) without touching the current context."""
        if parent is None:
            parent = self.current
        self._sid_counter += 1
        span = Span(
            self._sid_counter, parent, name,
            node if node is not None else (parent.node if parent else None),
            parent.op if parent is not None else None,
            start, nbytes, attrs or None,
        )
        span.end = end
        span.outcome = "ok"
        if parent is not None and parent.end is not None and parent.end < end:
            span.late = True
        self.spans.append(span)
        return span

    # -- queries --------------------------------------------------------

    def op_roots(self) -> List[Span]:
        """All top-level ``op.*`` spans, in start order."""
        return [s for s in self.spans if s.name.startswith("op.")]

    def children_index(self) -> Dict[Optional[int], List[Span]]:
        """Map parent sid -> children (None key = roots)."""
        index: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            key = span.parent.sid if span.parent is not None else None
            index.setdefault(key, []).append(span)
        return index


def install_tracer(cluster):
    """Attach a Tracer to ``cluster`` and return it.  Also points each
    node's HostMemory at the tracer so allocation markers can be
    recorded."""
    tracer = Tracer(cluster.sim)
    cluster.sim.tracer = tracer
    for node in cluster.nodes:
        node.memory.tracer = tracer
    return tracer


def uninstall_tracer(cluster):
    """Detach and return the cluster's tracer (None if none installed)."""
    tracer = cluster.sim.tracer
    cluster.sim.tracer = None
    for node in cluster.nodes:
        node.memory.tracer = None
    return tracer


def traced_op(name: str, nbytes: Optional[Callable[..., int]] = None):
    """Decorate a LiteContext generator-method as a top-level traced op.

    With tracing off the wrapper returns the raw generator — one extra
    function call, no other work.  ``nbytes`` maps the call's positional
    args to a byte count for the span.
    """

    def decorate(fn):
        def _run_traced(tracer, self, args, kwargs):
            count = 0
            if nbytes is not None:
                try:
                    count = nbytes(args)
                except Exception:
                    count = 0
            span = tracer.begin_op(
                name, node=self.kernel.lite_id, nbytes=count
            )
            try:
                result = yield from fn(self, *args, **kwargs)
            except BaseException as exc:
                tracer.end(span, outcome="err:" + type(exc).__name__)
                raise
            tracer.end(span)
            return result

        def wrapper(self, *args, **kwargs):
            tracer = self.kernel.sim.tracer
            if tracer is None:
                return fn(self, *args, **kwargs)
            return _run_traced(tracer, self, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate
