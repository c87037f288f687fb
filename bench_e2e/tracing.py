"""Outside-in tracing: spans around the layers' public callables.

Nothing under ``src/`` knows it is being traced.  For the traced run only,
:func:`tracing` replaces public methods (``RadixTree.match``,
``EventQueue.pop_entry``, ``DirectoryRouter.decide`` ...) with wrappers that
record a span, wraps the ``TreeObserver`` a directory registers through
``PrefixCache.add_tree_observer``, and wraps the ``serve_steps`` generator;
leaving the ``with`` block restores every original.  A span is a name, a
start, an end, the span that caused it (the innermost open span) and the
trace round ``(session_id, round_index)`` it worked for.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from bench_e2e.harness import self_times

Round = Optional[tuple[int, int]]

#: Spans that delimit one traced repetition; only their descendants are
#: attributed to layers (set-up and post-run checks fall outside).
ROOTS = ("engine.kernel.run", "serving.gateway.loop")

_OBSERVER_CALLBACKS = (
    "on_node_added",
    "on_edge_split",
    "on_leaf_removed",
    "on_merged",
    "on_leaf_truncated",
    "on_checkpoint_changed",
    "on_pin_changed",
    "on_touched",
    "on_tree_attached",
)


class Tracer:
    """In-memory span recorder for one single-threaded traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[Round] = []
        self.round: Round = None  # round of the event being dispatched
        self.token_rounds: dict[int, tuple[int, int]] = {}  # id(tokens) -> round
        self._stack: list[int] = []

    def tag(self, tokens: Any, round_id: tuple[int, int]) -> None:
        """Remember which round ``tokens`` (by identity) belongs to."""
        self.token_rounds[id(tokens)] = round_id

    def _open(self, name: str, round_id: Round) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(round_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, tokens_arg: Optional[int] = None) -> Callable:
        """``fn`` recording one span per call.  ``tokens_arg`` names the
        positional argument holding the request's tokens, for callables
        that serve a round other than the one being dispatched."""
        token_rounds = self.token_rounds

        def traced(*args: Any, **kwargs: Any) -> Any:
            round_id = self.round
            if tokens_arg is not None:
                round_id = token_rounds.get(id(args[tokens_arg]), round_id)
            index = self._open(name, round_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name, self.round)
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------------
    # Special wrappers
    # ------------------------------------------------------------------
    def wrap_pop_entry(self, original: Callable) -> Callable:
        """``EventQueue.pop_entry`` that also makes the popped event's
        request the current round: everything the kernel does until the
        next pop was caused by this event."""
        from repro.engine.events import ENTRY_PAYLOAD

        inner = self.wrap("engine.events.pop", original)

        def pop_entry(queue: Any) -> tuple:
            index = len(self.rounds)
            entry = inner(queue)
            payload = entry[ENTRY_PAYLOAD]
            request = getattr(payload, "request", payload)
            session_id = getattr(request, "session_id", None)
            if session_id is None:  # scenario control, directory gossip
                self.round = None
            else:
                self.round = (session_id, request.round_index)
                self.token_rounds[id(request.input_tokens)] = self.round
            self.rounds[index] = self.round
            return entry

        return pop_entry

    def wrap_serve_steps(self, original: Callable) -> Callable:
        """``serve_steps`` whose generator records one span per step (the
        time inside the server between two loop yields)."""

        def serve_steps(server: Any, input_tokens: Any, *args: Any, **kwargs: Any):
            steps = original(server, input_tokens, *args, **kwargs)
            step = self.wrap("serving.server.serve", steps.__next__)
            self.round = self.token_rounds.get(id(input_tokens))
            try:
                while True:
                    try:
                        token = step()
                    except StopIteration as stop:
                        return stop.value
                    yield token
                    self.round = self.token_rounds.get(id(input_tokens))
            finally:
                steps.close()

        return serve_steps

    def wrap_observer(self, name: str, inner: Any) -> Any:
        from repro.core.radix_tree import TreeObserver

        proxy = TreeObserver()
        for callback in _OBSERVER_CALLBACKS:
            bound = getattr(inner, callback, None)
            if bound is not None:
                setattr(proxy, callback, self.wrap(name, bound))
        return proxy

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over the spans under a root."""
        selfs = self_times(self.starts, self.ends, self.parents)
        under_root = [False] * len(self.names)
        totals: dict[str, tuple[int, float]] = {}
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            under_root[i] = under_root[parent] if parent >= 0 else name in ROOTS
            if under_root[i]:
                calls, seconds = totals.get(name, (0, 0.0))
                totals[name] = (calls + 1, seconds + selfs[i])
        return totals

    def write_jsonl(self, path: Path) -> None:
        """One span per line, in start order; ``parent`` is a line index."""
        with path.open("w") as out:
            for i, name in enumerate(self.names):
                record = {
                    "name": name,
                    "start": self.starts[i],
                    "end": self.ends[i],
                    "parent": self.parents[i],
                    "round": self.rounds[i],
                }
                out.write(json.dumps(record) + "\n")


def _patch_table(tracer: Tracer) -> list[tuple[Any, str, Callable[[Callable], Callable]]]:
    """``(owner, attribute, wrapper factory)`` for every traced callable."""
    from repro.cluster import router as router_module
    from repro.cluster.router import DirectoryRouter
    from repro.cluster.sharded_directory import ShardedPrefixDirectory
    from repro.core.eviction import EvictionPolicy
    from repro.core.interfaces import PrefixCache, RequestSession
    from repro.core.radix_tree import RadixTree
    from repro.core.tokens import TokenSeq
    from repro.engine.events import EventQueue
    from repro.engine.kernel import SimulationKernel
    from repro.engine.latency import LatencyModel
    from repro.serving.replay import CacheOnlyServer
    from repro.tiering import TieredMarconiCache

    def span(name: str, tokens_arg: Optional[int] = None):
        return lambda fn: tracer.wrap(name, fn, tokens_arg)

    observers: dict[int, Any] = {}  # id(registered observer) -> its traced proxy

    def add_tree_observer(original: Callable) -> Callable:
        def add(cache: Any, observer: Any) -> bool:
            proxy = tracer.wrap_observer("cluster.sharded_directory.update", observer)
            observers[id(observer)] = proxy
            return original(cache, proxy)

        return add

    def remove_tree_observer(original: Callable) -> Callable:
        def remove(cache: Any, observer: Any) -> None:
            original(cache, observers.get(id(observer), observer))

        return remove

    table = [
        (TokenSeq, "__init__", span("core.tokens.intern")),
        (TokenSeq, "of", span("core.tokens.intern")),
        (TokenSeq, "tobytes", span("core.tokens.intern")),
        (TokenSeq, "prefix_hash", span("core.tokens.hash")),
        (RadixTree, "match", span("core.radix_tree.match")),
        (RadixTree, "insert", span("core.radix_tree.insert")),
        (PrefixCache, "begin", span("core.cache.begin", tokens_arg=1)),
        (RequestSession, "commit", span("core.cache.commit")),
        (RequestSession, "abort", span("core.cache.abort")),
        (PrefixCache, "add_tree_observer", add_tree_observer),
        (PrefixCache, "remove_tree_observer", remove_tree_observer),
        (TieredMarconiCache, "receive_state_transfer", span("tiering.receive")),
        (EventQueue, "push", span("engine.events.push")),
        (EventQueue, "pop_entry", tracer.wrap_pop_entry),
        (SimulationKernel, "run", span("engine.kernel.run")),
        (LatencyModel, "prefill_seconds", span("engine.latency.prefill")),
        (LatencyModel, "prefill_seconds_batch", span("engine.latency.prefill")),
        (router_module, "plan_split", span("engine.steering.plan")),
        (DirectoryRouter, "decide", span("cluster.router.decide")),
        (ShardedPrefixDirectory, "lookup", span("cluster.sharded_directory.lookup")),
        (CacheOnlyServer, "serve_steps", tracer.wrap_serve_steps),
    ]
    # Concrete policies override the selector, so patch each definition.
    pending = [EvictionPolicy]
    while pending:
        policy = pending.pop()
        pending.extend(policy.__subclasses__())
        if "select_from_index" in vars(policy):
            table.append((policy, "select_from_index", span("core.eviction.select")))
    return table


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install the span wrappers; restore every original on exit."""
    tracer = Tracer()
    originals: list[tuple[Any, str, Any]] = []
    try:
        for owner, attribute, factory in _patch_table(tracer):
            raw = vars(owner)[attribute]
            originals.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(factory(raw.__func__))
            else:
                replacement = factory(raw)
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, raw in originals:
            setattr(owner, attribute, raw)


def patched_attributes() -> list[tuple[Any, str]]:
    """Every ``(owner, attribute)`` :func:`tracing` replaces (for tests)."""
    return [(owner, attribute) for owner, attribute, _ in _patch_table(Tracer())]
