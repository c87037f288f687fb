"""Serve-steps backends the gateway suites share."""

from __future__ import annotations

from repro.serving import CacheOnlyServer


class PassThroughServer(CacheOnlyServer):
    """``CacheOnlyServer`` behind a generator that forwards every step: the
    step loop sees no ``silent`` and sweeps it one step at a time."""

    def serve_steps(self, *args, **kwargs):
        inner = super().serve_steps(*args, **kwargs)

        def forward():
            try:
                return (yield from inner)
            finally:
                inner.close()

        return forward()
