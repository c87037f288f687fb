"""The decision sink, off while ``SINK`` is None.  A consumer sets it to a
callable, which each decision site calls as ``SINK(event, source, *details)``
once its operation completes (the contract: ``docs/architecture.md``,
"Telemetry").  It imports nothing, so every layer can reach it."""

SINK = None
