"""End-to-end benchmark of the Marconi reproduction (see ``README.md``).

Four workloads, each in its own process; end-to-end numbers from untraced
repetitions, per-layer numbers from a separate traced run that wraps the
layers' public callables from this package only.  Entry points:
``bench_e2e/run.py`` (the ``BENCHMARK.json`` command) and
``python -m bench_e2e.repeat``.
"""
