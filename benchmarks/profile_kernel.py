"""Profiling harness for the simulation kernel's hot paths.

Replays a trace through :class:`SimulationKernel` (``max_running=1``) under
two complementary profilers, entirely from the standard library.
``--workload lmsys`` (the default) is the exact ``BENCH_kernel.json`` trace
(120 sessions, seed 37, a 24-state cache: eviction-heavy, short inputs);
``--workload swebench`` is ``bench_e2e``'s ``cache_reuse`` shape (long
multi-round histories against a cache that never evicts: deep matches, long
inserts and token materialization).  Every run replays a freshly generated
trace, as ``bench_e2e`` does per repetition, so what a session pays on first
use (building its token buffer) is inside the profile rather than in a
warm-up; generation itself is outside the sampled and timed window.

* **cProfile** — exact call counts and per-function cumulative times,
  printed as a top-N table and optionally dumped to a ``.prof`` file for
  ``pstats``/``snakeviz``-style consumers.  Remember that cProfile's
  tracing overhead is proportional to call count (2-4x on this
  call-dense workload), so use it for *ranking*, not absolute walls.
* **a stack sampler** — a background thread walks the benchmark
  thread's frame stack via ``sys._current_frames()`` on a ~1 ms tick
  and folds the samples into a flamegraph SVG (self-contained, zoomable
  by browser text search, hover for exact sample counts).  Sampling
  adds negligible bias, so widths reflect real wall time.

Usage (CI runs exactly these)::

    PYTHONPATH=src python benchmarks/profile_kernel.py \
        --repeats 30 --svg flamegraph.svg --cprofile kernel.prof
    PYTHONPATH=src python benchmarks/profile_kernel.py \
        --workload swebench --repeats 10 --svg flamegraph-swebench.svg

The run also prints the measured events/s (of the lmsys trace:
``kernel_events_per_second`` in ``benchmarks/out/BENCH_kernel.json``).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import threading
import time
from collections import Counter
from html import escape
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.cache import MarconiCache  # noqa: E402
from repro.engine.kernel import KernelConfig, SimulationKernel  # noqa: E402
from repro.models.memory import node_state_bytes  # noqa: E402
from repro.models.presets import hybrid_7b  # noqa: E402
from repro.workloads.registry import generate_trace  # noqa: E402
from repro.workloads.trace import Trace  # noqa: E402

MODEL = hybrid_7b()

#: workload -> (trace recipe, cache capacity in 2000-token states).
WORKLOADS = {
    "lmsys": (dict(n_sessions=120, session_rate=3.0, mean_think_s=2.0, seed=37), 24),
    "swebench": (dict(n_sessions=150, session_rate=0.2, seed=37), 1 << 20),
}


def _fresh_run(workload: str) -> tuple[SimulationKernel, Trace]:
    """A new kernel over a new cache, and a newly generated trace (nothing
    about it interned yet)."""
    recipe, states = WORKLOADS[workload]
    cache = MarconiCache(MODEL, states * node_state_bytes(MODEL, 2000, True), alpha=1.0)
    kernel = SimulationKernel(
        MODEL, [cache], config=KernelConfig(max_running=1), policy_names=["kernel"]
    )
    return kernel, generate_trace(workload, **recipe)


# ----------------------------------------------------------------------
# Stack sampler -> folded stacks
# ----------------------------------------------------------------------
class StackSampler(threading.Thread):
    """Samples one thread's Python stack on a fixed tick while ``active``."""

    def __init__(self, target_thread_id: int, interval_s: float = 0.001) -> None:
        super().__init__(daemon=True)
        self._target = target_thread_id
        self._interval = interval_s
        self._halt = threading.Event()
        self.active = False
        self.samples: Counter[tuple[str, ...]] = Counter()

    def run(self) -> None:
        while not self._halt.is_set():
            frame = sys._current_frames().get(self._target) if self.active else None
            if frame is not None:
                stack = []
                while frame is not None:
                    code = frame.f_code
                    stack.append(
                        f"{code.co_name} ({Path(code.co_filename).name}"
                        f":{code.co_firstlineno})"
                    )
                    frame = frame.f_back
                self.samples[tuple(reversed(stack))] += 1
            time.sleep(self._interval)

    def stop(self) -> None:
        self._halt.set()
        self.join()


# ----------------------------------------------------------------------
# Folded stacks -> flamegraph SVG
# ----------------------------------------------------------------------
_PALETTE = ["#e4593b", "#e8743d", "#ec8f40", "#f0a942", "#f4c445", "#d8553a"]
_ROW_H = 17
_WIDTH = 1200
_MIN_W = 0.4  # px: drop slivers below this


def _build_tree(samples: Counter) -> dict:
    root: dict = {"name": "all", "count": 0, "children": {}}
    for stack, count in samples.items():
        root["count"] += count
        node = root
        for frame in stack:
            child = node["children"].get(frame)
            if child is None:
                child = node["children"][frame] = {
                    "name": frame,
                    "count": 0,
                    "children": {},
                }
            child["count"] += count
            node = child
    return root


def _render(node: dict, x: float, depth: int, total: int, out: list[str]) -> int:
    width = _WIDTH * node["count"] / total
    max_depth = depth
    if width >= _MIN_W:
        color = _PALETTE[hash(node["name"]) % len(_PALETTE)]
        y = depth * _ROW_H
        pct = 100.0 * node["count"] / total
        label = escape(node["name"])
        out.append(
            f'<g><title>{label} — {node["count"]} samples ({pct:.1f}%)</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{width:.2f}" height="{_ROW_H - 1}"'
            f' fill="{color}" rx="1"/>'
        )
        if width > 40:
            text = escape(node["name"][: max(3, int(width / 6.5))])
            out.append(
                f'<text x="{x + 2:.2f}" y="{y + 12}" font-size="10"'
                f' font-family="monospace" fill="#1a1a1a">{text}</text>'
            )
        out.append("</g>")
        child_x = x
        for child in sorted(
            node["children"].values(), key=lambda c: -c["count"]
        ):
            max_depth = max(
                max_depth, _render(child, child_x, depth + 1, total, out)
            )
            child_x += _WIDTH * child["count"] / total
    return max_depth


def write_flamegraph(samples: Counter, path: Path) -> None:
    if not samples:
        path.write_text(
            '<svg xmlns="http://www.w3.org/2000/svg" width="600" height="40">'
            '<text x="10" y="25">no samples collected (run too short — '
            "raise --repeats)</text></svg>"
        )
        return
    root = _build_tree(samples)
    body: list[str] = []
    max_depth = _render(root, 0.0, 0, root["count"], body)
    height = (max_depth + 2) * _ROW_H
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" font-family="sans-serif">',
        f'<rect width="{_WIDTH}" height="{height}" fill="#fdf6ec"/>',
        *body,
        "</svg>",
    ]
    path.write_text("\n".join(svg))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=30,
        help="kernel runs inside the sampled window (default 30; one lmsys "
        "run is ~35 ms, so 30 gives ~1000 flamegraph samples)",
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        default="lmsys",
        help="trace to replay (default lmsys, the BENCH_kernel.json trace)",
    )
    parser.add_argument(
        "--svg",
        type=Path,
        default=REPO_ROOT / "flamegraph.svg",
        help="flamegraph output path (default repo-root flamegraph.svg)",
    )
    parser.add_argument(
        "--cprofile",
        type=Path,
        default=None,
        help="optional path to dump raw cProfile stats (.prof)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="rows in the printed cProfile table (default 25)",
    )
    args = parser.parse_args(argv)

    # Warmup: imports, numpy init, lazily built tables.
    kernel, trace = _fresh_run(args.workload)
    run = kernel.run(trace)

    # --- timed + sampled window ---------------------------------------
    sampler = StackSampler(threading.get_ident())
    sampler.start()
    walls = []
    for _ in range(args.repeats):
        kernel, trace = _fresh_run(args.workload)
        sampler.active = True
        t0 = time.perf_counter()
        kernel.run(trace)
        walls.append(time.perf_counter() - t0)
        sampler.active = False
    sampler.stop()
    best = min(walls)
    print(
        f"{args.workload}: {run.n_events} events: best {1e3 * best:.2f} ms over "
        f"{args.repeats} runs -> {run.n_events / best:,.0f} events/s"
    )

    write_flamegraph(sampler.samples, args.svg)
    n_samples = sum(sampler.samples.values())
    print(f"flamegraph: {args.svg} ({n_samples} stack samples)")

    # --- cProfile pass (separate window: tracing skews walls) ---------
    kernel, trace = _fresh_run(args.workload)
    profiler = cProfile.Profile()
    profiler.enable()
    kernel.run(trace)
    profiler.disable()
    if args.cprofile is not None:
        profiler.dump_stats(args.cprofile)
        print(f"cProfile dump: {args.cprofile}")
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf).sort_stats("tottime")
    stats.print_stats(args.top)
    print(buf.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
