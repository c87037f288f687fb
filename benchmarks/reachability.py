"""Function-entry census: which ``src/repro`` functions do the entry points enter?

``python -m benchmarks.reachability [COMMAND ...]`` runs COMMAND, or ENTRY_POINTS (~12 min),
with a generated ``sitecustomize`` first on ``PYTHONPATH``: every process started (sweep
workers and ``bench_e2e``'s per-workload runs too) logs the ``(file, co_firstlineno)`` of
each ``src/repro`` code object it enters (``sys.setprofile`` / ``threading.setprofile``
``call`` events), matched to a def by its first decorator's line or its own.  Prints the
unreached ``file::qualname``s, then unreached / all lines per file.
"""

import ast
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
_CLI = (sys.executable, "-m", "repro.experiments")
_E2E = (sys.executable, "bench_e2e/run.py", "--seconds", "1", "--scale", "0.25", "--trace")
ENTRY_POINTS = [
    (*_CLI, "--all", "--scale", "smoke"), (*_CLI, "--list"), (*_CLI, "--taxonomy", "lmsys"),
    (*_CLI, "--gen-trace", "lmsys", "--sessions", "20", "--out", "{tmp}/built.jsonl"),
    (*_CLI, "--sweep", "sharegpt", "--scale", "smoke", "--workers", "2",
     "--out", "{tmp}/sweep.json"),
    (*_CLI, "--headroom", "sharegpt", "--scale", "smoke"),
    (*_CLI, "--headroom", "sharegpt", "--victims", "--scale", "smoke"),
    (*_E2E, "0"), (*_E2E, "1"),
    *((sys.executable, str(path)) for path in sorted(ROOT.glob("examples/[!_]*.py"))),
]
_HOOK = """import os, sys, threading
def profile(frame, event, arg, seen=set()):
    key = event == "call" and (frame.f_code.co_filename, frame.f_code.co_firstlineno)
    if key and key not in seen:
        seen.add(key)  # a forked worker inherits this set and logs to its own file
        if key[0].startswith({src!r}):
            with open(os.path.join({log!r}, str(os.getpid())), "a") as log:
                log.write("%s\\t%d\\n" % key)
sys.setprofile(profile)
threading.setprofile(profile)
"""


def definitions(node: ast.AST | None = None, path: Path = SRC, prefix: str = "") -> dict:
    """``(file, first line) -> (file::qualname, def line to last line)`` of every def."""
    if node is None:
        return {k: v for p in sorted(SRC.rglob("*.py"))
                for k, v in definitions(ast.parse(p.read_text()), p).items()}
    defs = {}
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}{child.name}." if hasattr(child, "decorator_list") else prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[str(path), (child.decorator_list or [child])[0].lineno] = (
                f"{path.relative_to(SRC)}::{name[:-1]}", child.end_lineno - child.lineno + 1)
        defs.update(definitions(child, path, name))
    return defs


def unreached(commands) -> list[tuple[str, int]]:
    """``(file::qualname, function lines)`` of every def no command enters."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(_HOOK.format(src=str(SRC), log=tmp))
        env = dict(os.environ, REPRO_EXAMPLES_FAST="1",
                   PYTHONPATH=os.pathsep.join((tmp, str(SRC.parent))))
        for argv in ([arg.format(tmp=tmp) for arg in command] for command in commands):
            subprocess.run(argv, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
        reached = {(f, int(n)) for p in Path(tmp).glob("[0-9]*")
                   for f, n in (line.split("\t") for line in p.read_text().splitlines())}
    return [entry for key, entry in definitions().items() if key not in reached]


if __name__ == "__main__":
    missed = sorted(unreached([sys.argv[1:]] if sys.argv[1:] else ENTRY_POINTS))
    total, lost = Counter(), Counter()
    for counter, entries in ((total, definitions().values()), (lost, missed)):
        for name, lines in entries:
            counter[name.split("::")[0]] += lines
    print(*(name for name, _ in missed), sep="\n")
    print(*(f"{file:<40} {lost[file]:>5} / {total[file]}" for file in sorted(total)), sep="\n")
    print(f"unreached: {len(missed)} defs, {sum(lost.values())} of {sum(total.values())} lines")
