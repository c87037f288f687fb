"""The layers' cuts, read from the sources.

Each check parses a module and fails when a cut comes back: the sharded
directory reaching behind an index's listed surface, the kernel probing for
the directory or reaching into a scheduler (or a scheduler into the
kernel), the directory lifecycle written twice, a fleet-sized pass on the
request path.  Each finder is also run on the code it replaced, verbatim,
so it is known to catch it.
"""

import ast
import inspect

import pytest

from repro.cluster import DirectoryRouter, HierarchicalRouter, PrefixAffinityRouter
from repro.cluster import directory as directory_module
from repro.cluster import router as router_module
from repro.cluster import sharded_directory as sharded_module
from repro.engine import kernel as kernel_module
from repro.engine import schedulers as schedulers_module
from repro.tiering import secondary as secondary_module

# ----------------------------------------------------------------------
# Helpers: each takes a module or source text
# ----------------------------------------------------------------------
def parse(code) -> ast.Module:
    return ast.parse(code if isinstance(code, str) else inspect.getsource(code))


def function(code, *path):
    """The ``ast`` node of ``Class.method`` / ``function`` in ``code``."""
    scope = parse(code)
    for name in path:
        scope = next(
            node
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
    return scope


def calls(tree, name):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def definitions(*codes) -> list[str]:
    """Every def in ``codes``: ``Class.name`` for a method, else ``name``."""
    found = []
    for tree in map(parse, codes):
        owner = {
            id(node): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        found += [
            f"{owner[id(node)]}.{node.name}" if id(node) in owner else node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        ]
    return found


def comprehensions_over(tree, what):
    """Comprehensions and ``for`` loops in ``tree`` that iterate something
    mentioning ``what``."""
    found = []
    for node in ast.walk(tree):
        iters = []
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [generator.iter for generator in node.generators]
        elif isinstance(node, ast.For):
            iters = [node.iter]
        found += [ast.unparse(it) for it in iters if what in ast.unparse(it)]
    return found


# ----------------------------------------------------------------------
# The reach-around finders
# ----------------------------------------------------------------------
def reaches_behind_the_index(code) -> list[str]:
    """Every ``<anything but self>._x`` access and every
    ``PrefixDirectory(...)`` call: a shard's store is a ``PrefixIndex``
    driven through the surface its docstring lists."""
    found = []
    for node in ast.walk(parse(code)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and getattr(node.value, "id", None) != "self"
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PrefixDirectory":
            found.append(f"line {node.lineno}: builds a PrefixDirectory")
    return found


def kernel_probes_for_directory(code) -> list[str]:
    """Every ``getattr`` / ``hasattr`` naming the directory or its transport."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(parse(code))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("getattr", "hasattr")
        and any(
            word in ast.unparse(arg)
            for arg in node.args
            for word in ("directory", "connect_transport")
        )
    ]


CONCRETE_SCHEDULERS = {
    name
    for name, cls in vars(schedulers_module).items()
    if isinstance(cls, type) and issubclass(cls, schedulers_module.ReplicaScheduler)
} - {"ReplicaScheduler"}


def _mentions(node: ast.AST, word: str) -> bool:
    """Does any name or attribute inside ``node`` contain ``word``?"""
    return any(
        word in (getattr(sub, "id", "") + getattr(sub, "attr", ""))
        for sub in ast.walk(node)
    )


def scheduler_reaches_into_kernel(code) -> list[str]:
    """Every ``kernel._x`` / ``<expr>.kernel._x`` attribute access."""
    return [
        f"line {node.lineno}: kernel.{node.attr}"
        for node in ast.walk(parse(code))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and getattr(node.value, "id", getattr(node.value, "attr", None)) == "kernel"
    ]


def kernel_reaches_into_scheduler(code) -> list[str]:
    """Every ``isinstance(_, <concrete scheduler>)`` and every
    ``getattr`` / ``hasattr`` whose object names a scheduler."""
    found = []
    for node in ast.walk(parse(code)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "isinstance" and len(node.args) == 2:
            if any(_mentions(node.args[1], name) for name in CONCRETE_SCHEDULERS):
                found.append(f"line {node.lineno}: isinstance on a concrete scheduler")
        elif node.func.id in ("getattr", "hasattr") and node.args:
            if _mentions(node.args[0], "scheduler"):
                found.append(f"line {node.lineno}: {node.func.id} on a scheduler")
    return found


#: ``(finder, the module it guards, the code the cut replaced, what it finds there)``.
REACH_AROUNDS = {
    "sharded-directory-behind-the-index": (
        reaches_behind_the_index,
        sharded_module,
        "self.directory = PrefixDirectory()\n"
        "d._clear_replica(r)\n"
        "d.stats.resyncs += 1\n"
        "d._mark(r, path, data, depth, ckpt=has_ckpt)\n"
        "d._apply_path_op(kind, r, tokens, data, depth)\n"
        "self._tracked.add(replica)\n",
        4,
    ),
    "kernel-getattr-for-the-directory": (
        kernel_probes_for_directory,
        kernel_module,
        "directory = getattr(self.router, 'directory', None)\n"
        "connect = getattr(directory, 'connect_transport', None)\n"
        "tree = getattr(cache, 'tree', None)\n",
        2,
    ),
    "scheduler-into-the-kernel": (
        scheduler_reaches_into_kernel,
        schedulers_module,
        "if kernel._pending_splits:\n"
        "    self.kernel._active_sessions[id(session)] = entry\n"
        "self._track_active = kernel._track_active\n"
        "kernel.busy_seconds[self.replica] += seconds\n",
        3,
    ),
    "kernel-into-a-scheduler": (
        kernel_reaches_into_scheduler,
        kernel_module,
        "split = isinstance(spec, SplitSpec) and isinstance(\n"
        "    self.schedulers[replica], ContinuousBatchingScheduler)\n"
        "if isinstance(scheduler, (TokenBatchingScheduler, int)): pass\n"
        "queue = getattr(scheduler, 'queue', None)\n"
        "if hasattr(self.schedulers[replica], 'free_slots'): pass\n"
        "tree = getattr(self.caches[0], 'tree', None)\n",
        4,
    ),
}


class TestNoReachAround:
    @pytest.mark.parametrize("cut", sorted(REACH_AROUNDS))
    def test_the_module_stays_on_its_side(self, cut):
        finder, module, _, _ = REACH_AROUNDS[cut]
        assert finder(module) == []

    @pytest.mark.parametrize("cut", sorted(REACH_AROUNDS))
    def test_the_finder_catches_what_the_cut_replaced(self, cut):
        finder, _, old, found = REACH_AROUNDS[cut]
        assert len(finder(old)) == found

    def test_lifecycle_is_written_once_and_truncation_has_no_op_of_its_own(self):
        names = [q.rsplit(".", 1)[-1] for q in definitions(directory_module, sharded_module)]
        for name in ("attach", "detach", "tracked", "replicas", "close"):
            assert names.count(name) == 1, f"def {name} x{names.count(name)}"
        assert "_truncate" not in names
        for module in (directory_module, sharded_module):
            assert not hasattr(module, "_TRUNCATE")


class TestNoFleetSizedPassPerRequest:
    """PR 24 took the kernel's per-request load-list rebuild, the router's
    dense hit scan and the second tier's per-length re-serialization off the
    request path; these fail when one comes back."""

    def test_loads_is_not_rebuilt_from_the_schedulers(self):
        loads = function(kernel_module, "SimulationKernel", "loads")
        assert comprehensions_over(loads, "schedulers") == []
        assert not calls(loads, "_routable")

    def test_one_selection_body_and_no_dense_scan(self):
        selects = [q for q in definitions(router_module) if q.endswith("._select")]
        assert selects == ["PrefixAffinityRouter._select"]
        select = function(router_module, "PrefixAffinityRouter", "_select")
        assert "range(len(hits))" not in ast.unparse(select)
        # The three prefix routers share it (DirectoryRouter and
        # HierarchicalRouter only say where it applies).
        for cls in (DirectoryRouter, HierarchicalRouter):
            assert cls._select is PrefixAffinityRouter._select
        # _bind's per-request part is the identity check before its early
        # return, with no pass over ``caches``; the id compare and the
        # attach loop below it run when the fleet changed.
        bind = function(router_module, "PrefixAffinityRouter", "_bind")
        first_return = next(i for i, stmt in enumerate(bind.body) if "return" in ast.unparse(stmt))
        check = ast.Module(body=bind.body[: first_return + 1], type_ignores=[])
        assert comprehensions_over(check, "caches") == [] and not calls(check, "map")
        assert "caches is self._bound" in ast.unparse(check)

    def test_synchronous_ingest_applies_past_region_ops_on_the_owner_alone(self):
        ingest = function(sharded_module, "ShardedPrefixDirectory", "_ingest")
        guarded = [
            node
            for node in ast.walk(ingest)
            if isinstance(node, ast.If)
            and "owner_only" in ast.unparse(node.test)
            and calls(node, "_apply")
        ]
        assert len(guarded) == len(calls(ingest, "_apply")) == 1
        assert "owner_only = self._past_region(update.kind, update.depth)" in ast.unparse(ingest)

    @staticmethod
    def serializers(code) -> list[str]:
        return [
            node.name
            for node in ast.walk(parse(code))
            if isinstance(node, ast.FunctionDef) and calls(node, "tobytes")
        ]

    def test_secondary_store_serializes_only_where_it_stores(self):
        assert self.serializers(secondary_module) == ["insert"]

    def test_the_checks_catch_what_they_replaced(self):
        """The parent's bodies, verbatim."""
        old_loads = parse(
            "def loads(self):\n"
            "    if not self.scenario:\n"
            "        return [s.queue_depth + s.n_running for s in self.schedulers]\n"
            "    return [(s.queue_depth + s.n_running) if self._routable(i) else DEAD_LOAD\n"
            "            for i, s in enumerate(self.schedulers)]\n"
        )
        assert len(comprehensions_over(old_loads, "schedulers")) == 2
        assert len(calls(old_loads, "_routable")) == 1
        old_bind = parse("ids = [id(cache) for cache in caches]")
        assert comprehensions_over(old_bind, "caches") == ["caches"]
        assert self.serializers(
            "def longest_match(self, tokens):\n"
            "    entry = bucket.get(arr[:length].tobytes())\n"
            "def _evict_until(self):\n"
            "    entries = [e for e in self.iter_entries() if e.tokens.tobytes() != protect]\n"
        ) == ["longest_match", "_evict_until"]
