"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of the traced stagedtree
modules by a timing wrapper. It patches each module attribute that refers to
the original function, so names that one module imports from another
(``consensus`` calling ``learn``, ``cli`` calling ``run_bootstrap_consensus``)
are traced too, and calls inside a module go through the wrapper as well.

For every wrapped function the tracer keeps the call count, the inclusive
time (outermost calls only, so recursion is not counted twice) and the self
time: a call's duration minus the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
import types

TRACED_MODULES = ("dataset", "tree", "learning", "consensus", "aldag", "inference", "harness", "cli")
# Methods of Dataset that do work of their own.
DATASET_METHODS = ("select_columns", "take_rows")
# Entry points whose peak allocation is taken with tracemalloc in the
# allocation round; only the outermost one active at a time is measured.
ALLOC_KEYS = (
    "consensus.run_bootstrap_consensus",
    "inference.condition_hard",
    "inference.condition_soft",
    "inference.condition_virtual",
    "inference.run_query",
    "inference.mutual_information",
    "inference.whatif_sweep",
)


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, float] = {}
        self.alloc_peaks: dict[str, float] = {}
        self.measure_alloc = False
        self._alloc_active = False
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- bookkeeping -------------------------------------------------------
    def reset(self) -> None:
        """Zero every figure; wrappers keep their _Stat objects."""
        for stat in self.stats.values():
            stat.calls, stat.incl, stat.self_s = 0, 0.0, 0.0
        self.counters = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def snapshot(self) -> dict:
        return {
            "functions": {
                key: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self_s}
                for key, s in self.stats.items()
            },
            "counters": dict(self.counters),
        }

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        before, after = _ARGUMENT_HOOKS.get(key), _RESULT_HOOKS.get(key)
        signature = inspect.signature(fn) if before else None
        alloc = key in ALLOC_KEYS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, signature.bind(*args, **kwargs).arguments)
            children = [0.0]
            stack.append(children)
            stat.active += 1
            measure = alloc and self.measure_alloc and not self._alloc_active
            if measure:
                self._alloc_active = True
                tracemalloc.start()
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self._alloc_active = False
                    self.alloc_peaks[key] = max(self.alloc_peaks.get(key, 0.0), peak)
                stack.pop()
                stat.active -= 1
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                if stat.active == 0:
                    stat.incl += elapsed
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES, plus the CLI commands."""
        modules = {name: getattr(self.package, name) for name in TRACED_MODULES}
        originals: dict[int, tuple[str, object]] = {}
        for name, mod in modules.items():
            for attr, value in vars(mod).items():
                if isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                    if not attr.startswith("_") or (name == "cli" and attr.startswith("_cmd_")):
                        originals[id(value)] = (f"{name}.{attr}", value)
        wrappers = {
            ident: self._wrap(key, fn) for ident, (key, fn) in originals.items()
        }
        for mod in list(modules.values()) + [self.package]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        commands = modules["cli"]._COMMANDS
        for command, fn in list(commands.items()):
            if id(fn) in wrappers:
                self._patch_item(commands, command, wrappers[id(fn)])
        dataset_cls = modules["dataset"].Dataset
        for method in DATASET_METHODS:
            fn = vars(dataset_cls)[method]
            self._patch(dataset_cls, method, self._wrap(f"dataset.{method}", fn))

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value) -> None:
        self._patched.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patched = []


# -- work counters -----------------------------------------------------------
def _variable_score_hit(tracer, arguments):
    cache = arguments.get("cache")
    key = (int(arguments["var"]), tuple(sorted(int(v) for v in arguments["predecessors"])))
    if cache is not None and key in cache:
        tracer.add("learning.variable_score_hits", 1)


def _replicates(tracer, arguments):
    tracer.add("consensus.replicates", int(arguments["plan"].replicates))


def _contexts_staged(tracer, staging):
    tracer.add("learning.contexts_staged", int(staging.stage_of.size))


# Called with the bound arguments before the call.
_ARGUMENT_HOOKS = {
    "learning.variable_score": _variable_score_hit,
    "consensus.bootstrap_orders": _replicates,
    "consensus.run_bootstrap_consensus": _replicates,
}
# Called with the result after the call.
_RESULT_HOOKS = {
    "learning.bhc_stage_depth": _contexts_staged,
}
