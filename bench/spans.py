"""Per-layer spans around the fibvar package's public functions.

The layers are the package modules.  Tracer.install() replaces every public
module-level function of each layer by a wrapper that records a span (name,
start, end, parent) while the tracer is active, and re-binds the wrapper
wherever another fibvar module imported the function by name
(``from .partitions import r_table``), so time a callee spends is charged to
the callee's layer and not to its caller.  Methods of the returned tables
(``CountTable.count``, ``MomentTable.v_at``) are not wrapped: they are
charged to whichever layer calls them.

A layer's self time is the duration of its spans minus the durations of their
child spans.  A tracer made with memory=True runs tracemalloc and keeps, for
the layers in MEMORY_LAYERS, the peak allocation above the level at span
entry; tracemalloc slows allocation-heavy layers several times over, so self
times are taken from a tracer without it.
"""

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("fibonacci", "partitions", "moments", "casework", "exact", "closed_form", "analysis", "cli")
MEMORY_LAYERS = frozenset({"partitions", "moments", "casework", "analysis", "cli"})


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.active = False
        self.self_s = Counter()
        self.calls = Counter()
        self.errors = Counter()
        self.peak_alloc = Counter()  # bytes
        self.counters = Counter()
        self._max_table = -1
        self._spans: list[list] = []  # [name, layer, start, end, parent index]
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []  # [base, peak seen]
        self._last_error = None
        self._restore: list[tuple[object, str, object]] = []

    # installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and re-bind them package-wide."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fibvar.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(obj, layer)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fibvar" or mod_name.startswith("fibvar."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._restore.append((module, name, obj))
                        setattr(module, name, wrapped[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not tracer._last_error:  # count it once, where it was raised
                    tracer._last_error = exc
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer._exit(idx, layer)
            tracer._count(name, layer, args, kwargs, result)
            return result

        return traced

    # spans --------------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> int:
        if self.memory and layer in MEMORY_LAYERS:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                outer = self._mem_stack[-1]
                outer[1] = max(outer[1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([current, current])
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, layer, time.perf_counter(), None, parent])
        self._stack.append(idx)
        self.calls[layer] += 1
        return idx

    def _exit(self, idx: int, layer: str) -> None:
        self._spans[idx][3] = time.perf_counter()
        self._stack.pop()
        if self.memory and layer in MEMORY_LAYERS:
            _, peak = tracemalloc.get_traced_memory()
            frame = self._mem_stack.pop()
            frame[1] = max(frame[1], peak)
            self.peak_alloc[layer] = max(self.peak_alloc[layer], frame[1] - frame[0])
            if self._mem_stack:
                outer = self._mem_stack[-1]
                outer[1] = max(outer[1], frame[1])
            tracemalloc.reset_peak()

    def _parent_layer(self) -> str | None:
        return self._spans[self._stack[-1]][1] if self._stack else None

    def _count(self, name: str, layer: str, args, kwargs, result) -> None:
        """Work counters taken at the span boundary, from arguments and results."""
        leaves_layer = self._parent_layer() != layer
        if name == "partitions.r_table":
            entries = result.h_max + 1
            self.counters["partitions.entries"] += entries
            self.counters["partitions.tables"] += 1
            if result.h_max <= self._max_table:
                self.counters["partitions.prefix_hits"] += 1
            self._max_table = max(self._max_table, result.h_max)
            if leaves_layer:
                self.counters["partitions.returned"] += entries
        elif name == "partitions.r" and leaves_layer:
            self.counters["partitions.returned"] += 1
        elif name == "partitions.check_carlitz" and leaves_layer:
            self.counters["partitions.returned"] += len(result)
        elif name == "partitions.check_sqrt_bound" and leaves_layer:
            self.counters["partitions.returned"] += _arg(args, kwargs, 0, "h_max") + 1
        elif name in ("casework.case_breakdown", "casework.count_window"):
            # every subset of F_2..F_m: computed from m, not counted inside the loop
            self.counters["casework.subset_sums"] += 2 ** (_arg(args, kwargs, 0, "m") - 1)
        elif name == "casework.w_bruteforce":
            m = _arg(args, kwargs, 0, "m")
            self.counters["casework.subset_sums"] += 2 ** (m - 4) + 2 ** (m - 5)

    def close_op(self) -> None:
        """Fold the spans of one finished operation into the per-layer self times."""
        child_time = [0.0] * len(self._spans)
        for _, _, start, end, parent in self._spans:
            if parent is not None:
                child_time[parent] += end - start
        for (_, layer, start, end, _), children in zip(self._spans, child_time):
            self.self_s[layer] += end - start - children
        self._spans.clear()
        self._last_error = None

    # phase control ------------------------------------------------------------

    def start(self) -> None:
        if self.memory:
            tracemalloc.start()

    def stop(self) -> None:
        self.active = False
        if self.memory:
            tracemalloc.stop()
