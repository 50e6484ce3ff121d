"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the logbg package at the names
their callers look them up by (module globals and class attributes), so
nothing under src/ changes.  Every call becomes one span: a name id, a
start and end time (perf_counter_ns) and the index of the enclosing
span.  Spans are appended to flat arrays in memory and written out once
the run ends; self times are computed afterwards from the span tree.

A span name is "<layer>.<function>@<site>", where <layer> is the module
that defines the function and <site> the module whose binding was
wrapped: bg.full_report@search is a re-verification called from the
search, bg.full_report@cli a report command.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "logbg"

# Functions that are timed, by defining module.  Modules and names the
# package does not have are skipped, so a refactor that removes one only
# zeroes its counts.  "Class.method" wraps the method on the class.
TARGETS = {
    "cli": ("main",),
    "search": ("enumerate_pn", "enumerate_hypersurface",
               "pn_modes_closed_form", "hyp_modes_closed_form",
               "partitions_with_sum_at_most"),
    "bg": ("full_report", "check_equality_n", "check_equality_n_plus_1",
           "discriminant", "evaluate_pair"),
    "logchern": ("log_c1", "log_c2", "LogPair.__init__"),
    "chow": ("mul", "pair_with_polarization", "CycleClass.__post_init__"),
    "models": ("tangent_chern", "is_nef"),
    "serialize": ("parse_document", "report_record", "case_record",
                  "dump_record"),
    "fixtures": ("all_fixtures",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.generated = 0  # items yielded by wrapped generator functions
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap_call(self, fn, nid: int):
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()

        return traced

    def _wrap_generator(self, fn, nid: int):
        """One span per item the generator yields (and one for the final
        StopIteration): generation interleaves with its caller's loop."""
        tracer = self
        next_item = self._wrap_call(next, nid)

        class TracedIterator:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                item = next_item(self.it)
                tracer.generated += 1
                return item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding inside the package."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or
                                         name.startswith(PACKAGE + "."))]
        for layer, attrs in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            if home is None:
                continue
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        continue
                    fn = vars(cls)[meth]
                    nid = self._name_id(f"{layer}.{attr}@{layer}")
                    self._set(cls, meth, self._wrap_call(fn, nid))
                    continue
                fn = getattr(home, attr, None)
                if fn is None:
                    continue
                wrap = (self._wrap_generator if inspect.isgeneratorfunction(fn)
                        else self._wrap_call)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            site = module.__name__.rpartition(".")[2]
                            nid = self._name_id(f"{layer}.{attr}@{site}")
                            self._set(module, key, wrap(fn, nid))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict[str, dict[str, int]]:
        """Per span name over spans [lo, hi): calls, inclusive ns and self
        ns (duration minus the time covered by direct children)."""
        names, parents = self.span_name, self.parent
        dur = array("q", [e - s for s, e in
                          zip(self.start[lo:hi], self.end[lo:hi])])
        child = array("q", bytes(8 * len(dur)))
        for i in range(lo, hi):
            p = parents[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        k = len(self.names)
        calls, total, own = [0] * k, [0] * k, [0] * k
        for j in range(hi - lo):
            nid = names[lo + j]
            d = dur[j]
            calls[nid] += 1
            total[nid] += d
            own[nid] += d - child[j]
        return {self.names[nid]: {"calls": calls[nid], "total_ns": total[nid],
                                  "self_ns": own[nid]}
                for nid in range(k) if calls[nid]}

    def outermost_ns(self, lo: int, hi: int, prefixes: tuple[str, ...]) -> int:
        """Inclusive time of spans whose name starts with one of
        `prefixes`, counting nested spans of the group once."""
        group = {nid for nid, name in enumerate(self.names)
                 if name.startswith(prefixes)}
        names, parents = self.span_name, self.parent
        result = 0
        for i in range(lo, hi):
            if names[i] not in group:
                continue
            p = parents[i]
            while p >= lo and names[p] not in group:
                p = parents[p]
            if p < lo:
                result += self.end[i] - self.start[i]
        return result

    def write(self, path: str) -> None:
        """Spans as binary in native byte order: count, then the name, parent,
        start and end arrays; the names table goes to path + '.names'."""
        with open(path, "wb") as fh:
            array("q", [len(self.start)]).tofile(fh)
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".names", "w") as fh:
            fh.write("\n".join(self.names) + "\n")
