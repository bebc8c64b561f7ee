"""Span tracing of the ``biperiodic`` layers from outside the package.

The package binds names with ``from .x import y``, so replacing a function
in its defining module would miss the calls made through ``identities``,
``series`` and ``cli``. ``Tracer.install`` therefore replaces every binding
of each traced function in every loaded ``biperiodic`` module, and patches
the arithmetic methods on their classes.

One span is recorded per call: name, start, end, parent span and request
id, in flat arrays kept in memory and written out once at the end. Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute). Spans with the same name are summed.
FUNCTIONS = (
    ("sequences.q", "sequences", "q"),
    ("sequences.l", "sequences", "l"),
    ("matrixseq.closed", "matrixseq", "fib_matrix_closed"),
    ("matrixseq.closed", "matrixseq", "lucas_matrix_closed"),
    ("matrixseq.rec", "matrixseq", "fib_matrix_rec"),
    ("matrixseq.rec", "matrixseq", "lucas_matrix_rec"),
    ("matrixseq.binet", "matrixseq", "fib_matrix_binet"),
    ("matrixseq.binet", "matrixseq", "lucas_matrix_binet"),
    ("series.expand_rational", "series", "expand_rational"),
    ("series.lucas_generating_series", "series", "lucas_generating_series"),
    ("series.finite_inverse_sum_mismatch", "series", "finite_inverse_sum_mismatch"),
    ("series.first_generating_mismatch", "series", "first_generating_mismatch"),
    ("series.first_infinite_mismatch", "series", "first_infinite_mismatch"),
    ("series.lucas_partial_sum", "series", "lucas_partial_sum"),
    ("identities.run_full_suite", "identities", "run_full_suite"),
    ("identities.thm6_suite", "identities", "thm6_suite"),
    ("identities.thm7_suite", "identities", "thm7_suite"),
    ("cli.main", "cli", "main"),
)
# (span name, class, method); a class may alias __rmul__ to __mul__
METHODS = (
    ("exact.mat2_mul", "Mat2", "__mul__"),
    ("exact.mat2_mul", "Mat2", "__rmul__"),
    ("exact.mat2_pow", "Mat2", "__pow__"),
    ("exact.quad_mul", "QuadElement", "__mul__"),
    ("exact.quad_mul", "QuadElement", "__rmul__"),
    ("exact.quad_pow", "QuadElement", "__pow__"),
)
# generator factories: no span, the terms they yield are counted
GENERATORS = ("fib_matrix_rec_iter", "lucas_matrix_rec_iter")
# values returned by these spans feed exact.max_bits
SIZED = ("sequences.q", "sequences.l", "matrixseq.closed", "matrixseq.rec",
         "matrixseq.binet")


def _bits(value) -> int:
    entries = value.entries() if hasattr(value, "entries") else (value,)
    return max(max(e.numerator.bit_length(), e.denominator.bit_length()) for e in entries)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_request = array("L")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.request = 0
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, reqs, parents = self.span_name, self.span_request, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        counts, clock = self.counts, time.perf_counter_ns
        sized = name in SIZED
        is_rec = name == "matrixseq.rec"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            reqs.append(self.request)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if sized:
                bits = _bits(result)
                if bits > counts["max_bits"]:
                    counts["max_bits"] = bits
            if is_rec:
                counts["rec_steps"] += args[1]
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_terms(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            for term in fn(*args, **kwargs):
                counts["rec_iter_terms"] += 1
                yield term

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Trace every binding of FUNCTIONS, METHODS and GENERATORS.

        Raises AttributeError if a traced name no longer exists, so a rename
        in the package fails loudly instead of reading as zero work.
        """
        pkg = {n: sys.modules[f"biperiodic.{n}"] for n in
               ("exact", "sequences", "matrixseq", "series", "identities", "cli")}
        replace = {}
        for name, module, attr in FUNCTIONS:
            fn = getattr(pkg[module], attr)
            replace[fn] = self._wrap(name, fn)
        for attr in GENERATORS:
            fn = getattr(pkg["matrixseq"], attr)
            replace[fn] = self._count_terms(fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "biperiodic" or mod_name.startswith("biperiodic."):
                for attr, value in list(vars(mod).items()):
                    if callable(value) and value in replace:
                        setattr(mod, attr, replace[value])
        for name, cls_name, method in METHODS:
            cls = getattr(pkg["exact"], cls_name)
            setattr(cls, method, self._wrap(name, cls.__dict__[method]))

    def totals(self) -> dict:
        """{span name: (calls, inclusive ns, self ns)}."""
        count = len(self.span_start)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0] * count
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            incl[nid] += dur[i]
            own[nid] += dur[i] - child[i]
        return {n: (calls[k], incl[k], own[k]) for k, n in enumerate(self.names)}

    def write(self, path) -> None:
        """One JSON header line, then the five span arrays as raw bytes."""
        arrays = (self.span_name, self.span_request, self.span_parent,
                  self.span_start, self.span_end)
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "fields": ["name", "request", "parent", "start_ns", "end_ns"],
            "typecodes": [a.typecode for a in arrays],
            "itemsizes": [a.itemsize for a in arrays],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)
