"""Spans and counters recorded from outside the program.

The tracer swaps public functions of the halphen modules for wrappers
that open a span around each call.  Calls between modules go through
module attributes, so `groebner.hilbert_polynomial` reaches the wrapped
`buchberger`, and `graded.hilbert_function` the wrapped `exact_rank`.
Spans are kept in memory and written out when the run ends.  Counters
are computed after the operation has finished, so that their cost never
lands inside a span.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from contextlib import contextmanager
from itertools import combinations
from math import comb


def coeff_bits(c) -> int:
    """Bit size of an int or Fraction: the larger of numerator and denominator."""
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def basis_digest(gb) -> str:
    """sha256 of a reduced basis, written term by term in a fixed order."""
    text = repr([sorted((mono, str(c)) for mono, c in g.terms.items()) for g in gb.elements])
    return hashlib.sha256(text.encode()).hexdigest()


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = None
        self.deferred: list = []
        self.counters: dict = defaultdict(dict)  # op id -> counter name -> value
        self.bases: dict = defaultdict(list)  # op id -> sha256 of each reduced basis

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def add(self, op_id, name: str, value, combine=int.__add__) -> None:
        c = self.counters[op_id]
        c[name] = combine(c[name], value) if name in c else value

    def finish_op(self) -> None:
        """Compute the counters of the operation that just ended."""
        for fn, args in self.deferred:
            fn(*args)
        self.deferred.clear()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, module, attr: str, span_name: str, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                self.deferred.append((after, (self.op_id, args, result)))
            return result

        setattr(module, attr, wrapper)
        return module, attr, original

    @contextmanager
    def installed(self):
        """Wrap the public functions of every layer for the duration."""
        from halphen import classifier, graded, groebner, invariants, parsing

        patches = [
            self._wrap(parsing, "parse_ideal_file", "parsing.parse"),
            self._wrap(groebner, "hilbert_polynomial", "groebner.hilbert_polynomial",
                       self._after_hilbert),
            self._wrap(groebner, "buchberger", "groebner.buchberger", self._after_buchberger),
            self._wrap(groebner, "initial_ideal", "groebner.initial_ideal", self._after_initial),
            self._wrap(groebner, "series_numerator", "groebner.series_numerator"),
            self._wrap(invariants, "invariants_of", "invariants.invariants_of"),
            self._wrap(graded, "hilbert_function_table", "graded.table"),
            self._wrap(graded, "ideal_piece_dimension", "graded.piece", self._after_piece),
            self._wrap(graded, "exact_rank", "linalg.exact_rank", self._after_rank),
            self._wrap(classifier, "region_table", "classifier.region_table", self._after_table),
            self._wrap(classifier, "region_csv", "classifier.render_csv", self._after_render),
            self._wrap(classifier, "region_svg", "classifier.render_svg", self._after_render),
        ]
        try:
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    # -- counters, computed after the operation ---------------------------------

    def _after_hilbert(self, op_id, args, data):
        self.add(op_id, "groebner.stabilization_degree", data.stabilizes_from, max)

    def _after_buchberger(self, op_id, args, gb):
        from halphen import groebner

        self.add(op_id, "groebner.basis_size", len(gb.elements))
        bits = max(coeff_bits(v) for g in gb.elements for v in g.terms.values())
        self.add(op_id, "groebner.max_coeff_bits", bits, max)
        self.bases[op_id].append(basis_digest(gb))
        # Replays the final Groebner check from outside: every S-polynomial
        # of the returned basis must reduce to zero.
        saved, self.op_id = self.op_id, op_id
        with self.span("groebner.verify_replay"):
            nonzero = sum(
                not groebner.normal_form(
                    groebner.s_polynomial(f, g, gb.order), gb.elements, gb.order
                ).is_zero
                for f, g in combinations(gb.elements, 2)
            )
        self.op_id = saved
        self.add(op_id, "groebner.replay_nonzero", nonzero)

    def _after_initial(self, op_id, args, mi):
        self.add(op_id, "groebner.initial_gens", len(mi.minimal_generators))

    def _after_piece(self, op_id, args, dim):
        ideal, m = args[0], args[1]
        self.add(op_id, "graded.cols", comb(m + ideal.n_vars - 1, ideal.n_vars - 1))

    def _after_rank(self, op_id, args, rank):
        rows = args[0]
        self.add(op_id, "graded.rows", len(rows))
        self.add(op_id, "linalg.rank", rank)
        bits = max((coeff_bits(v) for row in rows for v in row.values()), default=0)
        self.add(op_id, "linalg.input_max_bits", bits, max)

    def _after_table(self, op_id, args, rows):
        self.add(op_id, "classifier.pairs", len(rows))

    def _after_render(self, op_id, args, out):
        self.add(op_id, "classifier.output_bytes", len(out.encode()))

    # -- analysis -------------------------------------------------------------

    def times(self) -> dict:
        """op id -> span name -> [inclusive s, self s], summed over the spans of
        that name in the operation.  Self time is the span's duration minus
        that of its child spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            acc = out[op][name]
            acc[0] += end - start
            acc[1] += end - start - child[i]
        return out
