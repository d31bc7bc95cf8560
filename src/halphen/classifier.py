"""Which (degree, genus) pairs are realized by smooth curves in P^3.

Halphen's G(d, s) = d^2/(2s) + d(s-4)/2 + 1 - r(s-r)(s-1)/(2s), with
0 <= r < s and s | d + r, bounds the genus of a smooth degree-d curve on no
surface of degree < s.  Three regimes are combined: plane curves (g = G(d, 1)
exactly), curves on a smooth quadric (bidegree genera, whose maximum is the
Castelnuovo bound G(d, 2)), and the Gruson-Peskine range 0 <= g <= G(d, 3),
each genus of which is realized by a smooth curve (the theorem does not
say that curve lies on no quadric, whatever the exists_off_quadric field
is called).  A pair exists iff it falls in at least one regime.  A Verdict
is the answer for one pair: its flag for each regime, their union, and
one category; the bounds depend on d only and stay functions of d.

Within one degree the flags change only at a few genera: at each quadric
genus and the one after it, after G(d, 3), and at and after the plane
bound.  The region is kept as each degree's runs (start, stop, flags)
between two such genera: _verdict, the code classify runs, classifies the
run's first row, and the run's other rows repeat its flags.
region_table makes those runs and returns a read-only sequence of
Verdicts over them, which makes a Verdict only for a row that is read.
region_chunks is the one renderer: it takes the runs from region_table,
which it calls through the module (a traced benchmark run wraps it there),
and writes each run as one chunk and makes no row.  A CSV run is one join
of genus strings made once per table; an SVG run, whose circles show the
category alone, one join of the coordinate and genus strings of its
circles.  The CLI streams those chunks, and region_csv and region_svg
are their join.

The SVG overlays the parabolas G(d, s) without their correction term,
s = 1, 2, 3, at d = n/q on a grid of step 1/q.  Each point is computed in
integers as num/(2s q^2) and converted by int / int, which is correctly
rounded, so it is the same float, and the SVG the same bytes, as the
point computed with Fractions.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from math import comb, isqrt
from typing import NamedTuple

from . import _decimal

CATEGORY_NONEXISTENT = "nonexistent"
CATEGORY_GP = "gp-region"
CATEGORY_QUADRIC = "quadric"
CATEGORY_PLANE_ONLY = "plane-only"

# Largest (d, g) table, in rows, that region_table will make.  It keeps
# runs, not rows (10 710 at the largest d_max admitted), and the renderer
# writes one run at a time, so the budget bounds the output's size and the
# time to make it, not memory.
REGION_BUDGET = 500_000


class RegionBudgetExceeded(ValueError):
    pass


class Verdict(NamedTuple):
    d: int
    g: int
    exists_plane: bool
    exists_on_quadric: bool
    exists_off_quadric: bool
    exists_any: bool
    category: str


# one degree's rows start to stop - 1, all with these five flags of a Verdict
Run = tuple[int, int, tuple[bool, bool, bool, bool, str]]

# a row of a RegionTable from an iterable of its seven fields, made by
# tuple.__new__ in C; Verdict(...) also goes through type.__call__ and the
# generated __new__, and Verdict._make also checks the length.  Only rows
# that are read are made here; region_chunks makes none.
_new_verdict = partial(tuple.__new__, Verdict)


def halphen_bound(d: int, s: int) -> int:
    """G(d, s) in integers: the numerator is divisible by 2s, so // is exact."""
    if d < 1 or s < 1:
        raise ValueError("degree and s must be positive")
    r = -d % s
    return (_parabola_numerator(d, 1, s) - r * (s - r) * (s - 1)) // (2 * s)


def _parabola_numerator(n: int, q: int, s: int) -> int:
    """G(d, s) without its correction term is this over 2s q^2, at d = n/q."""
    return (n + s * (s - 4) * q) * n + 2 * s * q * q


def plane_bound(d: int) -> int:
    """Max genus of any degree-d curve in P^3: the plane value."""
    return halphen_bound(d, 1)


def castelnuovo_bound(d: int) -> int:
    """Max genus of a nonplanar smooth degree-d curve in P^3."""
    return halphen_bound(d, 2)


def gruson_peskine_bound(d: int) -> Fraction:
    """d^2/6 - d/2 + 1 as an exact rational; its floor is G(d, 3)."""
    if d < 1:
        raise ValueError("degree must be positive")
    return Fraction(_parabola_numerator(d, 1, 3), 6)


def quadric_genera(d: int) -> set[int]:
    """Genera of smooth bidegree-(a, b) curves on a smooth quadric with
    a + b = d: the set {(a-1)(b-1)}."""
    if d < 1:
        raise ValueError("degree must be positive")
    return {(a - 1) * (d - a - 1) for a in range(1, d // 2 + 1)}


def classify(d: int, g: int) -> Verdict:
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0:
        raise ValueError("genus must be non-negative")
    return _verdict(d, g, plane_bound(d), halphen_bound(d, 3))


def _verdict(d: int, g: int, plane: int, gp_floor: int) -> Verdict:
    """The category is the first regime that holds, in the order
    gp-region, quadric, plane-only; nonexistent if none does.  g is an
    integer, so g <= gp iff g <= floor(gp) = G(d, 3) = gp_floor: if 3 | d
    the parabola gp is an integer and r = 0, else gp is an integer minus
    1/3 and the correction r(3-r)/3 is 2/3."""
    # g = (a-1)(b-1) with a + b = d iff a-1 and b-1 are the integer roots of
    # t^2 - (d-2)t + g, i.e. iff the discriminant is a perfect square
    disc = (d - 2) ** 2 - 4 * g
    exists_plane = g == plane
    exists_on_quadric = d >= 2 and disc >= 0 and isqrt(disc) ** 2 == disc
    exists_off_quadric = g <= gp_floor
    cat = (
        CATEGORY_GP if exists_off_quadric
        else CATEGORY_QUADRIC if exists_on_quadric
        else CATEGORY_PLANE_ONLY if exists_plane
        else CATEGORY_NONEXISTENT
    )
    return Verdict(
        d, g, exists_plane, exists_on_quadric, exists_off_quadric, cat != CATEGORY_NONEXISTENT, cat
    )


def _degree_runs(d: int) -> list[Run]:
    """The rows g = 0 .. plane_bound(d) of degree d as runs (start, stop,
    flags) of equal flags.  A flag of _verdict changes only where g reaches
    or passes a quadric genus, passes G(d, 3), or reaches or passes the
    plane bound; _verdict classifies the first row of each run between
    those genera."""
    plane, gp_floor = plane_bound(d), halphen_bound(d, 3)
    cuts = {0, plane, plane + 1, min(gp_floor, plane) + 1}
    for q in quadric_genera(d):
        cuts.update((q, q + 1))
    cuts = sorted(cuts)
    return [
        (start, stop, _verdict(d, start, plane, gp_floor)[2:])
        for start, stop in zip(cuts, cuts[1:])
    ]


class RegionTable(Sequence[Verdict]):
    """The rows of region_table, read-only, kept as each degree's runs:
    a Verdict is made only for a row that is read.  degrees[d - 1] holds
    the runs of degree d, and region_chunks reads them directly."""

    __slots__ = ("degrees", "_starts")

    def __init__(self, degrees: list[list[Run]]):
        self.degrees = degrees
        # row index of each degree's g = 0, then the row count
        self._starts = [0, *accumulate(runs[-1][1] for runs in degrees)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self) -> Iterator[Verdict]:
        for d, runs in enumerate(self.degrees, 1):
            for start, stop, flags in runs:
                rows = zip(repeat(d), range(start, stop), *map(repeat, flags))
                yield from map(_new_verdict, rows)

    def __getitem__(self, k: int | slice) -> Verdict | list[Verdict]:
        # range does the list's index arithmetic: negative indices, slices
        # and the IndexError past the end
        ks = range(len(self))[k]
        return list(map(self._row, ks)) if isinstance(ks, range) else self._row(ks)

    def _row(self, k: int) -> Verdict:
        d = bisect_right(self._starts, k)
        g = k - self._starts[d - 1]
        flags = next(flags for _, stop, flags in self.degrees[d - 1] if g < stop)
        return _new_verdict((d, g, *flags))


def region_table(d_max: int) -> RegionTable:
    """Every row of the region, d = 1 .. d_max and g = 0 .. plane_bound(d),
    as a read-only sequence of Verdicts.  Raises RegionBudgetExceeded
    before any run is made if there would be more than REGION_BUDGET
    rows."""
    if d_max < 1:
        raise ValueError("d_max must be positive")
    # sum over d of plane_bound(d) + 1, since sum_{d <= n} C(d-1, 2) = C(n, 3)
    n_rows = comb(d_max, 3) + d_max
    if n_rows > REGION_BUDGET:
        raise RegionBudgetExceeded(
            f"region d_max = {_decimal(d_max)} has {_decimal(n_rows)} rows; "
            f"the budget is {REGION_BUDGET}"
        )
    return RegionTable(list(map(_degree_runs, range(1, d_max + 1))))


def region_chunks(d_max: int, fmt: str) -> Iterator[str]:
    """The runs of region_table(d_max) as CSV or SVG text, one chunk per
    run between the header or preamble and the axis labels.  fmt, d_max
    and the budget are checked on the call, before any chunk exists."""
    if fmt not in ("csv", "svg"):
        raise ValueError(f"unknown region format {fmt!r}")
    degrees = region_table(d_max).degrees
    return _svg_chunks(degrees, d_max) if fmt == "svg" else _csv_chunks(degrees, d_max)


def region_csv(d_max: int) -> str:
    """Every row of region_table as one CSV line under a header: d, g, the
    four existence flags as true/false, and the category."""
    return "".join(region_chunks(d_max, "csv"))


def _csv_chunks(degrees: list[list[Run]], d_max: int) -> Iterator[str]:
    """The header, then the lines of each run as one chunk.  The lines of
    a run differ only in g: each run is one join of its genus strings,
    made once for the table."""
    yield "d,g,exists_plane,exists_on_quadric,exists_off_quadric,exists_any,category\n"
    word = ("false", "true")
    gs = list(map(str, range(plane_bound(d_max) + 1)))
    for d, runs in enumerate(degrees, 1):
        head = f"{d},"
        for start, stop, (plane, on_quadric, off_quadric, any_, cat) in runs:
            tail = f",{word[plane]},{word[on_quadric]},{word[off_quadric]},{word[any_]},{cat}\n"
            yield head + (tail + head).join(gs[start:stop]) + tail


_COLORS = {
    CATEGORY_NONEXISTENT: "#d0d0d0",
    CATEGORY_GP: "#2b6cb0",
    CATEGORY_QUADRIC: "#2f855a",
    CATEGORY_PLANE_ONLY: "#c05621",
}

_MARGIN = 50.0
_CELL = 24.0


def region_svg(d_max: int) -> str:
    """Deterministic scatter of (d, g) colored by category, with the
    plane, Castelnuovo, and Gruson-Peskine parabolas overlaid."""
    return "".join(region_chunks(d_max, "svg"))


def _svg_chunks(degrees: list[list[Run]], d_max: int) -> Iterator[str]:
    """The preamble with the parabolas, the circles of each run, the
    d-axis labels and the g-axis labels with the closing tag, each as one
    chunk.  A circle shows d, g and the category alone, so each run is one
    join of its circles' coordinate and genus strings, made once for the
    table."""
    g_max = plane_bound(d_max)
    width = _MARGIN * 2 + _CELL * d_max
    height = _MARGIN * 2 + _CELL * (g_max + 1)

    def x(d: float) -> float:
        return _MARGIN + _CELL * (d - 0.5)

    def y(g: float) -> float:
        return height - _MARGIN - _CELL * (g + 0.5)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="{height - 8:.1f}" text-anchor="middle" '
        'font-family="monospace" font-size="14">d</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" '
        'font-family="monospace" font-size="14">g</text>',
    ]
    # d = n/q runs from 1 to d_max in q = 8 d_max steps, q + 1 points even
    # where they repeat (at d_max = 1 all are d = 1); int / int is correctly
    # rounded, so n / q and num / den are the floats of those Fractions
    q = 8 * d_max
    grid = [q + i * (d_max - 1) for i in range(q + 1)]
    for s, color in ((1, "#c05621"), (2, "#2f855a"), (3, "#2b6cb0")):
        den = 2 * s * q * q
        top = (g_max + 1) * den
        points = []
        for n in grid:
            num = _parabola_numerator(n, q, s)
            if 0 <= num <= top:
                points.append(f"{x(n / q):.2f},{y(num / den):.2f}")
        if len(points) > 1:
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'stroke-dasharray="4 3" points="{" ".join(points)}"/>'
            )
    yield "\n".join(out) + "\n"
    xs = [f"{x(d):.2f}" for d in range(d_max + 1)]
    ys = [f"{y(g):.2f}" for g in range(g_max + 1)]
    gs = list(map(str, range(g_max + 1)))
    for d, runs in enumerate(degrees, 1):
        head = f'<circle cx="{xs[d]}" cy="'
        for start, stop, flags in runs:
            cat = flags[-1]
            mid = f'" r="6" fill="{_COLORS[cat]}"><title>d={d} g='
            tail = f" {cat}</title></circle>\n"
            bodies = map(mid.join, zip(ys[start:stop], gs[start:stop]))
            yield head + (tail + head).join(bodies) + tail
    yield "".join(
        f'<text x="{xs[d]}" y="{height - _MARGIN + 18:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{d}</text>\n'
        for d in range(1, d_max + 1)
    )
    yield "".join(
        f'<text x="{_MARGIN - 10:.1f}" y="{y(g) + 4:.2f}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{g}</text>\n'
        for g in range(0, g_max + 1, max(1, (g_max + 1) // 12))
    ) + "</svg>\n"
