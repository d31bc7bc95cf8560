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
bound.  The region table is made one run between two such genera at a
time: _verdict, the code classify runs, classifies the run's first row,
and the run's other rows repeat its flags.  The renderers take the rows
one degree at a time, the slices of region_table or the rows of each
degree as they are made, and find the runs with groupby: the CSV writes
each run of equal flags as one join of genus strings made once per
table, and the SVG, whose circles show the category alone, adds each run
of one category to its degree's list of pieces, joined once per degree.

The SVG overlays the parabolas G(d, s) without their correction term,
s = 1, 2, 3, at d = n/q on a grid of step 1/q.  Each point is computed in
integers as num/(2s q^2) and converted by int / int, which is correctly
rounded, so it is the same float, and the SVG the same bytes, as the
point computed with Fractions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import partial
from itertools import chain, groupby, islice, repeat
from math import comb, isqrt
from operator import countOf, itemgetter
from typing import NamedTuple

from . import _decimal

CATEGORY_NONEXISTENT = "nonexistent"
CATEGORY_GP = "gp-region"
CATEGORY_QUADRIC = "quadric"
CATEGORY_PLANE_ONLY = "plane-only"

# Largest (d, g) table, in rows, that region_table or region_chunks will
# make.  The renderers work one degree at a time, so the budget bounds the
# output's size and the time to make it, not memory.
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


# a Verdict from an iterable of its seven fields, made by tuple.__new__ in
# C; Verdict(...) also goes through type.__call__ and the generated
# __new__, and Verdict._make also checks the length
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
    return _new_verdict(
        (d, g, exists_plane, exists_on_quadric, exists_off_quadric, cat != CATEGORY_NONEXISTENT, cat)
    )


def _region_degrees(d_max: int) -> Iterator[Iterator[Verdict]]:
    """The rows of each degree d <= d_max, classified, in order of d and
    then g.  d_max and the budget are checked on the call, before any row
    exists; the rows are made lazily, one degree at a time."""
    if d_max < 1:
        raise ValueError("d_max must be positive")
    # sum over d of plane_bound(d) + 1, since sum_{d <= n} C(d-1, 2) = C(n, 3)
    n_rows = comb(d_max, 3) + d_max
    if n_rows > REGION_BUDGET:
        raise RegionBudgetExceeded(
            f"region d_max = {_decimal(d_max)} has {_decimal(n_rows)} rows; "
            f"the budget is {REGION_BUDGET}"
        )
    return map(_degree_rows, range(1, d_max + 1))


def _degree_rows(d: int) -> Iterator[Verdict]:
    """The rows of degree d, one run of equal flags at a time.  A flag of
    _verdict changes only where g reaches or passes a quadric genus, passes
    G(d, 3), or reaches or passes the plane bound; _verdict classifies the
    first row of each run between those genera, and map and zip repeat its
    flags over the rest of the run in C."""
    plane, gp_floor = plane_bound(d), halphen_bound(d, 3)
    cuts = {0, plane, plane + 1, min(gp_floor, plane) + 1}
    for q in quadric_genera(d):
        cuts.update((q, q + 1))
    cuts = sorted(cuts)
    for start, stop in zip(cuts, cuts[1:]):
        flags = _verdict(d, start, plane, gp_floor)[2:]
        yield from map(_new_verdict, zip(repeat(d), range(start, stop), *map(repeat, flags)))


def region_table(d_max: int) -> list[Verdict]:
    """Every row of _region_degrees in one list.  Raises RegionBudgetExceeded
    before any row is built if there would be more than REGION_BUDGET rows."""
    return list(chain.from_iterable(_region_degrees(d_max)))


def _degree_slices(rows: list[Verdict], d_max: int) -> Iterator[list[Verdict]]:
    """region_table's rows cut into degrees: degree d starts after the
    C(d-1, 3) + d - 1 rows of the degrees below it."""
    starts = [comb(d - 1, 3) + d - 1 for d in range(1, d_max + 2)]
    return map(rows.__getitem__, map(slice, starts, starts[1:]))


def region_chunks(d_max: int, fmt: str) -> Iterator[str]:
    """The region as CSV or SVG text, one chunk per degree, each made from
    that degree's rows alone: memory stays flat in d_max.  d_max and the
    budget are checked on the call, before any chunk exists."""
    if fmt not in ("csv", "svg"):
        raise ValueError(f"unknown region format {fmt!r}")
    degrees = _region_degrees(d_max)
    return _svg_chunks(degrees, d_max) if fmt == "svg" else _csv_chunks(degrees, d_max)


def region_csv(d_max: int) -> str:
    """Every row of region_table as one CSV line under a header: d, g, the
    four existence flags as true/false, and the category."""
    return "".join(_csv_chunks(_degree_slices(region_table(d_max), d_max), d_max))


def _csv_chunks(degrees: Iterable[Iterable[Verdict]], d_max: int) -> Iterator[str]:
    """The header, then the lines of each degree's rows as one chunk.  The
    rows of degree d are g = 0, 1, ... in order, and the lines of a run of
    rows with equal flags differ only in g: each run is one join of the
    run's next genus strings, made once for the table."""
    yield "d,g,exists_plane,exists_on_quadric,exists_off_quadric,exists_any,category\n"
    word = ("false", "true")
    flags = itemgetter(2, 3, 4, 5, 6)
    gs = list(map(str, range(plane_bound(d_max) + 1)))
    for d, degree in enumerate(degrees, 1):
        head, runs, genera = f"{d},", [], iter(gs)
        for key, run in groupby(map(flags, degree)):
            plane, on_quadric, off_quadric, any_, cat = key
            tail = f",{word[plane]},{word[on_quadric]},{word[off_quadric]},{word[any_]},{cat}\n"
            runs.append(head + (tail + head).join(islice(genera, countOf(run, key))) + tail)
        yield "".join(runs)


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
    return "".join(_svg_chunks(_degree_slices(region_table(d_max), d_max), d_max))


def _svg_chunks(degrees: Iterable[Iterable[Verdict]], d_max: int) -> Iterator[str]:
    """The preamble with the parabolas, the circles of each degree's rows,
    the d-axis labels and the g-axis labels with the closing tag, each as
    one chunk.  A circle shows d, g and the category alone, so each run of
    one category adds the pieces of its circles, cut around the coordinate
    and genus strings made once for the table, to one list per degree."""
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
    for d, degree in enumerate(degrees, 1):
        head, parts, ys_d, gs_d = f'<circle cx="{xs[d]}" cy="', [], iter(ys), iter(gs)
        for cat, run in groupby(map(itemgetter(6), degree)):
            # zip stops at the run's last head, before taking a y or a g more
            mid = f'" r="6" fill="{_COLORS[cat]}"><title>d={d} g='
            tail = f" {cat}</title></circle>\n"
            circles = zip(repeat(head, countOf(run, cat)), ys_d, repeat(mid), gs_d, repeat(tail))
            parts += chain.from_iterable(circles)
        yield "".join(parts)
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
