"""Which (degree, genus) pairs are realized by smooth curves in P^3.

Three regimes are combined: plane curves (g = (d-1)(d-2)/2 exactly),
curves on a smooth quadric (bidegree genera, whose maximum is the
Castelnuovo bound), and the Gruson-Peskine range 0 <= g <= d^2/6 - d/2 + 1,
each genus of which is realized by a smooth curve (the theorem does not
say that curve lies on no quadric, whatever the exists_off_quadric field
is called).  A pair exists iff it falls in at least one regime.  A Verdict
is the answer for one pair: its flag for each regime, their union, and
one category; the bounds depend on d only and stay functions of d.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, floor, isqrt
from typing import NamedTuple

from .combinat import plane_genus

CATEGORY_NONEXISTENT = "nonexistent"
CATEGORY_GP = "gp-region"
CATEGORY_QUADRIC = "quadric"
CATEGORY_PLANE_ONLY = "plane-only"

# Largest (d, g) table, in rows, that region_table will build.
REGION_BUDGET = 500_000


class RegionBudgetExceeded(RuntimeError):
    pass


class Verdict(NamedTuple):
    d: int
    g: int
    exists_plane: bool
    exists_on_quadric: bool
    exists_off_quadric: bool
    exists_any: bool
    category: str


def plane_bound(d: int) -> int:
    """Max genus of any degree-d curve in P^3: the plane value."""
    return plane_genus(d)


def castelnuovo_bound(d: int) -> int:
    """Max genus of a nonplanar smooth degree-d curve in P^3."""
    if d < 1:
        raise ValueError("degree must be positive")
    if d % 2 == 0:
        return d * d // 4 - d + 1
    return (d * d - 1) // 4 - d + 1


def gruson_peskine_bound(d: int) -> Fraction:
    """d^2/6 - d/2 + 1 as an exact rational; floor it for the max genus
    off a quadric."""
    if d < 1:
        raise ValueError("degree must be positive")
    return Fraction(d * d, 6) - Fraction(d, 2) + 1


def quadric_genera(d: int) -> set[int]:
    """Genera of smooth bidegree-(a, b) curves on a smooth quadric with
    a + b = d: the set {(a-1)(b-1)}."""
    if d < 1:
        raise ValueError("degree must be positive")
    return {(a - 1) * (d - a - 1) for a in range(1, d // 2 + 1)}


def castelnuovo_inequality_check(d: int, g: int, m: int) -> bool:
    """The two-sided count comparison m*d - g + 1 >= r(r+2) + (m-r)*d + 1
    behind the Castelnuovo bound, stated for odd d = 2r + 1."""
    if d < 3 or d % 2 == 0:
        raise ValueError("the inequality is stated for odd d = 2r + 1 >= 3")
    r = (d - 1) // 2
    if m < r:
        raise ValueError(f"need m >= r = {r}")
    return m * d - g + 1 >= r * (r + 2) + (m - r) * d + 1


def classify(d: int, g: int) -> Verdict:
    if d < 1:
        raise ValueError("degree must be positive")
    if g < 0:
        raise ValueError("genus must be non-negative")
    return _verdict(d, g, plane_genus(d), floor(gruson_peskine_bound(d)))


def _verdict(d: int, g: int, plane: int, gp_floor: int) -> Verdict:
    """The category is the first regime that holds, in the order
    gp-region, quadric, plane-only; nonexistent if none does.  g is an
    integer, so g <= gp holds exactly when g <= floor(gp) = gp_floor."""
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


def region_table(d_max: int) -> list[Verdict]:
    """Every (d, g) with d <= d_max, g <= plane_bound(d), classified.
    Raises RegionBudgetExceeded before any row is built if there would be
    more than REGION_BUDGET rows.

    The plane bound and the floor of the Gruson-Peskine bound depend on d
    only, so they are computed once per degree and each row is classified
    by _verdict, the same code classify runs."""
    if d_max < 1:
        raise ValueError("d_max must be positive")
    # sum over d of plane_genus(d) + 1, since sum_{d <= n} C(d-1, 2) = C(n, 3)
    n_rows = comb(d_max, 3) + d_max
    if n_rows > REGION_BUDGET:
        raise RegionBudgetExceeded(
            f"region d_max = {d_max} has {n_rows} rows; the budget is {REGION_BUDGET}"
        )
    rows = []
    for d in range(1, d_max + 1):
        plane, gp_floor = plane_genus(d), floor(gruson_peskine_bound(d))
        rows.extend(_verdict(d, g, plane, gp_floor) for g in range(plane + 1))
    return rows


def region_csv(d_max: int) -> str:
    lines = ["d,g,exists_plane,exists_on_quadric,exists_off_quadric,exists_any,category"]
    word = ("false", "true")
    for d, g, plane, on_quadric, off_quadric, any_, cat in region_table(d_max):
        lines.append(
            f"{d},{g},{word[plane]},{word[on_quadric]},"
            f"{word[off_quadric]},{word[any_]},{cat}"
        )
    return "\n".join(lines) + "\n"


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
    rows = region_table(d_max)
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
    curves = [
        (lambda d: Fraction((d - 1) * (d - 2), 2), "#c05621"),
        (lambda d: Fraction(d * d, 4) - d + 1, "#2f855a"),
        (lambda d: gruson_peskine_bound(d), "#2b6cb0"),
    ]
    steps = 8 * d_max
    for bound, color in curves:
        points = []
        for i in range(steps + 1):
            d = Fraction(1) + Fraction(i * (d_max - 1), steps)
            g = bound(d)
            if 0 <= g <= g_max + 1:
                points.append(f"{x(float(d)):.2f},{y(float(g)):.2f}")
        if len(points) > 1:
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'stroke-dasharray="4 3" points="{" ".join(points)}"/>'
            )
    xs = [f"{x(d):.2f}" for d in range(d_max + 1)]
    ys = [f"{y(g):.2f}" for g in range(g_max + 1)]
    for v in rows:
        d, g, cat = v.d, v.g, v.category
        out.append(
            f'<circle cx="{xs[d]}" cy="{ys[g]}" r="6" fill="{_COLORS[cat]}">'
            f"<title>d={d} g={g} {cat}</title></circle>"
        )
    for d in range(1, d_max + 1):
        out.append(
            f'<text x="{xs[d]}" y="{height - _MARGIN + 18:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{d}</text>'
        )
    for g in range(0, g_max + 1, max(1, (g_max + 1) // 12)):
        out.append(
            f'<text x="{_MARGIN - 10:.1f}" y="{y(g) + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{g}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
