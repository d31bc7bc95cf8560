import hashlib
import re
from fractions import Fraction
from itertools import repeat, zip_longest
from math import comb, floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halphen import classifier
from halphen.classifier import (
    CATEGORY_GP,
    CATEGORY_NONEXISTENT,
    CATEGORY_PLANE_ONLY,
    CATEGORY_QUADRIC,
    REGION_BUDGET,
    RegionBudgetExceeded,
    Verdict,
    castelnuovo_bound,
    classify,
    gruson_peskine_bound,
    halphen_bound,
    plane_bound,
    quadric_genera,
    region_chunks,
    region_csv,
    region_svg,
    region_table,
)
from halphen.groebner import hilbert_polynomial
from halphen.invariants import invariants_of

from conftest import load_ideal
from reference import overlay_points, parabola, plane_genus


class TestBounds:
    @pytest.mark.parametrize("d,b", [(1, 0), (4, 3), (5, 6)])
    def test_plane_bound(self, d, b):
        assert plane_bound(d) == b

    @pytest.mark.parametrize("d,b", [(4, 1), (5, 2), (6, 4)])
    def test_castelnuovo_bound(self, d, b):
        assert castelnuovo_bound(d) == b

    @pytest.mark.parametrize(
        "d,b", [(4, Fraction(5, 3)), (7, Fraction(17, 3)), (9, 10)]
    )
    def test_gruson_peskine_bound(self, d, b):
        assert gruson_peskine_bound(d) == b

    def test_quadric_maximum_is_castelnuovo(self):
        for d in range(2, 51):
            assert max(quadric_genera(d)) == castelnuovo_bound(d)

    def test_nested_parabolas(self):
        # the three parabolas nest only from d = 6 on; below that the
        # Gruson-Peskine curve lies above the Castelnuovo one
        for d in range(6, 51):
            assert gruson_peskine_bound(d) <= castelnuovo_bound(d) <= plane_bound(d)
        for d in (3, 4, 5):
            assert gruson_peskine_bound(d) > castelnuovo_bound(d)
        assert gruson_peskine_bound(6) == castelnuovo_bound(6) == 4

    def test_castelnuovo_below_plane(self):
        for d in range(3, 51):
            assert castelnuovo_bound(d) <= plane_bound(d)


class TestHalphenBound:
    """G(d, s) against independent references: the plane genus C(d-1, 2),
    the largest bidegree genus on a quadric, and the floor of the
    Gruson-Peskine parabola."""

    def test_first_three_cases(self):
        for d in range(1, 5001):
            assert halphen_bound(d, 1) == plane_genus(d), d
            assert halphen_bound(d, 3) == floor(gruson_peskine_bound(d)), d
        for d in range(2, 5001):
            assert halphen_bound(d, 2) == max(quadric_genera(d)), d

    @staticmethod
    def _correction(d, s):
        r = -d % s
        return Fraction(r * (s - r) * (s - 1), 2 * s)

    def test_floor_division_is_exact(self):
        # G(d, s) plus its correction term is the parabola exactly, so the
        # // in halphen_bound never rounds
        for s in range(1, 31):
            for d in range(1, 2000):
                assert halphen_bound(d, s) + self._correction(d, s) == parabola(d, s), (d, s)

    @given(st.integers(1, 10**12), st.integers(1, 10**4))
    def test_floor_division_is_exact_hypothesis(self, d, s):
        assert halphen_bound(d, s) + self._correction(d, s) == parabola(d, s)

    @given(st.integers(1, 10**6), st.integers(1, 3))
    def test_small_s_hypothesis(self, d, s):
        reference = (plane_genus, castelnuovo_bound, lambda d: floor(gruson_peskine_bound(d)))
        assert halphen_bound(d, s) == reference[s - 1](d)

    def test_complete_intersection_genus(self):
        # G(st, s) is the genus st(s + t - 4)/2 + 1 of a ci(s, t), t >= s
        for s in range(1, 20):
            for t in range(s, 40):
                assert halphen_bound(s * t, s) == s * t * (s + t - 4) // 2 + 1, (s, t)

    def test_parabola_is_a_fraction(self):
        assert type(gruson_peskine_bound(7)) is Fraction
        assert parabola(7, 3) == gruson_peskine_bound(7) == Fraction(17, 3)
        for d in range(1, 500):
            assert gruson_peskine_bound(d) == parabola(d, 3), d

    @pytest.mark.parametrize("d,s", [(0, 1), (-3, 2), (5, 0), (5, -1)])
    def test_invalid_inputs(self, d, s):
        with pytest.raises(ValueError):
            halphen_bound(d, s)


class TestQuadricGenera:
    @pytest.mark.parametrize("d,genera", [(2, {0}), (3, {0}), (4, {0, 1})])
    def test_small_degrees(self, d, genera):
        assert quadric_genera(d) == genera

    def test_degree_five(self):
        assert quadric_genera(5) == {0, 2}

    def test_witness_twisted_cubic(self, twisted_cubic):
        inv = invariants_of(hilbert_polynomial(twisted_cubic).polynomial)
        assert inv.degree == 3
        assert inv.genus in quadric_genera(3)

    def test_witness_two_quadric_intersection(self):
        inv = invariants_of(hilbert_polynomial(load_ideal("two_quadrics")).polynomial)
        assert (inv.degree, inv.genus) == (4, 1)
        assert inv.genus in quadric_genera(4)

    def test_classify_membership_matches_genera_for_small_degrees(self):
        for d in range(1, 60):
            genera = quadric_genera(d)
            for g in range(plane_bound(d) + 3):
                assert classify(d, g).exists_on_quadric == (g in genera), (d, g)

    @given(st.integers(1, 3000), st.integers(1, 1500), st.integers(-1, 1))
    def test_classify_membership_matches_genera(self, d, a, delta):
        a = 1 + (a - 1) % max(1, d // 2)
        g = max(0, (a - 1) * (d - a - 1) + delta)
        assert classify(d, g).exists_on_quadric == (g in quadric_genera(d))

    def test_huge_degree_answers_without_the_genera_set(self):
        d = 10**9
        assert classify(d, (4 - 1) * (d - 4 - 1)).exists_on_quadric
        assert not classify(d, 5).exists_on_quadric
        assert classify(d, 5).exists_off_quadric


class TestClassify:
    @pytest.mark.parametrize(
        "d,g", [(3, 0), (3, 1), (4, 1), (4, 3), (5, 6), (7, 5), (1, 0), (2, 0)]
    )
    def test_existing_pairs(self, d, g):
        assert classify(d, g).exists_any

    @pytest.mark.parametrize("d,g", [(4, 2), (5, 3), (5, 4), (5, 5)])
    def test_gap_pairs(self, d, g):
        assert not classify(d, g).exists_any

    def test_seven_five_is_off_quadric(self):
        v = classify(7, 5)
        assert v.exists_off_quadric
        assert not v.exists_on_quadric
        assert not v.exists_plane

    @given(st.integers(1, 10**4), st.integers(-3, 3))
    def test_gruson_peskine_flag_is_the_rational_comparison(self, d, delta):
        bound = gruson_peskine_bound(d)
        g = max(0, floor(bound) + delta)
        assert classify(d, g).exists_off_quadric == (g <= bound)

    def test_genus_zero_always_exists(self):
        for d in range(1, 60):
            assert classify(d, 0).exists_any

    def test_exists_any_is_union(self):
        for d in range(1, 15):
            for g in range(plane_bound(d) + 2):
                v = classify(d, g)
                assert v.exists_any == (
                    v.exists_plane or v.exists_on_quadric or v.exists_off_quadric
                )

    def test_existence_implies_plane_bound(self):
        for d in range(1, 20):
            for g in range(plane_bound(d) + 3):
                if classify(d, g).exists_any:
                    assert g <= plane_bound(d)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            classify(0, 0)
        with pytest.raises(ValueError):
            classify(3, -1)


class TestRegionTable:
    def test_plane_only_row(self):
        rows = {(v.d, v.g): v.category for v in region_table(5)}
        assert rows[(5, 6)] == CATEGORY_PLANE_ONLY

    def test_nonexistent_row(self):
        rows = {(v.d, v.g): v.category for v in region_table(5)}
        assert rows[(5, 4)] == CATEGORY_NONEXISTENT

    def test_degree_three_rows_exist(self):
        rows = {(v.d, v.g): v.category for v in region_table(3)}
        assert rows[(3, 0)] != CATEGORY_NONEXISTENT
        assert rows[(3, 1)] != CATEGORY_NONEXISTENT

    def test_covers_triangle(self):
        rows = region_table(6)
        assert len(rows) == sum(plane_bound(d) + 1 for d in range(1, 7))

    def test_row_count_closed_form(self):
        for d_max in range(1, 25):
            assert len(region_table(d_max)) == comb(d_max, 3) + d_max

    def test_budget_admits_largest_benchmark_table(self):
        assert comb(80, 3) + 80 == 82_240 <= REGION_BUDGET

    def test_budget_refuses_before_building_rows(self, monkeypatch):
        def never(*args):
            raise AssertionError("a row was classified")

        monkeypatch.setattr(classifier, "_verdict", never)
        with pytest.raises(RegionBudgetExceeded) as exc:
            region_table(1_000_000)
        rows = comb(1_000_000, 3) + 1_000_000
        assert str(exc.value) == (
            f"region d_max = 1000000 has {rows} rows; the budget is {REGION_BUDGET}"
        )

    # a row count past the int-string limit is named by a power of ten
    def test_budget_past_the_digit_limit(self):
        d_max = int("9" * 2000)
        with pytest.raises(RegionBudgetExceeded) as exc:
            region_table(d_max)
        assert str(exc.value) == (
            f"region d_max = {d_max} has at least 10^5998 rows; the budget is {REGION_BUDGET}"
        )
        assert 10**5998 <= comb(d_max, 3) + d_max

    def test_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(classifier, "REGION_BUDGET", comb(10, 3) + 10)
        assert len(region_table(10)) == comb(10, 3) + 10
        with pytest.raises(RegionBudgetExceeded):
            region_table(11)

    # region_chunks checks on the call, not when the first chunk is asked
    # for, so the CLI writes nothing before an error
    @pytest.mark.parametrize(
        "d_max, fmt, error",
        [(0, "csv", ValueError), (1_000_000, "svg", RegionBudgetExceeded), (3, "png", ValueError)],
    )
    def test_chunks_refuse_on_the_call(self, d_max, fmt, error):
        with pytest.raises(error):
            region_chunks(d_max, fmt)

    # one chunk per run of the table, plus the CSV header, or the SVG
    # preamble and its two axis-label chunks
    @pytest.mark.parametrize("fmt, render, extra", [("csv", region_csv, 1), ("svg", region_svg, 3)])
    def test_chunks_one_per_run(self, fmt, render, extra):
        chunks = list(region_chunks(9, fmt))
        assert len(chunks) == sum(map(len, region_table(9).degrees)) + extra
        assert "".join(chunks) == render(9)

    def test_category_matches_verdict(self):
        # an independent reference: the quadric genera as a set, the plane
        # bound, and the Gruson-Peskine bound compared as a Fraction,
        # taken in the precedence gp-region > quadric > plane-only
        bounds = {
            d: (quadric_genera(d), plane_bound(d), gruson_peskine_bound(d))
            for d in range(1, 41)
        }
        for v in region_table(40):
            genera, plane, gp = bounds[v.d]
            if v.g <= gp:
                expected = CATEGORY_GP
            elif v.g in genera:
                expected = CATEGORY_QUADRIC
            elif v.g == plane:
                expected = CATEGORY_PLANE_ONLY
            else:
                expected = CATEGORY_NONEXISTENT
            assert v.category == expected, (v.d, v.g)
            assert v.exists_any == (v.category != CATEGORY_NONEXISTENT)

    def test_rows_match_classify(self):
        rows = region_table(40)
        assert all(isinstance(v, Verdict) for v in rows)
        assert [(v.d, v.g) for v in rows] == [
            (d, g) for d in range(1, 41) for g in range(plane_bound(d) + 1)
        ]
        for v in rows:
            assert v == classify(v.d, v.g)

    # the rows of each degree are kept as runs of equal flags; every row
    # of the runs against classify, up to the budget's top degree and at
    # larger degrees of each residue mod 3
    @pytest.mark.parametrize("d", [*range(41, 146), 300, 1000, 2000])
    def test_degree_rows_match_classify(self, d):
        rows = (
            Verdict(d, g, *flags)
            for start, stop, flags in classifier._degree_runs(d)
            for g in range(start, stop)
        )
        expected = map(classify, repeat(d), range(plane_bound(d) + 1))
        pairs = zip_longest(rows, expected)
        assert next((pair for pair in pairs if pair[0] != pair[1]), None) is None

    # the runs of degree d tile g = 0 .. plane_bound(d), and each run's
    # flags are those of classify at both of its ends
    @pytest.mark.parametrize("d", [*range(1, 146), 300, 1000, 2000])
    def test_degree_runs_tile_the_degree(self, d):
        runs = classifier._degree_runs(d)
        assert [start for start, _, _ in runs] == [0, *(stop for _, stop, _ in runs[:-1])]
        assert runs[-1][1] == plane_bound(d) + 1
        for start, stop, flags in runs:
            assert start < stop
            assert flags == classify(d, start)[2:] == classify(d, stop - 1)[2:], (d, start, stop)

    # region_table's sequence answers as the list of every row would:
    # length, iteration, indexing from either end, slices and the end
    @pytest.mark.parametrize("d_max", [*range(1, 41), 80])
    def test_table_reads_like_the_list_of_rows(self, d_max):
        rows = region_table(d_max)
        expected = [classify(d, g) for d in range(1, d_max + 1) for g in range(plane_bound(d) + 1)]
        n = len(expected)
        assert len(rows) == n == comb(d_max, 3) + d_max
        listed = list(rows)
        assert listed == expected
        starts = [comb(d - 1, 3) + d - 1 for d in range(1, d_max + 1)]
        mids = [start + plane_bound(d) // 2 for d, start in enumerate(starts, 1)]
        for k in {0, n - 1, -1, -n, n // 2, *starts, *mids}:
            assert rows[k] == expected[k], k
            assert type(rows[k]) is Verdict
        bounds = [(0, n), (0, 0), (1, -1), (-5, None), (None, 3), (n // 3, 2 * n // 3), (2, n + 7)]
        for a, b in bounds:
            assert rows[a:b] == listed[a:b] == expected[a:b], (a, b)
        assert rows[::-3] == expected[::-3]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[k]

    # _verdict classifies the first row of each run, not every row: a
    # degree's runs start at 0, at each quadric genus and the one after
    # it, after G(d, 3), and at and after the plane bound
    def test_verdict_once_per_run(self, monkeypatch):
        verdict, calls = classifier._verdict, []

        def counting(*args):
            calls.append(args)
            return verdict(*args)

        monkeypatch.setattr(classifier, "_verdict", counting)
        assert len(region_table(60)) == comb(60, 3) + 60
        assert len(calls) <= sum(2 * len(quadric_genera(d)) + 4 for d in range(1, 61))


class TestEmitters:
    def test_csv_shape(self):
        text = region_csv(5)
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "d",
            "g",
            "exists_plane",
            "exists_on_quadric",
            "exists_off_quadric",
            "exists_any",
            "category",
        ]
        assert "4,2,false,false,false,false,nonexistent" in lines

    def test_csv_deterministic(self):
        assert region_csv(7) == region_csv(7)

    def test_svg_well_formed(self):
        import xml.etree.ElementTree as ET

        svg = region_svg(6)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == len(region_table(6))
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_svg_deterministic(self):
        assert region_svg(6) == region_svg(6)

    # sha256 of (region_csv, region_svg), recorded at commit ec85413, when
    # every row was classified by classify(d, g) and every SVG coordinate
    # was formatted per circle; the table and its renderings must not move.
    GOLDEN_SHA256 = {
        1: (
            "97c3ead01c702e383938ca25564d5dc26b4b5f8b1d7e7e720dba99a883b9f702",
            "3a896bd9b8ee8a715dbefab9e864a8b2f5ab30db215ca41897dd68b626581dea",
        ),
        2: (
            "76aa85a24731623eb03051a0cd65ca8da2c894b56360b65eb0851bda419d03b3",
            "f343d3d1eb30b9c57ac7688d4ccbf86c92ece7890fc6881e031964d597c891fa",
        ),
        3: (
            "a56d9f7e56d5c901eb2a6510e0cb1c03fbe88f404d3cd7ac194f2c27f0ed4003",
            "1226033755d71879fbaef6632e24333d06ce97aa50964c4050d49dffd3f552ee",
        ),
        12: (
            "161ed76f944bbf56b8e66be3c977a0f95f013a4117ddc9576444e5622bfc22d4",
            "ee14133a53208860413bca81a42e14124f2b8a5fcd171e20a0d542659fe80415",
        ),
        30: (
            "8f789598bfdc5ec9ef703aab82b5250b3e74cebc6f19a631e6ce25ef5ac24fe1",
            "496dc1634cc53d68101fae18607e7741f7ca25d74a43424ea4d688a237df13ad",
        ),
        # recorded at commit 528f27e, before the renderers were made to work
        # one degree at a time; 80 is the benchmark's largest table
        80: (
            "1a5c865d17a153da459fa53920a779e3f26a549085770984c9f37808a9f6c7b2",
            "6c62b6dc891817a5a384e021f0e5b58c78c8228b9a3df0cb50d5a90325021e7f",
        ),
    }

    @pytest.mark.parametrize("d_max", sorted(GOLDEN_SHA256))
    def test_golden_sha256(self, d_max):
        digests = tuple(
            hashlib.sha256(text.encode()).hexdigest()
            for text in (region_csv(d_max), region_svg(d_max))
        )
        assert digests == self.GOLDEN_SHA256[d_max]

    # the renderers and the stream write each run of rows at once and make
    # no row: with the maker of rows refusing, they still give the goldens
    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_rendering_makes_no_row(self, monkeypatch, fmt):
        def never(*args):
            raise AssertionError("a row was made")

        monkeypatch.setattr(classifier, "_new_verdict", never)
        render = region_csv if fmt == "csv" else region_svg
        golden = self.GOLDEN_SHA256[30][fmt == "svg"]
        for text in (render(30), "".join(region_chunks(30, fmt))):
            assert hashlib.sha256(text.encode()).hexdigest() == golden
        with pytest.raises(AssertionError, match="a row was made"):
            region_table(30)[0]

    # circle k is row k of the table, apart from the goldens: its title
    # names the row, its fill is the category's color, and its centre is
    # the row's column and genus coordinates
    @pytest.mark.parametrize("d_max", [7, 30, 46])
    def test_svg_circle_per_row(self, d_max):
        circles = re.findall(
            r'<circle cx="([^"]*)" cy="([^"]*)" r="6" fill="([^"]*)">'
            r"<title>d=(\d+) g=(\d+) ([a-z-]+)</title></circle>\n",
            region_svg(d_max),
        )
        rows = region_table(d_max)
        assert len(circles) == len(rows)
        height = 2 * 50 + 24 * (plane_bound(d_max) + 1)
        for (cx, cy, fill, d, g, cat), v in zip(circles, rows):
            assert (int(d), int(g), cat) == (v.d, v.g, v.category)
            assert fill == classifier._COLORS[v.category]
            assert cx == f"{50 + 24 * (v.d - 0.5):.2f}"
            assert cy == f"{height - 50 - 24 * (v.g + 0.5):.2f}"

    # the parabolas are drawn in integers; the reference takes each point
    # in Fractions.  They sit in the first SVG chunk, which region_svg
    # joins with the rest, so the rows need not be rendered; 145 is the
    # largest d_max the budget admits
    @pytest.mark.parametrize("d_max", [*range(1, 65), 145])
    def test_overlay_matches_fraction_reference(self, d_max):
        preamble = next(region_chunks(d_max, "svg"))
        assert re.findall(r'<polyline [^>]*points="([^"]*)"', preamble) == overlay_points(d_max)

    # a traced benchmark run wraps region_table, region_csv and region_svg
    # by module attribute and times the table inside each rendering: each
    # renderer, the CLI's stream too, must reach region_table through the
    # module, once, and give one str
    @pytest.mark.parametrize(
        "render",
        [
            region_csv,
            region_svg,
            pytest.param(lambda d_max: "".join(region_chunks(d_max, "csv")), id="chunks-csv"),
            pytest.param(lambda d_max: "".join(region_chunks(d_max, "svg")), id="chunks-svg"),
        ],
    )
    def test_renderers_call_region_table_once(self, monkeypatch, render):
        calls = []

        def counting(d_max):
            calls.append(d_max)
            return region_table(d_max)

        monkeypatch.setattr(classifier, "region_table", counting)
        assert type(render(7)) is str
        assert calls == [7]
