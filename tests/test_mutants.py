"""Faults the tests must catch, injected in-process.

Each mutant rebuilds one function of the package from its own source with
one edit and binds it with monkeypatch wherever the original is bound: in
every module of the package and in the check's own module, so a name
imported with `from ... import` reaches the mutant too, and a method on its
class.  It then runs the
check its entry names, on a seeded subset of that check's inputs that
catches it: the check passes before and must fail after, with the error
named.  A mutant whose edit no longer applies fails here, so a change that
rewrites the targeted code must retarget the mutant or say why it is gone.
"""

from __future__ import annotations

import __future__
import inspect
import itertools
import random
import sys
import tempfile
import textwrap
import types
from pathlib import Path

import pytest

import inthull.geom as geom
import inthull.hull_new as hull_new
import inthull.instances as instances
import inthull.lattice as lattice
import inthull.oracle as oracle
from inthull import BudgetExceeded, GeometryError
from helpers import load_perfbench, random_polyset
from test_cli import check_lattice_free_sliver_stats
from test_explicit_checks import check_exact_numbers, check_residual_regions_must_shrink
from test_geom import (
    check_clip_matches_the_vertex_scan,
    check_construction_paths,
    check_crossings_are_symmetric,
    check_full_column_hulls,
    check_halfplane_edge_cases,
    check_hull_turns_and_segment_membership,
    check_polygon_membership,
    check_rows_through_a_vertex,
    check_spanned_sets_match_their_hulls,
)
import test_geom
import test_hull_new
import test_instances
from test_instances import (
    check_instance_rows_match_their_halfplanes,
    check_rationals_read_as_fraction_reads_them,
    check_the_payload_rule,
)
from test_lattice import (
    check_sweep_hits_are_frozen_values,
    check_sweep_hits_do_not_depend_on_their_hint,
    check_sweeps_do_not_depend_on_their_hint,
    check_windows_tile_the_levels,
    hint_test_polygons,
    line_test_sweeps,
    window_test_polygons,
)
from test_oracle import (
    check_a_wide_segment_is_answered_uncharged,
    check_cell_counts_match_their_bounding_boxes,
    check_column_ends_match_enumeration,
    check_enumerate_matches_full_box_scan,
)
from test_hull_new import TWO_POINT_SEEDS, check_facet_cover, needle, two_point_start
from test_unimodular import check_new_commutes_with_unimodular_maps


def mutant(function, old: str, new: str):
    """`function` rebuilt from its source with the one occurrence of `old`
    replaced by `new`, reading its module's live globals; a method is
    rebuilt from its dedented source."""
    module = sys.modules[function.__module__]
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, (function.__name__, old)
    scratch = dict(vars(module))
    code = compile(source.replace(old, new), module.__file__, "exec", __future__.annotations.compiler_flag, True)
    exec(code, scratch)
    built = scratch[function.__name__]
    rebuilt = types.FunctionType(built.__code__, vars(module), built.__name__, built.__defaults__, built.__closure__)
    rebuilt.__kwdefaults__ = built.__kwdefaults__
    return rebuilt


def needles():
    return [needle(below) for below in (2, 5, 10, 21)]


def small_random():
    return [random_polyset(random.Random(seed), max_num=30, max_den=8) for seed in range(10)]


def two_point_starts():
    return [two_point_start(seed) for seed in TWO_POINT_SEEDS]


def facet_cover(inputs):
    """The check that test_hull_new's facet-cover check passes on every
    polygon `inputs` builds."""
    def check():
        certify = load_perfbench("certify").certify
        for P in inputs():
            check_facet_cover(P, certify)

    return check


ON_NEEDLES, ON_SMALL_RANDOM, ON_TWO_POINT_STARTS = map(facet_cover, (needles, small_random, two_point_starts))
FACET_COVER = (ON_NEEDLES, ON_SMALL_RANDOM, ON_TWO_POINT_STARTS)


def full_column_hulls():
    """test_geom's full-column hull check on its first 40 point sets."""
    check_full_column_hulls(40)


def box_scans():
    """test_oracle's box-scan check on ten seeded polygons of its inputs."""
    for seed in range(10):
        check_enumerate_matches_full_box_scan(random_polyset(random.Random(seed), max_num=25, max_den=6))


def column_ends():
    """test_oracle's column-walk check on ten seeded polygons of its inputs."""
    for seed in range(10):
        check_column_ends_match_enumeration(random_polyset(random.Random(seed), max_num=25, max_den=6))


def hint_free_windows():
    """test_lattice's hint check on its two rectangles."""
    check_sweeps_do_not_depend_on_their_hint(itertools.islice(hint_test_polygons(), 2))


def hint_free_sweeps():
    """test_lattice's check of _run_sweep from every hint on its two
    rectangles and first three random polygons."""
    polygons = list(itertools.islice(hint_test_polygons(), 6))
    check_sweep_hits_do_not_depend_on_their_hint(polygons[:2] + polygons[3:])


def tiling_windows():
    """test_lattice's tiling check on its four polygons with parallel faces
    and its first five random ones."""
    polygons = list(window_test_polygons())
    check_windows_tile_the_levels(polygons[:4] + polygons[5:10])


def frozen_hits():
    """test_lattice's hit value check on the sweeps of its rectangle and
    first two random polygons."""
    check_sweep_hits_are_frozen_values(itertools.islice(line_test_sweeps(), 3))


def unimodular_images():
    """test_unimodular's check of `new` on two polygons per scale."""
    check_new_commutes_with_unimodular_maps(2)


def lattice_free_sliver():
    """test_cli's `hull --stats` check on its lattice-free sliver, in a
    temporary directory."""
    with tempfile.TemporaryDirectory() as directory:
        check_lattice_free_sliver_stats(Path(directory))


# name: (function, edit, check, error).
MUTANTS = {
    # A range [0, n] turns by nothing, so only facet 0 is swept.
    "the half-turn test as >= 0": (hull_new.replace_facets, ("ak > 0:", "ak >= 0:"), ON_NEEDLES, AssertionError),
    "the half-turn test dropped": (hull_new.replace_facets, ("if ai * ck - ci * ak > 0:", "if True:"), ON_NEEDLES, AssertionError),
    # The skip test that kept only k - i < n: facets 0 and n // 2 alone,
    # which on a needle both stop at the apex.
    "every range but the whole one settled": (hull_new.replace_facets, ("ai * ck - ci * ak > 0", "k - i < n"), ON_NEEDLES, AssertionError),
    # The split edges then point back across the chord, and their sweeps
    # find known points.
    "p and q not ordered along w - u": (hull_new._edge_points, ("p, q = q, p", "pass"), ON_SMALL_RANDOM, GeometryError),
    # Edges one level short of final are closed, and the vertices on the
    # chord one level beyond them are lost.
    "an edge closed at m <= b + 1": (
        hull_new._edge_points,
        ("if hit.offset == b:", "if hit.offset <= b + 1:"),
        ON_SMALL_RANDOM,
        AssertionError,
    ),
    # Hull vertices lie on both sides of the two hits' segment.
    "a two-point start hull swept one way only": (
        hull_new._edge_points,
        ("stack = list(cycle.items())", "stack = [(u, w) for u, w in cycle.items() if len(cycle) > 2 or u < w]"),
        ON_TWO_POINT_STARTS,
        AssertionError,
    ),
    # An edge whose functional is no nonnegative combination of its ends'
    # certificate lines is closed, though the lines bound nothing past it.
    "the certificate sign test dropped": (
        hull_new._closed_by,
        ("lam >= 0 and mu >= 0 and ", ""),
        ON_TWO_POINT_STARTS,
        AssertionError,
    ),
    # A facet hit's line then bounds the min side of P, not the max side.
    # (An edge sweep's line stays right: its sign is -1.)
    "a facet hit's certificate left un-negated": (
        lattice._run_sweep,
        ("(-frame.A, -frame.C, -t)", "(a, c, sign * t)"),
        ON_TWO_POINT_STARTS,
        AssertionError,
    ),
    # A bound one level looser closes edges with a lattice point beyond
    # them; at scale the oracle cannot check it, the unimodular images can.
    "the certificate bound loosened by one level": (
        hull_new._closed_by,
        ("< (b + 1) * D", "< (b + 2) * D"),
        unimodular_images,
        AssertionError,
    ),
    # The certificate test as `<=` is no mutant: a bound of b + 1 also
    # leaves the edge final (see hull_new._closed_by).
    # p has no successor, so the walk round the cycle stops at it.
    "a split without the p -> q link": (
        hull_new._edge_points,
        ("cycle[u], cycle[p], cycle[q] = p, q, w", "cycle[u], cycle[q] = p, w"),
        ON_SMALL_RANDOM,
        KeyError,
    ),
    # The canonical form, at the one constructor every set comes from.
    "a segment's ends left in the order given": (
        geom._polyset_from_forms,
        ("if _direction(forms[0], forms[-1]) < (0, 0):", "if False:"),
        check_construction_paths,
        AssertionError,
    ),
    "a cycle not rotated to its lex-min vertex": (
        geom._polyset_from_forms,
        ("forms = tuple(forms[k:]) + tuple(forms[:k])", "forms = tuple(forms)"),
        check_construction_paths,
        AssertionError,
    ),
    # A vertex list is taken as listed only when it is its own hull; one
    # that the constructor refused and that is not hulled is refused again.
    "a refused vertex list kept unhulled": (
        geom._spanned_polyset,
        ("_polyset_from_forms(_hull_chain(points))", "_polyset_from_forms(forms)"),
        check_spanned_sets_match_their_hulls,
        ValueError,
    ),
    # A crossing built from its end of positive level first has W < 0.  No
    # cut builds one (each builds its crossings from the arc end first), but
    # without the fix the two ends of an edge give two forms of one point.
    "_reduced without its sign fix of W": (geom._reduced, ("if W < 0:", "if False:"), check_crossings_are_symmetric, AssertionError),
    "_reduced without its gcd": (geom._reduced, ("g = gcd(X, Y, W)", "g = 1"), check_construction_paths, AssertionError),
    # An unbounded intersection reaches the box at a vertex; a ray running
    # down and left, or an open slab between two vertical lines, reaches it
    # at its bottom or top only.
    "the unbounded test reading x only": (
        geom._intersect_halfplanes,
        ("abs(X) == m * W or abs(Y) == m * W", "abs(X) == m * W"),
        check_halfplane_edge_cases,
        AssertionError,
    ),
    # A row through a vertex and no further, cut as if it removed that
    # vertex: the vertex has level 0, so no crossing replaces it.
    "a row through the top vertex cut": (geom._cut, ("if l_top >= 0:", "if l_top > 0:"), check_rows_through_a_vertex, AssertionError),
    # The arc thresholds: a cut that also removes the vertices on its row's
    # line, and a clip that does not keep them; neither adds a crossing
    # there, so the vertex is lost.
    "a cut removing the vertices on its line": (
        geom._cut,
        ("-C, -B, -1, top", "-C, -B, 0, top"),
        check_rows_through_a_vertex,
        AssertionError,
    ),
    "a clip dropping the vertices on its line": (
        geom._clip,
        ("C, B, 0, j", "C, B, -1, j"),
        check_clip_matches_the_vertex_scan,
        AssertionError,
    ),
    # The one constructor of each frozen value: a half-plane that keeps its
    # normal's a unreduced, a set that takes a cycle from any start, and a
    # hit that stores its chord ends swapped.
    "HalfPlane storing a unreduced": (
        geom.HalfPlane.__init__,
        ('"a": a // g', '"a": a'),
        test_geom.test_halfplane_keeps_direction_under_reduction,
        AssertionError,
    ),
    "PolySet2 taking a cycle from any start": (
        geom.PolySet2.__init__,
        ("canonical is None or canonical._forms != forms", "canonical is None"),
        test_geom.test_polyset_refuses_every_rotation_but_the_lex_smallest_start,
        pytest.fail.Exception,
    ),
    "SweepHit storing its chord ends swapped": (
        lattice.SweepHit.__init__,
        ('"lo": lo, "hi": hi', '"lo": hi, "hi": lo'),
        frozen_hits,
        AssertionError,
    ),
    # The one rule from a rational inequality to a row.  A multiplier
    # blind to the offset's denominator moves every rational offset, as on
    # the line x - y = 1/2; one that is b's denominator alone turns a
    # rational a or c into the wrong integer, which only an inequality
    # instance hands it (a half-plane's a and c are integers).
    "_row dropping the offset's denominator": (
        geom._row,
        ("d = lcm(ad, cd, bd)", "d = lcm(ad, cd)"),
        check_halfplane_edge_cases,
        AssertionError,
    ),
    "_row scaling by b's denominator only": (
        geom._row,
        ("d = lcm(ad, cd, bd)", "d = bd"),
        check_instance_rows_match_their_halfplanes,
        AssertionError,
    ),
    # A zero-normal row 0 <= B with B < 0 holds nowhere; taken as holding
    # everywhere, it leaves the set of the other rows.
    "a false zero-normal row kept": (
        geom._intersect_halfplanes,
        ("if any(B < 0 for A, C, B in rows if not A and not C):", "if False:"),
        check_instance_rows_match_their_halfplanes,
        AssertionError,
    ),
    # A crossing with its W negated is the crossing reflected through the
    # origin, once _reduced fixes the sign.
    "_crossing with its W term negated": (
        geom._crossing,
        ("lq * pw - lp * qw", "lp * qw - lq * pw"),
        check_halfplane_edge_cases,
        AssertionError,
    ),
    # The hull chain's column cut and its inlined turn test.
    "the column cut never lowers a column's low end": (geom._hull_chain, ("ends[0] = y", "pass"), full_column_hulls, AssertionError),
    "a hull chain that keeps collinear points": (
        geom._hull_chain,
        ("(Y * ow - oy * W) > (ay", "(Y * ow - oy * W) >= (ay"),
        full_column_hulls,
        AssertionError,
    ),
    # The inlined turn blind to W: integer ends (W = 1) cannot tell it
    # apart, only rational ones, whose forms have unequal W.
    "the inlined turn blind to W": (
        geom._hull_chain,
        (
            "(ax * ow - ox * aw) * (Y * ow - oy * W) > (ay * ow - oy * aw) * (X * ow - ox * W)",
            "(ax - ox) * (Y - oy) > (ay - oy) * (X - ox)",
        ),
        check_hull_turns_and_segment_membership,
        AssertionError,
    ),
    # The split chain: the upper chain over the column highs, and the
    # chains' runs joined once at a first or last column of one point.
    "the upper chain run over the column lows": (
        geom._hull_chain,
        ("(highs[::-1], highs[0] is lows[0])", "(lows[::-1], highs[0] is lows[0])"),
        full_column_hulls,
        AssertionError,
    ),
    "a chain join that keeps the shared end twice": (
        geom._hull_chain,
        ("hull += chain[:-1] if shared else chain", "hull += chain"),
        full_column_hulls,
        AssertionError,
    ),
    # A direction blind to W: only points of unequal W tell it apart.  A
    # vertex list's cycle check (_cycle_start) reads it, and then refuses
    # the list's true hull.
    "_direction blind to W": (
        geom._direction,
        ("q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]", "q[0] - p[0], q[1] - p[1]"),
        check_spanned_sets_match_their_hulls,
        ValueError,
    ),
    # The membership turn's sign, which contains reads.
    "_turn with its cross product swapped": (
        geom._turn,
        ("ux * vy - uy * vx", "uy * vx - ux * vy"),
        check_polygon_membership,
        AssertionError,
    ),
    # A segment holds a point on its line beyond its ends, or one off its
    # line between them in lex order.
    "a segment's membership without its range": (
        geom.contains,
        ("_turn(*forms, form) == 0 and u <= p <= w", "_turn(*forms, form) == 0"),
        check_hull_turns_and_segment_membership,
        AssertionError,
    ),
    "a segment's membership without its turn": (
        geom.contains,
        ("_turn(*forms, form) == 0 and u <= p <= w", "u <= p <= w"),
        check_hull_turns_and_segment_membership,
        AssertionError,
    ),
    # A polygon holds a point when every edge, the closing one too, turns
    # left or not at all to it.
    "a polygon's membership excluding its boundary": (
        geom.contains,
        ("_turn(forms[i - 1], forms[i], form) >= 0", "_turn(forms[i - 1], forms[i], form) > 0"),
        check_polygon_membership,
        AssertionError,
    ),
    "a polygon's membership skipping its closing edge": (
        geom.contains,
        ("range(len(forms))", "range(1, len(forms))"),
        check_polygon_membership,
        AssertionError,
    ),
    # The level walk's chains.  A flat edge returned by _climb has no line
    # in t (the tiling check meets it as a ZeroDivisionError).
    "_climb returning a flat edge": (lattice._climb, ("if rise and end >= t", "if end >= t"), hint_free_windows, AssertionError),
    "_climb ending a chain at a flat edge": (lattice._climb, ("if rise < 0:", "if rise <= 0:"), tiling_windows, AssertionError),
    # t read at each step: a rise with the two ends' denominators swapped,
    # and a step that keeps the first vertex's denominator.
    "_climb's rise with j's and k's denominators swapped": (
        lattice._climb,
        ("rise = kn * td - tn * W", "rise = kn * W - tn * td"),
        tiling_windows,
        AssertionError,
    ),
    "_climb keeping the start vertex's denominator": (lattice._climb, ("j, tn, td = k, kn, W", "j, tn = k, kn"), tiling_windows, AssertionError),
    # The descent to the minimum vertex, reached through _run_sweep: a
    # comparison with the two vertices' denominators swapped, and a walk
    # that never goes back.
    "_deepest with its denominators swapped": (geom._deepest, ("kn * jw >= jn * W", "kn * W >= jn * jw"), hint_free_sweeps, AssertionError),
    "_deepest walking one way only": (geom._deepest, ("for step in (1, -1):", "for step in (1,):"), hint_free_sweeps, AssertionError),
    # A hit's chord ends, ordered with one comparison.
    "a hit's chord ends swapped when in order": (lattice._run_sweep, ("if hi_pt < lo_pt:", "if lo_pt < hi_pt:"), frozen_hits, AssertionError),
    "windows cut at the lower chain's edge ends only": (
        lattice._windows,
        ("end = min(lo_end, hi_end)", "end = lo_end"),
        tiling_windows,
        AssertionError,
    ),
    # baseline's check that each residual region is smaller than P.
    "residual regions without their shrink check": (
        hull_new.residual_regions,
        ("if not area(region) < whole:", "if False:"),
        check_residual_regions_must_shrink,
        AssertionError,
    ),
    # An instance's "p/q" read with its denominator dropped or swapped.
    "parse_rational dropping the denominator": (
        instances.parse_rational,
        ("Fraction(int(num), int(den))", "Fraction(int(num))"),
        check_rationals_read_as_fraction_reads_them,
        AssertionError,
    ),
    "parse_rational swapping the numerator and denominator": (
        instances.parse_rational,
        ("Fraction(int(num), int(den))", "Fraction(int(den), int(num))"),
        check_rationals_read_as_fraction_reads_them,
        AssertionError,
    ),
    # The one payload rule, Instance's: two payloads accepted.  Only the
    # both-payload file catches it; the file with neither is still refused.
    "Instance accepting two payloads": (
        instances.Instance.__post_init__,
        ("(self.vertices is None) == (self.inequalities is None)", "(self.vertices is None) and (self.inequalities is None)"),
        check_the_payload_rule,
        pytest.fail.Exception,
    ),
    # parse_rational under the one integer rule: a bool is no integer.
    "parse_rational taking a bool": (
        instances.parse_rational,
        ("type(value) is int", "isinstance(value, int)"),
        test_instances.test_rational_parsing_and_formatting,
        pytest.fail.Exception,
    ),
    # The one exactness rule (geom._integer): a string parsed by Fraction,
    # a bool taken as an int, and RefineConfig's count read by
    # operator.index, which takes a bool.
    "_frac with its str branch restored": (
        geom._frac,
        ("Fraction(_integer(value))", "Fraction(value if isinstance(value, str) else _integer(value))"),
        check_exact_numbers,
        AssertionError,
    ),
    "the exactness rule letting a bool through": (
        geom._integer,
        ("type(value) is not int", "not isinstance(value, int)"),
        check_exact_numbers,
        AssertionError,
    ),
    "RefineConfig back on operator.index": (
        hull_new.RefineConfig.__post_init__,
        ("_integer(self.brute_force_cell_threshold)", "__import__('operator').index(self.brute_force_cell_threshold)"),
        check_exact_numbers,
        AssertionError,
    ),
    # An arc's crossing solved with the levels of its two ends swapped lands
    # at its mirror image about the edge's midpoint: at the end side, seen
    # by the clips, and at the start side, seen by the half-plane cuts.
    "a clip crossing with its end levels swapped": (
        geom._arc,
        (
            "_crossing(forms[end % n], l_end, forms[(end + 1) % n], l_after)",
            "_crossing(forms[end % n], l_after, forms[(end + 1) % n], l_end)",
        ),
        check_clip_matches_the_vertex_scan,
        AssertionError,
    ),
    "an arc's start crossing with its levels swapped": (
        geom._arc,
        (
            "_crossing(forms[start % n], l_start, forms[(start - 1) % n], l_before)",
            "_crossing(forms[start % n], l_before, forms[(start - 1) % n], l_start)",
        ),
        check_halfplane_edge_cases,
        AssertionError,
    ),
    # The one counting rule of a facet pass: a pass that found no lattice
    # point swept once, not never.
    "a facet pass that found nothing counted as no sweep": (
        oracle.RunStats.facets,
        ("len(hits) or 1", "len(hits)"),
        lattice_free_sliver,
        AssertionError,
    ),
    # A hull's vertices coerced by operator.index: one that is not an
    # integer is refused, never truncated.
    "HullResult without its index coercion": (
        geom.HullResult.__new__,
        ("IntPoint2(index(p[0]), index(p[1]))", "IntPoint2(p[0], p[1])"),
        test_geom.test_convex_hull_small_cases,
        pytest.fail.Exception,
    ),
    # Each engine door counts into the caller's RunStats, never a fresh one.
    "an engine door that ignores the caller's RunStats": (
        hull_new.integer_hull_new,
        ("if stats is None:", "if True:"),
        test_hull_new.test_sweep_counters_count_each_kind_of_sweep,
        AssertionError,
    ),
    # The oracle's columns.
    "a column's range cut one short": (oracle.enumerate_integer_points, ("y_hi + 1", "y_hi"), box_scans, AssertionError),
    # The brute-force door: a column's high end dropped, the walk left
    # uncharged, its point count one short per column, and a point or
    # segment charged its cells.
    "a column's high end dropped": (
        oracle._hull_points,
        ("((x, y_lo), (x, y_hi)) if y_lo < y_hi else ((x, y_lo),)", "((x, y_lo),)"),
        column_ends,
        AssertionError,
    ),
    "the column walk skipping its cell charge": (
        oracle._hull_points,
        ("_charge(P, _CELL_BUDGET, stats)", "_charge(P, _CELL_BUDGET, RunStats())"),
        column_ends,
        AssertionError,
    ),
    "the column walk counting one point short per column": (
        oracle._hull_points,
        ("y_hi - y_lo + 1 for", "y_hi - y_lo for"),
        column_ends,
        AssertionError,
    ),
    "the brute-force door charging a point or segment": (
        oracle._hull_points,
        (
            "if P.is_degenerate:\n        return _lattice_extremes(P)\n    _charge(P, _CELL_BUDGET, stats)",
            "_charge(P, _CELL_BUDGET, stats)\n    if P.is_degenerate:\n        return _lattice_extremes(P)",
        ),
        check_a_wide_segment_is_answered_uncharged,
        BudgetExceeded,
    ),
    # The one cell count behind the budget, `new`'s cut-off and the plot's
    # lattice dots, one column short.
    "a bounding box's columns counted one short": (
        oracle.bbox_cell_count,
        ("-X0 // W0 + 1", "-X0 // W0"),
        check_cell_counts_match_their_bounding_boxes,
        AssertionError,
    ),
    # Its binary searches for the extremes: the max-x search one vertex
    # short, and the max-y search over the lower chain too.
    "the max-x search ending one vertex short": (
        oracle.bbox_cell_count,
        ("_turn_index(forms, 0, 1, 0, n - 1)", "_turn_index(forms, 0, 1, 0, n - 2)"),
        check_cell_counts_match_their_bounding_boxes,
        AssertionError,
    ),
    "the max-y search starting at vertex 0": (
        oracle.bbox_cell_count,
        ("_turn_index(forms, 1, 1, r, n)", "_turn_index(forms, 1, 1, 0, n)"),
        check_cell_counts_match_their_bounding_boxes,
        AssertionError,
    ),
}


def assert_caught(monkeypatch, name):
    function, (old, new), check, error = MUTANTS[name]
    check()
    rebuilt = mutant(function, old, new)
    modules = [module for key, module in list(sys.modules.items()) if key.startswith("inthull.")]
    for module in modules + [sys.modules[check.__module__]]:
        for attr, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attr, rebuilt)
    owner, _, method = function.__qualname__.rpartition(".")
    if owner:  # a method is bound on its class
        monkeypatch.setattr(getattr(sys.modules[function.__module__], owner), method, rebuilt)
    with pytest.raises(error):
        check()


@pytest.mark.parametrize("name", sorted(name for name, entry in MUTANTS.items() if entry[2] in FACET_COVER))
def test_the_facet_cover_check_catches(monkeypatch, name):
    assert_caught(monkeypatch, name)


@pytest.mark.parametrize("name", sorted(name for name, entry in MUTANTS.items() if entry[2] not in FACET_COVER))
def test_the_named_check_catches(monkeypatch, name):
    assert_caught(monkeypatch, name)
