"""Embedded reference fixtures and the harness that re-verifies them.

Each fixture names one construction, its parameters, and the recorded
reference values for the resulting code(s): pinned defining sets,
dimensions, run bounds, exact distances (proved by the information-weight
engine, where its enumeration is affordable) and search weights (where
it is not).  ``run_fixture`` rebuilds the construction and compares, row
by row; nothing here touches the network or the filesystem.

Row vocabulary per expected code:

  elements       exact defining-set equality
  size           |Z| equality
  contains       required residues (subset check)
  excludes       residues that must be absent
  bch_floor      bch_lower_bound(Z) >= floor (weakest recorded claim)
  bch_floor_strict  a sharper floor recorded alongside, same check
  bch_computed   bch_lower_bound(Z) == recorded value (regression pin)
  distance       exact distance proved by ``proven_min_distance``, equality;
                 its certificate is re-checked (a failed check raises)
  search_weight  best_weight_found of the seeded search == recorded value

Labels ending in "-dual" refer to the dual of the like-named primal
code (defining set -(Z_n \\ Z)).
"""

from __future__ import annotations

import fnmatch
import functools
import operator
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

from .codecore import assemble, bch_run, dual_defining_set
from .constructions import DefiningSet, build_family
from .distance import low_weight_search, proven_min_distance, verify_distance_certificate


#: (seed, iterations, depth) of the seeded search behind every ``search_weight`` row.
SEARCH_RUN = (1, 10_000, 2)


@dataclass(frozen=True)
class ExpectedCode:
    """Recorded reference values for one code of a fixture."""

    label: str
    n: int
    k: int
    elements: Optional[tuple[int, ...]] = None
    size: Optional[int] = None
    contains: tuple[int, ...] = ()
    excludes: tuple[int, ...] = ()
    bch_floor: Optional[int] = None
    bch_floor_strict: Optional[int] = None
    bch_computed: Optional[int] = None
    distance: Optional[int] = None
    search_weight: Optional[int] = None


@dataclass(frozen=True)
class Fixture:
    """One construction plus everything we promise about its output."""

    fixture_id: str
    title: str
    construction: str
    params: tuple[tuple[str, object], ...]
    codes: tuple[ExpectedCode, ...]
    audit_values: tuple[tuple[str, object], ...] = ()
    slow: bool = False
    note: str = ""


def _span(values: tuple[int, ...]) -> str:
    """Compact display form of a non-empty tuple: contiguous runs collapse to 'a..b'."""
    ordered = sorted(values)
    if ordered == list(range(ordered[0], ordered[-1] + 1)):
        return f"{ordered[0]}..{ordered[-1]}"
    if len(ordered) <= 8:
        return "{" + ",".join(str(v) for v in ordered) + "}"
    return f"{{{ordered[0]},{ordered[1]},...,{ordered[-1]}}} ({len(ordered)} residues)"


def _build_sets(fx: Fixture):
    return build_family(fx.construction, **dict(fx.params))


def run_fixture(fx: Fixture) -> SimpleNamespace:
    """Rebuild one fixture and compare every recorded value.

    The report's ``vars`` are the fixture's object in ``verify-paper
    --json``: ``id``, ``ok`` (every row holds), ``seconds`` and ``rows``,
    each row a dict of ``code`` ("" for audit rows), ``field``,
    ``expected``, ``actual`` and ``ok``.  A distance certificate that
    fails its re-check raises :class:`~bincyclic.codecore.InvariantError`.
    """
    t_start = time.perf_counter()
    rows: list[dict] = []
    label = ""  # the code the next rows are about; "" for the audit

    def check(field: str, expected, actual, ok: Optional[bool] = None) -> None:
        ok = actual == expected if ok is None else ok
        rows.append({"code": label, "field": field, "expected": expected,
                     "actual": actual, "ok": ok})

    primal, audit = _build_sets(fx)
    sets: dict[str, DefiningSet] = dict(primal)
    for name, zset in primal:
        sets[name + "-dual"] = dual_defining_set(zset)

    for name, want in fx.audit_values:
        check(f"audit.{name}", want, getattr(audit, name))

    @functools.cache
    def code_for(name: str):
        if name.endswith("-dual"):
            return code_for(name[:-5]).dual()
        return assemble(sets[name])

    for exp in fx.codes:
        label = exp.label
        zset = sets[label]
        check("n", exp.n, zset.n)
        check("dimension", exp.k, zset.n - len(zset))
        if exp.elements is not None:
            check("elements", exp.elements, tuple(zset.elements.tolist()))
        if exp.size is not None:
            check("size", exp.size, len(zset))
        if exp.contains:
            missing = sorted({x for x in exp.contains if x not in zset})
            check(f"contains {_span(exp.contains)}", "present",
                  f"missing {_span(tuple(missing))}" if missing else "present")
        if exp.excludes:
            hit = sorted({x for x in exp.excludes if x in zset})
            check(f"excludes {_span(exp.excludes)}", "absent",
                  f"found {_span(tuple(hit))}" if hit else "absent")
        bch_checks = (
            ("bch_lower_bound >=", exp.bch_floor, operator.ge),
            ("bch_lower_bound >= (strict)", exp.bch_floor_strict, operator.ge),
            ("bch_lower_bound", exp.bch_computed, operator.eq),
        )
        delta, _ = bch_run(zset)
        for name, want, holds in bch_checks:
            if want is not None:
                check(name, want, delta, holds(delta, want))
        if exp.distance is not None:
            code = code_for(label)
            result = proven_min_distance(code)
            verify_distance_certificate(code, result)
            check("distance", exp.distance, result.exact_distance)
        if exp.search_weight is not None:
            seed, iterations, depth = SEARCH_RUN
            result = low_weight_search(code_for(label), seed=seed, iterations=iterations, depth=depth)
            check(f"search_weight (seed {seed}, {iterations} iters, depth {depth})",
                  exp.search_weight, result.best_weight_found)

    return SimpleNamespace(id=fx.fixture_id, ok=all(row["ok"] for row in rows),
                           seconds=time.perf_counter() - t_start, rows=rows)


def select_fixtures(pattern: Optional[str] = None, *, include_slow: bool = False) -> list[Fixture]:
    """Fixtures matching ``pattern`` (exact id or fnmatch); slow ones only on request.

    An explicit exact-id match overrides the slow gate: asking for a slow
    fixture by name runs it.
    """
    return [
        fx for fx in FIXTURES
        if (pattern is None or fx.fixture_id == pattern or fnmatch.fnmatch(fx.fixture_id, pattern))
        and (not fx.slow or include_slow or fx.fixture_id == pattern)
    ]


# --------------------------------------------------------------------------
# Recorded reference data.

EXAMPLE1_Z1 = (1, 2, 4, 5, 8, 10)
# The recorded listing omits 7; doubling closure (the orbit of 7 mod 15 is
# {7, 14, 13, 11}) and the stated [15,7] dimension both force it back in.
EXAMPLE1_Z2_LISTED = (3, 6, 9, 11, 12, 13, 14)
EXAMPLE1_Z2 = (3, 6, 7, 9, 11, 12, 13, 14)

EXAMPLE2_P1_PREIMAGE = (13, 19, 26, 38, 41, 52)
EXAMPLE2_P2_PREIMAGE = (11, 22, 25, 37, 44, 50)
EXAMPLE2_Z1 = (
    1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 13, 16, 17, 18, 19, 20, 24, 26, 27, 32,
    33, 34, 36, 38, 40, 41, 45, 48, 52, 54,
)
# Same story at length 63: the 31-residue listing drops 7 (orbit
# {7, 14, 28, 56, 49, 35}); the [63,31] dimension needs all 32.
EXAMPLE2_Z2_LISTED = (
    11, 14, 15, 21, 22, 23, 25, 28, 29, 30, 31, 35, 37, 39, 42, 43, 44, 46,
    47, 49, 50, 51, 53, 55, 56, 57, 58, 59, 60, 61, 62,
)
EXAMPLE2_Z2 = tuple(sorted(EXAMPLE2_Z2_LISTED + (7,)))

SQRT_M5_Z = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 17, 18, 20, 24)
SQRT_M7_Z = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 20, 21, 22,
    24, 26, 27, 28, 32, 33, 34, 35, 36, 37, 40, 41, 42, 44, 48, 49, 51, 52,
    54, 56, 64, 65, 66, 67, 68, 69, 70, 72, 74, 77, 80, 81, 82, 84, 88, 89,
    96, 97, 98, 102, 104, 108, 112,
)


def _even_m_fixture(m: int, bch: tuple[int, int, int, int]) -> Fixture:
    """Size and run-bound rows for one even-m split (no distance work)."""
    floor = 2 ** (m // 2) - 1
    c1, c1d, c2, c2d = bch
    return Fixture(
        fixture_id=f"even-m{m}",
        title=f"even m={m} split: sizes and run bounds",
        construction="even-m",
        params=(("m", m),),
        codes=(
            ExpectedCode("C1", 2**m - 1, 2**m - 2**(m - 1) + 1, size=2**(m - 1) - 2,
                         bch_floor=floor, bch_computed=c1),
            ExpectedCode("C1-dual", 2**m - 1, 2**(m - 1) - 2, bch_floor=floor + 1,
                         bch_computed=c1d),
            ExpectedCode("C2", 2**m - 1, 2**(m - 1) - 1, size=2**(m - 1),
                         bch_floor=floor, bch_computed=c2),
            ExpectedCode("C2-dual", 2**m - 1, 2**(m - 1), bch_floor=floor + 1,
                         bch_computed=c2d),
        ),
    )


def _weight_class_fixture(
    m: int,
    i: int,
    size: int,
    tusv: tuple[int, int, int, int],
    excluded_top: tuple[int, ...],
    bch: int,
    dual_bch: int,
    note: str = "",
) -> Fixture:
    n = 2**m - 1
    half = 2 ** ((m - 1) // 2)
    low_run = 4 * (half - 4)
    t, u, s, v = tusv
    return Fixture(
        fixture_id=f"weight-class-m{m}-i{i}",
        title=f"weight-class split m={m}, i={i}",
        construction="weight-class",
        params=(("m", m), ("i", i)),
        codes=(
            ExpectedCode(
                "C",
                n,
                n - size,
                size=size,
                contains=tuple(range(1, low_run + 1)),
                # keeping {0..2^((m-1)/2)-2} inside the complement's negation
                # is the dual-run guarantee, phrased as exclusions from Z
                excludes=tuple((n - e) % n for e in range(half - 1)),
                bch_floor=low_run + 1,
                bch_computed=bch,
            ),
            ExpectedCode("C-dual", n, size, bch_floor=half, bch_computed=dual_bch),
        ),
        audit_values=(("t", t), ("u", u), ("s", s), ("v", v), ("excluded_top", excluded_top)),
        note=note,
    )


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        fixture_id="example1",
        title="m=4 split: [15,9,3], [15,6,6], [15,7,5], [15,8,4]",
        construction="even-m",
        params=(("m", 4),),
        codes=(
            ExpectedCode("C1", 15, 9, elements=EXAMPLE1_Z1, bch_computed=3, distance=3),
            ExpectedCode("C1-dual", 15, 6, bch_computed=6, distance=6),
            ExpectedCode("C2", 15, 7, elements=EXAMPLE1_Z2, bch_computed=5, distance=5),
            ExpectedCode("C2-dual", 15, 8, bch_computed=4, distance=4),
        ),
        audit_values=(("p1_preimage", ()), ("p2_preimage", ())),
        note="Z2 as recorded omits residue 7; closure under doubling restores it.",
    ),
    Fixture(
        fixture_id="example2",
        title="m=6 split: [63,33,7], [63,30,12], [63,31,9], [63,32,8]",
        construction="even-m",
        params=(("m", 6),),
        codes=(
            ExpectedCode("C1", 63, 33, elements=EXAMPLE2_Z1, bch_computed=7, distance=7),
            ExpectedCode("C1-dual", 63, 30, bch_computed=10, distance=12),
            ExpectedCode("C2", 63, 31, elements=EXAMPLE2_Z2, bch_computed=9, distance=9),
            ExpectedCode("C2-dual", 63, 32, bch_computed=8, distance=8),
        ),
        audit_values=(
            ("p1_preimage", EXAMPLE2_P1_PREIMAGE),
            ("p2_preimage", EXAMPLE2_P2_PREIMAGE),
        ),
        slow=True,
        note="Four information-weight proofs at k = 30..33; Z2 as recorded omits residue 7.",
    ),
    _even_m_fixture(6, (7, 10, 9, 8)),
    _even_m_fixture(8, (15, 18, 17, 16)),
    _even_m_fixture(10, (31, 34, 33, 32)),
    _even_m_fixture(12, (63, 66, 65, 64)),
    Fixture(
        fixture_id="table3-p3",
        title="two-prime p=3: [63,32] with head run {0..9}",
        construction="two-prime",
        params=(("p", 3),),
        codes=(
            ExpectedCode(
                "C", 63, 32, size=31,
                contains=tuple(range(10)),
                bch_floor=10,          # weaker recorded floor
                bch_floor_strict=11,   # head run {0..9} gives 11 directly
                bch_computed=12,       # 10 sits in the orbit of 5, extending the run
                distance=12,
            ),
            ExpectedCode("C-dual", 63, 31, bch_floor=7, bch_computed=7),
        ),
        audit_values=(("sigma0", 4), ("case", "direct"), ("tail_first", 57), ("tail_last", 62)),
        note="The summation floor is 10; the assembled run bound and the exact distance are both 12.",
    ),
    Fixture(
        fixture_id="table3-p5",
        title="two-prime p=5: [1023,512] bound checks",
        construction="two-prime",
        params=(("p", 5),),
        codes=(
            ExpectedCode(
                "C", 1023, 512, size=511,
                contains=tuple(range(104)),
                excludes=tuple(range(1009, 1023)),
                bch_floor=103,
                bch_floor_strict=104,
                bch_computed=110,
            ),
            ExpectedCode("C-dual", 1023, 511, bch_floor=15, bch_computed=15),
        ),
        audit_values=(
            ("sigma0", 45),
            ("case", "extended"),
            ("tail_first", 1009),
            ("tail_last", 1022),
        ),
        note="Exact distance out of reach; the free tail is {1009..1022}, fourteen residues.",
    ),
    Fixture(
        fixture_id="table4-p3p5",
        title="odd-pq (3,5): [32767,16384] bound checks",
        construction="odd-pq",
        params=(("p1", 3), ("p2", 5)),
        codes=(
            ExpectedCode("C", 32767, 16384, size=16383, bch_floor=2185, bch_computed=2631),
            ExpectedCode(
                "C-dual", 32767, 16383,
                contains=tuple(range(15)),
                bch_floor=16,
                bch_computed=16,
            ),
        ),
        audit_values=(("sigma0", 928), ("case", "extended")),
    ),
    Fixture(
        fixture_id="table4-p3p7",
        title="odd-pq (3,7): [2097151,1048576] bound checks",
        construction="odd-pq",
        params=(("p1", 3), ("p2", 7)),
        codes=(
            ExpectedCode("C", 2097151, 1048576, size=1048575, bch_floor=99868, bch_computed=120285),
            ExpectedCode(
                "C-dual", 2097151, 1048575,
                contains=tuple(range(31)),
                bch_floor=32,
                bch_computed=32,
            ),
        ),
        audit_values=(("sigma0", 42501), ("case", "extended")),
    ),
    Fixture(
        fixture_id="sqrt-m5",
        title="sqrt-complement m=5: [31,16,7] and dual [31,15,8]",
        construction="sqrt",
        params=(("m", 5),),
        codes=(
            ExpectedCode("C", 31, 16, elements=SQRT_M5_Z, bch_computed=7, distance=7),
            ExpectedCode("C-dual", 31, 15, bch_computed=8, distance=8),
        ),
    ),
    Fixture(
        fixture_id="sqrt-m7",
        title="sqrt-complement m=7 with choices {21,27}: [127,64] / [127,63]",
        construction="sqrt",
        params=(("m", 7), ("overrides", (21, 27))),
        codes=(
            ExpectedCode("C", 127, 64, elements=SQRT_M7_Z, bch_computed=15, search_weight=19),
            ExpectedCode("C-dual", 127, 63, bch_computed=16, search_weight=20),
        ),
        audit_values=(
            ("residual_pairs", ((19, 27), (21, 43))),
            ("selected_leaders", (27, 21)),
        ),
        slow=True,
        note="Search confirmation: weights 19/20 found, nothing smaller; not an exactness proof.",
    ),
    _weight_class_fixture(
        9, 0, 255, (31, 47, 55, 49), (55, 53, 51, 49), 51, 16,
        note=(
            "The recorded count 2^(m-1)-1 = 255 is NOT attained: the orbit of "
            "v = 49 dips to leader 35 inside the low block, so C_v adds nothing "
            "back and the set lands on 264.  The mismatch is reported, not hidden."
        ),
    ),
    _weight_class_fixture(9, 1, 255, (15, 29, 53, 51), (55, 53, 51, 49), 51, 16),
    _weight_class_fixture(11, 0, 1023, (31, 61, 117, 115), (119, 117, 115, 113), 113, 32),
    _weight_class_fixture(11, 1, 1023, (63, 95, 119, 113), (119, 117, 115, 113), 113, 32),
    _weight_class_fixture(13, 0, 4095, (127, 191, 247, 241), (247, 245, 243, 241), 241, 64),
    _weight_class_fixture(13, 1, 4095, (63, 125, 245, 243), (247, 245, 243, 241), 241, 64),
)
