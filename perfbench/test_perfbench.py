"""Tests of the benchmark's own oracles and checks.

    python3 -m pytest perfbench -q

The oracles are tried on textbook codes (Hamming [7,4,3], BCH [15,7,5]
and the [31,16,7] sqrt-m5 code), and every check is shown to catch a
corrupted copy of a real program output.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_program()

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

HAMMING_G = 0b1011  # 1 + x + x^3
HAMMING_H = 0b10111  # 1 + x + x^2 + x^4
BCH15_G = 0b111010001  # 1 + x^4 + x^6 + x^7 + x^8
BCH15_Z = [1, 2, 3, 4, 6, 8, 9, 12]
SQRT5_Z = [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 17, 18, 20, 24]


def schoolbook(a: int, b: int) -> int:
    out = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            out ^= b << i
    return out


# -- oracles on textbook codes ----------------------------------------------


def test_clmul_matches_schoolbook_and_hamming_product():
    assert oracles.clmul(HAMMING_G, HAMMING_H) == (1 << 7) | 1
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.getrandbits(rng.randrange(1, 300)), rng.getrandbits(rng.randrange(1, 300))
        assert oracles.clmul(a, b) == schoolbook(a, b)


def test_divide_exact_and_codeword_test_via_h():
    assert oracles.divide_exact((1 << 7) | 1, HAMMING_G) == HAMMING_H
    with pytest.raises(ValueError):
        oracles.divide_exact((1 << 7) | 1, 0b111)
    h = oracles.divide_exact((1 << 15) | 1, BCH15_G)
    assert oracles.clmul(BCH15_G, h) == (1 << 15) | 1
    for word in (HAMMING_G, HAMMING_G << 3, HAMMING_G ^ (HAMMING_G << 1)):
        assert oracles.is_codeword_via_h(word, HAMMING_H, 7)
    assert not oracles.is_codeword_via_h(HAMMING_G ^ 1, HAMMING_H, 7)


def test_field_moduli_are_the_smallest_primitive():
    assert oracles.Field(3).modulus == 0b1011
    assert oracles.Field(4).modulus == 0b10011
    assert oracles.Field(5).modulus == 0b100101  # x^5 + x + 1 is reducible


def test_field_on_a_given_modulus_must_be_primitive():
    assert oracles.Field(4, 0b11001).modulus == 0b11001  # x^4 + x^3 + 1
    for bad in (0b11111, 0b10101, 0b1011):  # order 5, reducible, degree 3
        with pytest.raises(ValueError):
            oracles.Field(4, bad)


def test_roots_up_to_the_choice_of_primitive_element():
    other = oracles.Field(4, 0b11001)
    assert other.roots_are_some_power(BCH15_G, BCH15_Z)
    assert oracles.Field(4).roots_are_some_power(BCH15_G, BCH15_Z)
    m1 = 0b10011  # minimal polynomial of beta: roots beta^{1,2,4,8}
    assert not oracles.Field(4).roots_are_some_power(m1, [3, 6, 9, 12])
    assert not oracles.Field(4).roots_are_some_power(m1, [1, 2, 4, 8, 3, 6, 9, 12])


@pytest.mark.parametrize("m, z, g", [(3, [1, 2, 4], HAMMING_G), (4, BCH15_Z, BCH15_G)])
def test_roots_are_exactly_z_on_textbook_codes(m, z, g):
    fld = oracles.Field(m)
    assert fld.generator_from_roots(z) == g
    assert list(map(int, fld.root_mask(g).nonzero()[0])) == z


def test_sqrt_m5_code_matches_program_generator():
    from bincyclic import codecore, constructions

    zset = constructions.DefiningSet.from_elements(31, SQRT5_Z)
    g = codecore.assemble(zset).generator
    fld = oracles.Field(5)
    assert fld.generator_from_roots(SQRT5_Z) == g
    assert (fld.root_mask(g) == oracles.as_mask(SQRT5_Z, 31)).all()
    assert oracles.cyclic_run(SQRT5_Z, 31) == (7, 1)
    assert oracles.cyclic_run(oracles.dual_set(SQRT5_Z, 31), 31)[0] == 8


def test_cyclic_run():
    assert oracles.cyclic_run([1, 2, 4], 7) == (3, 1)
    assert oracles.cyclic_run(BCH15_Z, 15) == (5, 1)
    assert oracles.cyclic_run([13, 14, 0, 1], 15) == (5, 13)  # wraps through 0
    assert oracles.cyclic_run([0, 1, 5, 6], 15) == (3, 0)  # tie: smallest start
    assert oracles.cyclic_run([], 15) == (1, None)


def test_doubling_closure_and_dual_set():
    assert oracles.is_doubling_closed([1, 2, 4, 8], 15)
    assert not oracles.is_doubling_closed([1, 2, 4], 15)
    assert list(oracles.dual_set([1, 2, 4], 7)) == [0, 1, 2, 4]


def test_random_coset_union_is_exact_closed_and_seeded():
    for n, size in ((63, 33), (1023, 511), (2047, 1023)):
        z = oracles.random_coset_union(random.Random(9), n, size)
        assert len(z) == size and oracles.is_doubling_closed(z, n)
        assert z == oracles.random_coset_union(random.Random(9), n, size)
    assert z != oracles.random_coset_union(random.Random(10), 2047, 1023)


# -- the checks catch corrupted outputs -------------------------------------


@pytest.fixture(scope="module")
def analyze_output():
    wl = workloads.Workload("test", [])
    result = workloads.spool_cli(
        ["analyze", "--m", "4", "--engine", "exhaustive", "--json"], " ".join(map(str, BCH15_Z))).collect()
    check = workloads.analysis_check(wl, 4, elements=BCH15_Z, method="exhaustive", exact=5)
    return result, check


def _corrupt(result, edit):
    doc = json.loads(result.out)
    edit(doc)
    return workloads.CliResult(0, json.dumps(doc), "")


def test_analyze_output_passes_as_is(analyze_output):
    result, check = analyze_output
    assert result.rc == 0
    assert check(result, {}) == []


def _flip_witness_bit(doc):
    bits = doc["distance"]["witness_bits"]
    doc["distance"]["witness_bits"] = ("0" if bits[0] == "1" else "1") + bits[1:]


@pytest.mark.parametrize("edit", [
    _flip_witness_bit,
    lambda d: d["code"].update(bch_lower_bound=d["code"]["bch_lower_bound"] + 1),
    lambda d: d["code"]["dual"].update(bch_lower_bound=d["code"]["dual"]["bch_lower_bound"] - 1),
    lambda d: d["distance"].update(exact_distance=4, proven_lower_bound=4),
    lambda d: d["distance"].update(iterations=d["distance"]["iterations"] - 1),
    lambda d: d["code"].update(generator_bits="1" + d["code"]["generator_bits"][1:-1] + "01"),
    lambda d: d["code"].update(defining_set=d["code"]["defining_set"][1:]),
])
def test_analyze_check_catches_corruption(analyze_output, edit):
    result, check = analyze_output
    assert check(_corrupt(result, edit), {}) != []


def test_construct_check_catches_corruption():
    wl = workloads.Workload("test", [])
    check = workloads.construct_check(wl, 7, "sqrt", "sqrt-complement")
    result = workloads.spool_cli(["construct", "sqrt", "--m", "7", "--json"]).collect()
    assert check(result, {}) == []
    for edit in (
        lambda d: d["code"].update(defining_set=d["code"]["defining_set"][:-1]),
        lambda d: d["code"].update(bch_interval_start=d["code"]["bch_interval_start"] + 1),
        lambda d: d["code"]["dual"].update(size=d["code"]["dual"]["size"] + 1),
        lambda d: d["audit"].update(construction="even-m"),
    ):
        assert check(_corrupt(result, edit), {}) != []


def test_paper_floor_is_enforced():
    problems: list[str] = []
    workloads._family_claims("sqrt", 7, 127, 63, 14, 16, problems, "x")  # d floor is 15
    assert problems and "floor" in problems[0]
    problems = []
    workloads._family_claims("odd-pq", 15, 32767, 16383, 2184, None, problems, "x")  # needs > 2184.07
    assert problems


def test_fixture_check_catches_wrong_distance():
    check = workloads.fixture_check("sqrt-m5")
    result = workloads.spool_cli(["verify-paper", "--fixture", "sqrt-m5", "--json"]).collect()
    assert check(result, {}) == []

    def edit(doc):
        for row in doc["fixtures"][0]["rows"]:
            if row["field"] == "distance" and row["code"] == "C":
                row["actual"] = 6
    assert check(_corrupt(result, edit), {}) != []


def test_assemble_and_dual_checks_catch_corruption():
    from bincyclic import codecore, constructions

    wl = workloads.Workload("test", [])
    zset, _ = constructions.build_sqrt_complement(7)
    elements = [int(x) for x in zset.elements]
    code = codecore.assemble(zset)
    state = {"C": code}
    asm_check = workloads._assemble_check(wl, "C", "sqrt", 7, elements)
    dual_check = workloads._dual_check("C", 7, elements)
    assert asm_check(code, state) == []
    dual = code.dual()
    assert dual_check(dual, state) == []
    bad = dataclasses.replace(code, generator=code.generator ^ (1 << 5))
    assert asm_check(bad, state) != []
    assert dual_check(dataclasses.replace(dual, generator=dual.generator ^ 2), state) != []
    assert workloads._roots_check(False, state) != []
    reducible = dataclasses.replace(code.ctx, modulus=0b10000001)  # x^7 + 1
    assert asm_check(dataclasses.replace(code, ctx=reducible), state) != []


def test_assemble_check_accepts_another_primitive_modulus():
    from bincyclic import codecore, constructions, gf2

    modulus = 0b11000001  # x^7 + x^6 + 1, not the program's default x^7 + x + 1
    antilog = oracles.Field(7, modulus).antilog.astype(np.int32)
    log = np.full(128, -1, dtype=np.int32)
    log[antilog] = np.arange(127, dtype=np.int32)
    ctx = gf2.FieldContext(m=7, modulus=modulus, log_table=log, antilog_table=antilog)
    zset, _ = constructions.build_sqrt_complement(7)
    elements = [int(x) for x in zset.elements]
    code = codecore.assemble(zset, ctx=ctx)
    wl = workloads.Workload("test", [])
    assert workloads._assemble_check(wl, "C", "sqrt", 7, elements)(code, {"C": code}) == []
    # The CLI's JSON names no modulus: its root check takes any primitive one.
    assert workloads.check_generator(code.generator, elements, wl.field_for(7), "g") == []


def test_spooled_cli_output_is_read_back_whole():
    argv = ["construct", "sqrt", "--m", "7", "--json"]
    spooled = workloads.spool_cli(argv)
    assert isinstance(spooled, workloads.SpooledCli) and spooled.rc == 0
    result = workloads.collect(spooled)
    assert spooled.stdout.closed
    assert json.loads(result.out)["code"]["n"] == 127


# -- tracing -----------------------------------------------------------------


def test_tracer_counts_repeat_and_uninstall_restores():
    from bincyclic import codecore, gf2

    orig = (gf2.make_field, codecore.make_field, gf2.FieldContext.eval_poly)
    wl = workloads.build_search(4)
    wl.ops = wl.ops[:2]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for op in wl.ops:
                with tracer.span("op:" + op.name):
                    workloads.collect(op.run({}))
        finally:
            tracer.uninstall()
        runs.append(tracer.per_layer(1, 0.0))
    assert (gf2.make_field, codecore.make_field, gf2.FieldContext.eval_poly) == orig
    counts = [k for k, unit in PER_LAYER if unit == "count"]
    assert [runs[0][k] for k in counts] == [runs[1][k] for k in counts]
    assert runs[0]["distance.search_iters"] == 600
    assert runs[0]["gf2.make_field_calls"] == 2
    assert runs[0]["distance.search_s"] > 0 and runs[0]["distance.exact_s"] == 0
