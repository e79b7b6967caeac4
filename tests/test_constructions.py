"""Defining-set builders: frozen traces, regressions, and failure modes."""

import os
import re
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import bincyclic

from bincyclic import constructions
from bincyclic.constructions import (
    DefiningSet,
    SelectionError,
    _complement_pairs,
    _greedy_select,
    build_even_m,
    build_family,
    build_odd_pq,
    build_sqrt_complement,
    build_two_prime,
    build_weight_class,
)
from bincyclic.cosets import build_table, negated_mask
from bincyclic.gf2 import InvariantError
from bincyclic.codecore import bch_run, dual_defining_set
from bincyclic.fixtures import (
    EXAMPLE1_Z1,
    EXAMPLE1_Z2,
    EXAMPLE1_Z2_LISTED,
    EXAMPLE2_P1_PREIMAGE,
    EXAMPLE2_P2_PREIMAGE,
    EXAMPLE2_Z1,
    EXAMPLE2_Z2,
    SQRT_M5_Z,
    SQRT_M7_Z,
)


class TestDefiningSet:
    def test_from_elements_roundtrip(self):
        z = DefiningSet.from_elements(63, (1, 2, 4, 8, 16, 32))
        assert len(z) == 6
        assert 16 in z and 5 not in z
        assert z.as_set() == {1, 2, 4, 8, 16, 32}
        assert z == DefiningSet.from_elements(63, [32, 16, 8, 4, 2, 1])

    def test_rejects_sets_not_closed_under_doubling(self):
        with pytest.raises(ValueError, match="doubling"):
            DefiningSet.from_elements(63, (1, 2))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DefiningSet.from_elements(63, (63,))

    @pytest.mark.parametrize("outside", [2**70, -(2**70)])
    def test_rejects_values_past_int64(self, outside):
        with pytest.raises(ValueError, match="elements outside Z_15"):
            DefiningSet.from_elements(15, (1, 2, 4, 8, outside))

    @pytest.mark.parametrize("elements", [[1.9, 2, 4, 8], ["1", "2", "4", "8"], [True, 2, 4, 8],
                                          [np.bool_(True), 2, 4, 8]])
    def test_rejects_elements_that_are_not_ints(self, elements):
        # each of these used to be read as {1, 2, 4, 8} through int(x)
        with pytest.raises(ValueError, match=re.escape(f"elements must be ints, got {elements[0]!r}")):
            DefiningSet.from_elements(15, elements)

    @pytest.mark.parametrize("elements", [5, None])
    def test_rejects_elements_that_are_not_iterable(self, elements):
        message = f"elements must be an iterable of ints, got {elements!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            DefiningSet.from_elements(15, elements)

    def test_accepts_numpy_integers(self):
        want = DefiningSet.from_elements(15, (1, 2, 4, 8))
        assert DefiningSet.from_elements(15, np.array([8, 4, 2, 1], dtype=np.uint16)) == want
        assert DefiningSet.from_elements(15, [np.int64(1), 2, np.int32(4), 8]) == want
        assert DefiningSet.from_elements(15, want.elements) == want

    @pytest.mark.parametrize("length", [5, 9])
    def test_from_mask_needs_one_entry_per_residue(self, length):
        with pytest.raises(ValueError, match="Z_7"):
            DefiningSet.from_mask(7, np.ones(length, dtype=bool))
        assert len(DefiningSet.from_mask(7, np.ones(7, dtype=bool))) == 7

    def test_closure_check_matches_doubling_the_elements(self):
        rng = np.random.default_rng(20261019)
        for m in (2, 3, 4, 5, 6, 9):
            n = (1 << m) - 1
            table = build_table(m)
            masks = [rng.random(n) < rng.random() for _ in range(50)]
            masks += [table.union_mask(rng.choice(table.leaders, size=3)) for _ in range(20)]
            # the whole coset of x but 2x: closure breaks at x alone, where
            # the doubled mask moves from the even residues to the odd ones
            for x in ((n - 1) // 2, (n + 1) // 2, n - 1):
                broken = table.union_mask([table.leader_of[x]])
                broken[(2 * x) % n] = False
                masks.append(broken)
            for mask in masks:
                elements = np.flatnonzero(mask)
                closed = bool(mask[(2 * elements) % n].all())
                try:
                    z = DefiningSet.from_mask(n, mask)
                except ValueError as exc:
                    assert not closed and "doubling" in str(exc), elements
                else:
                    assert closed and np.array_equal(z.elements, elements), elements

    @pytest.mark.parametrize("m", [14, 18])
    def test_closure_check_copies_no_mask(self, m):
        # the check compares halves of the mask in place: beside the
        # elements array, no transient reaches a quarter of n bytes
        _, z2, _ = build_even_m(m)
        mask = z2.mask()
        tracemalloc.start()
        try:
            z = DefiningSet.from_mask(z2.n, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z == z2
        assert peak <= z.elements.nbytes + z.n // 4, f"peak {peak} bytes"

    def test_compares_unequal_to_other_types(self):
        z = DefiningSet.from_elements(15, (5, 10))
        assert z.__eq__(5) is NotImplemented
        assert (z == 5) is False

    def test_rejects_an_even_modulus(self):
        with pytest.raises(ValueError, match="odd"):
            DefiningSet.from_mask(8, np.zeros(8, dtype=bool))

    def test_elements_read_only(self):
        z = DefiningSet.from_elements(15, (5, 10))
        with pytest.raises(ValueError):
            z.elements[0] = 3

    def test_fields_and_repr(self):
        z = DefiningSet.from_elements(15, (5, 10), origin={"construction": "adhoc"})
        assert z.n == 15 and len(z) == 2 and list(z) == [5, 10]
        assert z.origin == {"construction": "adhoc"}
        assert "DefiningSet" in repr(z)


class TestEvenM:
    def test_example_m4(self):
        z1, z2, audit = build_even_m(4)
        assert tuple(z1) == EXAMPLE1_Z1
        assert tuple(z2) == EXAMPLE1_Z2
        # the recorded reference listing drops residue 7; make the
        # relationship explicit so the correction stays visible
        assert set(EXAMPLE1_Z2_LISTED) | {7} == set(z2)
        assert audit.p1_preimage == () and audit.p2_preimage == ()
        assert audit.t == 2

    def test_example_m6(self):
        z1, z2, audit = build_even_m(6)
        assert tuple(z1) == EXAMPLE2_Z1
        assert tuple(z2) == EXAMPLE2_Z2
        assert audit.p1_preimage == EXAMPLE2_P1_PREIMAGE
        assert audit.p2_preimage == EXAMPLE2_P2_PREIMAGE

    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12])
    def test_partition_shape(self, m):
        z1, z2, audit = build_even_m(m)
        n = 2**m - 1
        assert len(z1) == 2 ** (m - 1) - 2
        assert len(z2) == 2 ** (m - 1)
        assert z1.as_set() & z2.as_set() == set()
        assert z1.as_set() | z2.as_set() == set(range(1, n))
        # the audited halves are word-level (they still hold 0 and the
        # all-ones word), so each is exactly half of the 2^m words
        assert audit.s1_size == audit.s2_size == 2 ** (m - 1)

    def test_swap_pairs_exchanges_preimages(self):
        _, _, audit = build_even_m(6, swap_pairs=True)
        assert audit.swap_pairs is True
        assert audit.p1_preimage == EXAMPLE2_P2_PREIMAGE
        assert audit.p2_preimage == EXAMPLE2_P1_PREIMAGE

    def test_swap_pairs_keeps_sizes(self):
        z1, z2, _ = build_even_m(6, swap_pairs=True)
        assert len(z1) == 30 and len(z2) == 32

    @pytest.mark.parametrize("m", [2, 3, 5, 26, 6.0, np.int64(6), "6"])
    def test_rejects_bad_m(self, m):
        message = f"need even m with 4 <= m <= 24, got {m!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_even_m(m)

    @pytest.mark.parametrize("swap", [1, None, np.bool_(True)])
    def test_rejects_swap_pairs_that_is_not_a_bool(self, swap):
        with pytest.raises(ValueError, match=re.escape(f"swap_pairs must be a bool, got {swap!r}")):
            build_even_m(6, swap_pairs=swap)

    def test_peak_memory_per_residue(self):
        # the special families come from the 2^(m/2) halves, so the only
        # arrays over all 2^m vectors are a uint8 weight and two bool masks
        build_even_m(6)  # imports and first-call caches stay out of the count
        m = 18
        tracemalloc.start()
        try:
            build_even_m(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * (2**m - 1), f"peak {peak / (2**m - 1):.1f} bytes per residue"

    def test_deterministic(self):
        a1, a2, _ = build_even_m(8)
        b1, b2, _ = build_even_m(8)
        assert a1 == b1 and a2 == b2


class TestTwoPrime:
    def test_p3_trace(self):
        z, audit = build_two_prime(3)
        assert audit.sigma0 == 4
        assert audit.case == "direct"
        assert audit.chosen_full_leaders == (1, 3, 5, 7)
        assert audit.chosen_small_leaders == (9, 27)
        assert audit.forbidden_leaders == (15, 23, 31)
        assert (audit.tail_first, audit.tail_last) == (57, 62)
        assert len(z) == 31
        assert 0 in z
        assert set(range(10)) <= z.as_set()
        assert z.as_set() & set(range(57, 63)) == set()
        assert bch_run(z) == (12, 0)
        assert bch_run(dual_defining_set(z)) == (7, 1)

    def test_p5_trace(self):
        z, audit = build_two_prime(5)
        assert audit.sigma0 == 45
        assert audit.sigma_lo == 48
        assert audit.case == "extended"
        assert (audit.tail_first, audit.tail_last) == (1009, 1022)
        assert len(z) == 511
        assert set(range(104)) <= z.as_set()
        # the tail that stays clear of Z is the 14 residues 1009..1022;
        # 993 and 1008 sit in the orbit of 63, which the head run needs
        assert z.as_set() & set(range(1009, 1023)) == set()
        assert 993 in z and 1008 in z
        assert bch_run(z) == (110, 0)
        assert bch_run(dual_defining_set(z)) == (15, 1)

    @pytest.mark.parametrize("p", [2, 4, 9, 13, 3.0, np.int64(3), "3"])
    def test_rejects_bad_p(self, p):
        message = f"need an odd prime p with 2p <= 24, got {p!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_two_prime(p)

    def test_deterministic(self):
        assert build_two_prime(3)[0] == build_two_prime(3)[0]


class TestOddPq:
    def test_15_trace(self):
        z, audit = build_odd_pq(3, 5)
        assert len(z) == 16383
        assert 0 not in z
        assert audit.case == "extended"
        assert audit.sigma0 == 928
        assert audit.sigma_lo == 1090
        assert audit.base_small_leaders == (4681,)
        assert len(audit.chosen_mid_leaders) == 6
        assert bch_run(z) == (2631, 1)
        assert bch_run(dual_defining_set(z)) == (16, 0)

    def test_21_structure(self):
        z, audit = build_odd_pq(3, 7)
        assert len(z) == 2**20 - 1
        assert audit.case == "extended"
        assert audit.sigma0 == 42501
        assert bch_run(z)[0] == 120285
        assert bch_run(dual_defining_set(z)) == (32, 0)

    def test_peak_memory_per_residue(self):
        # the table (a 4-byte leader per residue) and the size-class tuples
        # are freed before Z's int64 elements are made, so the peak sits in
        # the selection, not beside the elements (12.8 bytes per residue
        # while the table outlived the selection)
        build_odd_pq(3, 5)  # imports and first-call caches stay out of the count
        tracemalloc.start()
        try:
            z, _ = build_odd_pq(3, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * z.n, f"peak {peak / z.n:.1f} bytes per residue"

    @pytest.mark.parametrize("pair", [(3, 3), (2, 5), (5, 3), (3, 9),
                                      (3, 5.0), (np.int64(3), 5), (True, 5), (3, "5")])
    def test_rejects_bad_pairs(self, pair):
        message = f"need odd primes p1 < p2, got ({pair[0]!r}, {pair[1]!r})"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_odd_pq(*pair)

    def test_rejects_pairs_past_the_table_cap(self):
        with pytest.raises(ValueError, match=r"p1\*p2 = 33 exceeds the table cap 24"):
            build_odd_pq(3, 11)


def _walked_greedy_select(table, *, full_leaders, secondary_leaders, base_leaders, d0_max,
                          sigma_lo, tail_len, direct_allotment):
    """The greedy selection as a walk over Python sets and generators, the
    reference for ``_greedy_select``: ``(f_leaders, sigma0, sigma, case,
    chosen full leaders, chosen secondary leaders)``."""
    n = table.n
    met = table.leaders_in(slice(1, d0_max + 1))
    full_set = set(full_leaders)
    f_leaders = tuple(v for v in met if v in full_set)
    sigma0 = full_leaders.index(max(f_leaders)) + 1
    if sigma0 >= sigma_lo:
        return (f_leaders, sigma0, sigma0, "direct", full_leaders[:sigma0],
                secondary_leaders[:direct_allotment(sigma0)])
    tail_leaders = table.leaders_in(slice(n - tail_len, n))
    admissible = (ell for ell in full_leaders[sigma0:] if ell not in tail_leaders)
    chosen_full = full_leaders[:sigma0] + tuple(islice(admissible, sigma_lo - sigma0))
    return f_leaders, sigma0, sigma_lo, "extended", chosen_full, secondary_leaders


class TestGreedySelect:
    @pytest.mark.parametrize("build,params", [
        (build_two_prime, (3,)), (build_two_prime, (5,)), (build_two_prime, (7,)),
        (build_two_prime, (11,)), (build_odd_pq, (3, 5)), (build_odd_pq, (3, 7)),
    ])
    def test_matches_the_walk_over_sets(self, build, params, monkeypatch):
        seen = []

        def spy(table, **kwargs):
            result = _greedy_select(table, **kwargs)
            seen.append((_walked_greedy_select(table, **kwargs), result))
            return result

        monkeypatch.setattr(constructions, "_greedy_select", spy)
        build(*params)
        [(walked, (_, chosen_secondary, selection, chosen_full, _))] = seen
        got = (selection["f_leaders"], selection["sigma0"], selection["sigma"],
               selection["case"], chosen_full, chosen_secondary)
        assert got == walked
        assert all(type(v) is int for v in selection["f_leaders"] + chosen_full)
        assert walked[3] == ("direct" if params == (3,) else "extended")

    def test_extension_skips_the_leaders_of_the_dual_tail(self):
        # neither builder's extension reaches a tail leader; at m = 10 one
        # that runs past leader 127 (which meets the tail 1009..1022) must
        # skip it and take the next two
        table = build_table(10)
        full = table.leaders_of_size(10)
        keywords = dict(full_leaders=full, secondary_leaders=(), base_leaders=(), d0_max=5,
                        sigma_lo=full.index(127) + 2, tail_len=14,
                        direct_allotment=lambda sigma0: 0)
        _, _, selection, chosen_full, bounds = _greedy_select(table, **keywords)
        assert 127 in bounds["forbidden_leaders"]
        at = full.index(127)
        assert chosen_full == full[:at] + full[at + 1 : at + 3]
        assert selection["f_leaders"] == (1, 3, 5)
        assert (selection["sigma0"], selection["case"]) == (3, "extended")
        assert _walked_greedy_select(table, **keywords)[4] == chosen_full


def _scanned_pairs(table, mask):
    """The complement pairing as an ascending scan: each leader not yet
    paired takes the leader of its negation; the message if one cannot."""
    leaders = sorted(set(table.leader_of[mask].tolist()))
    pairs, seen = [], set()
    for ell in leaders:
        if ell in seen:
            continue
        partner = int(table.leader_of[table.n - ell])
        if partner not in leaders or partner == ell:
            return f"coset {ell} has no distinct complement partner"
        seen.update((ell, partner))
        pairs.append((ell, partner))
    return pairs


def _walked_sqrt_selection(pairs, overrides):
    """The sqrt builder's choice of one leader per pair as a walk over
    Python sets, the reference for its whole-array selection: the
    selected leaders in pair order, or the ``SelectionError`` message."""
    if overrides is None:
        return [ell for ell, _ in pairs]
    chosen = set(overrides)
    pair_union = {x for pr in pairs for x in pr}
    if not chosen <= pair_union:
        return f"overrides {sorted(chosen - pair_union)} are not residual pair leaders"
    selected = []
    for a, b in pairs:
        hits = [x for x in (a, b) if x in chosen]
        if len(hits) != 1:
            return f"pair ({a}, {b}) needs exactly one representative, got {hits or 'none'}"
        selected.append(hits[0])
    return selected


def _spy_on_pairs(monkeypatch):
    """Record ``(table, resid_mask, pairs)`` for each ``_complement_pairs`` call."""
    seen = []

    def spy(table, resid_mask):
        pairs = _complement_pairs(table, resid_mask)
        seen.append((table, resid_mask.copy(), pairs))
        return pairs

    monkeypatch.setattr(constructions, "_complement_pairs", spy)
    return seen


class TestPairSelection:
    @pytest.mark.parametrize("m,overrides", [(m, None) for m in (5, 7, 9, 11, 13)]
                             + [(7, (21, 27)), (7, (19, 43))])
    def test_sqrt_matches_the_walk_over_pairs(self, m, overrides, monkeypatch):
        seen = _spy_on_pairs(monkeypatch)
        z, audit = build_sqrt_complement(m, overrides)
        [(table, resid_mask, pairs)] = seen
        walked = _scanned_pairs(table, resid_mask)
        selected = _walked_sqrt_selection(walked, overrides)
        assert pairs.shape == (len(walked), 2)
        assert audit.residual_pairs == tuple(walked)
        assert audit.selected_leaders == tuple(selected)
        assert all(type(v) is int for pair in audit.residual_pairs for v in pair)
        assert all(type(v) is int for v in audit.selected_leaders)
        expected = table.union_mask(list(audit.t_leaders) + selected)
        assert tuple(z) == tuple(np.flatnonzero(expected).tolist())

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
    def test_even_m_matches_the_walk_over_pairs(self, m, swap, monkeypatch):
        seen = _spy_on_pairs(monkeypatch)
        z1, z2, audit = build_even_m(m, swap_pairs=swap)
        [(table, resid_mask, pairs)] = seen
        walked = _scanned_pairs(table, resid_mask)
        oriented = [(small, big) if swap else (big, small) for small, big in walked]
        p1_mask = table.union_mask([a for a, _ in oriented])
        p2_mask = table.union_mask([b for _, b in oriented])
        assert pairs.shape == (len(walked), 2)
        assert audit.residual_pairs == tuple(oriented)
        assert all(type(v) is int for pair in audit.residual_pairs for v in pair)
        assert audit.p1_preimage == tuple(np.flatnonzero(p1_mask).tolist())
        assert audit.p2_preimage == tuple(np.flatnonzero(p2_mask).tolist())
        # inside the residual layer, each half is exactly its pair half
        resid = set(np.flatnonzero(resid_mask).tolist())
        assert z1.as_set() & resid == set(audit.p1_preimage)
        assert z2.as_set() & resid == set(audit.p2_preimage)

    @pytest.mark.parametrize("m", [7, 9])
    def test_override_errors_match_the_walk_over_pairs(self, m, monkeypatch):
        # random override lists: some one leader per pair, some missing a
        # pair, taking both sides of one, or naming a leader outside them
        seen = _spy_on_pairs(monkeypatch)
        build_sqrt_complement(m)
        [(table, resid_mask, _)] = seen
        walked = _scanned_pairs(table, resid_mask)
        members = [x for pair in walked for x in pair]
        rng = np.random.default_rng(m)
        outcomes = set()
        for _ in range(60):
            picks = [pair[rng.integers(2)] for pair in walked]
            roll = rng.random()
            if roll < 0.25:
                picks.pop(rng.integers(len(picks)))
            elif roll < 0.5:
                picks.append(members[rng.integers(len(members))])
                picks = sorted(set(picks))
            elif roll < 0.65:
                picks.append(int(rng.choice(table.leaders)))
                picks = sorted(set(picks))
            overrides = tuple(int(x) for x in rng.permutation(picks))
            expected = _walked_sqrt_selection(walked, overrides)
            if isinstance(expected, str):
                outcomes.add("stray" if "not residual" in expected
                             else "none" if expected.endswith("none") else "both")
                with pytest.raises(SelectionError, match=f"^{re.escape(expected)}$"):
                    build_sqrt_complement(m, overrides)
            else:
                outcomes.add("ok")
                assert build_sqrt_complement(m, overrides)[1].selected_leaders == tuple(expected)
        assert outcomes == {"ok", "stray", "none", "both"}


class TestSqrtComplement:
    def test_m5_default(self):
        z, audit = build_sqrt_complement(5)
        assert tuple(z) == SQRT_M5_Z
        assert audit.block_top == 6
        assert audit.residual_pairs == ()

    def test_m7_default_takes_smaller_leaders(self):
        z, audit = build_sqrt_complement(7)
        assert audit.residual_pairs == ((19, 27), (21, 43))
        assert audit.selected_leaders == (19, 21)
        assert audit.overrides is None
        assert len(z) == 63

    def test_m7_with_choices(self):
        z, audit = build_sqrt_complement(7, overrides=(21, 27))
        assert tuple(z) == SQRT_M7_Z
        assert audit.selected_leaders == (27, 21)
        assert audit.overrides == (21, 27)

    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13])
    def test_block_never_meets_its_negation(self, m):
        z, _ = build_sqrt_complement(m)
        n = 2**m - 1
        assert len(z) == 2 ** (m - 1) - 1
        neg = {(n - x) % n for x in z}
        assert neg & z.as_set() == set()

    def test_override_must_cover_every_pair(self):
        with pytest.raises(SelectionError, match="exactly one"):
            build_sqrt_complement(7, overrides=(27,))

    def test_override_cannot_take_both_sides(self):
        with pytest.raises(SelectionError, match="exactly one"):
            build_sqrt_complement(7, overrides=(19, 27, 21))

    def test_override_cannot_repeat_a_leader(self):
        with pytest.raises(SelectionError, match=r"\[21\] are named more than once"):
            build_sqrt_complement(7, overrides=(21, 21, 27))

    def test_override_must_name_pair_members(self):
        with pytest.raises(SelectionError, match="not residual"):
            build_sqrt_complement(7, overrides=(1, 21))

    @pytest.mark.parametrize("m", [4, 3, 25, 7.0, np.int64(7), "7"])
    def test_rejects_bad_m(self, m):
        message = f"need odd m with 5 <= m <= 23, got {m!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_sqrt_complement(m)

    @pytest.mark.parametrize("overrides", [(21.9, 27), (21, np.int64(27)), ("21", 27), 21, 21.5])
    def test_rejects_overrides_that_are_not_plain_ints(self, overrides):
        # 21.9 used to be truncated to 21 and accepted, and a lone 21 failed
        # with a bare TypeError
        message = f"overrides must be ints, got {overrides!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_sqrt_complement(7, overrides=overrides)


WEIGHT_CLASS_CASES = {
    (9, 0): (31, 47, 55, 49),
    (9, 1): (15, 29, 53, 51),
    (11, 0): (31, 61, 117, 115),
    (11, 1): (63, 95, 119, 113),
    (13, 0): (127, 191, 247, 241),
    (13, 1): (63, 125, 245, 243),
}


class TestWeightClassConstruction:
    @pytest.mark.parametrize("m,i", sorted(WEIGHT_CLASS_CASES))
    def test_case_table_values(self, m, i):
        _, audit = build_weight_class(m, i)
        assert (audit.t, audit.u, audit.s, audit.v) == WEIGHT_CLASS_CASES[(m, i)]
        top = 2 ** ((m + 3) // 2)
        assert audit.excluded_top == (top - 9, top - 11, top - 13, top - 15)

    @pytest.mark.parametrize(
        "m,i,size",
        [(9, 1, 255), (11, 0, 1023), (11, 1, 1023), (13, 0, 4095), (13, 1, 4095)],
    )
    def test_nominal_sizes(self, m, i, size):
        z, _ = build_weight_class(m, i)
        assert len(z) == size

    def test_m9_i0_oversized_regression(self):
        # v = 49 collides with the low block here: its orbit minimum is 35,
        # inside {1..48}, so removing C_v from the complement class takes
        # nothing away and the set comes out 9 residues (one orbit) larger
        # than the nominal 2^(m-1) - 1.
        z, audit = build_weight_class(9, 0)
        assert len(z) == 264
        table = build_table(9)
        assert audit.v == 49
        assert int(table.leader_of[49]) == 35
        assert len(z) == 255 + table.size_of(35)

    @pytest.mark.parametrize("m,i", sorted(WEIGHT_CLASS_CASES))
    def test_low_block_and_negation_guarantees(self, m, i):
        z, _ = build_weight_class(m, i)
        n = 2**m - 1
        low_run = 4 * (2 ** ((m - 1) // 2) - 4)
        assert set(range(1, low_run + 1)) <= z.as_set()
        assert 0 not in z
        for e in range(2 ** ((m - 1) // 2) - 1):
            assert (n - e) % n not in z

    @pytest.mark.parametrize("m,i", [(15, 0), (15, 1), (17, 0)])
    def test_larger_m_nominal(self, m, i):
        z, _ = build_weight_class(m, i)
        assert len(z) == 2 ** (m - 1) - 1

    # (9, True) used to be taken as i = 1 and printed as "i": true
    @pytest.mark.parametrize("args", [(7, 0), (8, 0), (9, 2), (25, 1), (9.0, 1),
                                      (np.int64(9), 0), (9, True), (9, 1.0), (9, "0")])
    def test_rejects_bad_arguments(self, args):
        m, i = args
        shown = i if type(m) is int and m == 9 else m
        with pytest.raises(ValueError, match=re.escape(f"got {shown!r}") + "$"):
            build_weight_class(*args)


class TestComplementPairs:
    def test_missing_partner_is_named(self):
        # -C_3 is C_31 mod 127, which the mask leaves out
        table = build_table(7)
        with pytest.raises(InvariantError, match="^coset 3 has no distinct complement partner$"):
            _complement_pairs(table, table.union_mask([3]))

    def test_self_paired_coset_is_named(self):
        # C_5 = {5, 10} mod 15 is its own negation
        table = build_table(4)
        with pytest.raises(InvariantError, match="^coset 5 has no distinct complement partner$"):
            _complement_pairs(table, table.union_mask([5]))

    def test_lower_of_two_lone_cosets_is_named(self):
        # C_1 and C_63 pair up; C_3 and C_5 have no partner, and 3 is named
        table = build_table(7)
        mask = table.union_mask([1, 5, 3, 63])
        assert int(table.leader_of[127 - 5]) not in (1, 3, 5, 63)
        with pytest.raises(InvariantError, match="^coset 3 has"):
            _complement_pairs(table, mask)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9])
    def test_matches_an_ascending_scan(self, m):
        rng = np.random.default_rng(m)
        table = build_table(m)
        nonzero = table.leaders[1:]
        for _ in range(40):
            chosen = rng.choice(nonzero, size=rng.integers(1, nonzero.size + 1), replace=False)
            mask = table.union_mask(chosen)
            if rng.random() < 0.5:
                mask |= negated_mask(mask)  # closed under negation, so pairs can form
            expected = _scanned_pairs(table, mask)
            if isinstance(expected, str):
                with pytest.raises(InvariantError, match=f"^{expected}$"):
                    _complement_pairs(table, mask)
            else:
                assert _complement_pairs(table, mask).tolist() == [list(p) for p in expected]


class TestOrigins:
    def test_origin_tags_flow_through(self):
        z, _ = build_two_prime(3)
        assert z.origin["construction"] == "two-prime"
        assert z.origin["p"] == 3
        z1, z2, _ = build_even_m(4)
        assert z1.origin["which"] == "C1"
        assert z2.origin["which"] == "C2"

    def test_dual_origin_wraps(self):
        z, _ = build_two_prime(3)
        dual = dual_defining_set(z)
        assert dual.origin["construction"] == "dual"
        assert dual.origin["of"]["construction"] == "two-prime"

    def test_unknown_family_is_refused(self):
        with pytest.raises(ValueError, match="unknown construction tag 'nope'"):
            build_family("nope")


CORRUPTED_BUILDER_SCRIPT = """
import contextlib
import dataclasses
import io
import bincyclic.constructions as cs
from bincyclic import InvariantError
from bincyclic.cli import run_command
from bincyclic.cosets import CosetTable

if __debug__:
    raise SystemExit("not running under -O")

def raises(call):
    try:
        call()
    except InvariantError as exc:
        return str(exc)
    raise SystemExit("no InvariantError")

class LosesCosetOne(CosetTable):
    def union_mask(self, leaders):
        return super().union_mask([x for x in leaders if x != 1])

real_table, real_pairs = cs.build_table, cs._complement_pairs
cs.build_table = lambda m: LosesCosetOne(
    **{f.name: getattr(real_table(m), f.name) for f in dataclasses.fields(CosetTable)})
print(raises(lambda: cs.build_two_prime(3)))
print(raises(lambda: cs.build_odd_pq(3, 5)))
print(raises(lambda: cs.build_sqrt_complement(7)))
print(raises(lambda: cs.build_weight_class(9, 1)))
err = io.StringIO()
with contextlib.redirect_stderr(err):
    print("exit", run_command(["construct", "two-prime", "--p", "3", "--json"]))
print(err.getvalue().strip())
cs.build_table = real_table
cs._complement_pairs = lambda table, mask: real_pairs(table, mask)[1:]  # one pair lost
print(raises(lambda: cs.build_even_m(6)))
"""


def test_corrupted_builders_raise_under_python_O():
    # each builder kind, fed a coset table whose masks lose the coset of 1
    # or a pairing that loses one pair, must stop with InvariantError
    src = Path(bincyclic.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_BUILDER_SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == [
        "the guaranteed run must sit inside Z",
        "the guaranteed run must sit inside Z",
        "|Z| = 56, expected 63",
        "the low block must sit inside T",
        "exit 1",
        "error: the guaranteed run must sit inside Z",
        "pairs must tile the residual layer",
    ]
