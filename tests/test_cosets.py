"""2-cyclotomic cosets: tables, permutation lemma, size/weight classes."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bincyclic
from bincyclic.codecore import InvariantError
from bincyclic.cosets import (
    CosetTable,
    build_table,
    classify_by_size,
    coset_of,
    is_union_of_cosets,
    negated_mask,
    orbit_minima,
    pi,
    pi_inv,
    rho,
    weight_classes,
)
from bincyclic.gf2 import make_field

# Complete coset decomposition of Z_63, worked out by hand once and frozen.
M6_COSETS = {
    0: (0,),
    1: (1, 2, 4, 8, 16, 32),
    3: (3, 6, 12, 24, 33, 48),
    5: (5, 10, 17, 20, 34, 40),
    7: (7, 14, 28, 35, 49, 56),
    9: (9, 18, 36),
    11: (11, 22, 25, 37, 44, 50),
    13: (13, 19, 26, 38, 41, 52),
    15: (15, 30, 39, 51, 57, 60),
    21: (21, 42),
    23: (23, 29, 43, 46, 53, 58),
    27: (27, 45, 54),
    31: (31, 47, 55, 59, 61, 62),
}


class TestCosetOf:
    def test_frozen_orbits(self):
        assert coset_of(11, 63) == {11, 22, 44, 25, 50, 37}
        assert coset_of(0, 63) == {0}
        assert coset_of(9, 63) == {9, 18, 36}

    def test_orbit_closure(self):
        for n in (15, 31, 63):
            for x in range(n):
                orbit = coset_of(x, n)
                assert {(2 * y) % n for y in orbit} == orbit

    @pytest.mark.parametrize("n", [8, 0])
    def test_rejects_a_modulus_that_is_not_odd_and_positive(self, n):
        with pytest.raises(ValueError, match="odd and positive"):
            coset_of(1, n)

    @pytest.mark.parametrize("x,n", [(1.5, 15), (1, 15.0), ("1", 15), (True, 15)])
    def test_rejects_values_that_are_not_integers(self, x, n):
        # the orbit of 1.5 mod 15 runs 3.0, 6.0, 12.0, 9.0 and never closed
        with pytest.raises(ValueError, match="must be integers"):
            coset_of(x, n)

    def test_accepts_numpy_integers(self):
        assert coset_of(np.int64(3), np.int32(15)) == {3, 6, 9, 12}


class TestBuildTable:
    def test_m6_decomposition_matches_frozen_oracle(self):
        table = build_table(6)
        assert tuple(int(x) for x in table.leaders) == tuple(sorted(M6_COSETS))
        for leader, members in M6_COSETS.items():
            assert table.members(leader) == members
            assert table.size_of(leader) == len(members)

    @pytest.mark.parametrize("x", [-1, 15])
    def test_residues_outside_z_n_are_refused(self, x):
        # -1 must not wrap round to residue 14, nor 15 reach numpy's IndexError
        table = build_table(4)
        for lookup in (table.size_of, table.members):
            with pytest.raises(ValueError, match="out of range"):
                lookup(x)

    @pytest.mark.parametrize("x", [1.5, "1", True])
    def test_size_of_refuses_what_is_not_an_integer(self, x):
        with pytest.raises(ValueError, match="must be an integer"):
            build_table(4).size_of(x)
        assert build_table(4).size_of(np.int64(5)) == 2

    def test_m5_leaders(self):
        assert tuple(int(x) for x in build_table(5).leaders) == (0, 1, 3, 5, 7, 11, 15)

    def test_leader_of_is_orbit_minimum(self):
        for m in (4, 5, 6, 7):
            table = build_table(m)
            n = table.n
            for x in range(n):
                assert int(table.leader_of[x]) == min(coset_of(x, n))

    @pytest.mark.parametrize(
        "m,census",
        [
            (6, {1: 1, 2: 1, 3: 2, 6: 9}),
            (15, {1: 1, 3: 2, 5: 6, 15: 2182}),
        ],
    )
    def test_census(self, m, census):
        table = build_table(m)
        hist: dict[int, int] = {}
        for size in table.sizes:
            hist[int(size)] = hist.get(int(size), 0) + 1
        assert hist == census

    def test_union_mask(self):
        table = build_table(6)
        mask = table.union_mask((1, 9))
        expected = np.zeros(63, dtype=bool)
        expected[list(M6_COSETS[1] + M6_COSETS[9])] = True
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("m", [2, 6, 9])
    def test_union_mask_matches_isin(self, m):
        table = build_table(m)
        leaders = table.leaders.tolist()
        rng = np.random.default_rng(m)
        picks = [[], [leaders[-1]] * 3, leaders, leaders + leaders[::-1]]
        picks += [rng.choice(leaders, size=rng.integers(1, 2 * len(leaders))).tolist()
                  for _ in range(20)]
        for picked in picks:
            mask = table.union_mask(picked)
            assert mask.dtype == bool
            assert np.array_equal(mask, np.isin(table.leader_of, picked)), picked

    @pytest.mark.parametrize("picked", [[-1], [6], [15], [1, 3, 6], np.array([1, 16])])
    def test_union_mask_refuses_what_is_not_a_leader(self, picked):
        # at m = 4, 6 lies in C_3 and -1 and 15 lie outside Z_15
        with pytest.raises(ValueError, match="not a coset leader mod 15"):
            build_table(4).union_mask(picked)

    @pytest.mark.parametrize("picked", [["1"], [1.5], [True], [1, 3.0], np.array([1.0])])
    def test_union_mask_refuses_what_is_not_an_integer(self, picked):
        # each of these used to be cast to int64 and give the mask of C_1
        with pytest.raises(ValueError, match="expected integers"):
            build_table(4).union_mask(picked)

    def test_union_mask_accepts_integer_arrays_and_nothing(self):
        table = build_table(4)
        assert table.union_mask(np.array([1, 5], dtype=np.uint8)).sum() == 6
        assert not table.union_mask([]).any()

    def test_leaders_of_size(self):
        table = build_table(6)
        assert table.leaders_of_size(3) == (9, 27)
        assert table.leaders_of_size(2) == (21,)
        assert all(type(v) is int for v in table.leaders_of_size(6))

    def test_leaders_in(self):
        table = build_table(6)
        assert table.leaders_in(slice(1, 6)) == (1, 3, 5)
        assert table.leaders_in(slice(0, 0)) == ()
        mask = table.union_mask((9, 21))
        mask[7] = True  # one member of C_7 alone meets it
        assert table.leaders_in(mask) == (7, 9, 21)
        assert all(type(v) is int for v in table.leaders_in(mask))
        assert table.leaders_in([7, 14, 9]) == (7, 9)
        assert table.leaders_in(np.array([62], dtype=np.uint8)) == (31,)
        assert table.leaders_in([]) == ()

    # -1 used to wrap to residue 62 (-> 31); 63 and 1.5 raised a bare IndexError
    @pytest.mark.parametrize("where, message", [
        ([-1], "residue -1 out of range for modulus 63"),
        ([5, 63], "residue 63 out of range for modulus 63"),
        ([1.5], "expected integers, got values of dtype float64"),
        (["3"], "expected integers, got values of dtype <U1"),
        ([True, False], "expected integers, got values of dtype bool"),
    ], ids=["negative", "past-n", "float", "string", "short-mask"])
    def test_leaders_in_refuses_bad_indices(self, where, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_table(6).leaders_in(where)

    @pytest.mark.parametrize("m", range(2, 15))
    def test_every_leader_is_the_orbit_minimum(self, m):
        table = build_table(m)
        assert table.leader_of.tolist() == [min(coset_of(x, table.n)) for x in range(table.n)]

    @pytest.mark.parametrize("m", range(2, 17))
    def test_leaders_and_sizes_match_a_bincount(self, m):
        table = build_table(m)
        counts = np.bincount(table.leader_of, minlength=table.n)
        assert np.array_equal(table.leaders, np.flatnonzero(counts))
        assert np.array_equal(table.sizes, counts[table.leaders])

    def test_makes_no_other_array_as_long_as_z_n(self):
        # leader_of is the one n-long array kept; a second int32 array, or
        # any int64 array, over Z_n (2 MB at m = 18) would break the bound
        tracemalloc.start()
        try:
            table = build_table(18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.leader_of.nbytes + 3 * 2**19, f"peak {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("m", range(15, 19))
    def test_matches_pointer_jumping(self, m):
        lead, sizes = _pointer_jumping_table(m)
        table = build_table(m)
        assert np.array_equal(table.leader_of, lead)
        assert np.array_equal(table.leaders, np.flatnonzero(sizes))
        assert np.array_equal(table.sizes, sizes[sizes > 0])

    @pytest.mark.parametrize("m", [2, 6, 13])
    def test_dtypes_and_read_only(self, m):
        table = build_table(m)
        assert table.leader_of.dtype == np.int32
        assert table.leaders.dtype == np.intp
        assert table.sizes.dtype == np.intp
        for arr in (table.leader_of, table.leaders, table.sizes):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_m22_partitions_z_n(self):
        table = build_table(22)
        assert int(table.sizes.sum()) == table.n
        assert table.leader_of.dtype == np.int32 and not table.leader_of.flags.writeable
        # binary necklaces of length 22, (2^22 + 2^11 + 10*2^2 + 10*2) / 22, less the all-ones one
        assert len(table.leaders) == 190_745


def _pointer_jumping_table(m):
    """Leaders and per-leader sizes by pointer jumping over the doubling map,
    an independent reference for ``build_table``: after r rounds lead[x] is
    the least of x * 2^j for j < 2^r."""
    n = (1 << m) - 1
    lead = np.arange(n, dtype=np.int64)
    hop = (lead * 2) % n
    for _ in range(max(1, m.bit_length())):
        lead = np.minimum(lead, lead[hop])
        hop = hop[hop]
    return lead, np.bincount(lead, minlength=n)


class TestPermutationLemma:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 9])
    def test_right_rotation_doubles(self, m):
        n = (1 << m) - 1
        for x in range(n):
            assert pi_inv(rho(pi(x, m))) == (2 * x) % n

    def test_pi_roundtrip(self):
        for m in (4, 7):
            for x in range((1 << m) - 1):
                assert pi_inv(pi(x, m)) == x

    def test_pi_validation(self):
        with pytest.raises(ValueError):
            pi(16, 4)
        with pytest.raises(ValueError):
            pi_inv(())
        with pytest.raises(ValueError):
            rho(())


class TestNegatedCosets:
    @pytest.mark.parametrize("m", [5, 7, 9, 11, 13, 15, 17, 19])
    def test_odd_m_no_orbit_meets_its_negation(self, m):
        table = build_table(m)
        n = table.n
        lead = table.leader_of
        neg_lead = lead[(n - np.arange(n, dtype=np.int64)) % n]
        assert not np.any(lead[1:] == neg_lead[1:])

    def test_even_m_has_self_negated_orbits(self):
        # for m = 4: the orbit of 5 is {5, 10} and -5 = 10 falls inside it
        table = build_table(4)
        assert int(table.leader_of[15 - 5]) == int(table.leader_of[5])


class TestOrbitMinima:
    @pytest.mark.parametrize("m", range(2, 25))
    def test_matches_coset_of_minima(self, m):
        # a few hundred residues, repeated and shuffled over more than one
        # 2^16-word block with a ragged tail
        n = (1 << m) - 1
        rng = np.random.default_rng(m)
        values = np.unique(np.concatenate(([0, 1, n - 1], rng.integers(0, n, 300))))
        words = rng.choice(values, 70_001).astype(np.uint32)
        want = {int(x): min(coset_of(int(x), n)) for x in values}
        before = words.copy()
        orbit_minima(words, m)
        assert words.tolist() == [want[x] for x in before.tolist()]


class TestNegatedMask:
    @pytest.mark.parametrize("m", range(2, 23))
    def test_matches_gather(self, m):
        n = (1 << m) - 1
        mask = np.random.default_rng(m).integers(0, 2, n, dtype=bool)
        negated = negated_mask(mask)
        assert negated.dtype == bool
        assert np.array_equal(negated, mask[(n - np.arange(n)) % n])
        assert np.array_equal(negated_mask(negated), mask)


class TestClassification:
    def test_two_prime_shape(self):
        sizes = classify_by_size(build_table(6), 2, 3)
        assert sizes[2] == (21,)
        assert sizes[3] == (9, 27)
        assert sizes[6] == (1, 3, 5, 7, 11, 13, 15, 23, 31)
        assert sizes[1] == (0,)

    def test_two_prime_sizes_are_the_keys(self):
        assert set(classify_by_size(build_table(6), 2, 3)) == {1, 2, 3, 6}

    def test_odd_pq_shape(self):
        sizes = classify_by_size(build_table(15), 3, 5)
        assert sizes[3] == (4681, 14043)
        assert sizes[5] == (1057, 3171, 5285, 7399, 11627, 15855)
        assert len(sizes[15]) == 2182

    # 2.0 was taken as the prime 2 by float trial division
    @pytest.mark.parametrize("p1, p2", [(3, 2), (1, 6), (2.0, 3)])
    def test_rejects_pairs_that_are_not_ascending_primes(self, p1, p2):
        with pytest.raises(ValueError, match="need primes p1 < p2"):
            classify_by_size(build_table(6), p1, p2)

    def test_rejects_a_table_of_another_m(self):
        with pytest.raises(ValueError, match="table has m=6, expected p1\\*p2=15"):
            classify_by_size(build_table(6), 3, 5)


CORRUPTED_TABLE_SCRIPT = """
import numpy as np
from bincyclic import InvariantError, cosets
from bincyclic.cosets import CosetTable, build_table, classify_by_size

if __debug__:
    raise SystemExit("not running under -O")

def raises(call):
    try:
        call()
    except InvariantError as exc:
        return str(exc)
    raise SystemExit("no InvariantError")

def altered(table, leaders, sizes):
    return CosetTable(n=table.n, m=table.m, leader_of=table.leader_of,
                      leaders=np.asarray(leaders), sizes=np.asarray(sizes))

t15, t6 = build_table(15), build_table(6)
# a size-15 coset relabelled as a size-5 one: both censuses are off
sizes = t15.sizes.copy(); sizes[np.flatnonzero(sizes == 15)[0]] = 5
print(raises(lambda: classify_by_size(altered(t15, t15.leaders, sizes), 3, 5)))
# the coset {0} dropped
print(raises(lambda: classify_by_size(altered(t15, t15.leaders[1:], t15.sizes[1:]), 3, 5)))
# a size-6 coset of m = 6 relabelled as size 2
sizes = t6.sizes.copy(); sizes[1] = 2
print(raises(lambda: classify_by_size(altered(t6, t6.leaders, sizes), 2, 3)))
# an extra leader of size 7, which no m = 15 coset has
print(raises(lambda: classify_by_size(
    altered(t15, np.append(t15.leaders, t15.n), np.append(t15.sizes, 7)), 3, 5)))
# broken sizes inside build_table: every size doubled (4 and 12 do not
# divide 6), then the coset of 1 dropped
periods = cosets._rotation_periods
cosets._rotation_periods = lambda leaders, m: 2 * periods(leaders, m)
print(raises(lambda: build_table(6)))
cosets._rotation_periods = lambda leaders, m: periods(leaders, m)[leaders != 1]
print(raises(lambda: build_table(6)))
# a size-6 coset of m = 6 relabelled as size 3: the two-prime census is off
sizes = t6.sizes.copy(); sizes[1] = 3
print(raises(lambda: classify_by_size(altered(t6, t6.leaders, sizes), 2, 3)))
"""


def test_corrupted_tables_raise_under_python_O():
    src = Path(bincyclic.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_TABLE_SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert proc.stdout.splitlines() == [
        "7 cosets of size 5, expected 6",
        "the only fixed point of doubling is 0",
        "the only coset of size 2 must be {21, 42}",
        "unexpected coset sizes {7}",
        "coset sizes must divide m",
        "cosets must partition Z_n",
        "3 cosets of size 3, expected 2",
    ]


def test_invariant_error_is_one_class():
    from bincyclic import cosets, gf2

    assert bincyclic.InvariantError is InvariantError is cosets.InvariantError is gf2.InvariantError


class TestWeightClasses:
    @pytest.mark.parametrize("m", [4, 5, 6, 9])
    def test_partition_and_sizes(self, m):
        n = (1 << m) - 1
        s0, s1 = weight_classes(m)
        # Z_n misses the all-ones word, whose weight parity is that of m
        if m % 2 == 0:
            assert s0.sum() == 2 ** (m - 1) - 2
            assert s1.sum() == 2 ** (m - 1)
        else:
            assert s0.sum() == 2 ** (m - 1) - 1
            assert s1.sum() == 2 ** (m - 1) - 1
        assert not s0[0] and not s1[0]
        assert np.array_equal(s0 | s1, np.arange(n) != 0)
        assert not np.any(s0 & s1)

    @pytest.mark.parametrize("m", [1, 25])
    def test_degree_outside_the_field_range(self, m):
        with pytest.raises(ValueError, match="2 <= m <= 24"):
            weight_classes(m)

    @pytest.mark.parametrize("m", [1, 25, 2.0, True, [5]])
    def test_one_degree_check_for_field_table_and_classes(self, m):
        for build in (make_field, build_table, weight_classes):
            with pytest.raises(ValueError) as err:
                build(m)
            assert str(err.value) == f"need 2 <= m <= 24, got {m}"

    def test_parity_semantics(self):
        masks = weight_classes(6)
        assert masks[0][3]  # weight 2
        assert masks[1][7]  # weight 3
        assert not masks[0][7]

    def test_classes_are_unions_of_cosets(self):
        masks = weight_classes(7)
        n = 127
        for i in (0, 1):
            assert is_union_of_cosets(np.flatnonzero(masks[i]), n)

    def test_masks_are_read_only(self):
        for mask in weight_classes(5):
            with pytest.raises(ValueError):
                mask[1] = not mask[1]


class TestIsUnionOfCosets:
    def test_accepts_closed_sets(self):
        assert is_union_of_cosets({1, 2, 4, 8, 16, 32}, 63)
        assert is_union_of_cosets(set(), 63)

    def test_rejects_open_sets(self):
        assert not is_union_of_cosets({1, 2}, 63)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            is_union_of_cosets({63}, 63)

    @pytest.mark.parametrize("members", [
        [1.5, 3.0, 6.0, 12.0, 9.0],  # the float orbit of 3.0 closes mod 15
        [True],  # not read as 1
        ["3", 6, 12, 9],
    ])
    def test_rejects_members_that_are_not_integers(self, members):
        with pytest.raises(ValueError, match="is not an integer"):
            is_union_of_cosets(members, 15)
