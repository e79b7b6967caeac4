"""Distance engines: exact enumeration, information-weight proof, seeded
search, and the dispatcher."""

import dataclasses
import functools
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bincyclic
from bincyclic import distance
from bincyclic.cli import run_command
from bincyclic.codecore import InvariantError, assemble, bch_lower_bound, dual_defining_set
from bincyclic.constructions import (
    DefiningSet,
    build_even_m,
    build_sqrt_complement,
    build_two_prime,
    build_weight_class,
)
from bincyclic.cosets import build_table
from bincyclic.distance import (
    BudgetExceeded,
    SearchError,
    _fill_subset_xors,
    _lanes_to_int,
    _popcount,
    _scan_range,
    _smallest,
    _subset_blocks,
    _to_lanes,
    auto_distance,
    exact_min_distance,
    low_weight_search,
    proven_min_distance,
    verify_distance_certificate,
)
from bincyclic.fixtures import EXAMPLE1_Z1, EXAMPLE1_Z2, EXAMPLE2_Z1
from bincyclic.gf2 import poly_divrem


def _code(n, elements):
    return assemble(DefiningSet.from_elements(n, elements))


def _naive_min_distance(code):
    """Re-encode every nonzero message; canonical witness is the smallest
    packed value among the minimum-weight words."""
    best_w, best_word = 1 << 30, 0
    for msg in range(1, 1 << code.dimension):
        word = code.encode(msg)
        w = word.bit_count()
        if w < best_w or (w == best_w and word < best_word):
            best_w, best_word = w, word
    return best_w, best_word


class TestExhaustive:
    def test_length_15_family(self):
        z1 = DefiningSet.from_elements(15, EXAMPLE1_Z1)
        z2 = DefiningSet.from_elements(15, EXAMPLE1_Z2)
        expected = [
            (9, z1, 3),
            (6, dual_defining_set(z1), 6),
            (7, z2, 5),
            (8, dual_defining_set(z2), 4),
        ]
        for k, zset, d in expected:
            code = assemble(zset)
            assert code.dimension == k
            result = exact_min_distance(code)
            assert result.exact_distance == d
            assert result.method == "exhaustive"
            assert result.best_weight_found == d
            assert result.proven_lower_bound == d
            assert result.witness.bit_count() == d
            assert result.iterations == (1 << k) - 1

    def test_repetition_code(self):
        result = exact_min_distance(_code(7, (1, 2, 3, 4, 5, 6)))
        assert result.exact_distance == 7
        assert result.witness == (1 << 7) - 1  # the all-ones word

    def test_matches_naive_oracle_on_random_codes(self):
        rng = random.Random(20260814)
        checked = 0
        for m in (4, 5):
            n = 2**m - 1
            table = build_table(m)
            leaders = list(table.leaders)
            while checked < (10 if m == 4 else 20):
                picked = rng.sample(leaders, rng.randrange(1, len(leaders)))
                mask = table.union_mask(picked)
                size = int(mask.sum())
                if size == n or n - size > 12:
                    continue
                code = assemble(DefiningSet.from_mask(n, mask, {"construction": "random"}))
                result = exact_min_distance(code)
                oracle_w, oracle_word = _naive_min_distance(code)
                assert result.exact_distance == oracle_w
                assert result.witness == oracle_word
                checked += 1

    def test_witness_is_always_a_codeword(self):
        code = _code(15, EXAMPLE1_Z2)
        result = exact_min_distance(code)
        assert code.is_codeword(result.witness)

    def test_budget_refusal_names_the_search_engine(self):
        z, _ = build_sqrt_complement(7)
        code = assemble(z)  # dimension 64
        with pytest.raises(BudgetExceeded, match="dimension 64 .* budget 33"):
            exact_min_distance(code)
        with pytest.raises(BudgetExceeded, match="low_weight_search"):
            exact_min_distance(code)

    def test_budget_is_adjustable(self):
        code = _code(15, EXAMPLE1_Z1)  # dimension 9
        with pytest.raises(BudgetExceeded):
            exact_min_distance(code, budget=8)

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError, match="threads"):
            exact_min_distance(_code(7, (1, 2, 4)), threads=0)

    @pytest.mark.parametrize("threads", [True, 2.0, np.int64(2), "2"])
    def test_rejects_threads_that_are_not_a_plain_int(self, threads):
        with pytest.raises(ValueError, match="^threads must be an int >= 1$"):
            exact_min_distance(_code(7, (1, 2, 4)), threads=threads)

    @pytest.mark.parametrize("budget", [33.5, True, np.int64(33), "33", None])
    def test_rejects_a_budget_that_is_not_a_plain_int(self, budget):
        with pytest.raises(ValueError, match="^budget must be an int$"):
            exact_min_distance(_code(7, (1, 2, 4)), budget=budget)


class TestParallelDeterminism:
    @pytest.mark.parametrize(
        "n,elements,k",
        [
            (31, None, 16),   # sqrt construction, below the split threshold
            (63, "wide", 21), # wide enough that 2 and 8 workers really split
        ],
    )
    def test_thread_counts_agree(self, n, elements, k, monkeypatch):
        # as many CPUs as workers asked for, so 8 workers really run on any host
        monkeypatch.setattr(distance.os, "cpu_count", lambda: 8)
        if elements is None:
            z, _ = build_sqrt_complement(5)
        else:
            table = build_table(6)
            mask = table.union_mask([1, 3, 5, 7, 11, 13, 15])
            z = DefiningSet.from_mask(63, mask, {"construction": "random"})
        code = assemble(z)
        assert code.dimension == k
        results = [exact_min_distance(code, threads=t) for t in (1, 2, 8)]
        distances = {r.exact_distance for r in results}
        witnesses = {r.witness for r in results}
        assert len(distances) == 1 and len(witnesses) == 1
        assert results[0].witness.bit_count() == results[0].exact_distance

    @pytest.mark.parametrize("cpus,workers", [(2, [2]), (None, [])])
    def test_workers_capped_at_cpu_count(self, monkeypatch, cpus, workers):
        # the n = 63, k = 21 code above, which 8 workers split 8 ways
        mask = build_table(6).union_mask([1, 3, 5, 7, 11, 13, 15])
        code = assemble(DefiningSet.from_mask(63, mask, {"construction": "random"}))
        want = exact_min_distance(code, threads=1)
        seen = []
        pool = distance.ThreadPoolExecutor

        def spy(max_workers):
            seen.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(distance, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(distance.os, "cpu_count", lambda: cpus)
        assert exact_min_distance(code, threads=8) == want
        assert seen == workers


# -- the Gray sweep's kernel ----------------------------------------------


def _reference_scan_range(combos, high_rows, t_start, t_stop, skip_zero):
    """The Gray sweep's earlier per-step body, kept as the kernel's
    reference: fresh XOR and popcount arrays at every step, int64 weights
    and a separate one-lane branch, on the row-major transpose of the blocks."""
    combos, high_rows = combos.T, high_rows.T
    lanes = combos.shape[1]
    base = np.zeros(lanes, dtype=np.uint64)
    gray = t_start ^ (t_start >> 1)
    j = 0
    while gray >> j:
        if (gray >> j) & 1:
            base ^= high_rows[j]
        j += 1

    flat = lanes == 1
    combos_flat = combos[:, 0] if flat else combos
    scratch = np.empty_like(combos)
    weights = np.empty(combos.shape[0], dtype=np.int64)
    best_w = 1 << 30
    best_wit = 0
    scored = 0
    for t in range(t_start, t_stop):
        if t != t_start:
            base ^= high_rows[(t & -t).bit_length() - 1]
        if flat:
            w = np.bitwise_count(combos_flat ^ base[0])
        else:
            np.bitwise_xor(combos, base, out=scratch)
            w = np.bitwise_count(scratch).sum(axis=1, dtype=np.int64)
        np.copyto(weights, w, casting="unsafe")
        if skip_zero and t == 0:
            weights[0] = 1 << 30
            scored -= 1
        scored += combos.shape[0]
        wmin = int(weights.min())
        if wmin <= best_w:
            hits = np.flatnonzero(weights == wmin)
            if flat:
                cand = min(int(combos_flat[i] ^ base[0]) for i in hits)
            else:
                cand = min(_lanes_to_int(combos[i] ^ base) for i in hits)
            if wmin < best_w or cand < best_wit:
                best_w, best_wit = wmin, cand
    return best_w, best_wit, scored


def _sweep_inputs(code, h):
    """The Gray sweep's block of 2^h low-bit combinations and its high rows."""
    lanes = (code.n + 63) // 64
    rows = _to_lanes([code.generator << i for i in range(code.dimension)], lanes)
    combos = np.zeros((lanes, 1), dtype=np.uint64)
    for b in range(h):
        combos = np.hstack([combos, combos ^ rows[:, b, None]])
    return combos, rows[:, h:]


def _codes_of_dimension(m, dims, seed):
    """One seeded doubling-closed set over n = 2^m - 1 for each k in ``dims``."""
    n = 2**m - 1
    table = build_table(m)
    leaders = list(table.leaders)
    rng = random.Random(seed)
    out = {}
    while len(out) < len(dims):
        mask = table.union_mask(rng.sample(leaders, rng.randrange(1, len(leaders))))
        k = n - int(mask.sum())
        if k in dims and k not in out:
            out[k] = assemble(DefiningSet.from_mask(n, mask, {"construction": "random"}))
    return [out[k] for k in dims]


def _enumerated_min_distance(code):
    """(weight, canonical witness) over every nonzero message, as a GF(2)
    matrix product of all messages with the generator matrix."""
    n, k = code.n, code.dimension
    g = np.array([(code.generator >> j) & 1 for j in range(n)], dtype=np.float32)
    gen = np.stack([np.roll(g, i) for i in range(k)])  # rows g * x^i, no wrap below x^n
    msgs = np.arange(1, 1 << k, dtype=np.int64)
    bits = ((msgs[:, None] >> np.arange(k)) & 1).astype(np.float32)
    words = (bits @ gen).astype(np.int64) % 2
    weights = words.sum(axis=1)
    best = int(weights.min())
    witness = min(int("".join(map(str, row[::-1])), 2) for row in words[weights == best])
    return best, witness


@functools.lru_cache(maxsize=None)
def _two_lane_code():
    """A seeded coset union over n = 127 with k = 15: two uint64 lanes."""
    return _codes_of_dimension(7, (15,), 91)[0]


@functools.lru_cache(maxsize=None)
def _four_lane_code():
    """A seeded coset union over n = 255 with k = 16: four uint64 lanes."""
    return _codes_of_dimension(8, (16,), 92)[0]


def _segments(total):
    """The whole range, the first step alone and a zero-start prefix (all
    skipping the zero message), a span from a non-zero Gray start, and a
    single last step."""
    return [(0, total), (0, 1), (0, 3), (5, total - 2), (total - 1, total)]


class TestScanRangeKernel:
    def test_matches_reference_on_one_lane(self):
        for code in _codes_of_dimension(6, range(17, 23), 93):
            combos, high_rows = _sweep_inputs(code, 10)
            for lo, hi in _segments(1 << high_rows.shape[1]):
                got = _scan_range(combos, high_rows, lo, hi)
                want = _reference_scan_range(combos, high_rows, lo, hi, lo == 0)
                assert got == want, (code.dimension, lo, hi)

    @pytest.mark.parametrize("lanes", [2, 4])
    def test_matches_reference_on_many_lanes(self, lanes):
        code = _two_lane_code() if lanes == 2 else _four_lane_code()
        combos, high_rows = _sweep_inputs(code, 6)
        assert combos.shape[0] == lanes
        for lo, hi in _segments(1 << high_rows.shape[1]):
            got = _scan_range(combos, high_rows, lo, hi)
            assert got == _reference_scan_range(combos, high_rows, lo, hi, lo == 0), (lo, hi)

    def test_two_lane_sweep_matches_enumeration(self):
        code = _two_lane_code()
        result = exact_min_distance(code)
        assert (result.exact_distance, result.witness) == _enumerated_min_distance(code)
        assert result.iterations == (1 << code.dimension) - 1

    @pytest.mark.parametrize("block_bytes", [None, 1 << 14])
    def test_thread_counts_agree_on_two_lanes(self, monkeypatch, block_bytes):
        # a 16 KB block leaves 2^10 combinations, so 2 and 8 workers really split
        if block_bytes is not None:
            monkeypatch.setattr("bincyclic.distance._BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(distance.os, "cpu_count", lambda: 8)
        code = _two_lane_code()
        results = {exact_min_distance(code, threads=t) for t in (1, 2, 8)}
        assert len(results) == 1
        assert results.pop().iterations == (1 << code.dimension) - 1

    def test_two_lane_sweep_under_python_O(self):
        code = _two_lane_code()
        want = exact_min_distance(code)
        script = (
            "from bincyclic.codecore import assemble\n"
            "from bincyclic.constructions import DefiningSet\n"
            "from bincyclic.distance import exact_min_distance\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            f"code = assemble(DefiningSet.from_elements(127, {list(code.defining_set)}))\n"
            "r = exact_min_distance(code, threads=2)\n"
            "print(r.method, r.exact_distance, r.witness, r.iterations)\n"
        )
        src = Path(bincyclic.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.split() == [
            "exhaustive", str(want.exact_distance), str(want.witness), str(want.iterations)
        ]

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("start", [0, 5])
    def test_leaves_its_inputs_unchanged(self, lanes, start):
        # only a copy keeps the sweep from writing into the workers' shared block
        code = _codes_of_dimension(6, (20,), 95)[0] if lanes == 1 else _two_lane_code()
        combos, high_rows = _sweep_inputs(code, 8)
        assert combos.shape[0] == lanes
        before = combos.tobytes(), high_rows.tobytes()
        total = 1 << high_rows.shape[1]
        first = _scan_range(combos, high_rows, start, total)
        assert (combos.tobytes(), high_rows.tobytes()) == before
        assert _scan_range(combos, high_rows, start, total) == first
        assert first == _reference_scan_range(combos, high_rows, start, total, start == 0)

    def test_memory_is_one_block_of_codewords(self):
        # the n = 63, k = 21 code: 2^16 rows on one lane and 2^5 Gray steps
        mask = build_table(6).union_mask([1, 3, 5, 7, 11, 13, 15])
        code = assemble(DefiningSet.from_mask(63, mask, {"construction": "random"}))
        combos, high_rows = _sweep_inputs(code, 16)
        rows = combos.shape[1]
        assert (rows, high_rows.shape[1]) == (1 << 16, 5)
        tracemalloc.start()
        try:
            _scan_range(combos, high_rows, 0, 1 << high_rows.shape[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < combos.nbytes + 2 * rows + (64 << 10), f"peak {peak} bytes"


@functools.lru_cache(maxsize=None)
def _coset_sizes(m):
    table = build_table(m)
    return table, list(zip(table.leaders.tolist(), table.sizes.tolist()))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_scan_range_matches_the_reference_on_random_sets(data):
    m = data.draw(st.sampled_from([5, 6, 7, 8]), label="m")
    n = 2**m - 1
    table, cosets = _coset_sizes(m)
    # the code's nonzeros: cosets taken in a random order while they fit k <= k_max
    k_max = data.draw(st.integers(1, 20), label="k_max")
    free, k = [], 0
    for leader, size in data.draw(st.permutations(cosets), label="order"):
        if k + size <= k_max:
            free.append(leader)
            k += size
    code = assemble(DefiningSet.from_mask(n, ~table.union_mask(free), {"construction": "random"}))
    assert code.dimension == k
    h = data.draw(st.integers(1, min(k, 10)), label="h")
    combos, high_rows = _sweep_inputs(code, h)
    total = 1 << high_rows.shape[1]
    lo = data.draw(st.integers(0, total - 1), label="lo")
    hi = data.draw(st.integers(lo + 1, min(total, lo + 64)), label="hi")
    # the drawn segment, one as long from the zero message, and its first step
    for a, b in {(lo, hi), (0, hi - lo), (lo, lo + 1)}:
        got = _scan_range(combos, high_rows, a, b)
        assert got == _reference_scan_range(combos, high_rows, a, b, a == 0), (a, b)


@pytest.fixture(scope="module")
def code_63_32():
    z, _ = build_two_prime(3)
    return assemble(z)


class TestSearch:
    def test_deterministic_for_fixed_seed(self, code_63_32):
        a = low_weight_search(code_63_32, seed=5, iterations=40)
        b = low_weight_search(code_63_32, seed=5, iterations=40)
        assert (a.best_weight_found, a.witness) == (b.best_weight_found, b.witness)

    def test_monotone_in_iterations(self, code_63_32):
        short = low_weight_search(code_63_32, seed=11, iterations=30)
        long = low_weight_search(code_63_32, seed=11, iterations=150)
        assert long.best_weight_found <= short.best_weight_found

    def test_result_shape(self, code_63_32):
        result = low_weight_search(code_63_32, seed=3, iterations=25)
        assert result.method == "search"
        assert result.exact_distance is None
        assert result.seed == 3 and result.iterations == 25
        # the proven floor is the run bound of the defining set: 12 here
        assert result.proven_lower_bound == 12
        assert result.best_weight_found >= result.proven_lower_bound

    def test_witness_soundness(self, code_63_32):
        result = low_weight_search(code_63_32, seed=7, iterations=60)
        _, rem = poly_divrem(result.witness, code_63_32.generator)
        assert rem == 0
        assert result.witness.bit_count() == result.best_weight_found

    def test_search_can_reach_a_known_distance(self):
        # [63,32] has exact distance 12; a modest search should find it
        z, _ = build_two_prime(3)
        code = assemble(z)
        result = low_weight_search(code, seed=1, iterations=300, depth=2)
        assert result.best_weight_found == 12

    @pytest.mark.parametrize("depth", [0, 4, -1])
    def test_rejects_bad_depth(self, code_63_32, depth):
        with pytest.raises(ValueError, match="depth"):
            low_weight_search(code_63_32, seed=1, iterations=5, depth=depth)

    def test_rejects_bad_iterations(self, code_63_32):
        with pytest.raises(ValueError, match="iterations"):
            low_weight_search(code_63_32, seed=1, iterations=0)

    @pytest.mark.parametrize("iterations", [True, False, 2.5, np.int64(3), "3", None])
    def test_rejects_iterations_that_are_not_a_plain_int(self, code_63_32, iterations):
        with pytest.raises(ValueError, match="^iterations must be an int >= 1$"):
            low_weight_search(code_63_32, seed=1, iterations=iterations)

    @pytest.mark.parametrize("depth", [True, 2.0, np.int64(2), "2", None])
    def test_rejects_a_depth_that_is_not_a_plain_int(self, code_63_32, depth):
        with pytest.raises(ValueError, match="^depth must be 1, 2, or 3$"):
            low_weight_search(code_63_32, seed=1, iterations=5, depth=depth)

    @pytest.mark.parametrize("seed", [None, True, False, -1, 2.0, "1"])
    def test_rejects_a_seed_that_is_not_a_non_negative_int(self, code_63_32, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative int$"):
            low_weight_search(code_63_32, seed=seed, iterations=5)

    def test_seed_zero_is_a_seed(self, code_63_32):
        assert low_weight_search(code_63_32, seed=0, iterations=5).seed == 0


# -- the search scores through the shared subset enumerator ---------------


def _gauss_jordan(rows, perm, keep_slots=False):
    """Reference reduction: pure-Python Gauss-Jordan on int rows.  Each
    column's pivot is the first row not yet a pivot that has its bit; it
    is swapped into the next pivot slot, or with ``keep_slots`` stays in
    its own slot.  Returns (basis, dependent columns met before the basis
    was full)."""
    k = len(rows)
    basis = list(rows)
    pivoted = [False] * k
    filled = dependent = 0
    for col in perm:
        bit = 1 << int(col)
        pivot = next((r for r in range(k) if not pivoted[r] and basis[r] & bit), None)
        if pivot is None:
            dependent += 1
            continue
        slot = pivot if keep_slots else filled
        basis[slot], basis[pivot] = basis[pivot], basis[slot]
        pivoted[slot] = True
        for r in range(k):
            if r != slot and basis[r] & bit:
                basis[r] ^= basis[slot]
        filled += 1
        if filled == k:
            break
    assert filled == k
    return basis, dependent


def _unrolled_search(code, seed, iterations, depth):
    """Reference search: the same seeded reduction, then one pure-Python
    loop per depth over the reduced basis.  Returns (best weight, witness)."""
    n, k = code.n, code.dimension
    rows = [code.generator << i for i in range(k)]
    rng = np.random.default_rng(seed)
    best_w, best_wit = 1 << 30, 0
    for _ in range(iterations):
        basis, _ = _gauss_jordan(rows, rng.permutation(n))
        words = list(basis)
        if depth >= 2:
            words += [basis[a] ^ basis[b] for a in range(k) for b in range(a + 1, k)]
        if depth == 3:
            for a in range(k):
                for b in range(a + 1, k):
                    rab = basis[a] ^ basis[b]
                    words += [rab ^ basis[c] for c in range(b + 1, k)]
        for word in words:
            w = word.bit_count()
            if w < best_w or (w == best_w and word < best_wit):
                best_w, best_wit = w, word
    return best_w, best_wit


@functools.lru_cache(maxsize=None)
def _search_codes():
    """One-lane codes at n = 7, 15, 31, 63 and multi-lane codes at n = 127,
    255, among them both sqrt-m7 codes.  The [7,1] code has fewer rows than
    depths 2 and 3 combine."""
    sqrt5, _ = build_sqrt_complement(5)
    sqrt7, _ = build_sqrt_complement(7, overrides=(21, 27))
    even8, _, _ = build_even_m(8)
    two_prime, _ = build_two_prime(3)
    sets = [
        DefiningSet.from_elements(7, (1, 2, 3, 4, 5, 6)),
        DefiningSet.from_elements(15, EXAMPLE1_Z1),
        DefiningSet.from_elements(15, EXAMPLE1_Z2),
        sqrt5, dual_defining_set(sqrt5), two_prime,
        sqrt7, dual_defining_set(sqrt7), even8,
    ]
    return [assemble(z) for z in sets]


@pytest.mark.parametrize("tail_words", [1, 40, 1 << 16])
def test_subset_blocks_cover_every_subset_once(monkeypatch, tail_words):
    # random 64-bit lanes make equal XORs of distinct subsets vanishingly unlikely;
    # stack None is one (lanes, k) block, else a (lanes, stack, k) stack of row sets
    monkeypatch.setattr("bincyclic.distance._TAIL_WORDS", tail_words)
    rng = random.Random(tail_words)
    for lanes, stack in itertools.product((1, 2, 3), (None, 1, 3)):
        sets = [[rng.getrandbits(64 * lanes) for _ in range(9)] for _ in range(stack or 1)]
        rows = np.stack([_to_lanes(words, lanes) for words in sets], axis=1)
        if stack is None:
            rows = rows[:, 0]
        assert [_lanes_to_int(row) for row in rows.reshape(lanes, -1).T] == sum(sets, [])
        tails = []
        for w in range(1, 10):
            blocks = [block for _, _, block in _subset_blocks(rows, tails, w)]
            for b, words in enumerate(sets):
                got = [_lanes_to_int(row) for block in blocks
                       for row in (block if stack is None else block[:, b]).T]
                want = [functools.reduce(operator.xor, s) for s in itertools.combinations(words, w)]
                assert got == want, (lanes, stack, w, b)


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("stack", [None, 1, 3])
def test_fill_subset_xors_matches_reduce_over_subsets(lanes, stack):
    # entry s XORs the rows named by the bits of s; stack None is a
    # (lanes, 2^h) table of (lanes, h) rows, else a (lanes, 2^h, stack)
    # table of (lanes, h, stack) rows
    rng = random.Random(10 * lanes + (stack or 0))
    for h in range(7):
        sets = [[rng.getrandbits(64 * lanes) for _ in range(h)] for _ in range(stack or 1)]
        rows = np.stack([_to_lanes(words, lanes) for words in sets], axis=-1)
        # a reused table: every old entry, entry 0 included, must be overwritten
        table = np.full(rows.shape[:1] + (1 << h,) + rows.shape[2:], (1 << 64) - 1, dtype=np.uint64)
        if stack is None:
            rows, table = rows[..., 0], table[..., 0]
        assert _fill_subset_xors(table, rows) is table
        for b, words in enumerate(sets):
            got = [_lanes_to_int(word) for word in (table if stack is None else table[..., b]).T]
            want = [functools.reduce(operator.xor, (words[i] for i in range(h) if s >> i & 1), 0)
                    for s in range(1 << h)]
            assert got == want, (lanes, stack, h, b)


@pytest.mark.parametrize("lanes", [1, 2, 3, 16])
def test_to_lanes_round_trips_through_lanes_to_int(lanes):
    words = [0, (1 << 64 * lanes) - 1, 1 << (64 * lanes - 1), random.Random(lanes).getrandbits(64 * lanes)]
    block = _to_lanes(words, lanes)
    assert block.dtype == np.uint64 and block.shape == (lanes, len(words))
    assert block.flags.c_contiguous and block.flags.writeable
    assert [_lanes_to_int(block[:, i]) for i in range(len(words))] == words
    assert block[-1, 2] == np.uint64(1 << 63) and not block[:-1, 2].any()
    assert _to_lanes([], lanes).shape == (lanes, 0)


@pytest.mark.parametrize("lanes", [1, 2, 3, 8])
@pytest.mark.parametrize("rows", [1, 5, 200, 2000])
def test_popcount_equals_the_row_sum(lanes, rows):
    rng = np.random.default_rng(rows * 10 + lanes)
    block = rng.integers(0, 1 << 64, size=(rows, lanes), dtype=np.uint64).T
    block[:, 0] = np.uint64((1 << 64) - 1)  # the heaviest word, 64 * lanes ones
    got = _popcount(block)
    assert np.array_equal(got, np.bitwise_count(block).sum(axis=0))
    assert int(got[0]) == 64 * lanes


def test_popcount_of_a_wide_block():
    block = np.random.default_rng(7).integers(0, 1 << 64, size=(3, 32768), dtype=np.uint64).T
    assert np.array_equal(_popcount(block), np.bitwise_count(block).sum(axis=0))


@pytest.mark.parametrize("lanes", [1, 2, 3, 16])
@pytest.mark.parametrize("seed", range(6))
def test_smallest_is_the_least_hit_word(lanes, seed):
    rng = np.random.default_rng(100 * lanes + seed)
    words = int(rng.integers(2, 300))
    block = rng.integers(0, 1 << 64, size=(lanes, words), dtype=np.uint64)
    hits = np.sort(rng.choice(words, size=int(rng.integers(2, words + 1)), replace=False))
    # top lanes of 0 or 1, two hits tied at 0; a tie in the lane below when
    # it draws from three values, one of them its largest
    block[-1] = rng.integers(0, 2, size=words)
    block[-1, hits[:2]] = 0
    if lanes > 1 and seed % 2:
        block[-2] = rng.choice(np.array([0, 1 << 63, (1 << 64) - 1], dtype=np.uint64), size=words)
    assert _smallest(block, hits) == min(_lanes_to_int(block[:, i]) for i in hits)


class TestSearchMatchesUnrolledReference:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_every_depth_on_one_and_many_lanes(self, depth):
        for index, code in enumerate(_search_codes()):
            iterations = 2 if code.n == 255 and depth == 3 else 4
            seed = 100 * depth + index
            got = low_weight_search(code, seed=seed, iterations=iterations, depth=depth)
            want = _unrolled_search(code, seed, iterations, depth)
            assert (got.best_weight_found, got.witness) == want, (code.n, code.dimension)
            assert (got.iterations, got.seed) == (iterations, seed)

    @pytest.mark.parametrize("tail_words", [1, 40])
    def test_prefix_walk_gives_the_same_result(self, monkeypatch, tail_words):
        # tables this small leave depths 2 and 3 to the prefix walk
        monkeypatch.setattr("bincyclic.distance._TAIL_WORDS", tail_words)
        for index, code in enumerate(_search_codes()):
            for depth in (2, 3):
                got = low_weight_search(code, seed=index, iterations=2, depth=depth)
                want = _unrolled_search(code, index, 2, depth)
                assert (got.best_weight_found, got.witness) == want, (code.n, depth)

    def test_search_under_python_O(self):
        code = _search_codes()[7]  # the [127,63] sqrt-m7 dual: two lanes
        want = _unrolled_search(code, 5, 3, 3)
        script = (
            "from types import SimpleNamespace\n"
            "from bincyclic import distance\n"
            "from bincyclic.codecore import assemble, dual_defining_set\n"
            "from bincyclic.constructions import build_sqrt_complement\n"
            "if __debug__:\n"
            "    raise SystemExit('not running under -O')\n"
            "z, _ = build_sqrt_complement(7, overrides=(21, 27))\n"
            "distance._TAIL_WORDS = 2 * (63 * 2 + 127)  # batches of 2 and 1\n"
            "r = distance.low_weight_search(assemble(dual_defining_set(z)), seed=5, iterations=3, depth=3)\n"
            "print(r.best_weight_found, r.witness, r.iterations, r.seed)\n"
            "try:\n"
            "    distance.low_weight_search(SimpleNamespace(n=3, dimension=5, generator=0b11), seed=1)\n"
            "except distance.SearchError:\n"
            "    print('SearchError')\n"
        )
        src = Path(bincyclic.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.split() == [str(want[0]), str(want[1]), "3", "5", "SearchError"]

    @pytest.mark.parametrize("batch, sizes", [(1, [1] * 7), (3, [3, 3, 1]), (None, [7])])
    def test_batches_of_any_size_give_the_same_result(self, monkeypatch, batch, sizes):
        # a batch holds `batch` bases and their column orders: batch * (k * lanes + n) words
        sizes_seen = []
        reduce_batch = distance._reduce_batch

        def spy(rows, perms):
            sizes_seen.append(len(perms))
            return reduce_batch(rows, perms)

        monkeypatch.setattr("bincyclic.distance._reduce_batch", spy)
        for index, code in enumerate(_search_codes()):
            if batch is not None:
                lanes = (code.n + 63) // 64
                monkeypatch.setattr("bincyclic.distance._TAIL_WORDS",
                                    batch * (code.dimension * lanes + code.n))
            sizes_seen.clear()
            got = low_weight_search(code, seed=40 + index, iterations=7, depth=2)
            assert sizes_seen == sizes, (code.n, code.dimension)
            assert (got.best_weight_found, got.witness) == _unrolled_search(code, 40 + index, 7, 2)

    @pytest.mark.parametrize("index, depth, tail_words, widths", [
        (6, 2, 7 * (64 * 2 + 127), [6, 1]),  # [127,64]: a batch of 7 in slices of 6 and 1
        (8, 2, 7 * (129 * 4 + 255), [5, 2]),  # [255,129] on four lanes
        (6, 3, 6 * math.comb(64, 2) * 2, [3, 3, 1]),
        (7, 3, 4 * math.comb(63, 2) * 2, [2, 2, 2, 1]),  # [127,63]
    ])
    def test_slices_that_do_not_line_up_with_the_batch(self, monkeypatch, index, depth, tail_words, widths):
        # 7 iterations reduce as one batch; a slice's (depth - 1)-subset
        # table fills at most half of _TAIL_WORDS
        monkeypatch.setattr("bincyclic.distance._TAIL_WORDS", tail_words)
        seen = []
        subset_blocks = distance._subset_blocks

        def spy(rows, tails, w):
            if w == 1:
                seen.append(rows.shape[1])
            return subset_blocks(rows, tails, w)

        monkeypatch.setattr("bincyclic.distance._subset_blocks", spy)
        code = _search_codes()[index]
        got = low_weight_search(code, seed=60 + index, iterations=7, depth=depth)
        assert seen == widths
        assert (got.best_weight_found, got.witness) == _unrolled_search(code, 60 + index, 7, depth)

    def test_memory_is_bounded_whatever_the_iteration_count(self):
        for z, counts in [
            (build_two_prime(5)[0], (12, 36)),  # [1023,512] on 16 lanes: batches of 7
            (build_sqrt_complement(7, overrides=(21, 27))[0], (300, 600)),  # [127,64]: of 257
        ]:
            code = assemble(z)
            low_weight_search(code, seed=3, iterations=1, depth=2)  # numpy's lazy set-up
            peaks = []
            for iterations in counts:
                tracemalloc.start()
                try:
                    low_weight_search(code, seed=3, iterations=iterations, depth=2)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # the batch's bases and column orders fill at most _TAIL_WORDS words,
            # the slice's block and the next one at most half each; the rest is
            # the shift rows, the reduction's strip table (at most half the
            # bases) and scratch, and popcount's scratch
            assert peaks[0] <= 3 * distance._TAIL_WORDS * 8, peaks
            # later batches also hold the best witness so far, an int of n bits
            assert 0 <= peaks[1] - peaks[0] < 1024, peaks

    def test_five_hundred_twelve_rows_on_sixteen_lanes(self):
        z, _ = build_two_prime(5)
        code = assemble(z)  # [1023,512]
        got = low_weight_search(code, seed=9, iterations=2, depth=2)
        assert (code.n, code.dimension) == (1023, 512)
        assert (got.best_weight_found, got.witness) == _unrolled_search(code, 9, 2, 2)
        assert (got.iterations, got.seed) == (2, 9)

    def test_rank_loss_raises_search_error(self):
        # five shifts of x + 1 in three columns: the rows must be dependent
        stub = SimpleNamespace(n=3, dimension=5, generator=0b11)
        with pytest.raises(SearchError, match="lost rank"):
            low_weight_search(stub, seed=1, iterations=2)


def _assert_reference_slots(ints, n, perms):
    """Assert that ``_reduce_batch`` leaves every word of each basis in the
    slot the keep-slots reference leaves it in, and that the words are the
    ones a row-swapping loop leaves.  Returns the dependent columns met
    before the bases were full."""
    perms = np.asarray(perms)
    got = distance._reduce_batch(_to_lanes(ints, (n + 63) // 64), perms)
    assert got.shape == ((n + 63) // 64, len(perms), len(ints))
    dependent = 0
    for b, perm in enumerate(perms):
        want, skipped = _gauss_jordan(ints, perm, keep_slots=True)
        assert [_lanes_to_int(row) for row in got[:, b].T] == want, (n, len(ints), b)
        assert sorted(want) == sorted(_gauss_jordan(ints, perm)[0])
        dependent += skipped
    return dependent


def _with_strip_width(monkeypatch, width):
    """Make ``_reduce_batch`` use strips of ``width`` columns (None: the
    width its rule picks)."""
    if width is not None:
        monkeypatch.setattr("bincyclic.distance._strip_width", lambda k: width)


#: the [15,5,7] BCH code, the cosets of 1, 3 and 5 mod 15
BCH_15_5 = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)


def _assert_reference_slots_on_every_code():
    """Batches of 5 bases and of 1 on every search code and [15,5]."""
    rng = np.random.default_rng(77)
    dependent = 0
    for code in [*_search_codes(), _code(15, BCH_15_5)]:
        n, k = code.n, code.dimension
        ints = [code.generator << i for i in range(k)]
        for batch in (5, 1):
            perms = [rng.permutation(n) for _ in range(batch)]
            dependent += _assert_reference_slots(ints, n, perms)
    # the orders meet dependent columns before their bases are full
    assert dependent > 0


def test_reduce_batch_matches_pure_python_gauss_jordan():
    _assert_reference_slots_on_every_code()


@pytest.mark.parametrize("width", [1, 3, 8])
def test_reduce_batch_matches_at_any_strip_width(monkeypatch, width):
    # every n here is odd, so a width of 2 or more leaves a short last
    # strip; 8 is wider than k on the [7,1] and [15,5] codes
    _with_strip_width(monkeypatch, width)
    _assert_reference_slots_on_every_code()


@pytest.mark.parametrize("index", [6, 8])  # [127,64] on two lanes, [255,129] on four
@pytest.mark.parametrize("width", [None, 2, 5])
def test_reduce_batch_strip_across_a_lane_boundary(monkeypatch, index, width):
    # columns 63 and 64, bit 63 of lane 0 and bit 0 of lane 1, fall in
    # one strip, at a different place in each basis's order
    _with_strip_width(monkeypatch, width)
    code = _search_codes()[index]
    n, k = code.n, code.dimension
    c = distance._strip_width(k)
    rng = np.random.default_rng(79)
    perms = []
    for b in range(6):
        perm = [int(x) for x in rng.permutation(n) if x not in (63, 64)]
        at = c * (b % (k // c)) + b % (c - 1)
        perm[at:at] = [63, 64]
        assert at // c == (at + 1) // c
        perms.append(perm)
    _assert_reference_slots([code.generator << i for i in range(k)], n, perms)


def test_reduce_batch_strip_of_dependent_columns(monkeypatch):
    # columns 24..27 repeat columns 0..3 in every row, so the second strip
    # of 4 columns, which follows 0..3, is all dependent
    monkeypatch.setattr("bincyclic.distance._strip_width", lambda k: 4)
    rng = random.Random(80)
    n, k = 40, 10
    ints = []
    for _ in range(k):
        row = rng.getrandbits(n) & ~(0b1111 << 24)
        ints.append(row | (row & 0b1111) << 24)
    perms = []
    for b in range(3):
        rest = [j for j in range(n) if not (j < 4 or 24 <= j < 28)]
        random.Random(b).shuffle(rest)
        perms.append([0, 1, 2, 3, 24, 25, 26, 27, *rest])
    assert _assert_reference_slots(ints, n, perms) >= 3 * 4


class TestAutoDispatch:
    def test_small_dimension_goes_exhaustive(self):
        result = auto_distance(_code(15, EXAMPLE1_Z2))
        assert result.method == "exhaustive"
        assert result.exact_distance == 5

    def test_large_dimension_requires_a_seed(self):
        z, _ = build_sqrt_complement(7)
        code = assemble(z)
        with pytest.raises(ValueError, match="seed"):
            auto_distance(code)
        result = auto_distance(code, seed=1, iterations=20)
        assert result.method == "search"

    def test_wide_code_reports_its_floor(self):
        # [511,256]: the run bound alone proves 51, comfortably >= 49
        z, _ = build_weight_class(9, 1)
        code = assemble(z)
        assert code.dimension == 256
        result = auto_distance(code, seed=2, iterations=2, depth=1)
        assert result.method == "search"
        assert result.proven_lower_bound == 51
        assert result.proven_lower_bound >= 49
        assert result.best_weight_found >= result.proven_lower_bound
        _, rem = poly_divrem(result.witness, code.generator)
        assert rem == 0

    def test_budget_override_flips_the_route(self):
        code = _code(15, EXAMPLE1_Z1)  # dimension 9
        assert auto_distance(code).method == "exhaustive"
        assert auto_distance(code, budget=8, seed=4, iterations=10).method == "search"

    @pytest.mark.parametrize("budget", [8.5, True, np.int64(8), "33", None])
    def test_rejects_a_budget_that_is_not_a_plain_int(self, budget):
        # checked before the route is chosen: the numbers would send this
        # [15,9] code to the search unchecked, the others cannot be compared
        with pytest.raises(ValueError, match="^budget must be an int$"):
            auto_distance(_code(15, EXAMPLE1_Z1), budget=budget, seed=4, iterations=10)


class TestResultSerialization:
    def test_as_dict_round_trips(self):
        result = exact_min_distance(_code(15, EXAMPLE1_Z1))
        blob = json.loads(json.dumps(result.as_dict()))
        assert blob["method"] == "exhaustive"
        assert blob["exact_distance"] == 3
        assert blob["witness_weight"] == 3
        assert blob["witness_bits"].count("1") == 3


# -- the information-weight proof engine ----------------------------------


def _random_codes(m, count, k_max, seed):
    """Seeded doubling-closed sets over n = 2^m - 1 with 1 <= k <= k_max."""
    n = 2**m - 1
    table = build_table(m)
    leaders = list(table.leaders)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        picked = rng.sample(leaders, rng.randrange(1, len(leaders)))
        mask = table.union_mask(picked)
        k = n - int(mask.sum())
        if 1 <= k <= k_max:
            out.append(assemble(DefiningSet.from_mask(n, mask, {"construction": "random"})))
    return out


def _iterations_through(k, w):
    return sum(math.comb(k, j) for j in range(1, w + 1))


class TestProofEngine:
    @pytest.mark.parametrize(
        "m,count,k_max,seed",
        [(4, 12, 20, 61), (5, 15, 20, 62), (6, 15, 20, 63), (7, 6, 12, 64)],
    )
    def test_matches_gray_sweep(self, m, count, k_max, seed):
        # m = 7 has parity parts of 115..126 bits: two uint64 lanes
        for code in _random_codes(m, count, k_max, seed):
            got = proven_min_distance(code)
            assert got.exact_distance == exact_min_distance(code).exact_distance, code
            verify_distance_certificate(code, got)

    @pytest.mark.parametrize("tail_words", [1, 40, 600])
    def test_any_tail_table_size_gives_the_same_answer(self, monkeypatch, tail_words):
        # small tables push every weight above t_max through the prefix walk
        codes = _random_codes(5, 6, 20, 65) + _random_codes(7, 3, 12, 66)
        want = [proven_min_distance(code) for code in codes]
        monkeypatch.setattr("bincyclic.distance._TAIL_WORDS", tail_words)
        for code, ref in zip(codes, want):
            got = proven_min_distance(code)
            assert (got.exact_distance, got.witness, got.iterations) == (
                ref.exact_distance, ref.witness, ref.iterations,
            )

    def test_matches_naive_reencoder(self):
        for m, seed in ((3, 71), (4, 72), (5, 73)):
            for code in _random_codes(m, 10, 14, seed):
                got = proven_min_distance(code)
                assert got.exact_distance == _naive_min_distance(code)[0]
                assert code.is_codeword(got.witness)

    def test_empty_defining_set_is_the_full_space(self):
        code = _code(15, ())
        result = proven_min_distance(code)
        assert (result.exact_distance, result.witness) == (1, 1)
        verify_distance_certificate(code, result)

    def test_dimension_one_is_the_repetition_code(self):
        code = _code(7, (1, 2, 3, 4, 5, 6))
        result = proven_min_distance(code)
        assert (result.exact_distance, result.witness) == (7, (1 << 7) - 1)
        assert result.iterations == 1

    def test_recorded_distances(self):
        z1 = DefiningSet.from_elements(15, EXAMPLE1_Z1)
        z2 = DefiningSet.from_elements(15, EXAMPLE1_Z2)
        sqrt, _ = build_sqrt_complement(5)
        two_prime, _ = build_two_prime(3)
        cases = [
            (z1, 3), (dual_defining_set(z1), 6), (z2, 5), (dual_defining_set(z2), 4),
            (sqrt, 7), (dual_defining_set(sqrt), 8), (two_prime, 12),
        ]
        for zset, d in cases:
            code = assemble(zset)
            result = proven_min_distance(code)
            assert result.exact_distance == d == result.proven_lower_bound
            verify_distance_certificate(code, result)

    def test_result_shape_and_certificate(self, code_63_32):
        result = proven_min_distance(code_63_32)
        assert result.method == "information-weight"
        assert result.seed is None
        cert = result.certificate
        # floor(11 * 32 / 63) = 5: the pass stops once weight 5 is scored
        assert cert.enumerated_weight == 5
        assert result.iterations == _iterations_through(32, 5)
        assert cert.inequality == "floor((12-1)*32/63) = 5 <= 5"
        blob = json.loads(json.dumps(result.as_dict()))
        assert blob["certificate"] == {"enumerated_weight": 5, "inequality": cert.inequality}

    def test_other_engines_add_no_certificate_key(self):
        code = _code(15, EXAMPLE1_Z1)
        assert exact_min_distance(code).certificate is None
        assert "certificate" not in exact_min_distance(code).as_dict()
        assert "certificate" not in low_weight_search(code, seed=1, iterations=3).as_dict()

    @pytest.mark.parametrize(
        "k, w", [(0, 0), (1, 3), (5, 0), (5, 5), (5, 7), (32, 5), (64, 32), (4096, 120)]
    )
    def test_combination_count_is_the_binomial_sum(self, k, w):
        assert distance._combinations_through(k, w) == _iterations_through(k, w)

    def test_refuses_a_parity_matrix_past_its_ceiling(self, monkeypatch, code_63_32):
        # [63,32]: 32 rows of one 64-bit lane, 256 bytes
        monkeypatch.setattr("bincyclic.distance._PARITY_BYTES", 255)
        with pytest.raises(ValueError, match="32 x 31-bit parity matrix"):
            proven_min_distance(code_63_32)

    def test_refuses_up_front_when_the_run_bound_needs_too_much(self, monkeypatch, code_63_32):
        # run bound 12: any proof scores every message of weight <= 5
        monkeypatch.setattr(
            "bincyclic.distance._PROOF_COMBINATIONS", _iterations_through(32, 5) - 1
        )

        def no_enumeration(code):
            raise AssertionError("the limit must be checked before any enumeration")

        monkeypatch.setattr("bincyclic.distance._systematic_parity", no_enumeration)
        with pytest.raises(ValueError, match=r"\[63,32\] code .* weight <= 5, more than"):
            proven_min_distance(code_63_32)

    def test_refuses_before_the_weight_that_crosses_the_limit(self, monkeypatch):
        # Example 2's [63,30,12]: run bound 10 needs weight <= 4, the proof weight 5
        code = assemble(dual_defining_set(DefiningSet.from_elements(63, EXAMPLE2_Z1)))
        limit = _iterations_through(30, 4)
        monkeypatch.setattr("bincyclic.distance._PROOF_COMBINATIONS", limit)
        with pytest.raises(ValueError, match=r"information weight <= 5, more than the limit"):
            proven_min_distance(code)
        monkeypatch.setattr("bincyclic.distance._PROOF_COMBINATIONS", _iterations_through(30, 5))
        assert proven_min_distance(code).exact_distance == 12


_PROPERTY_CODES = (
    _random_codes(4, 4, 15, 81) + _random_codes(5, 4, 20, 82) + _random_codes(6, 4, 20, 83)
)


@functools.lru_cache(maxsize=None)
def _true_distance(index):
    return exact_min_distance(_PROPERTY_CODES[index]).exact_distance


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_tail_table_size_proves_the_true_distance(data):
    index = data.draw(st.integers(0, len(_PROPERTY_CODES) - 1), label="code")
    code = _PROPERTY_CODES[index]
    tail_words = data.draw(st.integers(1, 1 << 16), label="tail_words")
    with mock.patch("bincyclic.distance._TAIL_WORDS", tail_words):
        result = proven_min_distance(code)
    d = _true_distance(index)
    run = bch_lower_bound(code.defining_set)
    assert run <= result.proven_lower_bound == result.exact_distance == d
    assert result.iterations == _iterations_through(code.dimension, result.certificate.enumerated_weight)
    verify_distance_certificate(code, result)


class TestCertificateCheck:
    @pytest.fixture(scope="class")
    def proved(self):
        code = assemble(build_sqrt_complement(5)[0])
        return code, proven_min_distance(code)

    def test_genuine_result_passes(self, proved):
        verify_distance_certificate(*proved)

    def test_exhaustive_result_is_checked_for_its_witness(self, proved):
        code, _ = proved
        verify_distance_certificate(code, exact_min_distance(code))

    @pytest.mark.parametrize(
        "change,message",
        [
            # same weight, not a codeword
            (lambda r: {"witness": r.witness ^ 0b11}, "divisible by the generator"),
            (lambda r: {"best_weight_found": r.best_weight_found - 1}, "witness weight"),
            (lambda r: {"witness": 0, "best_weight_found": 0}, "nonzero"),
            (lambda r: {"proven_lower_bound": r.proven_lower_bound + 1}, "not proved"),
            (lambda r: {"exact_distance": None}, "not proved"),
            (
                lambda r: {"certificate": SimpleNamespace(**{**vars(r.certificate),
                                                             "enumerated_weight": 2})},
                "does not close",
            ),
            (
                lambda r: {"certificate": SimpleNamespace(**{**vars(r.certificate),
                                                             "inequality": "7 <= d"})},
                "does not close",
            ),
            # a short pass that states its own shortfall
            (
                lambda r: {"certificate": SimpleNamespace(
                    enumerated_weight=2, inequality="floor((7-1)*16/31) = 3 <= 2")},
                "does not close",
            ),
            (
                lambda r: {"certificate": SimpleNamespace(**{**vars(r.certificate),
                                                             "enumerated_weight": 99})},
                "outside",
            ),
        ],
    )
    def test_tampered_results_raise(self, proved, change, message):
        code, result = proved
        bad = dataclasses.replace(result, **change(result))
        with pytest.raises(InvariantError, match=message):
            verify_distance_certificate(code, bad)


OPTIMIZED_VERIFY_SCRIPT = """
import dataclasses
import bincyclic.fixtures as fx
from bincyclic.cli import run_command
if __debug__:
    raise SystemExit("not running under -O")
print("clean exit", run_command(["verify-paper", "--fixture", "sqrt-m5", "--json"]))
real = fx.proven_min_distance
fx.proven_min_distance = lambda code: dataclasses.replace(real(code), witness=real(code).witness ^ 1)
print("tampered exit", run_command(["verify-paper", "--fixture", "sqrt-m5"]))
"""


class TestVerifyPaperInvariants:
    def test_verify_paper_under_python_O(self):
        src = Path(bincyclic.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_VERIFY_SCRIPT],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "clean exit 0" in proc.stdout and '"ok": false' not in proc.stdout
        assert "tampered exit 1" in proc.stdout
        assert "error: witness" in proc.stderr

    def test_non_codeword_witness_exits_1(self, monkeypatch, capsys):
        real = proven_min_distance

        def tampered(code):
            result = real(code)
            return dataclasses.replace(result, witness=result.witness ^ 1)

        monkeypatch.setattr("bincyclic.fixtures.proven_min_distance", tampered)
        assert run_command(["verify-paper", "--fixture", "sqrt-m5"]) == 1
        assert capsys.readouterr().err.startswith("error: witness")
