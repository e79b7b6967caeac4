"""Code assembly, duality, run bounds, and report serialization."""

import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bincyclic
from bincyclic import codecore
from bincyclic.cli import run_command
from bincyclic.codecore import (
    CyclicCode,
    DegenerateCodeError,
    InvariantError,
    assemble,
    bch_lower_bound,
    bch_run,
    describe,
    dual_defining_set,
)
from bincyclic.constructions import (
    DefiningSet,
    build_even_m,
    build_odd_pq,
    build_sqrt_complement,
    build_two_prime,
)
from bincyclic.cosets import build_table, negated_mask
from bincyclic.fixtures import EXAMPLE1_Z1, EXAMPLE1_Z2, SQRT_M5_Z
from bincyclic.gf2 import make_field, minimal_polynomials, poly_degree, poly_mul


def _set(n, elements):
    return DefiningSet.from_elements(n, elements)


def _random_proper_sets(m, count, seed):
    """Seeded doubling-closed sets over n = 2^m - 1, never all of Z_n."""
    table = build_table(m)
    rng = random.Random(seed)
    leaders = list(table.leaders)
    out = []
    for _ in range(count):
        k = rng.randrange(len(leaders))
        picked = rng.sample(leaders, k)
        mask = table.union_mask(picked)
        out.append(DefiningSet.from_mask(2**m - 1, mask, {"construction": "random"}))
    return out


class TestAssemble:
    def test_hamming_7_4(self):
        code = assemble(_set(7, (1, 2, 4)))
        assert code.dimension == 4
        assert code.generator == 0b1011       # 1 + x + x^3
        assert code.parity == 0b10111         # 1 + x + x^2 + x^4
        assert repr(code) == "CyclicCode(n=7, k=4, |Z|=3)"

    def test_generator_times_parity(self):
        for z in (_set(7, (1, 2, 4)), _set(15, EXAMPLE1_Z1), _set(31, SQRT_M5_Z)):
            code = assemble(z)
            assert poly_mul(code.generator, code.parity) == (1 << z.n) | 1

    def test_generator_degree_matches_set_size(self):
        for z in _random_proper_sets(5, 8, seed=7):
            code = assemble(z)
            assert poly_degree(code.generator) == len(z) or (
                len(z) == 0 and code.generator == 1
            )

    def test_empty_set_gives_identity_generator(self):
        code = assemble(_set(15, ()))
        assert code.generator == 1
        assert code.dimension == 15
        assert code.parity == (1 << 15) | 1

    def test_full_set_is_degenerate(self):
        z = DefiningSet.from_mask(7, np.ones(7, dtype=bool), {"construction": "full"})
        with pytest.raises(DegenerateCodeError, match="all of Z_n"):
            assemble(z)

    def test_rejects_non_mersenne_length(self):
        with pytest.raises(ValueError, match="2\\^m - 1"):
            assemble(_set(9, (1, 2, 4, 5, 7, 8)))

    def test_rejects_mismatched_field(self):
        with pytest.raises(ValueError, match="field context"):
            assemble(_set(7, (1, 2, 4)), ctx=make_field(4))

    def test_shared_context_reused(self):
        ctx = make_field(4)
        code = assemble(_set(15, EXAMPLE1_Z1), ctx=ctx)
        assert code.ctx is ctx


@pytest.fixture(scope="module")
def code_15_9():
    return assemble(_set(15, EXAMPLE1_Z1))


class TestEncodeAndMembership:
    def test_every_message_encodes_to_a_codeword(self, code_15_9):
        for msg in range(1 << code_15_9.dimension):
            assert code_15_9.is_codeword(code_15_9.encode(msg))

    def test_single_bit_flips_leave_the_code(self, code_15_9):
        # minimum distance 3: distinct codewords never differ in one bit
        rng = random.Random(3)
        for msg in rng.sample(range(1, 1 << 9), 25):
            word = code_15_9.encode(msg)
            for j in range(15):
                assert not code_15_9.is_codeword(word ^ (1 << j))

    def test_zero_is_a_codeword(self, code_15_9):
        assert code_15_9.encode(0) == 0
        assert code_15_9.is_codeword(0)

    def test_encode_rejects_oversized_messages(self, code_15_9):
        with pytest.raises(ValueError, match="message"):
            code_15_9.encode(1 << 9)
        with pytest.raises(ValueError):
            code_15_9.encode(-1)

    def test_is_codeword_rejects_oversized_words(self, code_15_9):
        with pytest.raises(ValueError, match="word"):
            code_15_9.is_codeword(1 << 15)

    def test_code_is_cyclic(self, code_15_9):
        n = code_15_9.n
        rng = random.Random(9)
        for msg in rng.sample(range(1 << 9), 20):
            word = code_15_9.encode(msg)
            rotated = ((word << 1) | (word >> (n - 1))) & ((1 << n) - 1)
            assert code_15_9.is_codeword(rotated)


class TestVerifyRoots:
    @pytest.mark.parametrize(
        "z",
        [
            _set(7, (1, 2, 4)),
            _set(15, EXAMPLE1_Z2),
            _set(31, SQRT_M5_Z),
        ],
        ids=lambda z: f"n{z.n}",
    )
    def test_roots_are_exactly_the_defining_set(self, z):
        assert assemble(z).verify_roots()

    def test_tampered_generator_is_caught(self):
        # g * (x + 1) gains the root beta^0, which is outside Z = {1, 2, 4}
        code = assemble(_set(7, (1, 2, 4)))
        tampered = CyclicCode(
            n=7,
            m=3,
            defining_set=code.defining_set,
            generator=poly_mul(code.generator, 0b11),
            parity=code.parity,
            ctx=code.ctx,
        )
        assert code.verify_roots()
        assert not tampered.verify_roots()

    def test_missing_root_is_caught(self):
        # drop the factor for the coset of 3: g no longer vanishes there
        z = _set(15, EXAMPLE1_Z2)
        code = assemble(z)
        smaller = assemble(_set(15, sorted(z.as_set() - {3, 6, 9, 12})), ctx=code.ctx)
        shell = CyclicCode(
            n=15, m=4, defining_set=z, generator=smaller.generator,
            parity=code.parity, ctx=code.ctx,
        )
        assert not shell.verify_roots()

    def test_refuses_huge_lengths(self):
        # the guard fires on n alone, so a hand-built shell is enough
        n = (1 << 17) - 1
        code = CyclicCode(
            n=n,
            m=17,
            defining_set=_set(n, ()),
            generator=1,
            parity=(1 << n) | 1,
            ctx=make_field(17),
        )
        with pytest.raises(ValueError, match="65535"):
            code.verify_roots()


# Z = C_1 + C_3 over n = 15; C_7 has the same size and lies outside Z.
TAMPER_Z = (1, 2, 4, 8, 3, 6, 9, 12)
TAMPER_SCRIPT = """
import bincyclic.codecore as cc
from bincyclic.constructions import DefiningSet
if __debug__:
    raise SystemExit("not running under -O")
real = cc.minimal_polynomials
cc.minimal_polynomials = lambda ctx, leaders: real(ctx, leaders)[:-1] + real(ctx, [7])
try:
    cc.assemble(DefiningSet.from_elements(15, %r))
except cc.InvariantError as exc:
    print(exc)
else:
    raise SystemExit("no InvariantError")
""" % (TAMPER_Z,)


@pytest.fixture
def swapped_minimal_polynomial(monkeypatch):
    """assemble() gets m_7 in place of m_3: same degree, root outside Z."""

    def tampered(ctx, leaders):
        polys = minimal_polynomials(ctx, leaders)
        assert list(leaders) == [1, 3]
        return polys[:-1] + minimal_polynomials(ctx, [7])

    monkeypatch.setattr("bincyclic.codecore.minimal_polynomials", tampered)


class TestInvariants:
    def test_root_check_names_the_missing_root(self, swapped_minimal_polynomial):
        with pytest.raises(InvariantError, match="beta\\^3 must be a root"):
            assemble(_set(15, TAMPER_Z))

    def test_root_check_survives_python_O(self):
        src = Path(bincyclic.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", TAMPER_SCRIPT],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "beta^3 must be a root" in proc.stdout

    def test_cli_reports_an_invariant_failure_as_exit_1(
        self, swapped_minimal_polynomial, capsys, monkeypatch
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, TAMPER_Z))))
        assert run_command(["analyze", "--m", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: beta^3 must be a root")

    def test_invariant_error_is_a_runtime_error(self):
        assert issubclass(InvariantError, RuntimeError)
        assert not issubclass(InvariantError, AssertionError)


class TestLeaders:
    @pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 16])
    def test_leaders_are_orbit_minima(self, m):
        for z in _random_proper_sets(m, 5, seed=40 + m):
            n = z.n
            want = [x for x in z if all((x << j) % n >= x for j in range(m))]
            assert codecore._leaders_of(z).tolist() == want


class TestDuality:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_both_dual_routes_agree(self, m):
        for z in _random_proper_sets(m, 6, seed=m):
            if len(z) == 0:
                continue  # the dual of the full code degenerates
            code = assemble(z)
            via_reversal = code.dual()
            via_set = assemble(dual_defining_set(z), ctx=code.ctx)
            assert via_reversal.generator == via_set.generator
            assert via_reversal.defining_set == via_set.defining_set

    def test_dimensions_are_complementary(self):
        for m in (4, 5, 6):
            for z in _random_proper_sets(m, 5, seed=10 + m):
                code = assemble(z)
                if len(dual_defining_set(z)) == z.n:
                    continue  # dual of the trivial full code degenerates
                assert code.dimension + code.dual().dimension == z.n

    def test_dual_set_involution(self):
        for z in _random_proper_sets(6, 6, seed=2):
            if len(dual_defining_set(z)) == z.n:
                continue
            assert dual_defining_set(dual_defining_set(z)) == z

    def test_orthogonality_exhaustive_m4(self):
        # every codeword of C against every codeword of the dual
        code = assemble(_set(15, EXAMPLE1_Z1))
        dual = code.dual()
        words = np.array(
            [code.encode(u) for u in range(1 << code.dimension)], dtype=np.uint16
        )
        dual_words = np.array(
            [dual.encode(u) for u in range(1 << dual.dimension)], dtype=np.uint16
        )
        products = np.bitwise_count(words[:, None] & dual_words[None, :])
        assert not (products & 1).any()

    def test_orthogonality_m5_against_dual_basis(self):
        # all 2^16 codewords x a basis of the dual; enough by bilinearity
        code = assemble(_set(31, SQRT_M5_Z))
        dual = code.dual()
        words = np.array(
            [code.encode(u) for u in range(1 << code.dimension)], dtype=np.uint32
        )
        basis = np.array(
            [dual.encode(1 << j) for j in range(dual.dimension)], dtype=np.uint32
        )
        products = np.bitwise_count(words[:, None] & basis[None, :])
        assert not (products & 1).any()

    def test_even_m_halves_mirror_through_the_dual(self):
        # Z1 and Z2 tile {1..n-1}, so dual(Z1) is exactly {0} plus -Z2
        z1, z2, _ = build_even_m(6)
        n = z1.n
        expected = {0} | {(n - x) % n for x in z2.as_set()}
        assert dual_defining_set(z1).as_set() == expected


class TestBchRun:
    def test_empty_set(self):
        assert bch_run(_set(15, ())) == (1, None)

    def test_zero_only(self):
        assert bch_run(_set(15, (0,))) == (2, 0)

    def test_full_set_raises(self):
        z = DefiningSet.from_mask(7, np.ones(7, dtype=bool), {"construction": "full"})
        with pytest.raises(DegenerateCodeError):
            bch_run(z)

    def test_simple_runs(self):
        assert bch_run(_set(7, (1, 2, 4))) == (3, 1)
        assert bch_run(_set(7, (3, 5, 6))) == (3, 5)

    def test_wraparound_run(self):
        # C7 = {7,11,13,14} plus {0}: the run {13,14,0} crosses the seam
        z = _set(15, (0, 7, 11, 13, 14))
        assert bch_run(z) == (4, 13)

    def test_smallest_start_wins_ties(self):
        # two runs of length 2: {1,2} and {4,5}... doubled closure forces
        # the concrete set; verify the reported start is the smaller one
        z = _set(15, (3, 6, 12, 9))
        # elements {3,6,9,12}: runs are isolated singletons except none;
        # cyclic layout 3,6,9,12 -> all runs have length 1, smallest start 3
        assert bch_run(z) == (2, 3)

    def test_lower_bound_shortcut(self):
        z = _set(15, EXAMPLE1_Z2)
        assert bch_lower_bound(z) == bch_run(z)[0]


def _tiled_bch_run(zset):
    """The earlier bch_run, kept as the oracle: tile the mask to 2n and
    measure every run that starts in the first copy."""
    n = zset.n
    if len(zset) == 0:
        return 1, None
    if len(zset) == n:
        raise DegenerateCodeError("defining set is all of Z_n")
    doubled = np.tile(zset.mask(), 2)
    idx = np.arange(2 * n, dtype=np.int64)
    last_gap = np.maximum.accumulate(np.where(~doubled, idx, -1))
    runs = np.where(doubled, idx - last_gap, 0)
    starts = last_gap + 1
    runs[starts >= n] = 0
    best_len = int(runs.max())
    return best_len + 1, int(starts[runs == best_len].min())


def _raw_set(mask):
    # bch_run reads only the mask, so arbitrary (unclosed) sets test it too
    return DefiningSet(n=len(mask), elements=np.flatnonzero(mask), origin={})


class TestBchRunFromGaps:
    def test_random_masks_match_the_tiled_oracle(self):
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            n = int(rng.integers(2, 200))
            mask = rng.random(n) < rng.random()
            if mask.all():
                continue
            z = _raw_set(mask)
            assert bch_run(z) == _tiled_bch_run(z), np.flatnonzero(mask).tolist()
            if mask.any():  # the empty set's dual is the zero code
                dual = describe(z)["dual"]
                want = _tiled_bch_run(_raw_set(negated_mask(~mask)))
                assert (dual["bch_lower_bound"], dual["bch_interval_start"]) == want

    def test_closed_sets_match_the_tiled_oracle(self):
        for m in (3, 4, 5, 6, 8):
            for z in _random_proper_sets(m, 8, seed=70 + m):
                assert bch_run(z) == _tiled_bch_run(z)

    @pytest.mark.parametrize(
        "n,elements,want",
        [
            (15, (12, 13, 14, 0, 1, 5, 6, 7, 8), (6, 12)),  # run wraps past n - 1
            (15, (13, 14, 0, 1, 5, 6, 7, 8), (5, 5)),  # wrapped tie: 5 < 13
            (15, tuple(range(15)[1:]), (15, 1)),  # one gap, at 0
            (15, tuple(x for x in range(15) if x != 9), (15, 10)),  # one gap, mid-circle
            (15, tuple(x for x in range(15) if x != 14), (15, 0)),  # one gap, at n - 1
            (15, (), (1, None)),  # Z empty
            (1, (), (1, None)),
        ],
    )
    def test_edge_cases(self, n, elements, want):
        mask = np.zeros(n, dtype=bool)
        mask[list(elements)] = True
        z = _raw_set(mask)
        assert bch_run(z) == want == _tiled_bch_run(z)

    def test_all_of_z_n_raises(self):
        for n in (1, 2, 15):
            with pytest.raises(DegenerateCodeError):
                bch_run(_raw_set(np.ones(n, dtype=bool)))


def _whole_array_run_bounds(zset):
    """The earlier ``_run_bounds``, kept as the oracle: every cyclic step of
    Z and every run end in two arrays as long as Z."""
    n, z, k = zset.n, zset.elements, len(zset)
    if k == n:
        raise DegenerateCodeError("defining set is all of Z_n")
    if k == 0:
        return (1, None), (n + 1, 0)
    steps = np.empty_like(z)
    np.subtract(z[1:], z[:-1], out=steps[:-1])
    steps[-1] = z[0] + n - z[-1]
    widest = int(steps.max())
    after = (np.flatnonzero(steps == widest) + 1) % k
    dual_start = int(((1 - z[after]) % n).min())
    ends = np.flatnonzero(steps > 1)
    runs = steps[: len(ends)]
    np.subtract(ends[1:], ends[:-1], out=runs[:-1])
    runs[-1] = ends[0] + k - ends[-1]
    longest = int(runs.max())
    start = int(z[(ends[runs == longest] + 1) % k].min())
    return (longest + 1, start), (widest, dual_start)


class TestRunBoundsInBlocks:
    """Small blocks make runs, the widest step and ties straddle block edges."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_random_closed_sets_match_the_whole_array_scan(self, monkeypatch, block):
        monkeypatch.setattr(codecore, "_RUN_BLOCK", block)
        for m in range(2, 13):
            for z in _random_proper_sets(m, 12, seed=900 + m):
                assert codecore._run_bounds(z) == _whole_array_run_bounds(z), sorted(z.as_set())

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 16])
    def test_edge_cases_match_the_whole_array_scan(self, monkeypatch, block):
        monkeypatch.setattr(codecore, "_RUN_BLOCK", block)
        table = build_table(6)
        n = table.n
        sets = [
            _set(15, (7, 11, 13, 14)),  # the widest step wraps: 14 -> 7 + 15
            _set(63, (0, 21, 42)),  # two widest steps tie, one of them the wrap
            _set(15, (0,)),  # one element
            _set(15, ()),
        ]
        # Z_n minus one coset, for each coset
        sets += [DefiningSet.from_mask(n, ~table.union_mask([lead])) for lead in table.leaders.tolist()]
        for z in sets:
            assert codecore._run_bounds(z) == _whole_array_run_bounds(z), sorted(z.as_set())
        assert codecore._run_bounds(sets[0]) == ((3, 13), (8, 9))
        assert codecore._run_bounds(sets[2]) == ((2, 0), (15, 1))
        with pytest.raises(DegenerateCodeError):
            codecore._run_bounds(DefiningSet.from_mask(7, np.ones(7, dtype=bool)))


class TestDescribe:
    def test_plain_report(self):
        report = describe(_set(15, EXAMPLE1_Z1))
        assert report["n"] == 15 and report["m"] == 4
        assert report["dimension"] == 9
        assert report["bch_lower_bound"] == 3
        assert report["dual"]["size"] == 9
        assert report["generator_bits"] is None

    def test_report_with_generator(self):
        z = _set(7, (1, 2, 4))
        d = describe(z, generator=assemble(z).generator)
        assert d["generator_bits"] == "1101"
        assert d["dual"]["dimension"] == 3

    def test_empty_set_report(self):
        report = describe(_set(15, ()))
        assert report["dimension"] == 15
        assert report["bch_lower_bound"] == 1
        assert report["bch_interval_start"] is None
        # the dual is the zero code; its vacuous run covers the circle
        assert report["dual"]["size"] == 15
        assert report["dual"]["bch_lower_bound"] == 16
        assert report["dual"]["bch_interval_start"] == 0

    def test_as_dict_round_trips_through_json(self):
        z, _, _ = build_even_m(6)
        report = describe(z, generator=assemble(z).generator)
        listed = {**report, "defining_set": report["defining_set"].tolist()}
        back = json.loads(json.dumps(listed))
        assert back == listed
        assert back["defining_set"] == sorted(z.as_set())
        assert back["dual"]["size"] == len(dual_defining_set(z))

    def test_defining_set_is_the_sets_own_array(self):
        z, _, _ = build_even_m(6)
        report = describe(z)
        assert report["defining_set"] is z.elements
        assert report["defining_set"].dtype == np.int64
        assert not report["defining_set"].flags.writeable

    def test_describe_matches_assembled_code(self):
        for z in _random_proper_sets(5, 6, seed=31):
            report = describe(z)
            assert report["dimension"] == assemble(z).dimension

    def test_dual_facts_are_those_of_the_dual_set(self):
        # Negating Z_n \ Z keeps its run length and moves only the start, so
        # the start is what tells the dual from the un-negated complement.
        sets = [z for m in (4, 6, 8) for z in _random_proper_sets(m, 30, seed=18)]
        sets += [_set(15, ()), _set(15, (0,)), _set(15, range(1, 15))]
        for z in sets:
            dual = dual_defining_set(z)
            n = z.n
            # the zero code's vacuous run goes round the whole circle
            run = (n + 1, 0) if len(dual) == n else bch_run(dual)
            assert describe(z)["dual"] == {
                "size": len(dual),
                "dimension": n - len(dual),
                "bch_lower_bound": run[0],
                "bch_interval_start": run[1],
            }, sorted(z.as_set())

    @given(m=st.integers(2, 10), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_dual_read_from_minus_z_matches_the_built_dual(self, m, data):
        n = (1 << m) - 1
        table = build_table(m)
        picked = data.draw(st.lists(st.sampled_from(table.leaders.tolist()), unique=True))
        z = DefiningSet.from_mask(n, table.union_mask(picked))
        assume(len(z) < n)
        self._check_dual(z)

    @staticmethod
    def _check_dual(z):
        n = z.n
        dual = describe(z)["dual"]
        assert dual["size"] == n - len(z)
        # the zero code's vacuous run goes round the whole circle
        want = (n + 1, 0) if len(z) == 0 else bch_run(dual_defining_set(z))
        assert (dual["bch_lower_bound"], dual["bch_interval_start"]) == want
        return want

    def test_dual_read_from_minus_z_edge_cases(self):
        for m in (3, 4, 7):
            n = (1 << m) - 1
            table = build_table(m)
            assert self._check_dual(_set(n, ())) == (n + 1, 0)
            assert self._check_dual(_set(n, range(1, n))) == (2, 0)   # the dual is {0}
            assert self._check_dual(_set(n, (0,))) == (n, 1)
            self._check_dual(DefiningSet.from_mask(n, table.union_mask([0, 1])))
            self._check_dual(DefiningSet.from_mask(n, table.union_mask([1])))
        # mod 15 the dual of C_7 = {7, 11, 13, 14} is {0, 3, 5, 6, 7, 9, ..., 14},
        # whose longest run, 9..14 and 0, wraps past n - 1
        assert self._check_dual(_set(15, (7, 11, 13, 14))) == (8, 9)

    @staticmethod
    def _peak_in_arrays_of_z(run):
        # Z's cyclic steps are scanned 2^16 elements at a time: a few int64
        # arrays of one block, about 1.6 MiB, against |Z| = 2^20 - 1 int64
        # elements (8 MiB); no mask over Z_n and no array of the dual's
        # residues.  The whole-array scan read 1.28 arrays of |Z|.
        z, _ = build_odd_pq(3, 7)
        tracemalloc.start()
        try:
            run(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / z.elements.nbytes

    def test_describe_makes_no_array_as_long_as_z_n(self):
        peak = self._peak_in_arrays_of_z(describe)
        assert peak < 0.5, f"peak {peak:.2f} arrays of |Z|"

    def test_bch_run_makes_no_array_as_long_as_z_n(self):
        peak = self._peak_in_arrays_of_z(bch_run)
        assert peak < 0.5, f"peak {peak:.2f} arrays of |Z|"

    def test_keys_in_envelope_order(self):
        # dict equality ignores order; the JSON envelope does not
        report = describe(_set(15, EXAMPLE1_Z1))
        assert list(report) == [
            "n", "m", "construction", "defining_set", "dimension", "generator_bits",
            "bch_lower_bound", "bch_interval_start", "dual",
        ]
        assert list(report["dual"]) == [
            "size", "dimension", "bch_lower_bound", "bch_interval_start",
        ]
