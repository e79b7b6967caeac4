"""Field arithmetic: primitive moduli, tables, minimal polynomials."""

import numpy as np
import pytest
from field_oracle import horner, inv, mul, pow_beta
from hypothesis import given, settings
from hypothesis import strategies as st

from bincyclic import gf2
from bincyclic.gf2 import (
    FieldContext,
    InvariantError,
    make_field,
    minimal_polynomial,
    minimal_polynomials,
    poly_degree,
    poly_divrem,
    poly_from_bitstring,
    poly_from_hex,
    poly_mod,
    poly_mul,
    poly_pretty,
    poly_to_bitstring,
    poly_to_hex,
)

# ---------------------------------------------------------------------------
# Independent reference arithmetic (plain ints, no imports from the package)


def _ref_mul(a: int, b: int) -> int:
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


def _ref_divmod(a: int, b: int) -> tuple[int, int]:
    assert b
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _ref_irreducible(f: int, m: int) -> bool:
    for d in range(1, m // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _ref_divmod(f, cand)[1] == 0:
                return False
    return True


def _ref_order_of_x(f: int, m: int) -> int:
    n = (1 << m) - 1
    value = _ref_divmod(2, f)[1]  # x^order, starting at order = 1
    order = 1
    while value != 1 and order <= n:
        value = _ref_divmod(_ref_mul(value, 2), f)[1]
        order += 1
    return order if value == 1 else 0


def _ref_powers(modulus: int, m: int) -> list[int]:
    """x^j mod modulus for 0 <= j < 2^m - 1, by repeated multiplication by x."""
    powers = [1]
    for _ in range((1 << m) - 2):
        v = powers[-1] << 1
        powers.append(v ^ modulus if v >> m else v)
    return powers


def _ref_minimal_polynomial(modulus: int, m: int, e: int, powers: list[int]) -> int:
    """Expand prod (x - beta^j) over the doubling orbit of e, one root at a time."""
    n = (1 << m) - 1
    orbit = [e]
    while (2 * orbit[-1]) % n != e:
        orbit.append((2 * orbit[-1]) % n)
    coeffs = [1]  # coeffs[i] multiplies x^i
    for j in orbit:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= _ref_divmod(_ref_mul(c, powers[j]), modulus)[1]
        coeffs = nxt
    assert set(coeffs) <= {0, 1}
    return sum(c << i for i, c in enumerate(coeffs))


def _smallest_primitive(m: int) -> int:
    n = (1 << m) - 1
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if _ref_irreducible(cand, m) and _ref_order_of_x(cand, m) == n:
            return cand
    raise AssertionError("no primitive polynomial found")


# ---------------------------------------------------------------------------


class TestMakeField:
    def test_frozen_moduli(self):
        assert make_field(3).modulus == 0b1011
        assert make_field(4).modulus == 0b10011

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_modulus_is_smallest_primitive(self, m):
        assert make_field(m).modulus == _smallest_primitive(m)

    @pytest.mark.parametrize("m", [0, 1, 25])
    def test_degree_bounds(self, m):
        with pytest.raises(ValueError):
            make_field(m)

    @pytest.mark.parametrize("m", [2, 5, 11])
    def test_repeated_calls_share_one_context(self, m):
        assert make_field(m) is make_field(m)

    @pytest.mark.parametrize("bad", [2.0, 5.0, "5", True, [5]])
    def test_bad_degrees_still_raise_after_caching(self, bad):
        make_field(2)
        make_field(5)
        with pytest.raises(ValueError):
            make_field(bad)

    def test_table_shapes_and_sentinel(self):
        ctx = make_field(5)
        assert len(ctx.log_table) == 32
        assert len(ctx.antilog_table) == 31
        assert ctx.log_table[0] == -1
        assert ctx.antilog_table[0] == 1

    def test_tables_are_inverse_bijections(self):
        ctx = make_field(6)
        n = ctx.n
        seen = set()
        for i in range(n):
            e = int(ctx.antilog_table[i])
            assert 1 <= e <= n
            assert int(ctx.log_table[e]) == i
            seen.add(e)
        assert len(seen) == n

    # The next three tests check the scalar oracle of tests/field_oracle.py.

    def test_mul_matches_polynomial_reduction(self):
        ctx = make_field(8)
        for a in (1, 2, 37, 130, 255):
            for b in (1, 3, 91, 254):
                direct = poly_mod(poly_mul(a, b), ctx.modulus)
                assert mul(ctx, a, b) == direct

    def test_mul_zero_and_inverse(self):
        ctx = make_field(6)
        assert mul(ctx, 0, 17) == 0
        assert mul(ctx, 17, 0) == 0
        for a in range(1, ctx.n + 1):
            assert mul(ctx, a, inv(ctx, a)) == 1
        with pytest.raises(ZeroDivisionError):
            inv(ctx, 0)

    def test_pow_beta_cycles(self):
        ctx = make_field(4)
        assert pow_beta(ctx, 0) == 1
        assert pow_beta(ctx, 1) == 2
        assert pow_beta(ctx, ctx.n) == 1  # full cycle
        assert pow_beta(ctx, -1) == inv(ctx, 2)

    def test_fields_have_no_scalar_helpers(self):
        ctx = make_field(4)
        assert not any(hasattr(ctx, name) for name in ("mul", "inv", "pow_beta"))

    def test_degree_error_shows_the_value_as_given(self):
        with pytest.raises(ValueError, match=r"got np\.int64\(5\)$"):
            make_field(np.int64(5))
        with pytest.raises(ValueError, match=r"got '5'$"):
            make_field("5")


class TestMinimalPolynomial:
    def test_frozen_example(self):
        # the orbit of 3 mod 15 is {3, 6, 12, 9}; its minimal polynomial
        # over the 0b10011 field is 1 + x + x^2 + x^3 + x^4
        ctx = make_field(4)
        assert minimal_polynomial(ctx, 3) == 0b11111

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_roots_are_exactly_the_orbit(self, m):
        ctx = make_field(m)
        n = ctx.n
        for e in range(1, n):
            mp = minimal_polynomial(ctx, e)
            orbit = set()
            x = e
            while x not in orbit:
                orbit.add(x)
                x = (2 * x) % n
            assert poly_degree(mp) == len(orbit)
            for j in range(n):
                value = horner(ctx, mp, pow_beta(ctx, j))
                assert (value == 0) == (j in orbit)

    def test_minimal_polynomials_are_irreducible(self):
        ctx = make_field(6)
        for e in (1, 3, 5, 9, 21, 27):
            mp = minimal_polynomial(ctx, e)
            assert _ref_irreducible(mp, poly_degree(mp))

    @pytest.mark.parametrize("m", range(2, 11))
    def test_product_over_leaders_is_xn_plus_1(self, m):
        ctx = make_field(m)
        n = ctx.n
        leaders = []
        seen = set()
        for x in range(n):
            if x in seen:
                continue
            orbit = {x}
            y = (2 * x) % n
            while y != x:
                orbit.add(y)
                y = (2 * y) % n
            seen |= orbit
            leaders.append(x)
        product = 1
        for lead in leaders:
            product = poly_mul(product, minimal_polynomial(ctx, lead))
        assert product == (1 << n) | 1


    @pytest.mark.parametrize("m", range(2, 13))
    def test_batch_matches_per_root_expansion(self, m):
        ctx = make_field(m)
        n = ctx.n
        leaders = [x for x in range(n) if all((x << j) % n >= x for j in range(m))]
        powers = _ref_powers(ctx.modulus, m)
        want = [_ref_minimal_polynomial(ctx.modulus, m, e, powers) for e in leaders]
        assert minimal_polynomials(ctx, leaders) == want
        assert minimal_polynomial(ctx, leaders[-1]) == want[-1]

    def test_batch_covers_every_orbit_size(self):
        ctx = make_field(12)
        sizes = {poly_degree(p) for p in minimal_polynomials(ctx, range(ctx.n))}
        assert sizes == {1, 2, 3, 4, 6, 12}

    def test_batch_keeps_input_order_and_repeats(self):
        ctx = make_field(6)
        exps = [21, 0, 9, 1, 21, 62]
        assert minimal_polynomials(ctx, exps) == [minimal_polynomial(ctx, e) for e in exps]
        assert minimal_polynomials(ctx, []) == []

    @pytest.mark.parametrize("e", [-1, 63])
    def test_exponent_out_of_range(self, e):
        ctx = make_field(6)
        with pytest.raises(ValueError, match="exponent"):
            minimal_polynomials(ctx, [1, e])
        with pytest.raises(ValueError, match="exponent"):
            minimal_polynomial(ctx, e)

    @pytest.mark.parametrize("exps", [[1.5], ["1"], [True], [1, 2.0], np.array([1.0])])
    def test_exponents_that_are_not_integers_are_refused(self, exps):
        # each of these used to be cast to int64 and read as beta^1 (or beta^2)
        ctx = make_field(4)
        with pytest.raises(ValueError, match="expected integers"):
            minimal_polynomials(ctx, exps)
        with pytest.raises(ValueError, match="expected integers"):
            ctx.eval_at_powers(0b10011, exps)

    def test_numpy_integer_exponents_are_accepted(self):
        ctx = make_field(4)
        for exps in (np.array([1, 3], dtype=np.uint8), np.array([1, 3], dtype=np.int32)):
            assert minimal_polynomials(ctx, exps) == minimal_polynomials(ctx, [1, 3])
            assert ctx.eval_at_powers(0b10011, exps).tolist() == [0, 6]

    def test_coefficient_outside_gf2_is_reported(self):
        # a context whose antilog table does not follow its log table
        ctx = make_field(4)
        antilog = ctx.antilog_table.copy()
        antilog[[1, 2]] = antilog[[2, 1]]
        broken = FieldContext(
            m=4, modulus=ctx.modulus, log_table=ctx.log_table, antilog_table=antilog
        )
        with pytest.raises(InvariantError, match="outside GF\\(2\\)"):
            minimal_polynomials(broken, [1, 3])


class TestEvalAtPowers:
    def test_zero_and_constant_polynomials(self):
        ctx = make_field(5)
        exps = [0, 1, 30, 31, 100]
        assert ctx.eval_at_powers(0, exps).tolist() == [0] * 5
        assert ctx.eval_at_powers(1, exps).tolist() == [1] * 5
        assert ctx.eval_at_powers(0b1011, []).size == 0

    def test_blocking_does_not_change_values(self, monkeypatch):
        ctx = make_field(6)
        g = minimal_polynomial(ctx, 1) * 0x5A5  # any polynomial with many bits
        exps = np.arange(-70, 200)
        whole = ctx.eval_at_powers(g, exps)
        for block in (1, 5, 64):
            monkeypatch.setattr(gf2, "EVAL_BLOCK", block)
            assert np.array_equal(ctx.eval_at_powers(g, exps), whole)
        assert whole.tolist() == [horner(ctx, g, pow_beta(ctx, int(z))) for z in exps]

    def test_rejects_negative_encoding(self):
        with pytest.raises(ValueError):
            make_field(4).eval_at_powers(-1, [1])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_eval_at_powers_matches_horner(data):
    ctx = make_field(data.draw(st.integers(2, 8), label="m"))
    n = ctx.n
    poly = data.draw(
        st.one_of(st.sampled_from([0, 1]), st.integers(0, (1 << (3 * n + 1)) - 1)), label="poly"
    )
    exps = data.draw(st.lists(st.integers(-n, 3 * n), max_size=24), label="exps")
    got = ctx.eval_at_powers(poly, exps)
    assert got.tolist() == [horner(ctx, poly, pow_beta(ctx, z)) for z in exps]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_eval_poly_matches_horner(data):
    ctx = make_field(data.draw(st.integers(2, 8), label="m"))
    poly = data.draw(
        st.one_of(st.sampled_from([0, 1]), st.integers(0, (1 << (3 * ctx.n + 1)) - 1)), label="poly"
    )
    e = data.draw(st.integers(0, ctx.n), label="e")
    assert ctx.eval_poly(poly, e) == horner(ctx, poly, e)


class TestEvalPoly:
    @pytest.mark.parametrize("e", [-1, 16])
    def test_element_outside_the_field_is_refused(self, e):
        with pytest.raises(ValueError, match="field element"):
            make_field(4).eval_poly(0b111, e)

    def test_negative_encoding_is_refused(self):
        for e in (0, 3):
            with pytest.raises(ValueError, match="negative"):
                make_field(4).eval_poly(-1, e)


class TestPolynomialHelpers:
    def test_degree(self):
        assert poly_degree(0) is None
        assert poly_degree(1) == 0
        assert poly_degree(0b1011) == 3

    def test_pretty(self):
        assert poly_pretty(0) == "0"
        assert poly_pretty(0b1011) == "1 + x + x^3"

    def test_bitstring_roundtrip_examples(self):
        assert poly_to_bitstring(0b1011) == "1101"
        assert poly_from_bitstring("1101") == 0b1011
        assert poly_to_bitstring(1) == "1"

    def test_hex_roundtrip_examples(self):
        # little-endian nibble order: low nibble first
        assert poly_to_hex(0x8FAF) == "faf8"
        assert poly_from_hex("faf8") == poly_from_hex("FAF8") == 0x8FAF

    def test_division_by_zero_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem(1, 0)

    @pytest.mark.parametrize("operation,args", [
        (poly_mul, (-1, 3)), (poly_mul, (3, -1)), (poly_divrem, (5, -3)),
        (poly_divrem, (-5, 3)), (poly_mod, (-1, 3)), (poly_degree, (-5,)),
    ])
    def test_negative_operands_are_refused(self, operation, args):
        # poly_mul(-1, 3) never returned (a & -a never clears a negative
        # int), nor did poly_divrem(-5, 3); poly_divrem(5, -3), poly_mod(-1, 3)
        # and poly_degree(-5) gave (2, -1), -1 and 2
        with pytest.raises(ValueError, match="negative value is not a polynomial encoding"):
            operation(*args)

    # poly_pretty(-1) never returned: -1 >> 1 is -1
    @pytest.mark.parametrize("encode", [poly_to_bitstring, poly_to_hex, poly_pretty])
    def test_negative_values_are_refused(self, encode):
        with pytest.raises(ValueError, match="negative"):
            encode(-1)

    @pytest.mark.parametrize("text", ["", "12"])
    def test_bad_bitstrings_are_refused(self, text):
        with pytest.raises(ValueError, match="not a bit-string"):
            poly_from_bitstring(text)

    @pytest.mark.parametrize("text", ["", "1+", " f", "f ", "1_0", "-1", "0x1", "g"])
    def test_bad_hex_strings_are_refused(self, text):
        with pytest.raises(ValueError, match="not a hex string"):
            poly_from_hex(text)


@given(a=st.integers(0, 2**96 - 1), b=st.integers(0, 2**96 - 1))
def test_poly_mul_matches_reference(a, b):
    assert poly_mul(a, b) == _ref_mul(a, b)


@given(a=st.integers(0, 2**96 - 1), b=st.integers(0, 2**96 - 1), c=st.integers(0, 2**96 - 1))
@settings(max_examples=60)
def test_poly_mul_ring_laws(a, b, c):
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
    assert poly_mul(a, b ^ c) == poly_mul(a, b) ^ poly_mul(a, c)


@given(a=st.integers(0, 2**128 - 1), b=st.integers(1, 2**64 - 1))
def test_poly_divrem_reconstructs(a, b):
    q, r = poly_divrem(a, b)
    assert poly_mul(q, b) ^ r == a
    assert r == 0 or poly_degree(r) < poly_degree(b)
    assert poly_mod(a, b) == r


@given(a=st.integers(0, 2**200 - 1))
def test_serialization_roundtrips(a):
    assert poly_from_bitstring(poly_to_bitstring(a)) == a
    assert poly_from_hex(poly_to_hex(a)) == a
