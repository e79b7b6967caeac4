"""Arithmetic over GF(2)[x] and GF(2^m).

Binary polynomials are stored as plain Python integers: bit ``i`` of the
integer is the coefficient of ``x**i`` (little-endian).  The encoding is
canonical by construction -- an int has no trailing zero limbs -- and the
zero polynomial is just ``0``.  Its degree is reported as ``None`` rather
than -1 so that degree arithmetic on it fails loudly instead of silently.

Extension fields GF(2^m) are represented by a :class:`FieldContext`: a
primitive modulus polynomial of degree ``m`` together with log/antilog
tables over the generator ``beta = x``.  The pipeline works on whole
arrays of elements: minimal polynomials in batches and polynomial values
at powers of beta as gathers from the antilog table.
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass, field

import numpy as np

#: Type alias used throughout: a GF(2)[x] polynomial packed into an int,
#: bit i = coefficient of x^i.
BinaryPolynomial = int

MAX_FIELD_DEGREE = 24


def _is_int(value) -> bool:
    """Whether ``value`` is a plain int: bools and numpy integers are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer: bools are not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _int_array(values) -> np.ndarray:
    """``values`` as an int64 array.  It is read with no forced dtype, so a
    non-empty input whose values are not integers (floats, strings, bools)
    raises ``ValueError`` instead of being cast; an empty one is allowed."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"expected integers, got values of dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_field_degree(m: int) -> None:
    """Raise ``ValueError`` unless ``m`` is an int in [2, MAX_FIELD_DEGREE]."""
    if not _is_int(m) or not 2 <= m <= MAX_FIELD_DEGREE:
        raise ValueError(f"need 2 <= m <= {MAX_FIELD_DEGREE}, got {m!r}")


#: Elements per temporary block in :meth:`FieldContext.eval_at_powers`
#: (128 KiB of int64 exponents), so evaluation adds little to peak memory.
EVAL_BLOCK = 1 << 14


class InvariantError(RuntimeError):
    """An internal consistency check failed; the result cannot be trusted."""


def poly_degree(a: BinaryPolynomial) -> int | None:
    """Degree of ``a``; ``None`` for the zero polynomial (sentinel)."""
    if a < 0:
        raise ValueError("negative value is not a polynomial encoding")
    if a == 0:
        return None
    return a.bit_length() - 1


def poly_mul(a: BinaryPolynomial, b: BinaryPolynomial) -> BinaryPolynomial:
    """Carry-less product in GF(2)[x].

    Shift-and-XOR over the set bits of the sparser operand; for nonzero
    inputs ``deg(a*b) = deg(a) + deg(b)``.
    """
    if a < 0 or b < 0:
        raise ValueError("negative value is not a polynomial encoding")
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def poly_divrem(
    a: BinaryPolynomial, b: BinaryPolynomial
) -> tuple[BinaryPolynomial, BinaryPolynomial]:
    """Euclidean division: returns ``(q, r)`` with ``a = q*b ^ r`` (XOR is
    addition here) and ``deg(r) < deg(b)``.

    Raises ZeroDivisionError for a zero divisor and ValueError for a
    negative operand.
    """
    if a < 0 or b < 0:
        raise ValueError("negative value is not a polynomial encoding")
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length() - 1
    q = 0
    r = a
    while r and r.bit_length() - 1 >= db:
        shift = (r.bit_length() - 1) - db
        q |= 1 << shift
        r ^= b << shift
    return q, r


def poly_mod(a: BinaryPolynomial, b: BinaryPolynomial) -> BinaryPolynomial:
    return poly_divrem(a, b)[1]


def poly_to_bitstring(a: BinaryPolynomial) -> str:
    """Little-endian bit-string: ``"1101"`` encodes 1 + x + x^3."""
    if a < 0:
        raise ValueError("negative value is not a polynomial encoding")
    return format(a, "b")[::-1] if a else "0"


def poly_from_bitstring(s: str) -> BinaryPolynomial:
    if not s or set(s) - {"0", "1"}:
        raise ValueError(f"not a bit-string: {s!r}")
    return int(s[::-1], 2)


def poly_to_hex(a: BinaryPolynomial) -> str:
    """Hexadecimal with little-endian nibble order (first digit = x^0..x^3)."""
    if a < 0:
        raise ValueError("negative value is not a polynomial encoding")
    return format(a, "x")[::-1]


def poly_from_hex(s: str) -> BinaryPolynomial:
    if not s or set(s) - set(string.hexdigits):
        raise ValueError(f"not a hex string: {s!r}")
    return int(s[::-1], 16)


def poly_pretty(a: BinaryPolynomial) -> str:
    """Human form, ascending powers: ``1 + x + x^3``."""
    if a < 0:
        raise ValueError("negative value is not a polynomial encoding")
    if a == 0:
        return "0"
    terms = []
    i = 0
    while a:
        if a & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        a >>= 1
        i += 1
    return " + ".join(terms)


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n here is < 2^25)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _poly_powmod(base: int, e: int, modulus: int) -> int:
    """base(x)^e mod modulus(x) by square-and-multiply."""
    result = 1
    base = poly_mod(base, modulus)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base), modulus)
        base = poly_mod(poly_mul(base, base), modulus)
        e >>= 1
    return result


def _x_has_full_order(modulus: int, m: int) -> bool:
    """True iff x has multiplicative order 2^m - 1 in GF(2)[x]/modulus.

    A full order certifies both irreducibility and primitivity: the unit
    group of GF(2)[x]/f for reducible f of degree m has fewer than 2^m - 1
    elements, so no unit can reach that order.
    """
    n = (1 << m) - 1
    if _poly_powmod(2, n, modulus) != 1:
        return False
    return all(_poly_powmod(2, n // q, modulus) != 1 for q in _prime_factors(n))


@dataclass(frozen=True, eq=False)
class FieldContext:
    """GF(2^m) with discrete-log tables over the primitive element beta = x.

    antilog_table[k] = beta^k (packed int) for 0 <= k < 2^m - 1;
    log_table[e] = k with beta^k = e for nonzero e, and -1 at index 0.
    Immutable after construction; safe for shared concurrent reads.
    """

    m: int
    modulus: BinaryPolynomial
    log_table: np.ndarray = field(repr=False)
    antilog_table: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return (1 << self.m) - 1

    def eval_poly(self, poly: BinaryPolynomial, e: int) -> int:
        """Evaluate a GF(2)[x] polynomial at the field element ``e``: by
        :meth:`eval_at_powers` at log(e), or its constant term at e = 0."""
        if poly < 0:
            raise ValueError("negative value is not a polynomial encoding")
        if not 0 <= e <= self.n:
            raise ValueError(f"field element must lie in [0, {self.n + 1}), got {e!r}")
        return int(self.eval_at_powers(poly, [self.log_table[e]])[0]) if e else poly & 1

    def eval_at_powers(self, poly: BinaryPolynomial, exps) -> np.ndarray:
        """Evaluate a GF(2)[x] polynomial at beta^z for every z in ``exps``.

        g(beta^z) is the XOR of beta^(i*z mod n) over the set bits i of g,
        so each value is a gather from the antilog table and an XOR
        reduction.  Exponents are taken mod n (negative ones too).  The
        work is |supp g| * len(exps) gathers, done in blocks of at most
        ``EVAL_BLOCK`` elements; the result is an array of packed field
        elements aligned with ``exps``.
        """
        if poly < 0:
            raise ValueError("negative value is not a polynomial encoding")
        n = self.n
        z = _int_array(exps).reshape(-1) % n
        out = np.zeros(z.size, dtype=self.antilog_table.dtype)
        if poly == 0 or z.size == 0:
            return out
        packed = np.frombuffer(poly.to_bytes((poly.bit_length() + 7) // 8, "little"), np.uint8)
        bits = np.flatnonzero(np.unpackbits(packed, bitorder="little")) % n
        cols = min(z.size, EVAL_BLOCK)
        rows = EVAL_BLOCK // cols
        for c in range(0, z.size, cols):
            zc = z[c : c + cols]
            acc = out[c : c + cols]
            for r in range(0, bits.size, rows):
                powers = np.multiply.outer(bits[r : r + rows], zc)
                powers %= n
                acc ^= np.bitwise_xor.reduce(self.antilog_table[powers], axis=0)
        return out


def make_field(m: int) -> FieldContext:
    """GF(2^m) on the lexicographically smallest primitive modulus.

    "Lexicographically smallest" compares coefficient bit-strings as
    integers, so the search walks odd degree-m candidates in increasing
    integer order.  Only the generator's order is tested (see
    :func:`_x_has_full_order`); the first hit is both irreducible and
    primitive.

    The four most recently used fields are cached, so repeated calls with
    the same ``m`` return the same read-only context.
    """
    check_field_degree(m)
    return _build_field(m)


@functools.lru_cache(maxsize=4, typed=True)
def _build_field(m: int) -> FieldContext:
    n = (1 << m) - 1
    modulus = 0
    for cand in range((1 << m) | 1, 1 << (m + 1), 2):
        if _x_has_full_order(cand, m):
            modulus = cand
            break
    if modulus == 0:  # pragma: no cover - a primitive polynomial always exists
        raise RuntimeError(f"no primitive polynomial of degree {m} found")

    log_table = np.full(1 << m, -1, dtype=np.int32)
    antilog_table = np.zeros(n, dtype=np.int32)
    val = 1
    for k in range(n):
        antilog_table[k] = val
        log_table[val] = k
        val <<= 1
        if val >> m:
            val ^= modulus
    if val != 1:  # pragma: no cover - guarded by the order test
        raise RuntimeError("generator does not close its cycle; field tables corrupt")
    log_table.setflags(write=False)
    antilog_table.setflags(write=False)
    return FieldContext(m=m, modulus=modulus, log_table=log_table, antilog_table=antilog_table)


def minimal_polynomial(ctx: FieldContext, e: int) -> BinaryPolynomial:
    """Minimal polynomial of beta^e over GF(2); see :func:`minimal_polynomials`."""
    return minimal_polynomials(ctx, [e])[0]


def minimal_polynomials(ctx: FieldContext, leaders) -> list[BinaryPolynomial]:
    """Minimal polynomials of beta^e over GF(2), one per exponent in ``leaders``.

    Each is the product of (x - beta^j) over the doubling orbit of e, of
    size s.  Exponents are grouped by s; each group keeps a (rows, s+1)
    array of field coefficients and takes s multiply-accumulate passes
    through the log/antilog tables.  Every coefficient must collapse into
    the prime subfield, and the degree equals the orbit size.
    """
    n = ctx.n
    e = _int_array(leaders).reshape(-1)
    bad = (e < 0) | (e >= n)
    if bad.any():
        raise ValueError(f"exponent must lie in [0, {n}), got {int(e[bad][0])}")
    # orbit[:, j] = e * 2^j mod n; the orbit size is the first j > 0 back
    # at e, and m at most since 2^m = 1 mod n
    orbit = np.empty((e.size, ctx.m), dtype=np.int64)
    orbit[:, 0] = e
    for j in range(1, ctx.m):
        orbit[:, j] = (2 * orbit[:, j - 1]) % n
    sizes = np.full(e.size, ctx.m)
    for j in range(ctx.m - 1, 0, -1):
        sizes[orbit[:, j] == e] = j

    log, antilog = ctx.log_table, ctx.antilog_table
    out = [0] * e.size
    for s in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == s)
        # coeffs[:, i] is the field element multiplying x^i
        coeffs = np.zeros((rows.size, s + 1), dtype=np.int64)
        coeffs[:, 0] = 1
        for j in range(s):
            # times (x + beta^orbit[:, j]): shift up, add the scaled copy
            scaled = np.where(coeffs != 0, antilog[(log[coeffs] + orbit[rows, j][:, None]) % n], 0)
            coeffs[:, 1:] = coeffs[:, :-1].copy()
            coeffs[:, 0] = 0
            coeffs ^= scaled
        outside = (coeffs > 1).any(axis=1)
        if outside.any():
            r = int(np.flatnonzero(outside)[0])
            c = int(coeffs[r][coeffs[r] > 1][0])
            raise InvariantError(
                f"minimal polynomial of beta^{int(e[rows[r]])} has a coefficient {c} outside "
                "GF(2); field tables are inconsistent"
            )
        packed = (coeffs << np.arange(s + 1)).sum(axis=1)
        for r, poly in zip(rows.tolist(), packed.tolist()):
            out[r] = poly
    return out
