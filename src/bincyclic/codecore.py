"""Cyclic-code assembly: defining set -> generator polynomial -> dual.

A binary cyclic code of length n = 2^m - 1 is fixed by a doubling-closed
subset Z of Z_n: its generator is g(x) = prod of the minimal polynomials
of beta^z over the coset leaders z in Z, its dimension is n - |Z|, and
the dual code is again cyclic with defining set -(Z_n \\ Z) (mod n).

The dual generator is computed two ways -- assembled from the dual
defining set, and as the bit-reversal of the parity polynomial
h(x) = (x^n + 1) / g(x) -- and both routes are checked against each
other whenever ``dual()`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constructions import DefiningSet
from .cosets import negated_mask, orbit_minima
from .gf2 import (
    FieldContext,
    InvariantError,
    make_field,
    minimal_polynomials,
    poly_degree,
    poly_divrem,
    poly_mul,
    poly_to_bitstring,
)


class DegenerateCodeError(ValueError):
    """The defining set names a dimension-0 code (Z = Z_n)."""


def _leaders_of(zset: DefiningSet) -> np.ndarray:
    """Coset leaders present in a doubling-closed set, ascending: the
    elements equal to their orbit minimum."""
    elements = zset.elements
    orbit_min = elements.astype(np.uint32)
    orbit_minima(orbit_min, zset.n.bit_length())
    if not zset.mask()[orbit_min].all():
        raise InvariantError("doubling closure violated")
    return elements[orbit_min == elements]


@dataclass(frozen=True, eq=False)
class CyclicCode:
    """A binary cyclic code: length, defining set, generator, parity poly.

    ``generator`` and ``parity`` are little-endian bit-packed ints;
    codewords are c(x) = u(x) * g(x) for message polys u of degree < k.
    """

    n: int
    m: int
    defining_set: DefiningSet
    generator: int = field(repr=False)
    parity: int = field(repr=False)
    ctx: FieldContext = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.n - len(self.defining_set)

    def __repr__(self) -> str:
        return f"CyclicCode(n={self.n}, k={self.dimension}, |Z|={len(self.defining_set)})"

    def encode(self, message: int) -> int:
        """Non-systematic encoding of a k-bit message int."""
        if message < 0 or message >> self.dimension:
            raise ValueError(f"message must fit in {self.dimension} bits")
        return poly_mul(message, self.generator)

    def is_codeword(self, word: int) -> bool:
        if word < 0 or word >> self.n:
            raise ValueError(f"word must fit in {self.n} bits")
        _, r = poly_divrem(word, self.generator)
        return r == 0

    def verify_roots(self) -> bool:
        """Exhaustively confirm g(beta^z) = 0 exactly for z in Z.

        One :meth:`FieldContext.eval_at_powers` pass over all n powers of
        beta, costing n * |supp g| table gathers; limited to n <= 65535.
        """
        if self.n > (1 << 16):
            raise ValueError("full root verification is limited to n <= 65535")
        values = self.ctx.eval_at_powers(self.generator, np.arange(self.n))
        return bool(np.array_equal(values == 0, self.defining_set.mask()))

    def dual(self) -> "CyclicCode":
        """The dual code, with the two derivations cross-checked."""
        dual_set = dual_defining_set(self.defining_set)
        via_set = assemble(dual_set, ctx=self.ctx)
        # Independent route: reverse h(x); h(0) = 1 always, so the
        # reversal of the k-degree parity poly is the dual generator.
        rev = int(format(self.parity, "b")[::-1], 2)
        if via_set.generator != rev:
            raise InvariantError("dual generator mismatch between routes")
        return via_set


def dual_defining_set(zset: DefiningSet) -> DefiningSet:
    """Defining set of the dual code: -(Z_n \\ Z) mod n."""
    origin = {"construction": "dual", "of": dict(zset.origin)}
    return DefiningSet.from_mask(zset.n, negated_mask(~zset.mask()), origin)


def assemble(zset: DefiningSet, *, ctx: Optional[FieldContext] = None) -> CyclicCode:
    """Build the cyclic code named by a defining set.

    Computes the minimal polynomials of all coset leaders in one batch
    (:func:`~bincyclic.gf2.minimal_polynomials`) and multiplies them,
    checks deg(g) = |Z|, divides x^n + 1 by g exactly, and checks
    g(beta^z) = 0 at every leader z in one
    :meth:`~bincyclic.gf2.FieldContext.eval_at_powers` pass.  A failed
    check raises :class:`InvariantError`, with or without ``python -O``.
    Raises :class:`DegenerateCodeError` for Z = Z_n.
    """
    n = zset.n
    m = (n + 1).bit_length() - 1
    if (1 << m) - 1 != n:
        raise ValueError(f"length {n} is not 2^m - 1")
    if len(zset) == n:
        raise DegenerateCodeError("defining set is all of Z_n; dimension would be 0")
    if ctx is None:
        ctx = make_field(m)
    elif ctx.m != m:
        raise ValueError(f"field context is for m={ctx.m}, set needs m={m}")

    g = 1
    leaders = _leaders_of(zset)
    for mp in minimal_polynomials(ctx, leaders):
        g = poly_mul(g, mp)
    if poly_degree(g) != len(zset):
        raise InvariantError(f"generator degree {poly_degree(g)} must equal |Z| = {len(zset)}")

    h, rem = poly_divrem((1 << n) | 1, g)
    if rem != 0:
        raise InvariantError("generator must divide x^n + 1")
    if poly_degree(h) != n - len(zset):
        raise InvariantError(f"parity degree {poly_degree(h)} must equal n - |Z| = {n - len(zset)}")

    missed = np.flatnonzero(ctx.eval_at_powers(g, leaders))
    if missed.size:
        raise InvariantError(f"beta^{int(leaders[missed[0]])} must be a root of the generator")

    return CyclicCode(n=n, m=m, defining_set=zset, generator=g, parity=h, ctx=ctx)


#: Elements of Z per block when :func:`_run_bounds` scans its cyclic steps:
#: 2^16, as :func:`~bincyclic.cosets.orbit_minima` uses.
_RUN_BLOCK = 1 << 16


def _run_bounds(zset: DefiningSet) -> tuple[tuple[int, Optional[int]], tuple[int, int]]:
    """``(delta, start)`` of the longest run of Z and of its dual's, from
    the cyclic steps s_i = z_(i+1) - z_i between Z's ascending elements
    (the last wraps: z_0 + n - z_last).  A step s_i > 1 ends a run of Z at
    z_i; the s_i - 1 residues inside it, negated, are a run of
    -(Z_n \\ Z) that starts at 1 - z_(i+1).  Ties go to the smallest
    start.  The empty Z has no run, ``(1, None)``, and its dual is the
    zero code, whose vacuous ``(n + 1, 0)`` is one run covering the whole
    circle.  Raises :class:`DegenerateCodeError` for Z = Z_n.

    The steps are scanned ``_RUN_BLOCK`` elements at a time, so the scan
    holds a few arrays of one block, never one as long as Z.  Across
    blocks it carries the widest step with its smallest dual start, the
    longest run so far with its smallest start, and the first and the
    latest run end; the run that wraps from the latest end round to the
    first is measured last."""
    n, z, k = zset.n, zset.elements, len(zset)
    if k == n:
        raise DegenerateCodeError("defining set is all of Z_n")
    if k == 0:
        return (1, None), (n + 1, 0)
    # (length, -start) pairs: max() keeps the longest, then the smallest start
    widest = longest = (0, 0)
    first_end = last_end = None  # element indices of Z's first and latest run end
    for lo in range(0, k, _RUN_BLOCK):
        hi = min(lo + _RUN_BLOCK, k)
        after = z[lo + 1 : hi + 1]  # z_(i+1) for the block's steps s_i
        if hi == k:
            after = np.append(after, z[0] + n)
        steps = after - z[lo:hi]
        step = int(steps.max())
        widest = max(widest, (step, -int(((1 - after[steps == step]) % n).min())))
        ends = np.flatnonzero(steps > 1)
        if not ends.size:
            continue
        ends += lo
        if first_end is None:
            first_end = int(ends[0])
        else:
            ends = np.concatenate(([last_end], ends))
        runs = np.diff(ends)  # Z's runs between consecutive ends, in element indices
        if runs.size:
            run = int(runs.max())
            longest = max(longest, (run, -int(z[ends[:-1][runs == run] + 1].min())))
        last_end = int(ends[-1])
    longest = max(longest, (first_end + k - last_end, -int(z[(last_end + 1) % k])))
    (run, start), (step, dual_start) = longest, widest
    if not (1 <= run < n and 1 <= step - 1 < n):
        raise InvariantError(f"run lengths {run}, {step - 1} outside [1, {n})")
    return (run + 1, -start), (step, -dual_start)


def bch_run(zset: DefiningSet) -> tuple[int, Optional[int]]:
    """Longest run of consecutive residues in Z, cyclically.

    Returns ``(delta, start)`` where delta - 1 is the run length and
    ``start`` is the smallest starting residue achieving it (None when
    Z is empty).  Any cyclic code with Z in its defining set has minimum
    distance >= delta.  It is read from Z's elements, with no mask, one
    block of 2^16 cyclic steps at a time (:func:`_run_bounds`).
    """
    return _run_bounds(zset)[0]


def bch_lower_bound(zset: DefiningSet) -> int:
    """The run bound delta: minimum distance is at least this."""
    delta, _ = bch_run(zset)
    return delta


def describe(zset: DefiningSet, *, generator: Optional[int] = None) -> dict:
    """The distance-free facts about a defining set and its dual's run
    bound, as the ``code`` object of the JSON envelope.  ``defining_set``
    is the set's own read-only int64 ``elements`` array, not a copy.

    The dual set -(Z_n \\ Z) is not built: it has n - |Z| residues, and
    one scan of Z's cyclic steps gives both run bounds, the empty set's
    included.  The scan reads the steps one block of 2^16 elements at a
    time, so beside the set it holds a few block-long arrays (about
    1.6 MiB), never an array as long as Z.
    """
    n = zset.n
    dual_size = n - len(zset)
    (delta, start), (dual_delta, dual_start) = _run_bounds(zset)
    return {
        "n": n,
        "m": (n + 1).bit_length() - 1,
        "construction": dict(zset.origin),
        "defining_set": zset.elements,
        "dimension": n - len(zset),
        "generator_bits": None if generator is None else poly_to_bitstring(generator),
        "bch_lower_bound": delta,
        "bch_interval_start": start,
        "dual": {
            "size": dual_size,
            "dimension": n - dual_size,
            "bch_lower_bound": dual_delta,
            "bch_interval_start": dual_start,
        },
    }
