"""2-cyclotomic cosets modulo n = 2^m - 1.

A coset is the orbit of a residue under doubling mod n; orbits partition
Z_n and their minima ("leaders") canonically name them.  ``orbit_minima``
maps residues to their leaders in m - 1 rotate-and-minimum passes over a
uint32 array, with no gather and no Python loop over the residues (n
reaches 2^24 - 1 here); it gives the table's dense leader array and the
leaders of any defining set.  ``negated_mask`` is the one map x -> -x on
membership masks; the dual set and the builders use it.

Also provides the binary-vector view of residues: pi maps a residue to
its LSB-first bit vector, rho rotates a vector one step right, and
``pi_inv(rho(pi(x))) == 2x mod n`` ties rotation to doubling.  Weight
classes (residues grouped by Hamming-weight parity) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2 import (InvariantError, _int_array, _is_int, _is_integer, _prime_factors,
                  check_field_degree)

BitVector = tuple[int, ...]


def coset_of(x: int, n: int) -> set[int]:
    """Orbit of ``x`` under doubling mod ``n`` (n odd)."""
    if not (_is_integer(x) and _is_integer(n)):
        raise ValueError(f"residue and modulus must be integers, got {x!r} and {n!r}")
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {n}")
    if not 0 <= x < n:
        raise ValueError(f"residue {x} out of range for modulus {n}")
    orbit = {x}
    j = (2 * x) % n
    while j != x:
        orbit.add(j)
        j = (2 * j) % n
    return orbit


@dataclass(frozen=True, eq=False)
class CosetTable:
    """All 2-cyclotomic cosets mod n = 2^m - 1.

    leader_of is dense (one entry per residue) so classification inside
    construction loops is O(1).  leaders/sizes are aligned ascending
    arrays.  Immutable after build; safe for shared concurrent reads.
    """

    n: int
    m: int
    leader_of: np.ndarray = field(repr=False)
    leaders: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    def size_of(self, x: int) -> int:
        """Size of the coset containing residue ``x``."""
        if not _is_integer(x):
            raise ValueError(f"residue must be an integer, got {x!r}")
        if not 0 <= x < self.n:
            raise ValueError(f"residue {x} out of range for modulus {self.n}")
        leader = int(self.leader_of[x])
        return int(self.sizes[np.searchsorted(self.leaders, leader)])

    def members(self, x: int) -> tuple[int, ...]:
        return tuple(sorted(coset_of(x, self.n)))

    def leaders_of_size(self, size: int) -> tuple[int, ...]:
        return tuple(self.leaders[self.sizes == size].tolist())

    def leaders_in(self, where: "slice | list[int] | np.ndarray") -> tuple[int, ...]:
        """Ascending leaders, each named once, of the cosets met by the
        residues that a slice, an index array (repeats allowed) or a
        boolean mask over Z_n selects.  An index outside [0, n) or one that
        is not an integer raises ``ValueError``."""
        if not isinstance(where, slice):
            where = np.asarray(where)
            if where.dtype != bool or where.shape != (self.n,):
                where = _int_array(where)
                bad = (where < 0) | (where >= self.n)
                if bad.any():
                    raise ValueError(f"residue {int(where[bad][0])} out of range for modulus {self.n}")
        return tuple(np.unique(self.leader_of[where]).tolist())

    def union_mask(self, leaders: "list[int] | tuple[int, ...] | np.ndarray") -> np.ndarray:
        """Boolean membership mask over Z_n for a union of cosets.

        One gather through ``leader_of`` from a boolean mask of the chosen
        leaders, so repeated leaders are harmless and no copy of
        ``leader_of`` is made.  An entry outside [0, n), one that is not
        a coset leader or one that is not an integer raises ``ValueError``.
        """
        lead = _int_array(leaders)
        bad = (lead < 0) | (lead >= self.n)
        if not bad.any():
            bad = self.leader_of[lead] != lead
        if bad.any():
            raise ValueError(f"{int(lead[bad][0])} is not a coset leader mod {self.n}")
        pick = np.zeros(self.n, dtype=bool)
        pick[lead] = True
        return pick[self.leader_of]


def _rotate_left(word: np.ndarray, top: np.ndarray, m: int) -> None:
    """Double each uint32 residue mod 2^m - 1 in place, which rotates its
    m-bit word one step left; ``top`` is scratch of the same shape."""
    np.right_shift(word, m - 1, out=top)
    np.left_shift(word, 1, out=word)
    np.bitwise_and(word, (1 << m) - 1, out=word)
    np.bitwise_or(word, top, out=word)


def orbit_minima(words: np.ndarray, m: int) -> None:
    """Replace each word of a uint32 array of residues mod 2^m - 1, in
    place, with the least member of its coset."""
    # Doubling rotates the m-bit word left; after r passes a word is the
    # least of its first r + 1 rotations, and every orbit has at most m.
    # Blocks of 2^16 words (256 KiB) stay in cache through all m - 1 passes,
    # which at m = 22 is about four times faster than whole-array passes.
    for start in range(0, words.size, 1 << 16):
        best = words[start : start + (1 << 16)]
        word = best.copy()
        top = np.empty_like(word)
        for _ in range(m - 1):
            _rotate_left(word, top, m)
            np.minimum(best, word, out=best)


def negated_mask(mask: np.ndarray) -> np.ndarray:
    """Mask of -S over Z_n, given the mask of S: entry x is entry n - x."""
    return np.concatenate((mask[:1], mask[:0:-1]))


def _rotation_periods(leaders: np.ndarray, m: int) -> np.ndarray:
    """Coset size of each residue in ``leaders`` (mod 2^m - 1), as int64.

    The size is the word's rotation period p: the rotations that fix an
    m-bit word are the m/p multiples of p, so m - 1 rotate-and-compare
    passes count them and p is m over the count.
    """
    start = leaders.astype(np.uint32)
    word = start.copy()
    top = np.empty_like(word)
    fixed = np.ones(start.size, dtype=np.int64)  # rotation by 0
    for _ in range(m - 1):
        _rotate_left(word, top, m)
        fixed += word == start
    return m // fixed


def build_table(m: int) -> CosetTable:
    """The coset table mod 2^m - 1.

    ``leader_of`` is :func:`orbit_minima` of Z_n in place, a uint32 array
    viewed as int32; the leaders are its fixed points, found block by
    block, and their sizes come from :func:`_rotation_periods`.  No other
    array as long as Z_n is made.  The sizes must divide m and sum to n,
    or :class:`InvariantError` is raised.
    """
    check_field_degree(m)
    n = (1 << m) - 1
    lead = np.arange(n, dtype=np.uint32)
    orbit_minima(lead, m)
    block = np.arange(1 << 16, dtype=np.uint32)
    leaders = np.concatenate([
        start + np.flatnonzero(lead[start : start + block.size] == block[: n - start] + start)
        for start in range(0, n, block.size)
    ])
    sizes = _rotation_periods(leaders, m)
    leader_of = lead.view(np.int32)
    if np.any(m % sizes):
        raise InvariantError("coset sizes must divide m")
    if int(sizes.sum()) != n:
        raise InvariantError("cosets must partition Z_n")
    for arr in (leader_of, leaders, sizes):
        arr.setflags(write=False)
    return CosetTable(n=n, m=m, leader_of=leader_of, leaders=leaders, sizes=sizes)


def pi(x: int, m: int) -> BitVector:
    """LSB-first binary expansion of ``x`` as an m-bit vector."""
    if not 0 <= x <= (1 << m) - 1:
        raise ValueError(f"{x} does not fit in {m} bits")
    return tuple((x >> i) & 1 for i in range(m))


def pi_inv(v: BitVector) -> int:
    if not v or any(b not in (0, 1) for b in v):
        raise ValueError("expected a nonempty 0/1 vector")
    return sum(b << i for i, b in enumerate(v))


def rho(v: BitVector) -> BitVector:
    """One right rotation: (x0,...,x_{m-1}) -> (x_{m-1},x0,...,x_{m-2})."""
    if not v:
        raise ValueError("cannot rotate an empty vector")
    return (v[-1],) + tuple(v[:-1])


def is_union_of_cosets(S, n: int) -> bool:
    """True iff ``S`` is closed under doubling mod ``n``.  A member that is
    not an integer (a float, bool or string) raises ``ValueError``."""
    members = set(S)
    for x in members:
        if not _is_integer(x):
            raise ValueError(f"element {x!r} is not an integer")
        if not 0 <= x < n:
            raise ValueError(f"element {x} outside Z_{n}")
    return all((2 * x) % n in members for x in members)


def _is_prime(v: int) -> bool:
    return v >= 2 and _prime_factors(v) == [v]


def classify_by_size(table: CosetTable, p1: int, p2: int) -> dict[int, tuple[int, ...]]:
    """Split the table's leaders by coset size for m = p1*p2 (p1 < p2 prime).

    Returns ``{size: ascending leaders}``.  The only sizes are 1 (the coset
    {0}), p1, p2 and m; for p1 = 2 the one size-2 coset is {n/3, 2n/3}.
    The class censuses are checked against their closed forms: a wrong
    count would mean the table (or the theory) is broken, so it raises
    :class:`InvariantError`.
    """
    if not (_is_int(p1) and _is_int(p2) and _is_prime(p1) and _is_prime(p2) and p1 < p2):
        raise ValueError(f"need primes p1 < p2, got ({p1}, {p2})")
    if table.m != p1 * p2:
        raise ValueError(f"table has m={table.m}, expected p1*p2={p1 * p2}")
    m = table.m
    n = table.n

    by_size = {size: table.leaders_of_size(size) for size in np.unique(table.sizes).tolist()}
    if by_size.get(1) != (0,):
        raise InvariantError("the only fixed point of doubling is 0")

    if p1 == 2 and (by_size.get(2) != (n // 3,) or coset_of(n // 3, n) != {n // 3, 2 * n // 3}):
        raise InvariantError(f"the only coset of size 2 must be {{{n // 3}, {2 * n // 3}}}")
    census = {p1: (2**p1 - 2) // p1, p2: (2**p2 - 2) // p2,
              m: (2**m - 2**p1 - 2**p2 + 2) // m}
    for size, count in census.items():
        found = len(by_size.get(size, ()))
        if found != count:
            raise InvariantError(f"{found} cosets of size {size}, expected {count}")
    unexpected = set(by_size) - {1} - set(census)
    if unexpected:
        raise InvariantError(f"unexpected coset sizes {unexpected}")

    return by_size


def weight_classes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only masks of the nonzero residues of even and of odd Hamming
    weight: entry x of mask i is True iff 1 <= x <= n-1 and wt(x) = i
    (mod 2).  The two are disjoint, cover Z_n minus {0}, and each is
    doubling-closed (doubling rotates the bit vector, preserving weight).
    """
    check_field_degree(m)
    n = (1 << m) - 1
    residues = np.arange(n, dtype=np.uint32)
    parity = np.bitwise_count(residues) & 1
    mask0 = (parity == 0) & (residues > 0)
    mask1 = parity == 1
    for arr in (mask0, mask1):
        arr.setflags(write=False)
    return mask0, mask1
