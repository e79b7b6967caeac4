"""Defining-set builders for five families of binary cyclic codes.

Every builder returns a validated :class:`DefiningSet` (doubling-closed,
guaranteed size) plus an audit carrying the intermediate sets and every
selection decision, so the set-theoretic identities the guarantees rest
on can be re-checked from the outside.  The audit is a
``types.SimpleNamespace``: its ``construction`` tag, then the builder's
fields in a fixed order, holding ints, strings, bools, None and tuples.
``vars(audit)`` is the ``audit`` object of the JSON envelope.  The
parameters are plain ints (``overrides`` a sequence of them,
``swap_pairs`` a bool); a float, a bool or a numpy integer in their place
raises ``ValueError``.

The five families, all of length n = 2^m - 1 and dimension within one of
n/2:

* ``build_even_m`` -- even m: split F_2^m by Hamming weight around m/2,
  fold the weight-m/2 middle layer into two halves by complementation,
  and take the two halves as complementary defining sets.
* ``build_two_prime`` -- m = 2p for odd prime p: greedy coset selection
  covering a long consecutive run, with the complementary tail kept free
  for the dual bound.
* ``build_odd_pq`` -- m = p1*p2 for odd primes: same greedy scheme driven
  by the three coset-size classes.
* ``build_sqrt_complement`` -- odd m: all cosets with leaders up to about
  sqrt(n), plus one coset from each complementary residual pair.
* ``build_weight_class`` -- odd m >= 9: a low-leader block joined with a
  weight-parity class, corrected by four explicit cosets.

``FAMILIES`` at the bottom is the one table from family name to builder,
code labels and parameters; the command line and the fixtures dispatch
through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Mapping

import numpy as np

from .cosets import (CosetTable, _is_prime, build_table, classify_by_size, negated_mask,
                     weight_classes)
from .gf2 import InvariantError, _is_int, _is_integer


class SelectionError(ValueError):
    """An override list is not a valid system of pair representatives."""


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """A doubling-closed subset of Z_n naming one cyclic code.

    ``elements`` is an ascending read-only int64 array; ``origin`` records
    the construction tag, parameters and any selection overrides.
    """

    n: int
    elements: np.ndarray = field(repr=False)
    origin: Mapping[str, object]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_mask(
        cls, n: int, mask: np.ndarray, origin: Mapping[str, object] | None = None
    ) -> "DefiningSet":
        if n % 2 == 0:
            raise ValueError(f"modulus must be odd, got {n}")
        if np.shape(mask) != (n,):
            raise ValueError(f"mask of shape {np.shape(mask)} does not cover Z_{n}")
        # for odd n, x < (n+1)/2 doubles to 2x and the rest to 2x - n: each
        # half is compared in place with the even or the odd residues
        half = (n + 1) // 2
        if np.greater(mask[:half], mask[0::2]).any() or np.greater(mask[half:], mask[1::2]).any():
            raise ValueError("set is not closed under doubling mod n")
        elements = np.flatnonzero(mask).astype(np.int64, copy=False)
        elements.setflags(write=False)
        return cls(n=n, elements=elements, origin=dict(origin or {}))

    @classmethod
    def from_elements(
        cls, n: int, elements, origin: Mapping[str, object] | None = None
    ) -> "DefiningSet":
        """The set of ``elements``, an iterable of Python or numpy ints; a
        float, string or bool, or an ``elements`` that is not iterable, raises."""
        try:
            values = list(elements)
        except TypeError:
            raise ValueError(f"elements must be an iterable of ints, got {elements!r}") from None
        for x in values:
            if not _is_integer(x):
                raise ValueError(f"elements must be ints, got {x!r}")
        values = [int(x) for x in values]
        # checked as Python ints: a value past int64 must not reach numpy
        if values and not 0 <= min(values) <= max(values) < n:
            raise ValueError(f"elements outside Z_{n}")
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(values, dtype=np.int64)] = True
        return cls.from_mask(n, mask, origin)

    # -- views -------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.elements.size)

    def __iter__(self):
        return iter(self.elements.tolist())

    def __contains__(self, x: int) -> bool:
        idx = int(np.searchsorted(self.elements, x))
        return idx < self.elements.size and int(self.elements[idx]) == x

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefiningSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.elements, other.elements)

    def __repr__(self) -> str:  # keep huge sets printable
        head = ",".join(str(int(x)) for x in self.elements[:8])
        tail = ",..." if len(self) > 8 else ""
        return f"DefiningSet(n={self.n}, size={len(self)}, elements=[{head}{tail}])"

    def mask(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=bool)
        out[self.elements] = True
        return out

    def as_set(self) -> set[int]:
        return set(self.elements.tolist())


def _check_size(z: DefiningSet, size: int) -> None:
    if len(z) != size:
        raise InvariantError(f"|Z| = {len(z)}, expected {size}")


# ---------------------------------------------------------------------------
# even m
# ---------------------------------------------------------------------------


def _complement_pairs(table: CosetTable, resid_mask: np.ndarray) -> np.ndarray:
    """A (k, 2) array of ``(ell, partner)`` rows, one for every coset C_ell
    met by ``resid_mask``, where C_partner = -C_ell is its complement image;
    ascending, ell < partner.  Every partner must itself be met and differ
    from ell, or :class:`InvariantError` names the least leader that fails."""
    leaders = np.unique(table.leader_of[resid_mask])
    partners = table.leader_of[table.n - leaders]
    lone = ~np.isin(partners, leaders) | (partners == leaders)
    if lone.any():
        raise InvariantError(f"coset {int(leaders[lone][0])} has no distinct complement partner")
    return np.column_stack((leaders, partners))[leaders < partners]


def build_even_m(m: int, *, swap_pairs: bool = False):
    """Complementary defining sets Z1, Z2 for even m (4 <= m <= 24).

    Z1 collects everything of weight below m/2 plus the special families
    B, T and one coset of each complement pair; Z2 is the mirror half.
    Guarantees |Z1| = 2^(m-1) - 2 and |Z2| = 2^(m-1); both carry a run of
    2^(m/2) - 2 consecutive residues.

    Returns ``(Z1, Z2, audit)``.  The audit's sets live in the vector
    domain [0, 2^m): ``b/t/g_preimage`` are the residue preimages of the
    three special vector families (halves equal above median weight,
    halves equal at median weight, halves complementary at median
    weight), and ``residual_pairs`` lists (into-first-half leader,
    into-second-half leader) for each complement-paired coset of the
    leftover middle layer.
    """
    if not _is_int(m) or m % 2 != 0 or not 4 <= m <= 24:
        raise ValueError(f"need even m with 4 <= m <= 24, got {m!r}")
    if not isinstance(swap_pairs, bool):
        raise ValueError(f"swap_pairs must be a bool, got {swap_pairs!r}")
    t = m // 2
    n = (1 << m) - 1
    size = 1 << m

    # The special families are read off the halves x < 2^t: the vector with
    # both halves x is x(2^t + 1), of weight 2 wt(x), and the one with halves
    # x and its complement is x + ((2^t - 1 - x) << t), which falls as x rises.
    half = np.arange(1 << t, dtype=np.int64)
    equal = half * ((1 << t) + 1)
    equal_weight = 2 * np.bitwise_count(half)
    b_vecs = equal[equal_weight > t]
    t_vecs = equal[equal_weight == t]
    g_vecs = (half + (((1 << t) - 1 - half) << t))[::-1]

    w = np.bitwise_count(np.arange(size, dtype=np.uint32))
    s1, s2 = w < t, w > t
    del w
    s1[b_vecs] = True
    s2[b_vecs] = False
    s1[t_vecs] = True
    s2[g_vecs] = True
    resid_mask = ~(s1[:n] | s2[:n])

    # Pair residual cosets with their complement images; the larger leader
    # goes to the first half (matching the worked m=6 split), unless swapped.
    table = build_table(m)
    pairs = _complement_pairs(table, resid_mask)
    if not swap_pairs:
        pairs = pairs[:, ::-1]

    p1_mask = table.union_mask(pairs[:, 0])
    p2_mask = table.union_mask(pairs[:, 1])
    if (p1_mask & p2_mask).any():
        raise InvariantError("the two pair halves must not meet")
    if not ((p1_mask | p2_mask) == resid_mask).all():
        raise InvariantError("pairs must tile the residual layer")
    if not np.array_equal(negated_mask(p2_mask), p1_mask):
        raise InvariantError("the second pair half must be the negation of the first")

    s1[:n] |= p1_mask
    s2[:n] |= p2_mask
    if (s1 & s2).any() or not (s1 | s2).all():
        raise InvariantError("the two halves must tile F_2^m")
    if not int(s1.sum()) == int(s2.sum()) == size // 2:
        raise InvariantError(f"halves of {int(s1.sum())} and {int(s2.sum())}, expected {size // 2}")
    if not (s1[0] and s1[n]):
        raise InvariantError("0 and the all-ones vector must belong to the first half")

    z1_mask = s1[:n].copy()
    z1_mask[0] = False
    z2_mask = s2[:n]

    origin = {"construction": "even-m", "m": m, "swap_pairs": swap_pairs}
    z1 = DefiningSet.from_mask(n, z1_mask, {**origin, "which": "C1"})
    z2 = DefiningSet.from_mask(n, z2_mask, {**origin, "which": "C2"})
    _check_size(z1, 2 ** (m - 1) - 2)
    _check_size(z2, 2 ** (m - 1))

    audit = SimpleNamespace(
        construction="even-m",
        m=m,
        t=t,
        b_preimage=tuple(b_vecs.tolist()),
        t_preimage=tuple(t_vecs.tolist()),
        g_preimage=tuple(g_vecs.tolist()),
        residual_pairs=tuple(map(tuple, pairs.tolist())),
        p1_preimage=tuple(np.flatnonzero(p1_mask).tolist()),
        p2_preimage=tuple(np.flatnonzero(p2_mask).tolist()),
        s1_size=int(s1.sum()),
        s2_size=int(s2.sum()),
        swap_pairs=swap_pairs,
    )
    return z1, z2, audit


# ---------------------------------------------------------------------------
# greedy coset selection shared by the two composite-m builders
# ---------------------------------------------------------------------------


def _exact_div(a: int, b: int, what: str) -> int:
    q, r = divmod(a, b)
    if r:
        raise InvariantError(f"{what}: {a} is not divisible by {b}")
    return q


def _greedy_select(
    table: CosetTable,
    *,
    full_leaders: tuple[int, ...],
    secondary_leaders: tuple[int, ...],
    base_leaders: tuple[int, ...],
    d0_max: int,
    sigma_lo: int,
    tail_len: int,
    direct_allotment: Callable[[int], int],
):
    """The greedy scheme of the m = 2p and m = p1*p2 builders.

    sigma0 is the shortest ascending prefix of the full-size leaders that
    holds every full-size coset meeting the run {1..d0_max}.  If sigma0
    reaches the floor sigma_lo ("direct"), that prefix is taken with the
    first ``direct_allotment(sigma0)`` secondary cosets.  Otherwise
    ("extended") the prefix grows to sigma_lo in ascending order, skipping
    the cosets that meet the dual tail {n - tail_len..n - 1}, and every
    secondary coset joins.  The base cosets always join.  Both choices are
    ``np.isin`` masks over the full-size leaders, read into the audit's tuples.

    Returns ``(mask, chosen secondary leaders, selection, chosen full
    leaders, bounds)``.  ``selection`` (``f_leaders`` to ``case``) and
    ``bounds`` (the dual tail) hold the audit fields both builders share;
    each builder places its own fields around them.
    """
    n = table.n
    full = np.asarray(full_leaders)
    hits = np.flatnonzero(np.isin(full, table.leader_of[1 : d0_max + 1]))
    if not hits.size:
        raise InvariantError("no full-size coset meets the run block")
    sigma0 = int(hits[-1]) + 1
    tail_leaders = table.leaders_in(slice(n - tail_len, n))

    if sigma0 >= sigma_lo:
        case, sigma = "direct", sigma0
        n_secondary = direct_allotment(sigma0)
        if not 0 <= n_secondary <= len(secondary_leaders):
            raise InvariantError(f"allotment {n_secondary} outside 0..{len(secondary_leaders)}")
        chosen_secondary = secondary_leaders[:n_secondary]
        extension = ()
    else:
        case, sigma = "extended", sigma_lo
        rest = full[sigma0:]
        extension = tuple(rest[~np.isin(rest, tail_leaders)][: sigma_lo - sigma0].tolist())
        if sigma0 + len(extension) != sigma_lo:
            raise InvariantError("ran out of admissible cosets during extension")
        chosen_secondary = secondary_leaders
    chosen_full = full_leaders[:sigma0] + extension

    mask = table.union_mask(base_leaders + chosen_full + chosen_secondary)
    if not mask[1 : d0_max + 1].all():
        raise InvariantError("the guaranteed run must sit inside Z")
    if mask[n - tail_len :].any():
        raise InvariantError("the dual tail must stay outside Z")
    selection = {"f_leaders": tuple(full[hits].tolist()), "sigma0": sigma0,
                 "sigma_lo": sigma_lo, "sigma": sigma, "case": case}
    bounds = {"forbidden_leaders": tail_leaders,
              "tail_first": n - tail_len, "tail_last": n - 1}
    return mask, chosen_secondary, selection, chosen_full, bounds


def build_two_prime(p: int):
    """Defining set for m = 2p, p an odd prime with 2p <= 24.

    Covers the whole run {0,...,M} with whole cosets while never touching
    the top 2^e - 2 residues (e = floor(log2 2p) + 1), which the dual
    bound needs free.  Selection is deterministic: ascending leaders,
    forbidden ones skipped.  Returns ``(Z, audit)`` with |Z| = 2^(m-1) - 1.

    The coset table and its size classes are released once the cosets are
    chosen, before Z's elements are made, so the two never coexist; the
    audit keeps tuples of its own.
    """
    if not _is_int(p) or p % 2 == 0 or not _is_prime(p) or 2 * p > 24:
        raise ValueError(f"need an odd prime p with 2p <= 24, got {p!r}")
    m = 2 * p
    n = (1 << m) - 1
    table = build_table(m)
    by_size = classify_by_size(table, 2, p)

    m_main = _exact_div(2**m - 4, 2 * p, "run length, main term")
    m_extra = _exact_div(2**p - 2 * p - 2, 4 * p, "run length, correction term")
    d0_max = m_main + m_extra - 1
    e = (2 * p).bit_length()  # floor(log2(2p)) + 1
    # Full cosets have size 2p, secondary ones size p; {0} always joins.
    mask, chosen_small, selection, chosen_full, bounds = _greedy_select(
        table,
        full_leaders=by_size[m],
        secondary_leaders=by_size[p],
        base_leaders=(0,),
        d0_max=d0_max,
        sigma_lo=_exact_div(2**m - 2 ** (p + 1), 4 * p, "selection floor"),
        tail_len=2**e - 2,
        direct_allotment=lambda sigma0: m_main - 2 * sigma0,
    )
    del table, by_size  # freed before Z's int64 elements are made
    z = DefiningSet.from_mask(n, mask, {"construction": "two-prime", "p": p, "m": m})
    _check_size(z, 2 ** (m - 1) - 1)

    audit = SimpleNamespace(
        construction="two-prime",
        p=p,
        m=m,
        d0_max=d0_max,
        **selection,
        chosen_full_leaders=chosen_full,
        chosen_small_leaders=chosen_small,
        **bounds,
    )
    return z, audit


def build_odd_pq(p1: int, p2: int):
    """Defining set for m = p1*p2, odd primes p1 < p2, m <= 24.

    Mirror of :func:`build_two_prime` with three coset-size classes; 0 is
    NOT included.  Returns ``(Z, audit)`` with |Z| = 2^(m-1) - 1.  As
    there, the coset table is released before Z's elements are made.
    """
    if not (_is_int(p1) and _is_int(p2) and p1 % 2 and p2 % 2 and _is_prime(p1)
            and _is_prime(p2) and p1 < p2):
        raise ValueError(f"need odd primes p1 < p2, got ({p1!r}, {p2!r})")
    m = p1 * p2
    if m > 24:
        raise ValueError(f"p1*p2 = {m} exceeds the table cap 24")
    n = (1 << m) - 1
    table = build_table(m)
    by_size = classify_by_size(table, p1, p2)

    d0_max = (
        (2**m - 1) // m
        + (2**p1 - 1) // (2 * m)
        + (2**p2 - 1) // (2 * m)
        + (2**p1 - 1) // (4 * m)
        + (2**p2 - 1) // (4 * m)
        - 1
    )
    base_small_count = _exact_div(2**p1 - 2, 2 * p1, "half the smallest size class")
    base_small = by_size[p1][:base_small_count]
    mid_total = _exact_div(2**m - 2**p1, 2 * p2, "mid-size allotment")
    e = m.bit_length()  # floor(log2(m)) + 1 (m is never a power of two here)
    # Full cosets have size m, secondary ones size p2; half of the size-p1
    # cosets always join.
    mask, chosen_mid, selection, chosen_full, bounds = _greedy_select(
        table,
        full_leaders=by_size[m],
        secondary_leaders=by_size[p2],
        base_leaders=base_small,
        d0_max=d0_max,
        sigma_lo=_exact_div(2**m - 2**p1 - 2 ** (p2 + 1) + 4, 2 * m, "selection floor"),
        tail_len=2**e - 2,
        direct_allotment=lambda sigma0: mid_total - p1 * sigma0,
    )
    del table, by_size  # freed before Z's int64 elements are made
    z = DefiningSet.from_mask(n, mask, {"construction": "odd-pq", "p1": p1, "p2": p2, "m": m})
    _check_size(z, 2 ** (m - 1) - 1)
    if mask[0]:
        raise InvariantError("0 must stay outside Z")

    audit = SimpleNamespace(
        construction="odd-pq",
        p1=p1,
        p2=p2,
        m=m,
        d0_max=d0_max,
        base_small_leaders=base_small,
        **selection,
        chosen_mid_leaders=chosen_mid,
        chosen_full_leaders=chosen_full,
        **bounds,
    )
    return z, audit


# ---------------------------------------------------------------------------
# odd m: low-leader block plus complementary pair representatives
# ---------------------------------------------------------------------------


def build_sqrt_complement(m: int, overrides=None):
    """Defining set for odd m (5 <= m <= 23).

    T = union of the cosets of 1..2^((m+1)/2) - 2; T and -T never meet for
    odd m, and whatever cosets remain outside T, -T and {0} come in
    complement pairs {C, -C}.  One coset per pair joins T (default: the
    smaller leader; ``overrides`` forces specific leaders).  Returns
    ``(Z, audit)`` with |Z| = 2^(m-1) - 1.
    """
    if not _is_int(m) or m % 2 == 0 or not 5 <= m <= 23:
        raise ValueError(f"need odd m with 5 <= m <= 23, got {m!r}")
    n = (1 << m) - 1
    table = build_table(m)
    block_top = 2 ** ((m + 1) // 2) - 2

    t_leaders = table.leaders_in(slice(1, block_top + 1))
    t_mask = table.union_mask(t_leaders)
    neg_t_mask = negated_mask(t_mask)
    if (t_mask & neg_t_mask).any():
        raise InvariantError("block and negated block must not meet")
    neg_t_leaders = table.leaders_in(neg_t_mask)

    resid_mask = ~t_mask & ~neg_t_mask
    resid_mask[0] = False
    pairs = _complement_pairs(table, resid_mask)

    if overrides is None:
        picked = np.broadcast_to([True, False], pairs.shape)
        overrides_used = None
    else:
        overrides = tuple(overrides) if np.iterable(overrides) else overrides
        if not isinstance(overrides, tuple) or not all(map(_is_int, overrides)):
            raise ValueError(f"overrides must be ints, got {overrides!r}")
        overrides_used = tuple(sorted(overrides))
        repeated = sorted({a for a, b in zip(overrides_used, overrides_used[1:]) if a == b})
        if repeated:
            raise SelectionError(f"overrides {repeated} are named more than once")
        stray = np.setdiff1d(overrides_used, pairs)
        if stray.size:
            raise SelectionError(f"overrides {stray.tolist()} are not residual pair leaders")
        picked = np.isin(pairs, overrides_used)
        bad = np.flatnonzero(picked.sum(axis=1) != 1)
        if bad.size:
            a, b = pairs[bad[0]].tolist()
            hits = pairs[bad[0]][picked[bad[0]]].tolist()
            raise SelectionError(
                f"pair ({a}, {b}) needs exactly one representative, got {hits or 'none'}"
            )
    selected = pairs[picked]

    mask = t_mask | table.union_mask(selected)
    z = DefiningSet.from_mask(
        n,
        mask,
        {
            "construction": "sqrt-complement",
            "m": m,
            "overrides": None if overrides_used is None else list(overrides_used),
        },
    )
    _check_size(z, 2 ** (m - 1) - 1)

    audit = SimpleNamespace(
        construction="sqrt-complement",
        m=m,
        block_top=block_top,
        t_leaders=t_leaders,
        neg_t_leaders=neg_t_leaders,
        residual_pairs=tuple(map(tuple, pairs.tolist())),
        selected_leaders=tuple(selected.tolist()),
        overrides=overrides_used,
    )
    return z, audit


# ---------------------------------------------------------------------------
# odd m >= 9: weight-parity class construction
# ---------------------------------------------------------------------------


def build_weight_class(m: int, i: int):
    """Defining set T for odd m >= 9 and parity selector i in {0, 1}.

    A = cosets of 1..L with L = 4*(2^((m-1)/2) - 4); B0 = cosets of n-j
    for j <= L with wt(j) = i (mod 2).  The chosen half of the nonzero
    residues by weight parity is corrected by re-admitting the two cosets
    where B0 overlaps A and removing two explicit extra cosets; the union
    with A then has exactly 2^(m-1) - 1 elements.  Returns ``(T, audit)``.

    The audit's ``intersection_leaders`` is the four-coset identity for
    A ∩ B (block meets negated block); ``excluded_top`` are the four
    residues 2^((m+3)/2) - j, j in {9,11,13,15}, verified absent from B.
    """
    if not _is_int(m) or m % 2 == 0 or not 9 <= m <= 23:
        raise ValueError(f"need odd m with 9 <= m <= 23, got {m!r}")
    if not _is_int(i) or i not in (0, 1):
        raise ValueError(f"parity selector must be 0 or 1, got {i!r}")
    n = (1 << m) - 1
    half = (m - 1) // 2
    L = 4 * (2**half - 4)
    table = build_table(m)
    parity_masks = weight_classes(m)

    a_leaders = table.leaders_in(slice(1, L + 1))
    a_mask = table.union_mask(a_leaders)

    # -C_j = C_{n-j}, and every member of C_j has the weight parity of j.
    b0_mask = negated_mask(a_mask & parity_masks[i])
    b0_leaders = table.leaders_in(b0_mask)
    b_all_mask = negated_mask(a_mask)

    # m is odd, so m % 4 is 1 or 3: (i, m % 4) falls in one of two cases.
    first_tu = (i == 0 and m % 4 == 3) or (i == 1 and m % 4 == 1)
    t_val = (2**half - 1) if first_tu else (2 ** (half + 1) - 1)
    u_val = (2 ** (half + 1) - 3) if first_tu else (3 * 2**half - 1)
    s_val = (2 ** (half + 2) - 11) if first_tu else (2 ** (half + 2) - 9)
    v_val = (2 ** (half + 2) - 13) if first_tu else (2 ** (half + 2) - 15)
    # Identity: the block meets the negated block in exactly four cosets.
    # These and the case values are coset representatives, not always leaders.
    expected_inter = table.leaders_in([2**half - 1, 2 ** (half + 1) - 3, 2 ** (half + 1) - 1,
                                       3 * 2**half - 1])
    inter_leaders = table.leaders_in(a_mask & b_all_mask)
    if inter_leaders != expected_inter:
        raise InvariantError(f"A ∩ B meets cosets {inter_leaders}, expected {expected_inter}")
    # The four top-block residues never land in the negated block.
    excluded_top = tuple(2 ** (half + 2) - j for j in (9, 11, 13, 15))
    if any(b_all_mask[x] for x in excluded_top):
        raise InvariantError(f"a residue of {excluded_top} lies in the negated block")
    # The i-parity slice of the intersection is exactly C_t ∪ C_u.
    tu_mask = table.union_mask(table.leader_of[[t_val, u_val]])
    if not ((a_mask & b0_mask) == tu_mask).all():
        raise InvariantError("B0 ∩ A must be C_t ∪ C_u")

    sv_mask = table.union_mask(table.leader_of[[s_val, v_val]])
    b1_mask = parity_masks[1 ^ i] & ~((b0_mask & ~tu_mask) | sv_mask)
    t_total = a_mask | b1_mask

    z = DefiningSet.from_mask(n, t_total, {"construction": "weight-class", "m": m, "i": i})
    # Nominal size is 2^(m-1) - 1.  The count relies on C_s and C_v lying
    # outside A; at (m, i) = (9, 0) the orbit of v = 49 dips to 35 <= L,
    # C_v is absorbed by the low block, and the set comes out m larger.
    # The run/containment guarantees below hold regardless.
    if not t_total[1 : L + 1].all():
        raise InvariantError("the low block must sit inside T")
    if negated_mask(t_total)[: 2**half - 1].any():
        raise InvariantError("low residues must avoid -T")

    audit = SimpleNamespace(
        construction="weight-class",
        m=m,
        i=i,
        block_top=L,
        t=t_val,
        u=u_val,
        s=s_val,
        v=v_val,
        a_leaders=a_leaders,
        b0_leaders=b0_leaders,
        intersection_leaders=inter_leaders,
        excluded_top=excluded_top,
    )
    return z, audit


# ---------------------------------------------------------------------------
# the family registry: the command line and the fixtures dispatch through it
# ---------------------------------------------------------------------------


def int_list(text: str) -> tuple[int, ...] | None:
    """Comma-separated integers, as the command line spells a leader list;
    empty text means no list, as an empty ``--choose`` always has."""
    return tuple(int(x) for x in text.split(",")) if text else None


@dataclass(frozen=True)
class Family:
    """A builder, the labels of the codes it returns (in order), its
    parameters and a one-line summary.  ``params`` maps each command-line
    flag to its ``argparse`` ``add_argument`` keywords; ``dest`` names the
    builder keyword the flag fills."""

    builder: Callable
    labels: tuple[str, ...]
    params: dict[str, dict]
    help: str


#: Every construction family by name; adding a family means adding an entry.
FAMILIES: dict[str, Family] = {
    "even-m": Family(
        build_even_m,
        ("C1", "C2"),
        {
            "--m": dict(dest="m", type=int, required=True,
                        help="field degree, even, 4 <= m <= 24"),
            "--swap-pairs": dict(dest="swap_pairs", action="store_true",
                                 help="route each complement pair to the opposite side"),
        },
        "even-m split (two codes; pick one with --which)",
    ),
    "two-prime": Family(
        build_two_prime,
        ("C",),
        {"--p": dict(dest="p", type=int, required=True, help="odd prime with 2p <= 24")},
        "m = 2p for odd prime p; 0 joins the set",
    ),
    "odd-pq": Family(
        build_odd_pq,
        ("C",),
        {
            "--p1": dict(dest="p1", type=int, required=True, help="smaller odd prime"),
            "--p2": dict(dest="p2", type=int, required=True,
                         help="larger odd prime, p1*p2 <= 24"),
        },
        "m = p1*p2, distinct odd primes",
    ),
    "sqrt": Family(
        build_sqrt_complement,
        ("C",),
        {
            "--m": dict(dest="m", type=int, required=True,
                        help="field degree, odd, 5 <= m <= 23"),
            "--choose": dict(dest="overrides", type=int_list, metavar="L1,L2,...",
                             help="comma-separated residual-pair representatives"),
        },
        "odd m block construction",
    ),
    "weight-class": Family(
        build_weight_class,
        ("C",),
        {
            "--m": dict(dest="m", type=int, required=True,
                        help="field degree, odd, 9 <= m <= 23"),
            "--i": dict(dest="i", type=int, choices=(0, 1), required=True,
                        help="weight-parity selector"),
        },
        "odd m >= 9 weight-parity construction",
    ),
}


def build_family(name: str, **params):
    """Run the builder of family ``name``; returns ``([(label, set), ...], audit)``."""
    if name not in FAMILIES:
        raise ValueError(f"unknown construction tag {name!r}")
    family = FAMILIES[name]
    *sets, audit = family.builder(**params)
    return list(zip(family.labels, sets)), audit
