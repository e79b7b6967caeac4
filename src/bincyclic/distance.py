"""Minimum-distance engines for binary cyclic codes.

Three engines share one result type:

* :func:`exact_min_distance` enumerates every nonzero message in Gray
  order, so consecutive codewords differ by one XOR with a shifted copy
  of the generator.  The low bits of the message index a block of XOR
  combinations from :func:`_fill_subset_xors`; each worker keeps its own
  copy of that block as codewords, and a step XORs the toggled row into
  it in place and popcounts it into a buffer allocated once.
  Exact, and independent of the number of workers.
* :func:`proven_min_distance` enumerates systematic messages by
  information weight on one window of k consecutive positions.  Any k
  cyclically consecutive positions form an information set, so every
  weight-d word has a cyclic shift of information weight at most
  floor(d*k/n); the enumeration stops as soon as that bound closes.
  Exact, with a certificate that :func:`verify_distance_certificate`
  re-checks cheaply.
* :func:`low_weight_search` repeatedly reduces the shift matrix of g on
  a random information set and scores all messages of weight <= depth.
  The reductions run in numpy on batches of iterations at once, each
  batch bounded by the tail-table ceiling whatever the iteration count
  and eliminated a strip of columns at a time, and each batch's bases
  are scored together, a slice at a time.
  Fast for any dimension, returns an upper bound plus the run bound as
  ``proven_lower_bound``.

The proof and search engines score their row combinations through one
enumerator, :func:`_subset_blocks`, which XORs bounded tables of subset
tails with a walk over prefixes.

Every block of words here -- rows, combinations, tail tables, bases --
is lane-major: a (lanes, words) uint64 array whose row l holds bits
64*l to 64*l + 63 of each word, so a word is a column.

:func:`auto_distance` picks between the exhaustive and search engines
on dimension.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .codecore import CyclicCode, InvariantError, bch_lower_bound
from .gf2 import _is_int, poly_divrem, poly_to_bitstring

#: per-worker scratch ceiling for the combination block, in bytes
_BLOCK_BYTES = 16 << 20
#: most uint64 words in one tail table, C(k, t) * lanes for each row set it holds
_TAIL_WORDS = 1 << 16
#: ceiling for the information-weight engine's (k, lanes) parity matrix
_PARITY_BYTES = 64 << 20
#: most combinations an information-weight proof may score
_PROOF_COMBINATIONS = 1 << 29


class BudgetExceeded(RuntimeError):
    """Dimension too large for exhaustive enumeration."""


class SearchError(RuntimeError):
    """The randomized search could not complete an iteration."""


@dataclass(frozen=True)
class DistanceResult:
    """Outcome of a distance computation.

    ``exact_distance`` is set by the exhaustive and information-weight
    engines; the search engine reports ``best_weight_found`` (an upper
    bound) together with ``proven_lower_bound`` (the run bound).
    ``witness`` is a codeword of weight ``best_weight_found``, bit-packed
    little-endian.
    ``certificate`` is set by the information-weight engine only: a
    namespace whose ``vars`` are the ``certificate`` object of the JSON.
    Every systematic message of information weight <= ``enumerated_weight``
    was scored, and ``inequality`` shows that this weight reaches
    floor((d - 1)*k/n), so no word lighter than the witness was missed.
    """

    method: str
    best_weight_found: int
    exact_distance: Optional[int]
    proven_lower_bound: int
    witness: int
    iterations: int
    seed: Optional[int]
    certificate: Optional[SimpleNamespace] = None

    def as_dict(self) -> dict:
        out = {
            "method": self.method,
            "best_weight_found": self.best_weight_found,
            "exact_distance": self.exact_distance,
            "proven_lower_bound": self.proven_lower_bound,
            "witness_bits": poly_to_bitstring(self.witness),
            "witness_weight": self.witness.bit_count(),
            "iterations": self.iterations,
            "seed": self.seed,
        }
        if self.certificate is not None:
            out["certificate"] = vars(self.certificate)
        return out


def _check_witness(code: CyclicCode, weight: int, witness: int) -> None:
    """Raise :class:`InvariantError` unless ``witness`` is a nonzero
    codeword of ``code`` of the given weight."""
    if witness <= 0 or witness >> code.n:
        raise InvariantError(f"witness must be a nonzero word of length {code.n}")
    if witness.bit_count() != weight:
        raise InvariantError(f"witness weight {witness.bit_count()} must equal {weight}")
    if poly_divrem(witness, code.generator)[1] != 0:
        raise InvariantError("witness must be divisible by the generator")


def _proved(code: CyclicCode, method: str, weight: int, witness: int, iterations: int,
            certificate: Optional[SimpleNamespace] = None) -> DistanceResult:
    """The result of an exact engine: ``weight`` is the distance, once
    ``witness`` checks out as a codeword of that weight."""
    _check_witness(code, weight, witness)
    return DistanceResult(method, weight, weight, weight, witness, iterations, None, certificate)


def _to_lanes(words, lanes: int) -> np.ndarray:
    """Ints below 2^(64*lanes) as a C-contiguous (lanes, len(words)) block,
    packed through little-endian bytes as :func:`_lanes_to_int` unpacks."""
    data = b"".join(word.to_bytes(8 * lanes, "little") for word in words)
    return np.array(np.frombuffer(data, "<u8").reshape(-1, lanes).T, np.uint64, order="C")


def _shift_rows(code: CyclicCode) -> np.ndarray:
    """The generator matrix's rows x^i * g (i < k) as a (lanes, k) block."""
    return _to_lanes([code.generator << i for i in range(code.dimension)], (code.n + 63) // 64)


def _popcount(block: np.ndarray) -> np.ndarray:
    """Weight of each word of a block, in the smallest dtype that holds
    64 * lanes."""
    return np.bitwise_count(block).sum(axis=0, dtype=np.min_scalar_type(64 * block.shape[0]))


def _lanes_to_int(lanes: np.ndarray) -> int:
    return int.from_bytes(lanes.astype("<u8").tobytes(), "little")


def _fill_subset_xors(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fill a (lanes, 2^h[, B]) table in place so that entry s is the XOR
    of the (lanes, h[, B]) ``rows`` named by the bits of s; return it."""
    table[:, 0] = 0
    for i in range(rows.shape[1]):  # row i doubles the filled prefix
        np.bitwise_xor(table[:, :1 << i], rows[:, i:i + 1], out=table[:, 1 << i:2 << i])
    return table


def _smallest(block: np.ndarray, hits: np.ndarray) -> int:
    """The smallest bit-packed word among the columns ``hits`` of a block:
    the hits are narrowed to the least top lane, then to the least next
    lane down, and so on."""
    for lane in block[::-1]:
        column = lane[hits]
        hits = hits[column == np.minimum.reduce(column)]
    return _lanes_to_int(block[:, hits[0]])


def _scan_range(
    combos: np.ndarray,
    high_rows: np.ndarray,
    t_start: int,
    t_stop: int,
) -> tuple[int, int, int]:
    """Score Gray-code segment [t_start, t_stop) of the high message bits.

    Returns (best weight, canonical witness, messages scored).  The worker
    holds its own block of codewords, ``words``: ``combos`` XORed with the
    codeword of gray(t_start), a copy, so the shared ``combos`` is never
    written.  Each later step XORs the toggled high row into ``words`` in
    place and adds the lanes' popcounts into ``weights``, whose dtype holds
    64 * lanes + 1 (uint8 up to n = 191), so its maximum marks the zero
    message, which step t = 0 skips.  A step allocates nothing until it
    ties or beats the best weight; then :func:`_smallest` picks the
    canonical witness among the lightest words.
    """
    lanes, rows = combos.shape
    gray = t_start ^ (t_start >> 1)
    toggled = (gray >> np.arange(high_rows.shape[1])) & 1 == 1
    words = combos ^ np.bitwise_xor.reduce(high_rows[:, toggled], axis=1, keepdims=True)
    weights = np.empty(rows, dtype=np.min_scalar_type(64 * lanes + 1))
    lane_counts = np.empty(rows, dtype=np.uint8) if lanes > 1 else None
    best_w = 1 << 30
    best_wit = 0
    scored = 0
    for t in range(t_start, t_stop):
        if t != t_start:
            words ^= high_rows[:, (t & -t).bit_length() - 1, None]
        np.bitwise_count(words[0], out=weights)
        for lane in words[1:]:
            np.bitwise_count(lane, out=lane_counts)
            weights += lane_counts
        if t == 0:
            weights[0] = np.iinfo(weights.dtype).max
            scored -= 1
        scored += rows
        wmin = int(np.minimum.reduce(weights))
        if wmin <= best_w:
            witness = _smallest(words, np.flatnonzero(weights == wmin))
            if wmin < best_w or witness < best_wit:
                best_w, best_wit = wmin, witness
    return best_w, best_wit, scored


def exact_min_distance(code: CyclicCode, *, budget: int = 33, threads: int = 1) -> DistanceResult:
    """Exact minimum distance by full Gray-code enumeration.

    Refuses dimensions above ``budget`` (default 33, around 8.6e9 scored
    messages).  ``budget`` must be a plain int and ``threads`` one >= 1
    (not a bool or a numpy integer), else ``ValueError``.  ``threads`` is a
    parallelism hint, capped at the number of CPUs, since each worker
    holds its own block of codewords; the message space is split into
    contiguous Gray segments and the per-segment results are
    min-combined on (weight, witness), so the answer -- including the
    canonical witness, the smallest bit-packed minimum-weight word -- is
    identical for any worker count.
    """
    if not _is_int(budget):
        raise ValueError("budget must be an int")
    if not _is_int(threads) or threads < 1:
        raise ValueError("threads must be an int >= 1")
    k = code.dimension
    if k > budget:
        raise BudgetExceeded(
            f"dimension {k} exceeds the exhaustive budget {budget}; "
            "use low_weight_search for an upper bound"
        )
    threads = min(threads, os.cpu_count() or 1)

    rows = _shift_rows(code)
    lanes = rows.shape[0]
    h_cap = max(1, (_BLOCK_BYTES // (8 * lanes)).bit_length() - 1)
    h = min(k, 16, h_cap)
    combos = _fill_subset_xors(np.empty((lanes, 1 << h), dtype=np.uint64), rows[:, :h])
    high_rows = rows[:, h:]
    total = 1 << (k - h)
    if threads == 1:
        results = [_scan_range(combos, high_rows, 0, total)]
    else:
        starts = range(0, total, (total + threads - 1) // threads)
        spans = zip(starts, [*starts[1:], total])
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda span: _scan_range(combos, high_rows, *span), spans))

    best_w, best_wit = min((w, wit) for w, wit, _ in results)
    scored = sum(s for _, _, s in results)
    if scored != (1 << k) - 1:
        raise InvariantError(f"scored {scored} messages, expected 2^{k} - 1")
    return _proved(code, "exhaustive", best_w, best_wit, scored)


def _systematic_parity(code: CyclicCode) -> np.ndarray:
    """Parity parts x^(r+i) mod g (r = n - k, i < k) of the systematic
    rows x^(r+i) + (x^(r+i) mod g), as a (lanes, k) block."""
    k = code.dimension
    r = code.n - k
    g = code.generator
    out = []
    p = g ^ (1 << r)  # x^r mod g, since deg g = r
    for _ in range(k):
        out.append(p)
        p <<= 1
        if (p >> r) & 1:
            p ^= g
    return _to_lanes(out, max(1, (r + 63) // 64))


def _extend_tails(tails: list, rows: np.ndarray) -> None:
    """Append the table of all (t+1)-subsets to ``tails``.

    ``tails[t - 1]`` is the XOR of every t-subset of rows in lexicographic
    order: entry ``idx`` is the ``idx``-th t-subset of ``range(k)``, and
    the subsets whose first index is >= j start at C(k, t) - C(k - j, t).
    Rows and tables index their subsets on the last axis, so a (lanes, B,
    k) stack of B row sets gets B tables side by side.
    """
    k = rows.shape[-1]
    if not tails:
        tails.append(rows)
        return
    t = len(tails)
    counts = np.array([comb(k - 1 - i, t) for i in range(k)])  # t-subsets after row i
    firsts = np.cumsum(counts) - counts  # where the (t+1)-subsets led by row i start
    after = np.arange(counts.sum()) + np.repeat(comb(k, t) - counts - firsts, counts)
    tails.append(np.take(tails[-1], after, axis=-1) ^ np.repeat(rows, counts, axis=-1))


def _subset_blocks(rows: np.ndarray, tails: list, w: int):
    """Yield ``(head, start, block)`` so that the blocks hold the XOR of
    every w-subset of ``rows`` exactly once, in lexicographic order.

    ``rows`` is a (lanes, k) block or a (lanes, B, k) stack of B of them;
    subsets index the last axis, so ``block[:, b]`` of a stack holds
    row set b's XORs.  With t the largest weight <= w whose subset table
    holds at most ``_TAIL_WORDS`` uint64 words (C(k, t) times the
    ``rows.size // k`` words per subset), ``block`` is the XOR of the
    rows in ``head`` (a (w - t)-subset, walked in lexicographic order)
    with every t-subset table entry from ``start`` on, i.e. every
    t-subset of rows after ``head[-1]``.  ``tails`` caches the tables
    (see :func:`_extend_tails`) across calls on the same rows.
    """
    k = rows.shape[-1]
    words = rows.size // k
    t = 1
    while t < min(w, k) and comb(k, t + 1) * words <= _TAIL_WORDS:
        t += 1
    while len(tails) < t:
        _extend_tails(tails, rows)
    table = tails[t - 1]
    starts = [comb(k, t) - comb(k - j, t) for j in range(k + 1)]
    for head in combinations(range(k - t), w - t):
        start = starts[head[-1] + 1] if head else 0
        block = table[..., start:]
        if len(head) == 1:
            block = block ^ rows[..., head[0], None]
        elif head:
            block = block ^ np.bitwise_xor.reduce(rows[..., list(head)], axis=-1, keepdims=True)
        yield head, start, block


def _combinations_through(k: int, w: int) -> int:
    """Number of nonzero messages of information weight <= w."""
    return sum(comb(k, j) for j in range(1, w + 1))


def _refuse_past_limit(n: int, k: int, w: int) -> None:
    """Raise ``ValueError`` if scoring every message of information
    weight <= w takes more than ``_PROOF_COMBINATIONS`` combinations."""
    if _combinations_through(k, w) > _PROOF_COMBINATIONS:
        raise ValueError(
            f"proving the distance of this [{n},{k}] code scores every message "
            f"of information weight <= {w}, more than the limit of "
            f"2^{_PROOF_COMBINATIONS.bit_length() - 1} combinations"
        )


def _closing_inequality(n: int, k: int, best: int, w: int) -> str:
    return f"floor(({best}-1)*{k}/{n}) = {(best - 1) * k // n} <= {w}"


def proven_min_distance(code: CyclicCode) -> DistanceResult:
    """Minimum distance proved by cyclic information-weight enumeration.

    Scores the systematic messages on the window of the last k positions
    by information weight w = 1, 2, ...; a message's codeword weighs w
    plus the popcount of its parity part.  Every weight-d word has a
    cyclic shift of information weight <= floor(d*k/n), so the best
    weight found is the distance once floor((best - 1)*k/n) <= w, and
    the pass stops there.  The witness is the first lightest word met.

    ``iterations`` counts the combinations scored.  A code whose proof
    needs more than 2^29 of them is refused with ``ValueError``: up
    front when the run bound already implies it, else before the weight
    that would cross the limit.  Memory stays bounded: one table of
    parity XORs for each t <= t_max, the largest t whose table holds at
    most 2^16 uint64 words; a heavier weight walks its (w - t_max)-prefixes
    and scores each against the t_max table's tails after the prefix.
    """
    n, k = code.n, code.dimension
    r = n - k
    lanes = max(1, (r + 63) // 64)
    if k * lanes * 8 > _PARITY_BYTES:
        raise ValueError(
            f"the {k} x {r}-bit parity matrix exceeds {_PARITY_BYTES >> 20} MB; "
            "information-weight enumeration is out of reach at this size"
        )
    # every proof enumerates at least to floor((run - 1)*k/n), as best >= run
    _refuse_past_limit(n, k, (bch_lower_bound(code.defining_set) - 1) * k // n)
    parity = _systematic_parity(code)
    tails: list = []
    best_w, best_wit = 1 << 30, 0
    scored = 0
    w_done = 0
    for w in range(1, k + 1):
        if w > (best_w - 1) * k // n:
            break
        _refuse_past_limit(n, k, w)
        for head, start, block in _subset_blocks(parity, tails, w):
            counts = _popcount(block)
            scored += len(counts)
            hit = int(np.argmin(counts))
            if int(counts[hit]) + w < best_w:
                best_w = int(counts[hit]) + w
                tail = next(islice(combinations(range(k), w - len(head)), start + hit, None))
                best_wit = sum(1 << (r + i) for i in head + tail) | _lanes_to_int(block[:, hit])
        w_done = w

    if scored != _combinations_through(k, w_done):
        raise InvariantError(f"scored {scored} combinations, expected all of weight <= {w_done}")
    certificate = SimpleNamespace(enumerated_weight=w_done,
                                  inequality=_closing_inequality(n, k, best_w, w_done))
    return _proved(code, "information-weight", best_w, best_wit, scored, certificate)


def verify_distance_certificate(code: CyclicCode, result: DistanceResult) -> None:
    """Re-check a distance result cheaply; raise :class:`InvariantError`.

    The witness must be a nonzero codeword of weight ``best_weight_found``.
    When the result carries a certificate, the enumerated weight must
    reach floor((best - 1)*k/n), the inequality must read so, and the
    result must claim ``best_weight_found`` as its exact distance and
    lower bound.
    """
    _check_witness(code, result.best_weight_found, result.witness)
    cert = result.certificate
    if cert is None:
        return
    n, k, best = code.n, code.dimension, result.best_weight_found
    w = cert.enumerated_weight
    if not 1 <= w <= k:
        raise InvariantError(f"enumerated weight {w} outside [1, {k}]")
    inequality = _closing_inequality(n, k, best, w)
    if (best - 1) * k // n > w or cert.inequality != inequality:
        raise InvariantError(
            f"certificate does not close: {inequality!r} must hold, got {cert.inequality!r}"
        )
    if result.exact_distance != best or result.proven_lower_bound != best:
        raise InvariantError(
            f"exact distance {result.exact_distance} and lower bound "
            f"{result.proven_lower_bound} are not proved to be {best}"
        )


def _strip_width(k: int) -> int:
    """Columns per strip of :func:`_reduce_batch` on k rows: the largest
    c <= 7 with 2^c <= k/2, and 1 when k < 4."""
    return max(1, min(7, (k // 2).bit_length() - 1))


def _reduce_batch(rows: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Gauss-Jordan reduce the (lanes, k) row block once per column order.

    ``perms`` is a (B, n) array of column orders.  Returns the reduced
    (lanes, B, k) stack: basis b, ``stack[:, b]``, holds the k words of
    the row space that each have a 1 in one column of b's information set
    (the first k independent columns of ``perms[b]``) and 0 in its other
    columns.  Each column, in order, takes as pivot the first row not yet
    a pivot that has its bit and XORs it into every other row that has
    the bit, so the words stay in the row slots where they were reduced,
    not in pivot order; the set of words is the one a row-swapping loop
    leaves.

    The B reductions step together through strips of the next
    c = ``_strip_width(k)`` columns of each order (Four Russians
    elimination).  A strip gathers each row's c bits into a uint16 word,
    and its column steps run on these (B, k) words alone, whatever the
    lane count: a step XORs the pivot's word, plus a flag naming the
    pivot, into the other rows that have the bit, so the upper c bits of
    each word name the pivot rows, as they stood when the strip began,
    that the strip adds to its row.  A table per basis of the 2^c XORs of
    those pivot rows (:func:`_fill_subset_xors`) then gives every row,
    pivots included, its value after the strip in one gather and XOR per
    lane.  The table holds at most half as many words as the stack
    (k >= 4).  On one core, strips of 4 to 7 columns ran within a few
    percent of each other on the [127,64] (B = 257, 2 lanes) and
    [1023,512] (B = 7, 16 lanes) batches, strips of one column 1.6 and
    2.7 times slower.
    Raises :class:`SearchError` if a basis runs out of columns before it
    has k pivots.
    """
    batch, n = perms.shape
    lanes, k = rows.shape
    c = _strip_width(k)
    basis = np.repeat(rows[:, None, :], batch, axis=1)
    free = np.ones((batch, k), dtype=bool)
    at = np.arange(batch)
    flat_at = at * k
    pivots = np.empty((c, batch), dtype=np.intp)
    table = np.empty((lanes, 1 << c, batch), dtype=np.uint64)
    words = np.empty((batch, k), dtype=np.uint16)  # c strip bits, c pivot flags: c <= 8
    hits = np.empty((batch, k), dtype=bool)
    scratch = np.empty((batch, k), dtype=np.uint16)
    for j in range(0, n, c):
        cols = perms[:, j:j + c]
        w = cols.shape[1]
        masks = np.left_shift(np.uint64(1), (cols & 63).astype(np.uint64))
        words[:] = 0
        for t in range(w):
            np.not_equal(basis[cols[:, t] >> 6, at] & masks[:, t, None], 0, out=hits)
            words |= np.multiply(hits, np.uint16(1 << t), out=scratch)
        for t in range(w):
            np.not_equal(words & np.uint16(1 << t), 0, out=hits)
            free_hits = hits & free
            pivots[t] = free_hits.argmax(axis=1)
            at_pivot = flat_at + pivots[t]
            took = free_hits.take(at_pivot)
            pivot_words = words.take(at_pivot) | np.uint16(1 << (c + t))
            pivot_words *= took
            hits.ravel()[at_pivot] = False
            words ^= np.multiply(hits, pivot_words[:, None], out=scratch)
            free.ravel()[at_pivot] ^= took
        combos = _fill_subset_xors(table[:, :1 << w], basis[:, at, pivots[:w]])
        index = (words >> np.uint16(c)) * np.intp(batch) + at[:, None]
        for lane, lane_combos in zip(basis, combos.reshape(lanes, -1)):
            lane ^= lane_combos.take(index)
        if not free.any():
            return basis
    raise SearchError("generator matrix lost rank during reduction")


def _batch_best(bases: np.ndarray, depth: int, best: tuple[int, int]) -> tuple[int, int]:
    """The least of ``best`` and every (weight, word) that XORs at most
    ``depth`` rows of one basis of a (lanes, B, k) stack.

    The bases are scored a slice at a time, each slice as wide as lets its
    (depth - 1)-subset table fill at most half of ``_TAIL_WORDS``; the
    tables and blocks of :func:`_subset_blocks` then hold the whole slice.
    """
    lanes, batch, k = bases.shape
    width = max(1, _TAIL_WORDS // 2 // (comb(k, min(k, depth - 1)) * lanes))  # C(k, j) = 0 for j > k
    for lo in range(0, batch, width):
        stack = bases[:, lo:lo + width]
        tails: list = []
        for w in range(1, depth + 1):
            for _, _, block in _subset_blocks(stack, tails, w):
                words = block.reshape(lanes, -1)
                counts = _popcount(words)
                low = int(counts.min())
                if low <= best[0]:
                    best = min(best, (low, _smallest(words, np.flatnonzero(counts == low))))
    return best


def low_weight_search(
    code: CyclicCode, *, seed: int, iterations: int = 10000, depth: int = 2
) -> DistanceResult:
    """Randomized information-set search for low-weight codewords.

    Each iteration draws a seeded random column order, reduces the shift
    matrix of g to systematic form on the first independent columns, and
    scores every combination of at most ``depth`` basis rows (depth <= 3)
    through the proof engine's tail tables.  The result is the least
    (weight, word) scored, which does not depend on scoring order.
    Deterministic for fixed (seed, iterations, depth), and consuming a
    fixed RNG amount per iteration, so longer runs extend shorter ones.
    ``seed`` must be a non-negative int, ``iterations`` an int >= 1 and
    ``depth`` one of 1, 2, 3, each a plain int (not a bool or a numpy
    integer), else ``ValueError``.

    Iterations are reduced in batches by :func:`_reduce_batch`, a strip
    of columns at a time.  A batch holds B bases of k x lanes uint64
    words and their B column orders of n words; B is the largest count
    that keeps these within the ``_TAIL_WORDS`` that bound a tail table
    (at least one), and a strip's table holds at most half as many words
    as the bases.  The batch's bases are then scored together, a slice at
    a time, by :func:`_batch_best`: a slice's largest table and block stay
    within ``_TAIL_WORDS``, so working memory does not grow with
    ``iterations``.
    """
    if not _is_int(seed) or seed < 0:
        raise ValueError("seed must be a non-negative int")
    if not _is_int(depth) or depth not in (1, 2, 3):
        raise ValueError("depth must be 1, 2, or 3")
    if not _is_int(iterations) or iterations < 1:
        raise ValueError("iterations must be an int >= 1")
    n = code.n
    rows = _shift_rows(code)
    batch = max(1, _TAIL_WORDS // (rows.size + n))
    rng = np.random.default_rng(seed)

    best = (1 << 30, 0)
    for done in range(0, iterations, batch):
        perms = np.empty((min(batch, iterations - done), n), dtype=np.int64)
        for perm in perms:
            perm[:] = rng.permutation(n)
        best = _batch_best(_reduce_batch(rows, perms), depth, best)
    best_w, best_wit = best

    _check_witness(code, best_w, best_wit)

    return DistanceResult(
        method="search",
        best_weight_found=best_w,
        exact_distance=None,
        proven_lower_bound=bch_lower_bound(code.defining_set),
        witness=best_wit,
        iterations=iterations,
        seed=seed,
    )


def auto_distance(
    code: CyclicCode,
    *,
    budget: int = 33,
    seed: Optional[int] = None,
    iterations: int = 10000,
    depth: int = 2,
    threads: int = 1,
) -> DistanceResult:
    """Dispatch on dimension: exhaustive when it fits the budget, else search.
    ``budget`` must be a plain int, else ``ValueError``."""
    if not _is_int(budget):
        raise ValueError("budget must be an int")
    if code.dimension <= budget:
        return exact_min_distance(code, budget=budget, threads=threads)
    if seed is None:
        raise ValueError("dimension exceeds the exhaustive budget; a search seed is required")
    return low_weight_search(code, seed=seed, iterations=iterations, depth=depth)
