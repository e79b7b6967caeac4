"""Independent reference computations for checking bincyclic's outputs.

Nothing here imports bincyclic: every routine is written apart from the
program so that a check built on it can catch a fault the program shares
across its own code paths.  Polynomials over GF(2) are Python ints with
bit i the coefficient of x^i, the same encoding the program prints.
"""

from __future__ import annotations

import math
import random

import numpy as np


# -- GF(2)[x] ---------------------------------------------------------------


def clmul(a: int, b: int) -> int:
    """Carry-less product by 4-bit windows of ``b`` over a table of ``a``."""
    if a == 0 or b == 0:
        return 0
    table = [0] * 16
    for c in range(1, 16):
        low = c & -c
        table[c] = table[c ^ low] ^ (a << (low.bit_length() - 1))
    out = 0
    shift = 0
    while b:
        nib = b & 15
        if nib:
            out ^= table[nib] << shift
        b >>= 4
        shift += 4
    return out


def divide_exact(a: int, b: int) -> int:
    """Quotient of a by b over GF(2); raises if the remainder is not zero."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        s = a.bit_length() - db
        q |= 1 << s
        a ^= b << s
    if a:
        raise ValueError("division leaves a remainder")
    return q


def mod_xn_minus_1(p: int, n: int) -> int:
    """Reduce p modulo x^n + 1 by folding (x^n = 1)."""
    mask = (1 << n) - 1
    while p >> n:
        p = (p & mask) ^ (p >> n)
    return p


def is_codeword_via_h(word: int, h: int, n: int) -> bool:
    """c(x) lies in the cyclic code with parity poly h iff c*h = 0 mod x^n + 1."""
    return mod_xn_minus_1(clmul(word, h), n) == 0


def reverse_poly(p: int, degree: int) -> int:
    """x^degree * p(1/x)."""
    return int(format(p, f"0{degree + 1}b")[::-1], 2)


def bits_from_string(bits: str) -> int:
    """Little-endian bit-string (x^0 first) to a packed int."""
    return int(bits[::-1], 2)


# -- residue sets -----------------------------------------------------------


def as_mask(elements, n: int) -> np.ndarray:
    arr = np.asarray(elements, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"element outside Z_{n}")
    mask = np.zeros(n, dtype=bool)
    mask[arr] = True
    return mask


def is_doubling_closed(elements, n: int) -> bool:
    mask = as_mask(elements, n)
    members = np.flatnonzero(mask)
    return bool(mask[(2 * members) % n].all())


def dual_set(elements, n: int) -> np.ndarray:
    """-(Z_n minus Z) mod n, ascending."""
    mask = as_mask(elements, n)
    outside = np.flatnonzero(~mask)
    return np.sort((n - outside) % n)


def cyclic_run(elements, n: int) -> tuple[int, int | None]:
    """(delta, start): delta - 1 is the longest cyclic run of consecutive
    residues in the set, start the smallest residue that begins one."""
    e = np.flatnonzero(as_mask(elements, n))
    if e.size == 0:
        return 1, None
    if e.size >= n:
        raise ValueError("the set is all of Z_n")
    cut = np.flatnonzero(np.diff(e) != 1) + 1
    starts = np.concatenate(([0], cut))
    ends = np.concatenate((cut, [e.size]))
    seg_start = e[starts]
    seg_len = ends - starts
    if e[0] == 0 and e[-1] == n - 1 and seg_start.size > 1:
        # the last run continues through n-1 into the first one at 0
        seg_len = seg_len.copy()
        seg_len[-1] += seg_len[0]
    best = int(seg_len.max())
    return best + 1, int(seg_start[seg_len == best].min())


def cosets_mod(n: int) -> list[list[int]]:
    """All 2-cyclotomic cosets mod odd n, by walking doubling orbits."""
    seen = bytearray(n)
    out = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = []
        y = x
        while not seen[y]:
            seen[y] = 1
            orbit.append(y)
            y = (2 * y) % n
        out.append(orbit)
    return out


def random_coset_union(rng: random.Random, n: int, size: int) -> list[int]:
    """A uniformly shuffled choice of cosets whose union has exactly ``size``
    residues, found by a subset-sum table over the shuffled coset list."""
    cosets = cosets_mod(n)
    rng.shuffle(cosets)
    reach = [1]  # reach[i]: bit s set iff some subset of cosets[:i] has size s
    for orbit in cosets:
        r = reach[-1]
        reach.append(r | (r << len(orbit)))
    if not (reach[-1] >> size) & 1:
        raise ValueError(f"no union of cosets mod {n} has {size} residues")
    chosen: list[int] = []
    need = size
    for i in range(len(cosets), 0, -1):
        s = len(cosets[i - 1])
        can_take = need >= s and (reach[i - 1] >> (need - s)) & 1
        can_skip = (reach[i - 1] >> need) & 1
        if can_take and (not can_skip or rng.random() < 0.5):
            chosen.extend(cosets[i - 1])
            need -= s
    assert need == 0
    return sorted(chosen)


# -- GF(2^m) ----------------------------------------------------------------


class Field:
    """GF(2^m) with beta = x over a primitive modulus: the given one, or
    else the smallest.  A modulus is primitive iff the powers of x walk
    2^m - 1 steps before they return to 1; a given one that is not raises
    ValueError."""

    def __init__(self, m: int, modulus: int | None = None):
        self.m = m
        self.n = (1 << m) - 1
        if modulus is not None:
            if modulus.bit_length() != m + 1 or self._powers(modulus) is None:
                raise ValueError(f"{modulus:#x} is not a primitive polynomial of degree {m}")
            candidates = (modulus,)
        else:
            candidates = range((1 << m) | 1, 1 << (m + 1), 2)
        for cand in candidates:
            powers = self._powers(cand)
            if powers is not None:
                self.modulus = cand
                self.antilog = np.array(powers, dtype=np.int64)
                return
        raise RuntimeError(f"no primitive polynomial of degree {m}")

    def _powers(self, modulus: int) -> list[int] | None:
        m, n = self.m, self.n
        out = []
        v = 1
        for _ in range(n):
            out.append(v)
            v <<= 1
            if v >> m:
                v ^= modulus
            if v == 1:
                break
        return out if len(out) == n and v == 1 else None

    def root_mask(self, poly: int) -> np.ndarray:
        """mask[z] is True iff poly(beta^z) = 0, for every z in Z_n."""
        n = self.n
        z = np.arange(n, dtype=np.int64)
        acc = np.zeros(n, dtype=np.int64)
        idx = np.zeros(n, dtype=np.int64)  # i*z mod n for the current bit i
        prev = 0
        for i in (j for j in range(poly.bit_length()) if (poly >> j) & 1):
            idx = (idx + (i - prev) * z) % n
            prev = i
            acc ^= self.antilog[idx]
        return acc == 0

    def roots_are_some_power(self, poly: int, elements) -> bool:
        """True iff the roots of ``poly`` are exactly gamma^Z for some
        primitive element gamma = beta^t (t a unit mod n).

        Each primitive modulus has its own beta, so this is the property
        that holds whichever primitive modulus the program built on.  Z is
        doubling-closed, so only one t per doubling orbit is tried.
        """
        n = self.n
        roots = self.root_mask(poly)
        zs = np.asarray(elements, dtype=np.int64)
        if int(roots.sum()) != zs.size:
            return False
        seen = bytearray(n)
        for t in range(1, n):
            if seen[t] or math.gcd(t, n) != 1:
                continue
            u = t
            while not seen[u]:
                seen[u] = 1
                u = 2 * u % n
            if roots[(t * zs) % n].all():
                return True
        return False

    def generator_from_roots(self, elements) -> int:
        """prod over z of (x - beta^z), expanded in GF(2^m)[x]; small n only."""
        log = {int(v): k for k, v in enumerate(self.antilog)}

        def mul(a: int, b: int) -> int:
            if a == 0 or b == 0:
                return 0
            return int(self.antilog[(log[a] + log[b]) % self.n])

        coeffs = [1]
        for z in elements:
            root = int(self.antilog[z % self.n])
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] ^= c
                nxt[i] ^= mul(c, root)
            coeffs = nxt
        if any(c not in (0, 1) for c in coeffs):
            raise ValueError("the roots do not form a union of conjugacy classes")
        return sum(c << i for i, c in enumerate(coeffs))


# -- the paper's bounds -----------------------------------------------------


def paper_bounds(family: str, m: int) -> tuple[str, float, int | None]:
    """(kind, d_floor, dual_floor) that the paper proves for a family.

    kind "ge": d >= d_floor; kind "gt": d > d_floor (m a product of two
    distinct primes: d > n / log2 n, with no dual claim).
    """
    n = (1 << m) - 1
    if family == "even-m":
        return "ge", 2 ** (m // 2) - 1, 2 ** (m // 2)
    if family in ("two-prime", "odd-pq"):
        return "gt", n / math.log2(n), None
    if family == "sqrt":
        return "ge", 2 ** ((m + 1) // 2) - 1, 2 ** ((m + 1) // 2)
    if family == "weight-class":
        return "ge", 2 ** ((m + 3) // 2) - 15, 2 ** ((m - 1) // 2)
    raise ValueError(f"unknown family {family!r}")


def meets_floor(kind: str, value: float, floor: float) -> bool:
    return value > floor if kind == "gt" else value >= floor
