"""Scalar GF(2^m) arithmetic, kept as an oracle for the array routines.

Each function reads one element at a time through a field's log/antilog
tables; ``horner`` evaluates a polynomial coefficient by coefficient, so
it shares no code with ``FieldContext.eval_at_powers``.
"""


def pow_beta(ctx, k: int) -> int:
    """beta^k for any integer k (taken mod n)."""
    return int(ctx.antilog_table[k % ctx.n])


def mul(ctx, a: int, b: int) -> int:
    """Product of two field elements: add their logs mod n."""
    if a == 0 or b == 0:
        return 0
    return pow_beta(ctx, int(ctx.log_table[a]) + int(ctx.log_table[b]))


def inv(ctx, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return pow_beta(ctx, -int(ctx.log_table[a]))


def horner(ctx, poly: int, e: int) -> int:
    """Value of a GF(2)[x] polynomial at the field element ``e``."""
    acc = 0
    for i in range(poly.bit_length() - 1, -1, -1):
        acc = mul(ctx, acc, e) ^ ((poly >> i) & 1)
    return acc
