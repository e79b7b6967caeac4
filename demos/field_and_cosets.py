"""Tour of the arithmetic layer: GF(2^m) tables and 2-cyclotomic cosets.

Everything downstream -- defining sets, generator polynomials, run
bounds -- is built from the two structures shown here.
"""

from bincyclic import (
    build_table,
    coset_of,
    make_field,
    minimal_polynomial,
    pi,
    pi_inv,
    poly_pretty,
    rho,
)


def main():
    m = 4
    ctx = make_field(m)
    n = ctx.n
    print(f"GF(2^{m}), modulus {poly_pretty(ctx.modulus)}, n = {n}")
    print(f"log/antilog tables: {len(ctx.log_table)} / {len(ctx.antilog_table)} entries")

    # every nonzero field element is a power of beta = x
    beta5 = int(ctx.antilog_table[5])
    print(f"beta^5 = {poly_pretty(beta5)};  log(beta^5) = {ctx.log_table[beta5]}")

    print("\n2-cyclotomic cosets mod", n)
    table = build_table(m)
    for leader in table.leaders:
        leader = int(leader)
        members = table.members(leader)
        mp = minimal_polynomial(ctx, leader)
        print(f"  C_{leader:<2} = {set(members)!s:22s} min poly {poly_pretty(mp)}")

    # the product of all minimal polynomials is x^n + 1; check degree
    total = sum(table.size_of(int(ell)) for ell in table.leaders)
    print(f"\ncoset sizes sum to {total} = n")

    # doubling a residue is a one-bit rotation of its m-bit word
    x = 11
    word = pi(x, m)
    print(f"\npi({x}) = {word}; rotating gives pi_inv(rho(.)) = "
          f"{pi_inv(rho(word))} = 2*{x} mod {n}")

    print(f"\ncoset_of(3, n=15) -> {sorted(coset_of(3, 15))}")


if __name__ == "__main__":
    main()
