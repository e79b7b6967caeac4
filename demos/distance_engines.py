"""Measuring minimum distance: exact enumeration, information-weight
proof and seeded search.

The exhaustive engine walks all 2^k - 1 nonzero messages in Gray-code
order (one row-XOR per codeword) and is exact up to its dimension
budget.  The information-weight engine proves the same distance from
far fewer messages, because every weight-d word of a cyclic code has a
shift of information weight <= floor(d*k/n).  Above that, the
randomized information-set search gives an upper bound, with the run
bound as the proven floor.
"""

import time

from bincyclic import (
    DefiningSet,
    assemble,
    auto_distance,
    build_sqrt_complement,
    build_two_prime,
    dual_defining_set,
    exact_min_distance,
    low_weight_search,
    proven_min_distance,
    verify_distance_certificate,
)


def main():
    # [31,16]: small enough to enumerate outright
    z, _ = build_sqrt_complement(5)
    code = assemble(z)
    t0 = time.perf_counter()
    result = exact_min_distance(code, threads=2)
    dt = time.perf_counter() - t0
    print(f"[{code.n},{code.dimension}] exact d = {result.exact_distance} "
          f"({result.iterations} codewords scored in {dt:.3f}s)")
    support = [i for i in range(code.n) if (result.witness >> i) & 1]
    print(f"  witness weight {result.witness.bit_count()} at positions {support}")

    dual = assemble(dual_defining_set(z))
    print(f"[{dual.n},{dual.dimension}] exact d = "
          f"{exact_min_distance(dual).exact_distance}")

    # [63,32]: 2^32 messages for the sweep; the proof scores about 240,000
    z3, _ = build_two_prime(3)
    code3 = assemble(z3)
    t0 = time.perf_counter()
    proof = proven_min_distance(code3)
    dt = time.perf_counter() - t0
    verify_distance_certificate(code3, proof)
    print(f"\n[{code3.n},{code3.dimension}] proven d = {proof.exact_distance} "
          f"({proof.iterations} combinations scored in {dt:.3f}s)")
    print(f"  certificate: {proof.certificate.inequality}")

    # [127,64]: dimension 64 is far past enumeration; search instead
    z7, _ = build_sqrt_complement(7, overrides=(21, 27))
    code7 = assemble(z7)
    t0 = time.perf_counter()
    found = low_weight_search(code7, seed=1, iterations=2000, depth=2)
    dt = time.perf_counter() - t0
    print(f"\n[{code7.n},{code7.dimension}] search: best weight "
          f"{found.best_weight_found}, proven floor {found.proven_lower_bound} "
          f"({found.iterations} iterations, {dt:.2f}s)")
    print("  same seed, same answer:",
          low_weight_search(code7, seed=1, iterations=2000, depth=2)
          .best_weight_found == found.best_weight_found)

    # auto_distance picks the engine from the dimension
    small = assemble(DefiningSet.from_elements(7, (1, 2, 4)))
    print(f"\nauto on [7,4]     -> {auto_distance(small).method}")
    print(f"auto on [127,64]  -> {auto_distance(code7, seed=3, iterations=50).method}")


if __name__ == "__main__":
    main()
