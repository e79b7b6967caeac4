"""Binary cyclic codes of length 2^m - 1 with dimension near n/2.

Defining-set constructions, generator-polynomial assembly over GF(2^m),
and minimum-distance verification (an exhaustive sweep or an
information-weight proof for small codes, randomized low-weight search
plus run bounds for large ones).
"""

import types as _types

from .gf2 import (
    FieldContext,
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
from .cosets import (
    CosetTable,
    build_table,
    classify_by_size,
    coset_of,
    is_union_of_cosets,
    pi,
    pi_inv,
    rho,
    weight_classes,
)
from .constructions import (
    FAMILIES,
    DefiningSet,
    SelectionError,
    build_even_m,
    build_family,
    build_odd_pq,
    build_sqrt_complement,
    build_two_prime,
    build_weight_class,
)
from .codecore import (
    CyclicCode,
    DegenerateCodeError,
    InvariantError,
    assemble,
    bch_lower_bound,
    bch_run,
    describe,
    dual_defining_set,
)
from .distance import (
    BudgetExceeded,
    DistanceResult,
    SearchError,
    auto_distance,
    exact_min_distance,
    low_weight_search,
    proven_min_distance,
    verify_distance_certificate,
)
from .fixtures import (
    FIXTURES,
    ExpectedCode,
    Fixture,
    run_fixture,
    select_fixtures,
)

__version__ = "0.1.0"

# The imports above are the export list: every name they bind, in order,
# less the submodules that importing those names binds as well.
__all__ = [name for name, value in list(globals().items())
           if not (name.startswith("_") or isinstance(value, _types.ModuleType))]
__all__.append("__version__")
