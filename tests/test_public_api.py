"""The package's public names, and the ones the benchmark's tracer wraps.

The suite collects only ``tests/``, so a public name that a refactor drops
would otherwise show up only as a failed traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import bincyclic

PUBLIC = [
    "FieldContext", "make_field", "minimal_polynomial", "minimal_polynomials",
    "poly_degree", "poly_divrem", "poly_from_bitstring", "poly_from_hex", "poly_mod",
    "poly_mul", "poly_pretty", "poly_to_bitstring", "poly_to_hex",
    "CosetTable", "build_table", "classify_by_size", "coset_of", "is_union_of_cosets",
    "pi", "pi_inv", "rho", "weight_classes",
    "FAMILIES", "DefiningSet", "SelectionError", "build_even_m", "build_family",
    "build_odd_pq", "build_sqrt_complement", "build_two_prime", "build_weight_class",
    "CyclicCode", "DegenerateCodeError", "InvariantError", "assemble", "bch_lower_bound",
    "bch_run", "describe", "dual_defining_set",
    "BudgetExceeded", "DistanceResult", "SearchError", "auto_distance",
    "exact_min_distance", "low_weight_search", "proven_min_distance",
    "verify_distance_certificate",
    "FIXTURES", "ExpectedCode", "Fixture", "run_fixture", "select_fixtures",
    "__version__",
]

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_export_list_is_pinned():
    assert bincyclic.__all__ == PUBLIC


def test_each_export_is_unique_and_resolves():
    assert len(set(bincyclic.__all__)) == len(bincyclic.__all__)
    for name in bincyclic.__all__:
        assert hasattr(bincyclic, name), name
    namespace: dict = {}
    exec("from bincyclic import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"bincyclic.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer, cls_name, method in tracer.METHODS:
        cls = getattr(importlib.import_module(f"bincyclic.{layer}"), cls_name)
        assert callable(getattr(cls, method, None)), f"{layer}.{cls_name}.{method}"
