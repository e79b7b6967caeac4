"""The four workloads: their inputs (made from the seed), their operations
and the checks on each operation's output.

A workload is a list of :class:`Op`.  One round runs every op once, in
order; ``run`` is timed, ``check`` is not.  Checks use the oracles in
``oracles.py`` and values the paper records or proves, never a stored
copy of the program's output.  ``state`` is a dict that lives for one
round, so a later op may use an earlier op's result (``dual`` needs the
assembled code).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable

import numpy as np

import oracles

#: Exact distances the paper records (label as the fixtures name codes).
PAPER_DISTANCES = {
    "example1": {"C1": 3, "C1-dual": 6, "C2": 5, "C2-dual": 4},
    "sqrt-m5": {"C": 7, "C-dual": 8},
    "table3-p3": {"C": 12},
}
#: Example 2's [63,30,12]: the dual of C1 for m = 6.
EXAMPLE2_C1_DUAL_DISTANCE = 12
#: Where CLI output is spooled (unnamed files, gone when closed).
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list[str]]


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


@dataclass
class SpooledCli:
    """A finished command whose stdout is still in an unnamed file."""
    rc: int
    stdout: IO[str]
    err: str

    def collect(self) -> CliResult:
        with self.stdout:
            self.stdout.seek(0)
            return CliResult(self.rc, self.stdout.read(), self.err)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    fields: dict = field(default_factory=dict)  # oracle fields by (m, modulus), built lazily

    def field_for(self, m: int, modulus: int | None = None) -> oracles.Field:
        """The oracle's GF(2^m) on ``modulus``, or on the smallest primitive
        modulus; raises ValueError if ``modulus`` is not primitive."""
        if (m, modulus) not in self.fields:
            self.fields[m, modulus] = oracles.Field(m, modulus)
        return self.fields[m, modulus]


def spool_cli(argv: list[str], stdin_text: str | None = None) -> SpooledCli:
    """Run one ``bincyclic`` command in this process, its stdout going to an
    unnamed file in ``OUT_DIR``.

    A real run writing to a pipe keeps no copy of its output, so the
    benchmark keeps none in memory either until :meth:`SpooledCli.collect`.
    ``run_command`` is looked up on the module at call time, so a traced
    run sees the wrapped function.
    """
    cli = sys.modules["bincyclic.cli"]
    OUT_DIR.mkdir(exist_ok=True)
    out = tempfile.TemporaryFile("w+", encoding="utf-8", dir=OUT_DIR)
    err = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run_command(list(argv))
    except BaseException:
        out.close()
        raise
    finally:
        sys.stdin = saved
    return SpooledCli(rc, out, err.getvalue())


def collect(result):
    """An op's result as its check takes it: spooled output is read back."""
    return result.collect() if isinstance(result, SpooledCli) else result


def op_failed(result) -> bool:
    return isinstance(result, CliResult) and result.rc != 0


# -- checks shared by the CLI workloads --------------------------------------


def _family_claims(family: str, m: int, n: int, size: int, delta: int,
                   dual_delta: int | None, problems: list[str], where: str) -> None:
    """Dimension and distance bounds the paper proves for a family."""
    kind, d_floor, dual_floor = oracles.paper_bounds(family, m)
    if not oracles.meets_floor(kind, delta, d_floor):
        problems.append(f"{where}: run bound {delta} misses the paper's d floor {d_floor:.2f}")
    if dual_floor is not None and dual_delta is not None and dual_delta < dual_floor:
        problems.append(f"{where}: dual run bound {dual_delta} below the paper's {dual_floor}")
    k = n - size
    allowed = (2 ** (m - 1) - 1, 2 ** (m - 1) + 1) if family == "even-m" else (2 ** (m - 1),)
    if k not in allowed:
        problems.append(f"{where}: dimension {k} is not the paper's {allowed}")


def check_code_json(code: dict, wl: Workload, m: int, *, elements=None,
                    family=None) -> tuple[list[str], dict]:
    """Check a ``"code"`` object of the JSON envelope against the oracles.

    Returns the problems and a dict of derived facts (elements, delta,
    generator, parity) for the distance check.
    """
    where = "code"
    problems: list[str] = []
    n = (1 << m) - 1
    facts: dict = {}
    if code.get("n") != n or code.get("m") != m:
        return [f"{where}: n/m are {code.get('n')}/{code.get('m')}, expected {n}/{m}"], facts
    zs = np.asarray(code["defining_set"], dtype=np.int64)
    if not (np.diff(zs) > 0).all():
        problems.append(f"{where}: defining set is not strictly ascending")
    if elements is not None and not np.array_equal(zs, elements):
        problems.append(f"{where}: defining set differs from the input set")
    if not oracles.is_doubling_closed(zs, n):
        problems.append(f"{where}: defining set is not closed under doubling")
    size = len(zs)
    if code["dimension"] != n - size:
        problems.append(f"{where}: dimension {code['dimension']} != n - |Z| = {n - size}")
    delta, start = oracles.cyclic_run(zs, n)
    if (code["bch_lower_bound"], code["bch_interval_start"]) != (delta, start):
        problems.append(
            f"{where}: run bound ({code['bch_lower_bound']}, {code['bch_interval_start']}) "
            f"!= oracle ({delta}, {start})"
        )
    dual = oracles.dual_set(zs, n)
    dual_delta, dual_start = oracles.cyclic_run(dual, n) if dual.size < n else (n + 1, 0)
    d = code["dual"]
    if (d["size"], d["dimension"]) != (dual.size, n - dual.size):
        problems.append(f"{where}: dual size/dimension {d['size']}/{d['dimension']} wrong")
    if (d["bch_lower_bound"], d["bch_interval_start"]) != (dual_delta, dual_start):
        problems.append(
            f"{where}: dual run bound ({d['bch_lower_bound']}, {d['bch_interval_start']}) "
            f"!= oracle ({dual_delta}, {dual_start})"
        )
    if family is not None:
        _family_claims(family, m, n, size, delta, dual_delta, problems, where)
    facts.update(elements=zs, delta=delta)
    bits = code.get("generator_bits")
    if bits is not None:
        g = oracles.bits_from_string(bits)
        problems += check_generator(g, zs, wl.field_for(m), where)
        facts["generator"] = g
        try:
            facts["parity"] = oracles.divide_exact((1 << n) | 1, g)
        except (ValueError, ZeroDivisionError):
            pass  # already reported: g does not divide x^n + 1
    return problems, facts


def check_generator(g: int, elements, fld: oracles.Field, where: str) -> list[str]:
    """deg g = |Z|, g divides x^n + 1 (checked by product), and the roots
    are exactly gamma^Z for a primitive gamma.  The CLI's JSON does not
    name the program's modulus, so any primitive one is accepted."""
    n = fld.n
    problems = []
    if g.bit_length() - 1 != len(elements):
        problems.append(f"{where}: generator degree {g.bit_length() - 1} != |Z| = {len(elements)}")
    try:
        h = oracles.divide_exact((1 << n) | 1, g)
    except (ValueError, ZeroDivisionError):
        return problems + [f"{where}: generator does not divide x^n + 1"]
    if oracles.clmul(g, h) != (1 << n) | 1:
        problems.append(f"{where}: g * h != x^n + 1")
    if not fld.roots_are_some_power(g, elements):
        problems.append(f"{where}: generator roots are not gamma^Z for any primitive gamma")
    return problems


def check_distance_json(dist: dict, facts: dict, n: int, *, method: str, floor=None,
                        exact=None, iterations=None, seed=None) -> list[str]:
    """A distance result: the witness is a codeword (via h) of the reported
    weight, the run bound is the oracle's, and BCH <= d <= witness weight."""
    where = "distance"
    problems = []
    if dist["method"] != method:
        problems.append(f"{where}: method {dist['method']!r}, expected {method!r}")
    w = oracles.bits_from_string(dist["witness_bits"])
    weight = w.bit_count()
    h = facts.get("parity")
    if w == 0 or w >> n or h is None or not oracles.is_codeword_via_h(w, h, n):
        problems.append(f"{where}: witness is not a nonzero codeword")
    if weight != dist["witness_weight"] or weight != dist["best_weight_found"]:
        problems.append(
            f"{where}: witness weight {weight}, reported {dist['witness_weight']}"
            f"/{dist['best_weight_found']}"
        )
    delta = facts["delta"]
    if dist["best_weight_found"] < delta:
        problems.append(f"{where}: weight {dist['best_weight_found']} below the run bound {delta}")
    if method == "exhaustive":
        d = dist["exact_distance"]
        if not (delta <= (d or 0) <= weight) or dist["proven_lower_bound"] != d:
            problems.append(f"{where}: exact distance {d} outside [run bound {delta}, witness {weight}]")
        k = n - len(facts["elements"])
        if dist["iterations"] != (1 << k) - 1:
            problems.append(f"{where}: scored {dist['iterations']} messages, expected 2^{k} - 1")
        if exact is not None and d != exact:
            problems.append(f"{where}: distance {d}, the paper records {exact}")
    else:
        if dist["exact_distance"] is not None or dist["proven_lower_bound"] != delta:
            problems.append(f"{where}: search must report no exact distance and the run bound {delta}")
        if (dist["iterations"], dist["seed"]) != (iterations, seed):
            problems.append(f"{where}: iterations/seed {dist['iterations']}/{dist['seed']} not as asked")
    if floor is not None and not oracles.meets_floor(floor[0], dist["best_weight_found"], floor[1]):
        problems.append(f"{where}: weight {dist['best_weight_found']} breaks the paper's floor {floor[1]:.2f}")
    return problems


def _parse(result: CliResult, where: str) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(result.out)
    except json.JSONDecodeError as exc:
        return None, [f"{where}: output is not JSON ({exc})"]
    if doc.get("schema") != 1:
        return None, [f"{where}: schema is {doc.get('schema')!r}"]
    return doc, []


def analysis_check(wl: Workload, m: int, *, elements=None, family=None, method: str,
                   exact=None, floor=None, iterations=None, seed=None, audit_tag=None):
    """Check for ``analyze`` / ``export`` output with a distance object."""

    def check(result: CliResult, state: dict) -> list[str]:
        doc, problems = _parse(result, "json")
        if doc is None:
            return problems
        n = (1 << m) - 1
        problems, facts = check_code_json(doc["code"], wl, m, elements=elements, family=family)
        if "generator" not in facts:
            return problems + ["code: generator missing"]
        if audit_tag is not None and doc["audit"]["construction"] != audit_tag:
            problems.append(f"audit: construction {doc['audit']['construction']!r}")
        return problems + check_distance_json(
            doc["distance"], facts, n, method=method, floor=floor, exact=exact,
            iterations=iterations, seed=seed,
        )

    return check


def construct_check(wl: Workload, m: int, family: str, audit_tag: str):
    """Check for ``construct --json`` / ``export --engine none`` output."""

    def check(result: CliResult, state: dict) -> list[str]:
        doc, problems = _parse(result, "json")
        if doc is None:
            return problems
        problems, _ = check_code_json(doc["code"], wl, m, family=family)
        if doc["code"]["generator_bits"] is not None or "distance" in doc:
            problems.append("code: no generator or distance was asked for")
        if doc["audit"]["construction"] != audit_tag:
            problems.append(f"audit: construction {doc['audit']['construction']!r}")
        return problems

    return check


def fixture_check(fixture_id: str):
    def check(result: CliResult, state: dict) -> list[str]:
        doc, problems = _parse(result, "json")
        if doc is None:
            return problems
        if [fx["id"] for fx in doc["fixtures"]] != [fixture_id]:
            return [f"verify-paper ran {[fx['id'] for fx in doc['fixtures']]}"]
        fx = doc["fixtures"][0]
        problems = [f"{fixture_id}: row {row['code']}.{row['field']} failed"
                    for row in fx["rows"] if not row["ok"]]
        got = {row["code"]: row["actual"] for row in fx["rows"] if row["field"] == "distance"}
        for label, d in PAPER_DISTANCES[fixture_id].items():
            if got.get(label) != d:
                problems.append(f"{fixture_id}: {label} distance {got.get(label)}, the paper records {d}")
        return problems

    return check


# -- the workloads -----------------------------------------------------------


def cli_op(name: str, argv: list[str], check, stdin_text: str | None = None) -> Op:
    return Op(name, lambda state: spool_cli(argv, stdin_text), check)


def _residues(elements) -> str:
    return " ".join(str(int(x)) for x in elements)


def build_exact(seed: int) -> Workload:
    """Gray-sweep proofs: three recorded fixtures, Example 2's [63,30,12],
    and one seeded random doubling-closed set at n = 63 for each k in 24..30."""
    from bincyclic import constructions

    rng = random.Random(seed)
    wl = Workload("exact", [])
    for fx in PAPER_DISTANCES:
        wl.ops.append(cli_op(f"verify-paper:{fx}",
                             ["verify-paper", "--fixture", fx, "--threads", "1", "--json"],
                             fixture_check(fx)))
    analyze = ["analyze", "--m", "6", "--engine", "exhaustive", "--threads", "1", "--json"]
    z1 = [int(x) for x in constructions.build_even_m(6)[0].elements]
    ex2 = [int(x) for x in oracles.dual_set(z1, 63)]
    wl.ops.append(cli_op("analyze:example2-C1-dual", analyze,
                         analysis_check(wl, 6, elements=ex2, method="exhaustive",
                                        exact=EXAMPLE2_C1_DUAL_DISTANCE),
                         _residues(ex2)))
    for k in range(24, 31):
        z = oracles.random_coset_union(rng, 63, 63 - k)
        wl.ops.append(cli_op(f"analyze:random-k{k}", analyze,
                             analysis_check(wl, 6, elements=z, method="exhaustive"),
                             _residues(z)))
    return wl


def build_search(seed: int) -> Workload:
    """Information-set search through the CLI on [127,64] and [127,63]
    (sqrt-m7 with choices 21,27; depth 2 and 3) and [1023,512] (two-prime
    p = 5), each with a search seed drawn from the benchmark seed."""
    from bincyclic import constructions

    rng = random.Random(seed)
    wl = Workload("search", [])
    z7 = [int(x) for x in constructions.build_sqrt_complement(7, overrides=(21, 27))[0].elements]
    dual7 = [int(x) for x in oracles.dual_set(z7, 127)]
    kind, d7, dual_d7 = oracles.paper_bounds("sqrt", 7)
    for depth, iters in ((2, 300), (3, 50)):
        s = rng.randrange(1, 1 << 31)
        argv = ["export", "sqrt", "--m", "7", "--choose", "21,27", "--engine", "search",
                "--seed", str(s), "--iters", str(iters), "--depth", str(depth)]
        wl.ops.append(cli_op(f"export:sqrt-m7-d{depth}", argv,
                             analysis_check(wl, 7, elements=z7, family="sqrt", method="search",
                                            floor=(kind, d7), iterations=iters, seed=s,
                                            audit_tag="sqrt-complement")))
        s = rng.randrange(1, 1 << 31)
        argv = ["analyze", "--m", "7", "--engine", "search", "--seed", str(s),
                "--iters", str(iters), "--depth", str(depth), "--json"]
        wl.ops.append(cli_op(f"analyze:sqrt-m7-dual-d{depth}", argv,
                             analysis_check(wl, 7, elements=dual7, method="search",
                                            floor=("ge", dual_d7), iterations=iters, seed=s),
                             _residues(dual7)))
    s = rng.randrange(1, 1 << 31)
    argv = ["export", "two-prime", "--p", "5", "--engine", "search", "--seed", str(s),
            "--iters", "12", "--depth", "2"]
    kind, d10, _ = oracles.paper_bounds("two-prime", 10)
    wl.ops.append(cli_op("export:two-prime-p5-d2", argv,
                         analysis_check(wl, 10, family="two-prime", method="search",
                                        floor=(kind, d10), iterations=12, seed=s,
                                        audit_tag="two-prime")))
    return wl


def build_construct_large(seed: int) -> Workload:
    """``construct --json`` and ``export`` (engine none) for all five
    families at m = 17..22, one command per m, largest first."""
    rng = random.Random(seed)
    wl = Workload("construct-large", [])
    which20, which18 = rng.choice(("C1", "C2")), rng.choice(("C1", "C2"))
    wc_i = str(rng.randrange(2))
    commands = (
        (22, "two-prime", "two-prime", ["construct", "two-prime", "--p", "11", "--json"]),
        (21, "odd-pq", "odd-pq", ["export", "odd-pq", "--p1", "3", "--p2", "7"]),
        (20, "even-m", "even-m", ["export", "even-m", "--m", "20", "--which", which20]),
        (19, "sqrt", "sqrt-complement", ["construct", "sqrt", "--m", "19", "--json"]),
        (18, "even-m", "even-m", ["construct", "even-m", "--m", "18", "--which", which18, "--json"]),
        (17, "weight-class", "weight-class", ["export", "weight-class", "--m", "17", "--i", wc_i]),
    )
    for m, family, tag, argv in commands:
        wl.ops.append(cli_op(f"{argv[0]}:{family}-m{m}", argv, construct_check(wl, m, family, tag)))
    return wl


def build_assemble(seed: int) -> Workload:
    """Library ``assemble``, ``CyclicCode.dual`` and ``verify_roots`` on codes
    of four families at m = 10..13 plus seeded random coset unions of the
    same sizes.  Several codes share each m."""
    from bincyclic import constructions
    from bincyclic.constructions import DefiningSet

    rng = random.Random(seed)
    wl = Workload("assemble", [])
    which10, which12 = rng.choice((0, 1)), rng.choice((0, 1))
    wc11_i, wc13_i = rng.randrange(2), rng.randrange(2)
    codes = [
        # (label, family, m, defining set, run dual, run verify_roots)
        (f"even-m10-C{which10 + 1}", "even-m", 10, constructions.build_even_m(10)[which10], True, True),
        ("two-prime-p5", "two-prime", 10, constructions.build_two_prime(5)[0], True, True),
        ("random-m10", None, 10, None, True, False),
        ("sqrt-m11", "sqrt", 11, constructions.build_sqrt_complement(11)[0], True, False),
        (f"weight-class-m11-i{wc11_i}", "weight-class", 11,
         constructions.build_weight_class(11, wc11_i)[0], True, False),
        ("random-m11", None, 11, None, False, False),
        (f"even-m12-C{which12 + 1}", "even-m", 12, constructions.build_even_m(12)[which12], True, False),
        ("random-m12", None, 12, None, False, False),
        (f"weight-class-m13-i{wc13_i}", "weight-class", 13,
         constructions.build_weight_class(13, wc13_i)[0], False, False),
    ]
    for label, family, m, zset, dual, roots in codes:
        n = (1 << m) - 1
        if zset is None:
            zset = DefiningSet.from_elements(n, oracles.random_coset_union(rng, n, 2 ** (m - 1) - 1))
        elements = [int(x) for x in zset.elements]
        wl.ops.append(Op(f"assemble:{label}", _assemble_run(label, zset),
                         _assemble_check(wl, label, family, m, elements)))
        if dual:
            wl.ops.append(Op(f"dual:{label}", _dual_run(label), _dual_check(label, m, elements)))
        if roots:
            wl.ops.append(Op(f"verify_roots:{label}", _roots_run(label), _roots_check))
    return wl


def _assemble_run(label, zset):
    def run(state):
        state[label] = sys.modules["bincyclic.codecore"].assemble(zset)
        return state[label]
    return run


def _dual_run(label):
    def run(state):
        state[label + "-dual"] = state[label].dual()
        return state[label + "-dual"]
    return run


def _roots_run(label):
    return lambda state: state[label].verify_roots()


def _roots_check(result, state) -> list[str]:
    return [] if result is True else [f"verify_roots returned {result!r}"]


def _assemble_check(wl: Workload, label: str, family, m: int, elements):
    def check(code, state) -> list[str]:
        n = (1 << m) - 1
        where = f"assemble {label}"
        problems = []
        if (code.n, code.m, code.dimension) != (n, m, n - len(elements)):
            problems.append(f"{where}: [n, k] = [{code.n}, {code.dimension}]")
        if [int(x) for x in code.defining_set.elements] != elements:
            problems.append(f"{where}: defining set differs from the input set")
        try:
            # The oracle's own field on the program's modulus, so beta is the program's.
            fld = wl.field_for(m, code.ctx.modulus)
        except ValueError:
            return problems + [f"{where}: field modulus {code.ctx.modulus:#x} is not primitive"]
        if oracles.clmul(code.generator, code.parity) != (1 << n) | 1:
            problems.append(f"{where}: g * h != x^n + 1")
        if code.generator.bit_length() - 1 != len(elements):
            problems.append(f"{where}: deg g != |Z|")
        if not (fld.root_mask(code.generator) == oracles.as_mask(elements, n)).all():
            problems.append(f"{where}: generator roots are not exactly beta^Z")
        if family is not None:
            delta, _ = oracles.cyclic_run(elements, n)
            dual_delta, _ = oracles.cyclic_run(oracles.dual_set(elements, n), n)
            _family_claims(family, m, n, len(elements), delta, dual_delta, problems, where)
        return problems
    return check


def _dual_check(label: str, m: int, elements):
    def check(dual, state) -> list[str]:
        n = (1 << m) - 1
        where = f"dual {label}"
        primal = state[label]
        k = primal.dimension
        problems = []
        want = [int(x) for x in oracles.dual_set(elements, n)]
        if [int(x) for x in dual.defining_set.elements] != want:
            problems.append(f"{where}: defining set is not -(Z_n minus Z)")
        if dual.generator != oracles.reverse_poly(primal.parity, k):
            problems.append(f"{where}: generator is not the reversed parity polynomial")
        if oracles.clmul(dual.generator, dual.parity) != (1 << n) | 1:
            problems.append(f"{where}: g * h != x^n + 1")
        return problems
    return check


BUILDERS = {
    "exact": build_exact,
    "assemble": build_assemble,
    "search": build_search,
    "construct-large": build_construct_large,
}
