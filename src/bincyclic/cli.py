"""Command-line front end.

Subcommands
-----------
cosets        CSV table of the 2-cyclotomic cosets mod 2^m - 1
construct     run one construction; print a summary, JSON, or bare elements
analyze       read a defining set, assemble the code, measure its distance
verify-paper  re-check the embedded reference fixtures
export        construct + optional analysis, written as one JSON document

Exit codes: 0 success, 1 domain error, 2 verification mismatch, 64 usage.

All JSON output carries a top-level ``schema: 1`` field; polynomials
appear as little-endian bit-strings ("1101" = 1 + x + x^3).  ``--hex``
switches human-readable polynomial display to little-endian nibble hex.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from itertools import chain
from typing import Optional

import numpy as np

from .codecore import InvariantError, assemble, describe
from .constructions import FAMILIES, DefiningSet, build_family
from .cosets import build_table
from .distance import (
    BudgetExceeded,
    SearchError,
    auto_distance,
    exact_min_distance,
    low_weight_search,
    proven_min_distance,
)
from .fixtures import run_fixture, select_fixtures
from .gf2 import check_field_degree, poly_to_bitstring, poly_to_hex

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures turned into a catchable exception."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="bincyclic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_cosets = sub.add_parser("cosets", help="CSV of 2-cyclotomic cosets mod 2^m - 1")
    p_cosets.add_argument("--m", type=int, required=True, help="field degree, n = 2^m - 1")

    p_con = sub.add_parser("construct", help="build a defining set")
    for family_parser in _add_family_args(p_con):
        _add_output_args(family_parser)
        family_parser.set_defaults(engine="none", output=None)

    p_an = sub.add_parser("analyze", help="assemble a code from a defining set and measure it")
    p_an.add_argument("elements", nargs="?", default="-",
                      help="file of residues (whitespace/comma separated); '-' = stdin")
    p_an.add_argument("--m", type=int, required=True, help="field degree, n = 2^m - 1")
    _add_engine_args(p_an)
    _add_output_args(p_an, elements_only=False)
    p_an.set_defaults(output=None)

    p_vp = sub.add_parser("verify-paper", help="re-check the embedded reference fixtures")
    p_vp.add_argument("--fixture", metavar="PATTERN",
                      help="fixture id or glob pattern (default: every fast fixture)")
    p_vp.add_argument("--all", action="store_true", help="include slow fixtures")
    p_vp.add_argument("--threads", type=int, default=1,
                      help="accepted and ignored: distance rows use the single-threaded "
                           "proof engine, whose prefix walk a second thread does not "
                           "speed up")
    p_vp.add_argument("--json", action="store_true")

    p_ex = sub.add_parser("export", help="construct + optional analysis as one JSON document")
    for family_parser in _add_family_args(p_ex):
        _add_engine_args(family_parser, optional=True)
        family_parser.add_argument("--output", metavar="FILE",
                                   help="write JSON here (default stdout)")
        family_parser.set_defaults(json=True, hex=False, elements_only=False)

    return parser


def _add_family_args(parser: _Parser) -> list[_Parser]:
    """One subparser per family, holding that family's parameters."""
    fam = parser.add_subparsers(dest="family", metavar="family", required=True)
    family_parsers = []
    for name, family in FAMILIES.items():
        f = fam.add_parser(name, help=family.help)
        for flag, keywords in family.params.items():
            f.add_argument(flag, **keywords)
        if len(family.labels) > 1:
            f.add_argument("--which", choices=family.labels, required=True)
        family_parsers.append(f)
    return family_parsers


#: The one table from each ``--engine`` name to the call it makes on
#: ``(code, args)``.  Each entry looks its engine up in this module when it
#: runs, so a wrapper put in place of the module attribute is the one called.
_ENGINES = {
    "auto": lambda code, args: auto_distance(
        code, budget=args.budget, seed=args.seed, iterations=args.iters,
        depth=args.depth, threads=args.threads),
    "exhaustive": lambda code, args: exact_min_distance(
        code, budget=args.budget, threads=args.threads),
    "search": lambda code, args: low_weight_search(
        code, seed=args.seed, iterations=args.iters, depth=args.depth),
    "proof": lambda code, args: proven_min_distance(code),
}


def _add_engine_args(parser: _Parser, optional: bool = False) -> None:
    """The distance options; ``optional`` puts ``none`` (no distance)
    first, and the first choice is the default."""
    choices = ["none", *_ENGINES] if optional else list(_ENGINES)
    parser.add_argument("--engine", choices=choices, default=choices[0],
                        help="distance engine; 'proof' is the information-weight "
                             "enumeration, which ignores --budget and --threads")
    parser.add_argument("--budget", type=int, default=33,
                        help="max dimension for exhaustive enumeration")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iters", type=int, default=10_000)
    parser.add_argument("--depth", type=int, default=2,
                        help="information-pattern weight limit (1-3)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for exhaustive enumeration")


def _add_output_args(parser: _Parser, elements_only: bool = True) -> None:
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--hex", action="store_true",
                        help="display polynomials as little-endian nibble hex")
    if elements_only:
        parser.add_argument("--elements-only", action="store_true",
                            help="print the sorted residues, one per line")


def _poly_str(poly: Optional[int], use_hex: bool) -> str:
    if poly is None:
        return "-"
    return poly_to_hex(poly) if use_hex else poly_to_bitstring(poly)


def _print_report(d: dict, generator: Optional[int], use_hex: bool) -> None:
    print(f"n                : {d['n']}  (m = {d['m']})")
    if d["construction"]:
        pairs = ", ".join(f"{k}={v}" for k, v in d["construction"].items())
        print(f"construction     : {pairs}")
    print(f"defining set     : {len(d['defining_set'])} residues")
    print(f"dimension        : {d['dimension']}")
    print(f"generator        : {_poly_str(generator, use_hex)}")
    print(f"bch lower bound  : {d['bch_lower_bound']}  (run starts at {d['bch_interval_start']})")
    dual = d["dual"]
    print(f"dual dimension   : {dual['dimension']}")
    print(f"dual bch bound   : {dual['bch_lower_bound']}  (run starts at {dual['bch_interval_start']})")


def _print_distance(result) -> None:
    d = result.as_dict()
    print(f"distance engine  : {d['method']}")
    if d["exact_distance"] is not None:
        print(f"exact distance   : {d['exact_distance']}")
    else:
        print(f"best weight found: {d['best_weight_found']}")
        print(f"proven bound     : {d['proven_lower_bound']}")
        print(f"search budget    : seed {d['seed']}, {d['iterations']} iterations")
    witness = d["witness_bits"]
    support = [i for i, bit in enumerate(witness) if bit == "1"]
    print(f"witness weight   : {d['witness_weight']}  support {support}")
    if "certificate" in d:
        print(f"certificate      : {d['certificate']['inequality']}")


#: Most items of one list or array that ``_json_parts`` encodes in one piece.
_CHUNK = 2**15


@functools.cache
def _digit_words() -> np.ndarray:
    """The decimal text of 0..9999 as uint32 words of four ASCII bytes,
    with NUL bytes where no digit is written.  Word 0 is empty, word
    1 + r is r without leading zeros (NUL NUL NUL "7") and word 10_001 + r
    is r in four digits ("0007").  Built on first use: a process that
    writes no array leaves numpy's first-use memory of these steps
    (about 0.4 MB of peak RSS) unspent."""
    r = np.arange(10_000, dtype=np.uint16)
    words = np.zeros((20_001, 4), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        digit = (r // place % 10 + ord("0")).astype(np.uint8)
        words[10_001:, j] = digit
        words[1:10_001, j] = digit * (r >= place)  # the digits from r's top one down
    words[1, 3] = ord("0")  # 0 is written "0"
    return words.view(np.uint32).ravel()


_MINUS_WORD = np.frombuffer(b"\0\0\0-", dtype=np.uint32)[0]


def _joined_ints(values: np.ndarray, sep: str) -> str:
    """``sep.join(map(str, values.tolist()))`` for a non-empty int64 array,
    written with numpy.

    Each value becomes one row of uint32 words: a sign word if any value is
    negative, one :func:`_digit_words` word per base-10^4 group of its
    magnitude, and ``sep`` padded with NUL bytes to whole words.  The
    digits a value does not have are NUL bytes too, so one boolean
    compress of the rows' bytes leaves the text.  ``sep`` is ASCII without
    NUL.
    """
    negative = values < 0
    magnitude = values.view(np.uint64).copy()
    np.negative(magnitude, out=magnitude, where=negative)  # 2^63 fits in uint64
    top = int(magnitude.max())
    groups = 1
    while top >= 10_000**groups:
        groups += 1
    sign = int(negative.any())
    sep_bytes = sep.encode("ascii")
    sep_words = np.frombuffer(sep_bytes + bytes(-len(sep_bytes) % 4), dtype=np.uint32)
    rows = np.empty((len(values), sign + groups + len(sep_words)), dtype=np.uint32)
    if sign:
        rows[:, 0] = negative * _MINUS_WORD
    for k in range(groups):  # the k-th group from the right
        higher, group = np.divmod(magnitude, 10_000)
        word = group + 1
        word += (higher > 0) * np.uint64(10_000)  # four digits below a higher group
        if k:
            word *= magnitude > 0  # no digits above a value's top group
        rows[:, sign + groups - 1 - k] = _digit_words()[word]
        magnitude = higher
    for j, sep_word in enumerate(sep_words):
        rows[:, sign + groups + j] = sep_word
    text = rows.view(np.uint8).ravel()
    text = text[text != 0]
    return text[:text.size - len(sep_bytes)].tobytes().decode("ascii")


def _json_parts(value, pad: str, write) -> None:
    """Write, in pieces and as it is encoded, the text that ``json.dumps``
    gives for ``value`` with a 2-space indent, nested at indent ``pad``.
    A one-dimensional int64 ndarray is written as the list of its values;
    any other ndarray is refused with ``TypeError``, as ``json`` refuses it.

    An indent makes CPython fall back to its pure-Python encoder, which
    takes seconds on a defining set of 2M residues.  A list, tuple or int64
    array is taken in chunks of at most ``_CHUNK`` items.  A chunk of an
    array is written by :func:`_joined_ints`.  A list chunk of plain ints
    (not bools), or of non-empty lists or tuples of plain ints, is rendered
    flat by the C encoder and re-indented as text, which is exact because
    the text of an int never holds ", ".  Any other chunk is laid out item
    by item.  Memory beyond ``value`` itself is bounded by one chunk's
    text, whatever the length of its lists.

    Text goes to ``write`` as soon as it is encoded, so a value that
    ``json`` cannot encode fails after part of the document is out; the
    CLI's payloads hold plain values and int64 arrays by construction.
    """
    inner = pad + "  "
    vector = isinstance(value, np.ndarray) and value.dtype == np.int64 and value.ndim == 1
    if isinstance(value, dict) and value:
        write("{")
        for i, (key, item) in enumerate(value.items()):
            # json writes a non-string key as its own JSON text, quoted
            label = json.dumps(key if isinstance(key, str) else json.dumps(key))
            write((",\n" if i else "\n") + inner + label + ": ")
            _json_parts(item, inner, write)
        write("\n" + pad + "}")
    elif (vector or isinstance(value, (list, tuple))) and len(value):
        write("[")
        for start in range(0, len(value), _CHUNK):
            _json_chunk(value[start:start + _CHUNK], start, inner, write)
        write("\n" + pad + "]")
    else:
        write(json.dumps([] if vector else value))


def _json_chunk(chunk, start: int, inner: str, write) -> None:
    """Write the items of one list or array chunk, the first of them item
    ``start`` of its list, each on its own line at indent ``inner``."""
    lead = (",\n" if start else "\n") + inner
    if isinstance(chunk, np.ndarray):
        write(lead + _joined_ints(chunk, ",\n" + inner))
        return
    kinds = set(map(type, chunk))
    if kinds == {int}:
        write(lead)
        write(json.dumps(chunk)[1:-1].replace(", ", ",\n" + inner))
        return
    if (kinds <= {list, tuple} and all(chunk)  # every row non-empty
            and set(map(type, chain.from_iterable(chunk))) == {int}):
        deeper = inner + "  "
        flat = json.dumps(chunk)
        write(lead + "[\n" + deeper)
        write(flat[2:-2].replace(", ", ",\n" + deeper).replace(
            "],\n" + deeper + "[", "\n" + inner + "],\n" + inner + "[\n" + deeper))
        write("\n" + inner + "]")
        return
    for i, item in enumerate(chunk, start):
        write((",\n" if i else "\n") + inner)
        _json_parts(item, inner, write)


def _emit_json(payload: dict, output: Optional[str] = None) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline to ``output``,
    or to stdout, through :func:`_json_parts`: the text is written as it
    is encoded and never held whole.  So a value that ``json`` cannot
    encode leaves a partial document on stdout, or a partial ``output``
    file in place of the old one."""
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext(sys.stdout) as out:
        _json_parts(payload, "", out.write)
        out.write("\n")


def _read_elements(source: str) -> list[int]:
    with contextlib.nullcontext(sys.stdin) if source == "-" else open(source, encoding="utf-8") as fh:
        return [int(tok) for tok in fh.read().replace(",", " ").split()]


def _cmd_cosets(args) -> int:
    table = build_table(args.m)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["leader", "size", "members"])
    for leader in table.leaders:
        leader = int(leader)
        members = table.members(leader)
        writer.writerow([leader, len(members), ";".join(str(x) for x in members)])
    return EXIT_OK


def _report(zset: DefiningSet, audit, args) -> int:
    """Describe ``zset``, measure its distance unless the engine is
    ``none``, and write the JSON envelope or the human summary."""
    code = None if args.engine == "none" else assemble(zset)
    generator = None if code is None else code.generator
    report = describe(zset, generator=generator)
    result = None if code is None else _ENGINES[args.engine](code, args)
    if not args.json:
        _print_report(report, generator, args.hex)
        if result is not None:
            _print_distance(result)
        return EXIT_OK
    payload = {"schema": 1, "code": report}
    if result is not None:
        payload["distance"] = result.as_dict()
    if audit is not None:
        payload["audit"] = vars(audit)
    _emit_json(payload, args.output)
    return EXIT_OK


def _cmd_family(args) -> int:
    """``construct`` and ``export``: build one family's set and report it."""
    family = FAMILIES[args.family]
    params = {kw["dest"]: getattr(args, kw["dest"]) for kw in family.params.values()}
    sets, audit = build_family(args.family, **params)
    zset = dict(sets)[getattr(args, "which", family.labels[0])]
    if args.elements_only:
        elements = zset.elements
        for start in range(0, len(elements), _CHUNK):
            sys.stdout.write(_joined_ints(elements[start:start + _CHUNK], "\n") + "\n")
        return EXIT_OK
    return _report(zset, audit, args)


def _cmd_analyze(args) -> int:
    check_field_degree(args.m)
    zset = DefiningSet.from_elements(2**args.m - 1, _read_elements(args.elements))
    return _report(zset, None, args)


def _cmd_verify(args) -> int:
    fixtures = select_fixtures(args.fixture, include_slow=args.all)
    if not fixtures:
        print(f"warning: no fixture matches {args.fixture!r}", file=sys.stderr)
        return EXIT_OK

    reports = []
    for fx in fixtures:
        rep = run_fixture(fx)
        reports.append(rep)
        if not args.json:
            flag = "ok  " if rep.ok else "FAIL"
            print(f"[{flag}] {fx.fixture_id:22s} {fx.title}  ({rep.seconds:.2f}s)")
            for row in rep.rows:
                if not row["ok"]:
                    where = f"{row['code']}." if row["code"] else ""
                    print(f"    {where}{row['field']}: expected {row['expected']!r}, "
                          f"got {row['actual']!r}")
            if not rep.ok and fx.note:
                print(f"    note: {fx.note}")

    failed = sum(not rep.ok for rep in reports)
    if args.json:
        _emit_json({"schema": 1, "fixtures": [vars(rep) for rep in reports]})
    else:
        print(f"{len(fixtures)} fixture(s): {len(fixtures) - failed} passed, {failed} failed")
    return EXIT_MISMATCH if failed else EXIT_OK


def run_command(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE

    if args.command is None:
        parser.print_help()
        return EXIT_USAGE

    handlers = {
        "cosets": _cmd_cosets,
        "construct": _cmd_family,
        "analyze": _cmd_analyze,
        "verify-paper": _cmd_verify,
        "export": _cmd_family,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, InvariantError, BudgetExceeded, SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
