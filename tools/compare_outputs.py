"""Record the output of a fixed list of bincyclic CLI commands.

    python3 tools/compare_outputs.py OUTDIR [--src SRC]
    diff -r OLD_OUTDIR NEW_OUTDIR

Runs every command in this process through ``bincyclic.cli.run_command``
and writes one file per command to OUTDIR: its exit code, stderr and
stdout (and the file an ``--output`` command wrote).  Fixture timings
(``"seconds": …`` in JSON, ``(1.23s)`` in the human report) are masked,
so two checkouts that behave the same produce identical directories.
``--src`` imports bincyclic from another checkout's ``src`` directory
(default: the one next to this script), so one copy of this script can
record any revision.

The list covers ``construct --json`` and ``export`` for every family at
several sizes, the human and ``--elements-only`` forms, the six
``construct-large`` commands at m = 17..22 (both choices of ``--which``
and ``--i``), ``--elements-only`` at m = 20 and the m = 22 ``export``
written to an ``--output`` file, the even-m C2 set and audit at m = 22,
a ``--swap-pairs`` export at m = 16 and a weight-class export at m = 19,
``analyze`` and ``export`` with each
distance engine (``analyze -`` reading its residues from stdin, in human
and JSON form; a [31,20] code whose set holds 0 and a [31,21] code whose
dual's longest run wraps past n - 1, the [31,30] code of Z = {0} by
the proof engine and the [31,1] code of Z_31 minus {0} by the sweep; the
exhaustive sweep also on the empty set, on two-lane codes of length 127,
once with two threads, on a four-lane [255,18] code with one and two
threads, on a 64-lane [4095,16] code, whose block of combinations is
cut to 2^15 by the per-worker ceiling, and on a [63,24] code
with 64 threads asked for; the search also for enough iterations to span several
reduction batches, at depth 3 on the 16-lane [1023,512] code, whose
prefix walk runs on the widest block, at depth 3 on the [127,63]
sqrt-m7 dual, whose batch of 50 bases is scored in slices, and at depth
2 over three batches on the four-lane [255,129] even-m code and the
eight-lane [511,256] weight-class code; the proof engine in JSON and human
form, and on an [8191,14] code, which assembles a set of 8177 residues),
``verify-paper`` (fast and ``--all``, JSON and human, a glob that skips
a slow fixture and a slow fixture named by its exact id), the ``--help``
text of the top-level, ``analyze`` and ``verify-paper`` parsers and of
all ten family parsers (``construct`` and ``export`` for each family),
and the error cases with their exit codes (among them a set that is not
closed under doubling, an ``odd-pq`` pair past the table cap, a
negative search seed and ``sqrt --choose`` lists that name a stray
leader, repeat one, leave a pair without one or take both of a pair).  A command that ends in
``SystemExit`` (``--help``) is recorded with the exit code it carried, and one that
raises any other exception as ``raised`` and the exception's type, so the
rest are still recorded; help text is wrapped at ``COLUMNS=80`` whatever
the terminal.  Every command reads ``STDIN`` on its standard input.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

#: Marks the path of a scratch file in a command's argv.
SCRATCH = "{scratch}"

SMALL_FAMILIES = (
    [["even-m", "--m", str(m), "--which", w] + swap
     for m in (4, 6, 8, 10, 12) for w in ("C1", "C2") for swap in ([], ["--swap-pairs"])]
    + [["two-prime", "--p", str(p)] for p in (3, 5, 7)]
    + [["odd-pq", "--p1", "3", "--p2", "5"]]
    + [["sqrt", "--m", str(m)] for m in (5, 7, 9, 11)]
    + [["sqrt", "--m", "7", "--choose", "21,27"]]
    + [["weight-class", "--m", str(m), "--i", i] for m in (9, 11, 13) for i in ("0", "1")]
)

LARGE = (
    ["construct", "two-prime", "--p", "11", "--json"],
    ["export", "odd-pq", "--p1", "3", "--p2", "7"],
    ["export", "even-m", "--m", "20", "--which", "C1"],
    ["export", "even-m", "--m", "20", "--which", "C2"],
    ["construct", "sqrt", "--m", "19", "--json"],
    ["construct", "even-m", "--m", "18", "--which", "C1", "--json"],
    ["construct", "even-m", "--m", "18", "--which", "C2", "--json"],
    ["export", "weight-class", "--m", "17", "--i", "0"],
    ["export", "weight-class", "--m", "17", "--i", "1"],
    # 524,286 residues: many chunks of the line writer
    ["construct", "even-m", "--m", "20", "--which", "C1", "--elements-only"],
    # the m = 22 set through the file writer
    ["export", "two-prime", "--p", "11", "--output", SCRATCH + "/tp11.json"],
    # the even-m split at m = 22, whose audit holds two pair preimages of 351,692 residues
    ["construct", "even-m", "--m", "22", "--which", "C2", "--json"],
    ["export", "even-m", "--m", "16", "--which", "C1", "--swap-pairs"],
    ["export", "weight-class", "--m", "19", "--i", "0"],
)

#: The cosets of 1 and 3 mod 15 (a [15,7,5] code), for ``analyze``.
M4_RESIDUES = "1 2 3 4 6 8 9 12"
#: The standard input of every command: the same residues, comma-separated.
STDIN = ",".join(M4_RESIDUES.split())


def _residues_outside(m: int, outside: tuple[int, ...]) -> str:
    """Every residue mod 2^m - 1 outside the cyclotomic cosets of
    ``outside``, for ``analyze``: at m = 5 a code of dimension 20 or 21,
    at m = 6 a [63,24] code, at m = 7 a code of dimension 15 or 22 on two
    uint64 lanes, at m = 8 a [255,18] code on four, at m = 12 a [4095,16]
    code on 64, at m = 13 an [8191,14] code."""
    n = (1 << m) - 1
    free = {(x << j) % n for x in outside for j in range(m)}
    return " ".join(str(r) for r in range(n) if r not in free)


ENGINE_RUNS = (
    ["analyze", SCRATCH + "/m4.txt", "--m", "4", "--json"],
    ["analyze", SCRATCH + "/m4.txt", "--m", "4"],
    ["analyze", SCRATCH + "/m4.txt", "--m", "4", "--hex", "--engine", "exhaustive"],
    ["analyze", "-", "--m", "4"],
    ["analyze", "-", "--m", "4", "--json"],
    # the empty set: its defining set is written as []
    ["analyze", SCRATCH + "/empty.txt", "--m", "4", "--engine", "exhaustive", "--json"],
    ["analyze", SCRATCH + "/p3.txt", "--m", "6", "--json", "--engine", "proof"],
    ["analyze", SCRATCH + "/p3.txt", "--m", "6", "--engine", "proof"],
    ["analyze", SCRATCH + "/p3.txt", "--m", "6", "--engine", "search", "--seed", "3", "--iters", "40"],
    ["analyze", SCRATCH + "/m7k15.txt", "--m", "7", "--engine", "exhaustive", "--json"],
    ["analyze", SCRATCH + "/m7k22.txt", "--m", "7", "--engine", "exhaustive", "--threads", "2", "--json"],
    # four lanes, whose weights need uint16; two workers take two Gray steps each
    ["analyze", SCRATCH + "/m8k18.txt", "--m", "8", "--engine", "exhaustive", "--json"],
    ["analyze", SCRATCH + "/m8k18.txt", "--m", "8", "--engine", "exhaustive", "--threads", "2", "--json"],
    # 64 lanes: the block is capped at 2^15 combinations, so the Gray walk takes two steps
    ["analyze", SCRATCH + "/m12k16.txt", "--m", "12", "--engine", "exhaustive", "--json"],
    # more workers asked for than any host has cores
    ["analyze", SCRATCH + "/m6k24.txt", "--m", "6", "--engine", "exhaustive", "--threads", "64", "--json"],
    ["analyze", SCRATCH + "/m13k14.txt", "--m", "13", "--engine", "proof", "--json"],
    # {0} with the cosets of 1 and 3 mod 31; the cosets of 3 and 5, whose
    # dual's longest run, 29..6, wraps past n - 1
    ["analyze", SCRATCH + "/m5z0.txt", "--m", "5", "--engine", "proof", "--json"],
    ["analyze", SCRATCH + "/m5wrap.txt", "--m", "5", "--engine", "exhaustive", "--json"],
    # Z = {0}, one step of n: [31,30,2], whose dual run of 31 starts at 1;
    # Z_31 minus {0}: [31,1,31], one run of 30 after the gap at 0, dual {0}
    ["analyze", SCRATCH + "/m5zero.txt", "--m", "5", "--engine", "proof", "--json"],
    ["analyze", SCRATCH + "/m5nonzero.txt", "--m", "5", "--engine", "exhaustive", "--json"],
    ["export", "sqrt", "--m", "5", "--engine", "proof"],
    ["export", "sqrt", "--m", "5", "--engine", "exhaustive", "--threads", "2"],
    ["export", "sqrt", "--m", "7", "--choose", "21,27", "--engine", "search",
     "--depth", "3", "--iters", "20", "--seed", "5"],
    # the benchmark's depth-3 search on the [127,63] dual: one batch of 50
    # bases, scored in slices of 8
    ["analyze", SCRATCH + "/m7dual.txt", "--m", "7", "--engine", "search", "--seed", "11",
     "--iters", "50", "--depth", "3", "--json"],
    ["export", "even-m", "--m", "4", "--which", "C1", "--engine", "auto", "--budget", "2"],
    ["export", "even-m", "--m", "6", "--which", "C2", "--engine", "search", "--depth", "1"],
    # searches long enough to span several reduction batches on [1023,512] and [127,64]
    ["export", "two-prime", "--p", "5", "--engine", "search", "--iters", "20", "--depth", "2"],
    # the widest block, 16 lanes, through the depth-3 prefix walk
    ["export", "two-prime", "--p", "5", "--engine", "search", "--depth", "3", "--iters", "1"],
    ["export", "sqrt", "--m", "7", "--choose", "21,27", "--engine", "search", "--iters", "700", "--depth", "1"],
    # three reduction batches each: 85 + 85 + 30 bases of the four-lane
    # [255,129] code and 25 + 25 + 10 of the eight-lane [511,256] code
    ["export", "even-m", "--m", "8", "--which", "C1", "--engine", "search", "--depth", "2",
     "--iters", "200", "--seed", "8"],
    ["export", "weight-class", "--m", "9", "--i", "1", "--engine", "search", "--depth", "2",
     "--iters", "60", "--seed", "9"],
    ["export", "two-prime", "--p", "3", "--engine", "proof", "--output", SCRATCH + "/tp3.json"],
    ["export", "weight-class", "--m", "9", "--i", "1", "--output", SCRATCH + "/wc9.json"],
)

VERIFY = (
    ["verify-paper"],
    ["verify-paper", "--json"],
    ["verify-paper", "--all", "--json"],
    ["verify-paper", "--fixture", "example1"],
    ["verify-paper", "--fixture", "weight-class-m9-*", "--json"],
    ["verify-paper", "--fixture", "no-such-fixture"],
    ["verify-paper", "--fixture", "sqrt-*"],  # a glob skips the slow sqrt-m7
    ["verify-paper", "--fixture", "example2", "--json"],  # an exact id runs a slow fixture
)

FAMILY_NAMES = ("even-m", "two-prime", "odd-pq", "sqrt", "weight-class")

HELP = (
    [["--help"], ["analyze", "--help"], ["verify-paper", "--help"]]
    + [[command, family, "--help"] for command in ("construct", "export") for family in FAMILY_NAMES]
)

ERRORS = (
    [],
    ["frobnicate"],
    ["construct"],
    ["construct", "even-m", "--m", "5", "--which", "C1", "--json"],
    ["construct", "even-m", "--m", "6"],
    ["construct", "two-prime", "--p", "4", "--json"],
    ["construct", "odd-pq", "--p1", "5", "--p2", "3", "--json"],
    ["construct", "sqrt", "--m", "7", "--choose", "21,x"],
    ["construct", "sqrt", "--m", "7", "--choose", "21,22", "--json"],
    ["construct", "weight-class", "--m", "7", "--i", "0"],
    ["analyze", SCRATCH + "/m4.txt", "--m", "40"],
    ["analyze", SCRATCH + "/missing.txt", "--m", "4"],
    ["analyze", SCRATCH + "/m4.txt", "--m", "4", "--engine", "search", "--depth", "4"],
    ["analyze", SCRATCH + "/m4.txt", "--m", "4", "--engine", "search", "--iters", "0"],
    ["analyze", SCRATCH + "/m4.txt", "--m", "4", "--engine", "search", "--seed", "-1"],
    ["export", "two-prime", "--p", "3", "--engine", "exhaustive", "--budget", "10"],
    ["export", "sqrt", "--m", "7", "--choose", "21,27", "--engine", "proof"],
    ["export", "odd-pq", "--p1", "3", "--p2", "5", "--output", SCRATCH + "/no-such-dir/x.json"],
    ["analyze", SCRATCH + "/huge.txt", "--m", "4", "--engine", "proof"],
    ["construct", "sqrt", "--m", "7", "--choose", "21,21,27"],
    ["analyze", SCRATCH + "/unclosed.txt", "--m", "4"],
    ["construct", "odd-pq", "--p1", "3", "--p2", "11", "--json"],
    ["construct", "sqrt", "--m", "7", "--choose", "27"],
    ["construct", "sqrt", "--m", "7", "--choose", "19,21,27"],
)


def commands() -> list[list[str]]:
    """The fixed command list, in the order it is recorded."""
    out: list[list[str]] = [["cosets", "--m", "4"], ["cosets", "--m", "6"]]
    for fam in SMALL_FAMILIES:
        out.append(["construct"] + fam + ["--json"])
        out.append(["export"] + fam)
    for fam in SMALL_FAMILIES[::4]:
        out.append(["construct"] + fam)
        out.append(["construct"] + fam + ["--hex"])
        out.append(["construct"] + fam + ["--elements-only"])
    out.extend(LARGE)
    out.extend(ENGINE_RUNS)
    out.extend(VERIFY)
    out.extend(HELP)
    out.extend(ERRORS)
    return out


_SECONDS_JSON = re.compile(r'"seconds": [-+0-9.eE]+')
_SECONDS_HUMAN = re.compile(r"\(\d+\.\d+s\)")


def _mask(text: str) -> str:
    return _SECONDS_HUMAN.sub("(*s)", _SECONDS_JSON.sub('"seconds": "*"', text))


def _run(run_command, argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(STDIN)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = run_command(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
        except Exception as exc:  # an escaped error is an outcome; record it and go on
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def record(outdir: Path, run_command) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        # analyze reads residues from files: the [15,7] code, the empty set, two-prime
        # p = 3's [63,32], a [63,24] code, three codes of length 127 (one the sqrt-m7
        # dual), one of length 255, one of length 4095, one of length 8191, four of
        # length 31 and one residue past int64
        _, p3_residues, _ = _run(run_command, ["construct", "two-prime", "--p", "3", "--elements-only"])
        _, z7_residues, _ = _run(run_command, ["construct", "sqrt", "--m", "7", "--choose", "21,27",
                                               "--elements-only"])
        z7 = {int(x) for x in z7_residues.split()}
        dual7 = sorted(-x % 127 for x in range(127) if x not in z7)  # -(Z_n minus Z) mod n
        Path(scratch, "m4.txt").write_text(M4_RESIDUES, encoding="utf-8")
        Path(scratch, "empty.txt").write_text("", encoding="utf-8")
        Path(scratch, "p3.txt").write_text(p3_residues, encoding="utf-8")
        Path(scratch, "m7dual.txt").write_text(" ".join(map(str, dual7)), encoding="utf-8")
        Path(scratch, "m6k24.txt").write_text(_residues_outside(6, (1, 3, 5, 7)), encoding="utf-8")
        Path(scratch, "m7k15.txt").write_text(_residues_outside(7, (0, 1, 5)), encoding="utf-8")
        Path(scratch, "m7k22.txt").write_text(_residues_outside(7, (0, 1, 5, 9)), encoding="utf-8")
        Path(scratch, "m8k18.txt").write_text(_residues_outside(8, (1, 3, 85)), encoding="utf-8")
        Path(scratch, "m12k16.txt").write_text(_residues_outside(12, (1, 273)), encoding="utf-8")
        Path(scratch, "m13k14.txt").write_text(_residues_outside(13, (0, 1)), encoding="utf-8")
        Path(scratch, "m5z0.txt").write_text(_residues_outside(5, (5, 7, 11, 15)), encoding="utf-8")
        Path(scratch, "m5wrap.txt").write_text(_residues_outside(5, (0, 1, 7, 11, 15)), encoding="utf-8")
        Path(scratch, "m5zero.txt").write_text("0", encoding="utf-8")
        Path(scratch, "m5nonzero.txt").write_text(_residues_outside(5, (0,)), encoding="utf-8")
        Path(scratch, "unclosed.txt").write_text("1 2 4", encoding="utf-8")
        Path(scratch, "huge.txt").write_text("1 2 4 8 99999999999999999999999", encoding="utf-8")
        cmds = commands()
        for i, template in enumerate(cmds):
            argv = [a.replace(SCRATCH, scratch) for a in template]
            t0 = time.perf_counter()
            code, out, err = _run(run_command, argv)
            elapsed = time.perf_counter() - t0
            parts = [f"argv: {' '.join(template)}\n", f"exit: {code}\n",
                     "--- stderr\n", err.replace(scratch, SCRATCH), "--- stdout\n", _mask(out)]
            if "--output" in argv:
                target = Path(argv[argv.index("--output") + 1])
                written = target.read_text(encoding="utf-8") if target.exists() else "<none>\n"
                parts += ["--- output file\n", written]
            slug = re.sub(r"[^A-Za-z0-9.,=-]+", "_", "_".join(template).replace(SCRATCH, ""))
            (outdir / f"{i:03d}{'_' + slug if slug else ''}.txt").write_text("".join(parts), encoding="utf-8")
            print(f"{i:3d} exit {code} {elapsed:7.2f}s  {' '.join(template)}", file=sys.stderr)
    return len(cmds)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the bincyclic package")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    sys.path.insert(0, str(args.src.resolve()))
    from bincyclic.cli import run_command

    count = record(args.outdir, run_command)
    print(f"{count} commands recorded in {args.outdir}")


if __name__ == "__main__":
    main()
