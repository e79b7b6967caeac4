"""End-to-end command-line behavior via run_command (and, where a traceback
must not show, through ``python -m bincyclic.cli``)."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bincyclic
from bincyclic import cli, fixtures
from bincyclic.cli import _build_parser, _emit_json, run_command
from bincyclic.codecore import assemble, describe
from bincyclic.constructions import FAMILIES, DefiningSet, build_even_m
from bincyclic.distance import proven_min_distance
from bincyclic.fixtures import EXAMPLE1_Z2, FIXTURES, SQRT_M5_Z, run_fixture, select_fixtures
from bincyclic.gf2 import FieldContext, make_field, poly_to_hex

# One small instance per family: its CLI arguments and the builder keywords
# they must turn into.
SMALL_FAMILY_CASES = {
    "even-m": (["--m", "4", "--swap-pairs"], {"m": 4, "swap_pairs": True}),
    "two-prime": (["--p", "3"], {"p": 3}),
    "odd-pq": (["--p1", "3", "--p2", "5"], {"p1": 3, "p2": 5}),
    "sqrt": (["--m", "7", "--choose", "21,27"], {"m": 7, "overrides": (21, 27)}),
    "weight-class": (["--m", "9", "--i", "1"], {"m": 9, "i": 1}),
}

# Every key of each family's JSON audit, in the order it is written.
AUDIT_KEYS = {
    "even-m": ["construction", "m", "t", "b_preimage", "t_preimage", "g_preimage",
               "residual_pairs", "p1_preimage", "p2_preimage", "s1_size", "s2_size",
               "swap_pairs"],
    "two-prime": ["construction", "p", "m", "d0_max", "f_leaders", "sigma0", "sigma_lo",
                  "sigma", "case", "chosen_full_leaders", "chosen_small_leaders",
                  "forbidden_leaders", "tail_first", "tail_last"],
    "odd-pq": ["construction", "p1", "p2", "m", "d0_max", "base_small_leaders", "f_leaders",
               "sigma0", "sigma_lo", "sigma", "case", "chosen_mid_leaders",
               "chosen_full_leaders", "forbidden_leaders", "tail_first", "tail_last"],
    "sqrt": ["construction", "m", "block_top", "t_leaders", "neg_t_leaders",
             "residual_pairs", "selected_leaders", "overrides"],
    "weight-class": ["construction", "m", "i", "block_top", "t", "u", "s", "v", "a_leaders",
                     "b0_leaders", "intersection_leaders", "excluded_top"],
}


def _listed(report: dict) -> dict:
    """``describe``'s dict as JSON reads it back: the defining set's int64
    array as a list."""
    return {**report, "defining_set": report["defining_set"].tolist()}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


M4_COSETS_CSV = (
    "leader,size,members\n"
    "0,1,0\n"
    "1,4,1;2;4;8\n"
    "3,4,3;6;9;12\n"
    "5,2,5;10\n"
    "7,4,7;11;13;14\n"
)


class TestCosets:
    def test_m4_csv_table(self, capsys):
        assert run_command(["cosets", "--m", "4"]) == 0
        assert capsys.readouterr().out == M4_COSETS_CSV

    def test_bad_m_is_a_domain_error(self, capsys):
        assert run_command(["cosets", "--m", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("m", ["-1", "25"])
    def test_analyze_bad_m_is_a_domain_error(self, m, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run_command(["analyze", "--m", m]) == 1
        assert capsys.readouterr().err == f"error: need 2 <= m <= 24, got {m}\n"


class TestConstruct:
    def test_sqrt_m5_elements_only(self, capsys):
        assert run_command(["construct", "sqrt", "--m", "5", "--elements-only"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        values = [int(line) for line in out.splitlines()]
        assert values == sorted(values)
        assert tuple(values) == SQRT_M5_Z
        # parseable straight back into the identical set
        assert DefiningSet.from_elements(31, values).as_set() == set(SQRT_M5_Z)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 16])
    def test_elements_only_in_chunks(self, chunk, capsys):
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert run_command(["construct", "sqrt", "--m", "5", "--elements-only"]) == 0
        assert capsys.readouterr().out == "".join(f"{x}\n" for x in SQRT_M5_Z)

    def test_even_m_json_payload(self, capsys):
        rc = run_command(
            ["construct", "even-m", "--m", "4", "--which", "C2", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["code"]["defining_set"] == list(EXAMPLE1_Z2)
        assert payload["code"]["dimension"] == 7
        assert payload["audit"]["construction"] == "even-m"

    def test_json_report_matches_library_exactly(self, capsys):
        run_command(["construct", "even-m", "--m", "6", "--which", "C1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        z1, _, audit = build_even_m(6)
        assert payload["code"] == _listed(describe(z1))
        assert payload["audit"] == json.loads(json.dumps(vars(audit)))

    @pytest.mark.parametrize("family", list(SMALL_FAMILY_CASES))
    def test_every_family_json_matches_library(self, family, capsys):
        argv, params = SMALL_FAMILY_CASES[family]
        *sets, audit = FAMILIES[family].builder(**params)
        for label, zset in zip(FAMILIES[family].labels, sets):
            which = ["--which", label] if len(sets) > 1 else []
            assert run_command(["construct", family, *argv, *which, "--json"]) == 0
            printed = capsys.readouterr().out
            payload = json.loads(printed)
            assert payload["code"] == _listed(describe(zset))
            assert payload["audit"] == json.loads(json.dumps(vars(audit)))
            assert list(payload["audit"]) == AUDIT_KEYS[family]
            # export with its default engine writes the same envelope, byte for byte
            assert run_command(["export", family, *argv, *which]) == 0
            assert capsys.readouterr().out == printed

    def test_family_table_is_the_one_list_of_families(self):
        commands = _subcommands(_build_parser())
        for command in ("construct", "export"):
            assert set(_subcommands(commands[command])) == set(FAMILIES)
        assert set(FAMILIES) == {fx.construction for fx in FIXTURES} == set(SMALL_FAMILY_CASES)

    def test_human_summary(self, capsys):
        assert run_command(["construct", "two-prime", "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert "n                : 63  (m = 6)" in out
        assert "dimension        : 32" in out
        assert "bch lower bound  : 12" in out
        assert "dual bch bound   : 7" in out

    def test_sqrt_choose_flag(self, capsys):
        rc = run_command(
            ["construct", "sqrt", "--m", "7", "--choose", "21,27", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["selected_leaders"] == [27, 21]

    def test_bad_choice_is_a_domain_error(self, capsys):
        rc = run_command(["construct", "sqrt", "--m", "7", "--choose", "19,27"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_choice_is_a_domain_error(self, capsys):
        assert run_command(["construct", "sqrt", "--m", "7", "--choose", "21,21,27"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: overrides [21] are named more than once\n"
        assert captured.out == ""

    def test_weight_class_mismatched_parity(self, capsys):
        assert run_command(["construct", "weight-class", "--m", "8", "--i", "0"]) == 1


class TestAnalyze:
    def test_empty_set_is_the_full_space(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert run_command(["analyze", "--m", "4"]) == 0
        out = capsys.readouterr().out
        assert "dimension        : 15" in out
        assert "exact distance   : 1" in out

    def test_stdin_comma_separated(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1, 2, 4\n"))
        assert run_command(["analyze", "--m", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code"]["defining_set"] == [1, 2, 4]
        assert payload["distance"]["exact_distance"] == 3

    def test_file_input_round_trips_construct_output(self, capsys, tmp_path):
        run_command(["construct", "sqrt", "--m", "5", "--elements-only"])
        elements = capsys.readouterr().out
        src = tmp_path / "z.txt"
        src.write_text(elements)
        assert run_command(["analyze", str(src), "--m", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["code"]["defining_set"] == list(SQRT_M5_Z)
        assert payload["code"]["dimension"] == 16
        assert payload["distance"]["exact_distance"] == 7

    def test_hex_display_matches_library_encoding(self, capsys, monkeypatch):
        z = DefiningSet.from_elements(15, (1, 2, 4, 8, 5, 10))
        expected_hex = poly_to_hex(assemble(z).generator)
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 4 8 5 10\n"))
        assert run_command(["analyze", "--m", "4", "--hex"]) == 0
        out = capsys.readouterr().out
        assert f"generator        : {expected_hex}" in out

    def test_not_closed_under_doubling_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        assert run_command(["analyze", "--m", "4"]) == 1
        assert "doubling" in capsys.readouterr().err

    def test_inconsistent_field_tables_exit_1(self, capsys, monkeypatch):
        # an antilog table that does not follow the log table puts a
        # coefficient outside GF(2) into a minimal polynomial
        ctx = make_field(4)
        antilog = ctx.antilog_table.copy()
        antilog[[1, 2]] = antilog[[2, 1]]
        broken = FieldContext(m=4, modulus=ctx.modulus, log_table=ctx.log_table,
                              antilog_table=antilog)
        monkeypatch.setattr("bincyclic.codecore.make_field", lambda m: broken)
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 4 8 3 6 9 12\n"))
        assert run_command(["analyze", "--m", "4"]) == 1
        assert "outside GF(2)" in capsys.readouterr().err

    def test_residue_past_int64_is_a_domain_error(self):
        src = Path(bincyclic.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "bincyclic.cli", "analyze", "--m", "4", "--engine", "proof"],
            input="1 2 4 8 99999999999999999999999\n", capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert proc.stderr == "error: elements outside Z_15\n"

    def test_missing_file_is_a_domain_error(self, capsys):
        assert run_command(["analyze", "/nonexistent/z.txt", "--m", "4"]) == 1

    def test_search_engine_flags(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 4 8\n"))
        rc = run_command(
            ["analyze", "--m", "4", "--engine", "search",
             "--seed", "9", "--iters", "50", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"]["method"] == "search"
        assert payload["distance"]["seed"] == 9
        assert payload["distance"]["iterations"] == 50

    def test_negative_seed_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 4 8\n"))
        assert run_command(["analyze", "--m", "4", "--engine", "search", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative int\n"

    def test_search_lines_are_the_json_values(self, capsys, monkeypatch):
        argv = ["analyze", "--m", "5", "--engine", "search", "--seed", "3", "--iters", "20"]
        residues = ",".join(map(str, SQRT_M5_Z))
        monkeypatch.setattr("sys.stdin", io.StringIO(residues))
        assert run_command(argv + ["--json"]) == 0
        dist = json.loads(capsys.readouterr().out)["distance"]
        monkeypatch.setattr("sys.stdin", io.StringIO(residues))
        assert run_command(argv) == 0
        out = capsys.readouterr().out
        assert dist["exact_distance"] is None and "exact distance" not in out
        assert f"best weight found: {dist['best_weight_found']}\n" in out
        assert f"proven bound     : {dist['proven_lower_bound']}\n" in out
        assert f"search budget    : seed {dist['seed']}, {dist['iterations']} iterations\n" in out
        assert (dist["seed"], dist["iterations"]) == (3, 20)

    def test_proof_engine_ignores_budget_and_threads(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, SQRT_M5_Z))))
        rc = run_command(
            ["analyze", "--m", "5", "--engine", "proof", "--budget", "1",
             "--threads", "3", "--json"]
        )
        assert rc == 0
        dist = json.loads(capsys.readouterr().out)["distance"]
        assert dist["method"] == "information-weight"
        assert dist["exact_distance"] == dist["proven_lower_bound"] == 7
        assert dist["certificate"] == {
            "enumerated_weight": 3, "inequality": "floor((7-1)*16/31) = 3 <= 3",
        }

    def test_proof_engine_human_output(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 4 8"))
        assert run_command(["analyze", "--m", "4", "--engine", "proof"]) == 0
        out = capsys.readouterr().out
        assert "distance engine  : information-weight" in out
        assert "exact distance   : 3" in out
        assert "certificate      : floor((3-1)*11/15) = 1 <= 1" in out

    def test_proof_certificate_is_the_json_object(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(",".join(map(str, SQRT_M5_Z))))
        assert run_command(["analyze", "--m", "5", "--engine", "proof", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)["distance"]["certificate"]
        code = assemble(DefiningSet.from_elements(31, SQRT_M5_Z))
        assert vars(proven_min_distance(code).certificate) == printed

    @pytest.mark.parametrize("engine,function", [
        ("auto", "auto_distance"), ("exhaustive", "exact_min_distance"),
        ("search", "low_weight_search"), ("proof", "proven_min_distance"),
    ])
    def test_each_engine_is_looked_up_by_module_name(self, engine, function, capsys, monkeypatch):
        # a wrapper put in place of the module attribute (as perfbench's
        # tracer does) must be the one that runs
        real = getattr(cli, function)
        calls = []

        def spy(code, **kwargs):
            calls.append(code.n)
            return real(code, **kwargs)

        monkeypatch.setattr(cli, function, spy)
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 4 8\n"))
        assert run_command(["analyze", "--m", "4", "--engine", engine, "--iters", "20"]) == 0
        assert calls == [15]
        assert "distance engine  :" in capsys.readouterr().out

    def test_engine_choices_come_from_the_engine_table(self):
        commands = _subcommands(_build_parser())
        [analyze] = [a for a in commands["analyze"]._actions if a.dest == "engine"]
        [export] = [a for a in _subcommands(commands["export"])["two-prime"]._actions
                    if a.dest == "engine"]
        assert list(cli._ENGINES) == ["auto", "exhaustive", "search", "proof"]
        assert (analyze.choices, analyze.default) == (list(cli._ENGINES), "auto")
        assert (export.choices, export.default) == (["none", *cli._ENGINES], "none")


class TestVerifyPaper:
    def test_example1_passes(self, capsys):
        assert run_command(["verify-paper", "--fixture", "example1"]) == 0
        out = capsys.readouterr().out
        assert "[ok  ] example1" in out
        assert "1 fixture(s): 1 passed, 0 failed" in out

    def test_table3_p3_passes(self, capsys):
        rc = run_command(["verify-paper", "--fixture", "table3-p3", "--threads", "4"])
        assert rc == 0
        assert "1 passed, 0 failed" in capsys.readouterr().out

    def test_unknown_fixture_warns_but_succeeds(self, capsys):
        assert run_command(["verify-paper", "--fixture", "no-such-thing"]) == 0
        captured = capsys.readouterr()
        assert "warning: no fixture matches" in captured.err
        assert captured.out == ""

    def test_known_mismatch_reports_and_exits_2(self, capsys):
        rc = run_command(["verify-paper", "--fixture", "weight-class-m9-i0"])
        assert rc == 2
        out = capsys.readouterr().out
        assert "[FAIL] weight-class-m9-i0" in out
        assert "size: expected 255, got 264" in out
        assert "note:" in out

    def test_json_report_structure(self, capsys):
        rc = run_command(["verify-paper", "--fixture", "sqrt-m5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        [fx] = payload["fixtures"]
        assert fx["id"] == "sqrt-m5" and fx["ok"] is True
        assert all(row["ok"] for row in fx["rows"])
        fields = {row["field"] for row in fx["rows"]}
        assert "dimension" in fields and "distance" in fields

    def test_json_rows_have_the_report_keys_in_order(self, capsys):
        assert run_command(["verify-paper", "--fixture", "weight-class-m9-*", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        rows = [row for fx in payload["fixtures"] for row in fx["rows"]]
        assert rows and not all(row["ok"] for row in rows)
        for row in rows:
            assert list(row) == ["code", "field", "expected", "actual", "ok"]

    @pytest.mark.parametrize("fixture_id, failing", [
        ("example1", []),
        ("weight-class-m9-i0", [("C", "dimension", 256, 247), ("C", "size", 255, 264),
                                ("C-dual", "dimension", 255, 264)]),
    ])
    def test_report_is_the_json_object(self, capsys, fixture_id, failing):
        [fx] = select_fixtures(fixture_id)
        report = vars(run_fixture(fx))
        rc = run_command(["verify-paper", "--fixture", fixture_id, "--json"])
        assert rc == (2 if failing else 0)
        [printed] = json.loads(capsys.readouterr().out)["fixtures"]
        assert list(report) == ["id", "ok", "seconds", "rows"]
        assert report["ok"] == (not failing)
        assert [(row["code"], row["field"], row["expected"], row["actual"])
                for row in report["rows"] if not row["ok"]] == failing
        report["seconds"] = printed["seconds"] = None
        assert json.loads(json.dumps(report)) == printed

    ALL_IDS = [fx.fixture_id for fx in FIXTURES]
    FAST_IDS = [fx.fixture_id for fx in FIXTURES if not fx.slow]

    @pytest.mark.parametrize("pattern, include_slow, want", [
        (None, False, FAST_IDS),
        (None, True, ALL_IDS),
        ("sqrt-*", False, ["sqrt-m5"]),  # a glob never reaches a slow fixture
        ("sqrt-*", True, ["sqrt-m5", "sqrt-m7"]),
        ("sqrt-m7", False, ["sqrt-m7"]),  # an exact id does
        ("example?", False, ["example1"]),
        ("example?", True, ["example1", "example2"]),
        ("no-such-fixture", True, []),
    ])
    def test_select_fixtures(self, pattern, include_slow, want):
        assert {"example2", "sqrt-m7"} <= set(self.ALL_IDS) - set(self.FAST_IDS)
        got = select_fixtures(pattern, include_slow=include_slow)
        assert [fx.fixture_id for fx in got] == want

    def test_search_weight_rows(self, monkeypatch):
        [fx] = select_fixtures("sqrt-m5")
        want = {"C": 7, "C-dual": 8}
        codes = tuple(dataclasses.replace(exp, search_weight=want[exp.label]) for exp in fx.codes)
        monkeypatch.setattr(fixtures, "SEARCH_RUN", (1, 20, 2))
        report = run_fixture(dataclasses.replace(fx, codes=codes))
        assert report.ok
        assert [row for row in report.rows if row["field"].startswith("search_weight")] == [
            {"code": label, "field": "search_weight (seed 1, 20 iters, depth 2)",
             "expected": weight, "actual": weight, "ok": True}
            for label, weight in want.items()
        ]

    @pytest.mark.parametrize("values, text", [
        ((3, 1, 2), "1..3"),
        ((9, 1, 5), "{1,5,9}"),
        (tuple(range(18, -1, -2)), "{0,2,...,18} (10 residues)"),
    ])
    def test_span_forms(self, values, text):
        assert fixtures._span(values) == text

    def test_glob_pattern_selection(self, capsys):
        rc = run_command(["verify-paper", "--fixture", "even-m*"])
        assert rc == 0
        out = capsys.readouterr().out
        for m in (6, 8, 10, 12):
            assert f"even-m{m}" in out


class TestExport:
    def test_default_engine_skips_distance(self, capsys):
        rc = run_command(["export", "even-m", "--m", "4", "--which", "C1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert "distance" not in payload
        assert payload["code"]["generator_bits"] is None
        assert payload["audit"]["m"] == 4

    def test_exhaustive_engine_includes_distance(self, capsys):
        rc = run_command(
            ["export", "even-m", "--m", "4", "--which", "C1",
             "--engine", "exhaustive"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"]["exact_distance"] == 3
        assert payload["code"]["generator_bits"] is not None

    def test_proof_engine_includes_distance_and_certificate(self, capsys):
        rc = run_command(["export", "two-prime", "--p", "3", "--engine", "proof"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"]["exact_distance"] == 12
        assert payload["distance"]["certificate"]["enumerated_weight"] == 5
        assert payload["code"]["generator_bits"] is not None

    def test_proof_engine_refuses_a_proof_past_its_limit(self, capsys):
        # [127,64] with run bound 15: any proof scores all C(64, <= 7) messages
        rc = run_command(
            ["export", "sqrt", "--m", "7", "--choose", "21,27", "--engine", "proof"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: proving the distance of this [127,64] code scores every message of "
            "information weight <= 7, more than the limit of 2^29 combinations\n"
        )

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc = run_command(
            ["export", "sqrt", "--m", "5", "--output", str(target)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["schema"] == 1
        assert payload["code"]["defining_set"] == list(SQRT_M5_Z)
        # the file holds the bytes the same command prints, laid out as json's indent=2
        assert run_command(["export", "sqrt", "--m", "5"]) == 0
        printed = capsys.readouterr().out
        assert target.read_bytes() == printed.encode("utf-8")
        assert printed == json.dumps(payload, indent=2) + "\n"

    def test_same_distance_as_analyze_on_the_elements(self, capsys, tmp_path):
        assert run_command(["construct", "two-prime", "--p", "3", "--elements-only"]) == 0
        src = tmp_path / "z.txt"
        src.write_text(capsys.readouterr().out)
        assert run_command(["analyze", str(src), "--m", "6", "--json", "--engine", "proof"]) == 0
        analyzed = json.loads(capsys.readouterr().out)
        assert run_command(["export", "two-prime", "--p", "3", "--engine", "proof"]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert analyzed["distance"] == exported["distance"]
        assert analyzed["distance"]["exact_distance"] == 12
        assert "audit" not in analyzed and "audit" in exported

    def test_unwritable_output_is_a_domain_error(self, capsys):
        rc = run_command(
            ["export", "sqrt", "--m", "5", "--output", "/nonexistent/dir/out.json"]
        )
        assert rc == 1


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**90),
    st.integers(min_value=-(2**90), max_value=-1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(["caf\u00e9", "\x00\x1f\t\n\"\\", "\u2028\ud7ff\U0001f600", "1, 2", "-"]),
)
_INT_LISTS = st.lists(st.integers(min_value=-(2**70), max_value=2**70))
# an int list with one bool or float mixed in must not take the all-int path
_MIXED_INT_LISTS = st.builds(
    lambda ints, odd, at: ints[:at] + [odd] + ints[at:],
    _INT_LISTS,
    st.one_of(st.booleans(), st.floats(allow_nan=True, allow_infinity=True)),
    st.integers(min_value=0, max_value=20),
)
# lists of short int lists, such as the audits' residual pairs; inner lists may be empty
_INT_ROWS = st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=3)
_INT_LIST_LISTS = st.lists(_INT_ROWS | _INT_ROWS.map(tuple), max_size=6)
# a list of int lists with one other item mixed in must not take the nested path
_MIXED_INT_LIST_LISTS = st.builds(
    lambda rows, odd, at: rows[:at] + [odd] + rows[at:],
    _INT_LIST_LISTS,
    st.one_of(_JSON_SCALARS, _MIXED_INT_LISTS, st.lists(_INT_LIST_LISTS, max_size=2)),
    st.integers(min_value=0, max_value=6),
)
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
_PAYLOADS = st.recursive(
    _JSON_SCALARS | _INT_LISTS | _INT_LISTS.map(tuple) | _MIXED_INT_LISTS
    | _INT_LIST_LISTS | _MIXED_INT_LIST_LISTS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=5),
        st.lists(st.tuples(children, children), max_size=4),
    ),
    max_leaves=20,
)

# int64 arrays, the form of a defining set, nested as lists are
_INT64_ARRAYS = arrays(np.int64, st.integers(min_value=0, max_value=12))
_ARRAY_PAYLOADS = st.recursive(
    _INT64_ARRAYS | _JSON_SCALARS | _INT_LISTS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_JSON_KEYS, children, max_size=4),
    ),
    max_leaves=10,
)
# every int64 value on each side of a power of ten, and the type's ends
_INT64_EDGES = np.array(
    sorted({s * v for k in range(19) for v in (10**k - 1, 10**k) for s in (1, -1)}
           | {-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2}),
    dtype=np.int64,
)


def _array_as_list(array: np.ndarray) -> list:
    """``json.dumps``'s ``default`` for the int64 arrays that ``_emit_json``
    writes as lists."""
    return array.tolist()


def _assert_emits_indented_json(payload, to_file: bool = True) -> None:
    """``_emit_json`` writes exactly ``json.dumps(payload, indent=2)`` and a
    newline, to stdout and (with ``to_file``) to an ``--output`` file; an
    int64 array is written as its list."""
    want = json.dumps(payload, indent=2, default=_array_as_list) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(payload)
    assert out.getvalue() == want
    if to_file:
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp, "out.json")
            _emit_json(payload, str(target))
            assert target.read_bytes() == want.encode("utf-8")


class _Discard:
    """A stdout that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)


class TestEmitJson:
    @settings(max_examples=150, deadline=None)
    @given(_PAYLOADS)
    def test_same_text_as_the_indenting_encoder(self, payload):
        _assert_emits_indented_json(payload)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(payload=_PAYLOADS)
    def test_same_text_in_small_chunks(self, chunk, payload):
        with mock.patch.object(cli, "_CHUNK", chunk):
            _assert_emits_indented_json(payload, to_file=False)

    @pytest.mark.parametrize(
        "nested, last",
        [(False, None), (False, True), (False, "1, 2"),
         (True, None), (True, []), (True, [0, "1, 2"]), (True, [0, True])],
        ids=["ints", "ints-true-last", "ints-string-last",
             "rows", "rows-empty-last", "rows-string-in-last", "rows-true-in-last"],
    )
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_lists_at_the_chunk_boundary(self, offset, nested, last):
        length = cli._CHUNK + offset
        items = [[i, -i] for i in range(length)] if nested else list(range(-3, length - 3))
        if last is not None:
            items[-1] = last
        _assert_emits_indented_json({"items": items, "after": [items[-2:], 1]}, to_file=False)

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(max_examples=60, deadline=None)
    @given(payload=_ARRAY_PAYLOADS)
    def test_int64_arrays_in_small_chunks(self, chunk, payload):
        with mock.patch.object(cli, "_CHUNK", chunk):
            _assert_emits_indented_json(payload, to_file=False)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_int64_array_at_the_chunk_boundary(self, offset):
        values = np.resize(_INT64_EDGES, cli._CHUNK + offset)
        _assert_emits_indented_json({"items": values, "after": [values[-2:], 1]}, to_file=False)

    def test_every_digit_count_and_sign(self):
        for values in (_INT64_EDGES, _INT64_EDGES[::-1], _INT64_EDGES[_INT64_EDGES >= 0]):
            _assert_emits_indented_json({"code": {"defining_set": values}}, to_file=False)
            assert cli._joined_ints(values, "\n") == "\n".join(map(str, values.tolist()))

    def test_empty_int64_array_is_an_empty_list(self):
        empty = np.array([], dtype=np.int64)
        _assert_emits_indented_json({"defining_set": empty, "rows": [empty, [empty]]})
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit_json({"defining_set": empty})
        assert out.getvalue() == '{\n  "defining_set": []\n}\n'

    @pytest.mark.parametrize("array", [
        np.arange(3, dtype=np.int32), np.arange(3, dtype=np.uint64), np.arange(3.0),
        np.array([True]), np.arange(4, dtype=np.int64).reshape(2, 2), np.array(5, dtype=np.int64),
        np.arange(3, dtype=">i8" if sys.byteorder == "little" else "<i8"),
        np.array([], dtype=np.int32),
    ], ids=["int32", "uint64", "float64", "bool", "2-d", "0-d", "swapped-int64", "empty-int32"])
    def test_other_arrays_are_refused_as_json_refuses_them(self, array):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps({"values": array}, indent=2)
        with pytest.raises(TypeError, match="not JSON serializable"), \
                contextlib.redirect_stdout(_Discard()):
            _emit_json({"values": array})

    def test_memory_is_bounded_by_one_chunk(self):
        # 2^20 ints and 2^17 int pairs make 10 MB and 4 MB of indented text;
        # holding the document whole (about 33 MB with its flat copies)
        # fails the bound, one chunk's encoding and re-indenting (about
        # 3 MB for 2^15 pairs) passes it.  2^21 int64 residues mod 2^22 - 1
        # make 29 MB of indented text; writing them one chunk of rows, mask
        # and text at a time peaks at about 3 MB.
        payloads = (
            lambda: {"ints": list(range(2**20)), "pairs": [[i, i + 1] for i in range(2**17)]},
            lambda: {"code": {"defining_set": 2 * np.arange(2**21, dtype=np.int64)}},
        )
        for make_payload in payloads:
            payload = make_payload()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(_Discard()):
                    _emit_json(payload)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB while writing {list(payload)}"


def _help_options(argv: list[str], capsys) -> set[str]:
    """The long options named in the help text of ``argv``."""
    with pytest.raises(SystemExit) as exc:
        run_command([*argv, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))


class TestHelp:
    @pytest.mark.parametrize("family", list(SMALL_FAMILY_CASES))
    def test_construct_offers_output_forms_not_engines(self, family, capsys):
        options = _help_options(["construct", family], capsys)
        assert {"--json", "--hex", "--elements-only"} <= options
        assert not options & {"--engine", "--output"}

    @pytest.mark.parametrize("family", list(SMALL_FAMILY_CASES))
    def test_export_offers_engines_and_a_file_not_output_forms(self, family, capsys):
        options = _help_options(["export", family], capsys)
        assert {"--engine", "--output"} <= options
        assert not options & {"--json", "--hex", "--elements-only"}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bogus"],
            ["cosets"],                      # missing required --m
            ["cosets", "--bogus"],
            ["construct"],                   # missing family
            ["construct", "sqrt"],           # missing --m
            ["construct", "even-m", "--m", "4"],  # missing --which
            ["analyze"],                     # missing --m
            ["construct", "weight-class", "--m", "9", "--i", "2"],
            ["construct", "sqrt", "--m", "7", "--choose", "21,x"],
        ],
    )
    def test_exit_64(self, argv, capsys):
        assert run_command(argv) == 64
        assert capsys.readouterr().err != ""

    def test_no_command_prints_help(self, capsys):
        assert run_command([]) == 64
        assert "usage" in capsys.readouterr().out.lower()
