"""The reference-fixture harness and the JSON report surface.

`verify-paper` on the command line wraps exactly this: every fixture is
rebuilt from its construction parameters and each recorded value is
re-checked.  One fixture intentionally records a count the construction
cannot produce; its report shows how mismatches are surfaced.
"""

import json

from bincyclic import (
    assemble,
    build_sqrt_complement,
    describe,
    run_fixture,
    select_fixtures,
)


def main():
    for fixture_id in ("example1", "table3-p3", "weight-class-m9-i0"):
        [fx] = select_fixtures(fixture_id)
        report = run_fixture(fx)  # vars(report) is the fixture's --json object
        flag = "ok" if report.ok else "MISMATCH"
        print(f"[{flag}] {report.id}: {len(report.rows)} checks "
              f"in {report.seconds:.2f}s")
        for row in report.rows:
            if not row["ok"]:
                print(f"    {row['code']}.{row['field']}: expected {row['expected']!r}, "
                      f"got {row['actual']!r}")
        if not report.ok and fx.note:
            print(f"    note: {fx.note}")

    # the JSON document the CLI's `export` subcommand writes
    z, audit = build_sqrt_complement(5)
    payload = {
        "schema": 1,
        "code": describe(z, generator=assemble(z).generator),
        "audit": vars(audit),
    }
    print("\nexport payload for the m=5 block construction:")
    # describe gives the defining set as its int64 array; json takes its list
    print(json.dumps(payload, indent=2, default=lambda array: array.tolist())[:400], "...")


if __name__ == "__main__":
    main()
