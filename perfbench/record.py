"""Write perfbench/expected.json from the program at the current commit.

    python3 perfbench/record.py

Runs every operation of every workload once with seed 0 and records, per
instance family, the exit code and the verdict strings, and per operation
the SHA-256 of ``render_json``.  The families listed in ERRORS are fixed
by the report contract (exit 3 on a cap, exit 4 on bad input) and are not
taken from the program.  Re-record only when a change is meant to alter
reports, and say so in that change.
"""

import json
import os
import sys

import checks
import run

ERRORS = {
    "k6-capped": {"exit": 3, "error": "cap"},
    "bad-genus": {"exit": 4, "error": "parse"},
    "zero-charpoly": {"exit": 4, "error": "parse"},
}


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    from devissage import cli

    families = dict(ERRORS)
    digests = {}
    for workload in run.WORKLOADS.values():
        for op in workload.ops(cli, 0):
            try:
                code, report = cli.run(op.config)
            except Exception as exc:
                print(f"{op.digest_key}: raised {type(exc).__name__}: {exc}")
                continue
            text = cli.render_json(report)
            digests[op.digest_key] = checks.digest(text)
            if op.family in ERRORS:
                continue
            outcome = {"exit": code,
                       "verdicts": checks.verdict_strings(report)}
            if families.setdefault(op.family, outcome) != outcome:
                sys.exit(f"{op.digest_key}: outcome {outcome} differs from "
                         f"{families[op.family]} for the same family")
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"families": families, "seed0_sha256": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    for family, outcome in sorted(families.items()):
        print(family, outcome)


if __name__ == "__main__":
    main()
