"""The JSON output of every benchmark CLI call is locked to recorded digests.

``tests/data/cli_digests.json`` maps each call of ``perfbench/workloads.py``'s
``cli_calls()`` (run with ``--seed 1 --json`` on its fixture) to the digest
``perfbench/worker.py`` takes of its report: the JSON output without its
``timing_ms`` fields, plus the exit code.  A refactor that changes any
number, key or verdict any CLI command prints fails here.

After a deliberate change of output, regenerate the file from the
repository root with::

    PYTHONPATH=src python tests/test_cli_digests.py > tests/data/cli_digests.json
"""

import json
import sys
from pathlib import Path

from charmod import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from worker import digest  # noqa: E402


def current_digests():
    """{call: (digest, error or None)} for every CLI call at ``SEED``."""
    out = {}
    for item in workloads.cli_items(SEED, ROOT):
        report, error = item.run()
        out[item.id] = (digest(report), error)
    return out


def test_cli_output_matches_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert len(want) == len(workloads.cli_calls()) == 66
    assert sorted(got) == sorted(want)
    assert {call: err for call, (_, err) in got.items() if err} == {}
    changed = sorted(call for call, (d, _) in got.items() if d != want[call])
    assert changed == []


def test_main_twice_gives_independent_reports():
    # main() builds its parser once per process; a second call with other
    # flags must not see the first call's arguments
    want = json.loads(DIGESTS.read_text())
    items = {item.id: item for item in workloads.cli_items(SEED, ROOT)}
    for call in ("tmod e2 --module k", "tmod e2 --module R"):
        report, error = items[call].run()
        assert error is None, error
        assert digest(report) == want[call], call
    assert cli._build_parser() is cli._build_parser()


if __name__ == "__main__":
    digests = {call: d for call, (d, _) in sorted(current_digests().items())}
    print(json.dumps(digests, indent=1, sort_keys=True))
