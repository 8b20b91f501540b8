"""The battery reports of the benchmark are locked to recorded digests.

``tests/data/battery_digests.json`` maps each item of ``perfbench/
workloads.py``'s ``battery_items(1)`` (the acceptance battery, variables
rescaled by seed 1) to the digest ``perfbench/worker.py`` takes of its
``corpus_battery`` report.  A change to the engine that moves any verdict,
Betti number, presentation size or ``iso_probe`` trial index in the battery
fails here.

After a deliberate change of output, regenerate the file from the
repository root with::

    PYTHONPATH=src python tests/test_battery_digests.py > tests/data/battery_digests.json
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "battery_digests.json"
SEED = 1

sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from worker import digest  # noqa: E402


def current_digests():
    """{item id: (digest, error or None)} for every battery item at ``SEED``."""
    out = {}
    for item in workloads.battery_items(SEED):
        report, error = item.run()
        out[item.id] = (digest(report), error)
    return out


def test_battery_output_matches_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert len(want) == workloads.BATTERY_COUNT == 50
    assert sorted(got) == sorted(want)
    assert {item: err for item, (_, err) in got.items() if err} == {}
    changed = sorted(item for item, (d, _) in got.items() if d != want[item])
    assert changed == []


if __name__ == "__main__":
    digests = {item: d for item, (d, _) in sorted(current_digests().items())}
    print(json.dumps(digests, indent=1, sort_keys=True))
