"""The ``tools/sweep.py`` corpus gives, on this tree, the outputs frozen in
``tests/data/sweep_digests.json``.

The file holds one sha256 per group of sweep records, with the group's record
count, in corpus order: a group is one library function x curve family, or one
CLI subcommand (its ``--help`` included, at ``COLUMNS=80``).  Each record is a
call's ``float.hex`` values or its exception's class and text, or an
invocation's exit code and the digests of its stdout and stderr.

The digests hold on CPython 3.10, 3.11 and 3.12, the versions CI runs.

A change that moves outputs on purpose rewrites only the groups it means to
change, with ``python tools/sweep.py --record tests/data/sweep_digests.json``.
A group digest says which group moved, not which call: for that, run
``python tools/sweep.py --against <parent tree> --show 3``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import sweep  # noqa: E402


def test_the_sweep_corpus_gives_the_recorded_digests():
    recorded = json.loads((ROOT / "tests" / "data" / "sweep_digests.json").read_text("utf-8"))
    now = sweep.digests(sweep.collect(ROOT))
    moved = [
        f"{group}: records {recorded.get(group, ['absent'])[0]} -> {now.get(group, ['absent'])[0]}"
        for group in dict.fromkeys([*recorded, *now])
        if recorded.get(group) != now.get(group)
    ]
    assert not moved, (
        f"{len(moved)} sweep group(s) moved:\n  " + "\n  ".join(moved)
        + "\nrun python tools/sweep.py --against <parent tree> --show 3 for the calls"
    )
    assert list(now) == list(recorded)  # the same groups, in the same order
