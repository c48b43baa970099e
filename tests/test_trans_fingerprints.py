"""The suite's F_trans clause sets are pinned.

``tests/fixtures/trans_fingerprints.json`` records, for each of the 66
suite formulas HYBRID encodes at SEP_THOLD=700 within a transitivity
budget of 100000, the sha256 of its rendered clause set and its
``TransitivityStats``, and marks the other 32 as refused with the
reported clause count (budget + 1).  The decided entries were generated
by the formula-level transitivity path that the packed-clause
generators replaced, and the refused ones by the single-pass emitter
that exhausted the budget mid-class, so this test checks that planning
ahead refuses exactly the same formulas and leaves the emitted clauses
unchanged modulo variable numbering.

The fingerprints run in a fresh interpreter: the elimination order
breaks ties by node uid, and uids depend on what the process built
before.
"""

import json
import os
import subprocess
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
FIXTURE = os.path.join(TESTS_DIR, "fixtures", "trans_fingerprints.json")
TOOL = os.path.join(REPO_ROOT, "tools", "trans_fingerprints.py")


def test_suite_transitivity_clauses_match_fixture():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, TOOL],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=600,
    )
    got = json.loads(proc.stdout)
    with open(FIXTURE) as fp:
        expected = json.load(fp)
    refused = [name for name, entry in expected.items() if entry.get("refused")]
    assert len(expected) - len(refused) == 66
    assert len(refused) == 32
    assert sorted(got) == sorted(expected)
    for name, entry in expected.items():
        assert got[name] == entry, name
