"""The mutation tables in ``mutants.py`` still point at live code.

Running the mutants takes minutes, so tier-1 checks only that each
anchor, of a killed or a recorded equivalent mutant, occurs exactly once
in its file and that each test a mutant must fail is defined, so
``python tests/mutants.py`` stays runnable.
"""

import os
import re

from mutants import EQUIVALENT, MUTANTS, ROOT


def test_each_anchor_occurs_once_and_each_named_test_exists():
    assert len({m.name for m in MUTANTS + EQUIVALENT}) == len(MUTANTS) + len(EQUIVALENT)
    for mutant in MUTANTS + EQUIVALENT:
        with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
            assert fh.read().count(mutant.anchor) == 1, mutant.name
        # the last field is the tests that kill it, or why none can
        assert mutant.anchor != mutant.replacement and mutant[-1], mutant.name
    for mutant in MUTANTS:
        for test in mutant.tests:
            path, name = test.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert re.search(rf"^def {name}\(", fh.read(), re.M), (mutant.name, test)
