"""The mutation table in ``mutants.py`` still points at live code.

Running the mutants takes minutes, so tier-1 checks only that each
anchor occurs exactly once in its file and that each test a mutant must
fail is defined, so ``python tests/mutants.py`` stays runnable.
"""

import os
import re

from mutants import MUTANTS, ROOT


def test_each_anchor_occurs_once_and_each_named_test_exists():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
            assert fh.read().count(mutant.anchor) == 1, mutant.name
        assert mutant.anchor != mutant.replacement and mutant.tests, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert re.search(rf"^def {name}\(", fh.read(), re.M), (mutant.name, test)
