"""The seven demos print the same bytes under any hash seed.

Each demo runs in a fresh interpreter under PYTHONHASHSEED=0 and =1, and
its standard output must match the SHA-256 recorded when the demo's
output was last reviewed.  A change that alters what a demo prints must
update the digest here on purpose.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMO_SHA256 = {
    "01_homology_basics.py": "f478ac91f2b28b50d0aa87aa725ceebd6b8b7d3439abd0ae92b56dd336c77da0",
    "02_joins_and_milnor.py": "5fa9d91353bfc825b4cc8c75bb41f844826c9d3dd53837b95c9bc2773aefc318",
    "03_pieces_and_additivity.py": "3f05352d355af5b61855c51ea400fe4032eb4f75d8b889db37b806453ec0b98f",
    "04_dichotomy.py": "813f838d4b3ba2331cc15b07910e453c99a5b57ec1b1957d163fb3ce23c3b82a",
    "05_width_surgery.py": "0b87856185f9da628953900f8a029704b139e6e3e7381591c5134d713e6971f5",
    "06_cubes_and_duals.py": "866ddd2c844bdd877b8b23f9e81e241e4eb989e3cf3b391dff8b0e7536420ce1",
    "07_files_and_suite.py": "f84e3b6d607eaeae9fcaba71198540df08d48a67b51cd4c4149b5a69ed45cc29",
}


def test_every_demo_is_pinned():
    assert sorted(os.listdir(os.path.join(ROOT, "demos"))) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_matches_its_digest(demo, hash_seed, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=hash_seed,
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == DEMO_SHA256[demo], proc.stdout
    assert list(tmp_path.iterdir()) == []  # no temporary files left behind
