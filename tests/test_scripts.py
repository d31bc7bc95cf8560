import os
import subprocess
import sys

from conftest import FIXTURES

ROOT = FIXTURES.parent


def test_fixture_invariants_agree_on_every_fixture():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fixture_invariants.py"), "--check-degree", "8"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split()[0] == "fixture" and header.split()[-1] == "agree"
    assert [row.split()[0] for row in rows] == sorted(p.stem for p in FIXTURES.glob("*.ideal"))
    for row in rows:
        assert row.split()[-1] == "True", row
