"""scripts/reproduce.py end to end, pinned to its published output.

The digests cover every printed value and every byte of both figure CSVs, so
a refactor that changes any of them fails here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIGURE_SHA256 = {
    "figure_6765.csv": "d1d5b497c038d9345328a4e8d64cffec8d3a6cfe1b6becbec4f6451b50d7ab91",
    "figure_75025.csv": "2c513f2ec599214dde741d575077fc177b5f67f1e8b556b0428ed4281f25ba75",
}
# all of stdout, with the output directory written as <outdir>; the wall time goes to stderr
STDOUT_SHA256 = "39a86ec8c422a775c953553225864ec7acc23f1303a383e60833797508c3cc92"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reproduce_outputs_are_unchanged(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce.py"), "--outdir", str(tmp_path)],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr.decode()
    for name, digest in FIGURE_SHA256.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name
    stdout = result.stdout.decode().replace(str(tmp_path), "<outdir>")
    assert _sha256(stdout.encode()) == STDOUT_SHA256
    assert result.stderr.decode().startswith("done in ")
