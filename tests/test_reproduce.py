"""scripts/reproduce.py end to end, pinned to its published output.

The digests cover every printed value and every byte of both figure CSVs, so
a refactor that changes any of them fails here.  The in-process runs load the
script with runpy, so a patched library reaches the commands it runs.
"""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from fibvar import casework, cli, moments

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reproduce.py"

FIGURE_SHA256 = {
    "figure_6765.csv": "d1d5b497c038d9345328a4e8d64cffec8d3a6cfe1b6becbec4f6451b50d7ab91",
    "figure_75025.csv": "2c513f2ec599214dde741d575077fc177b5f67f1e8b556b0428ed4281f25ba75",
}
# all of stdout, with the output directory written as <outdir>; the wall time goes to stderr
STDOUT_SHA256 = "601d19a17beb09f68d12a6e93868f3b269e4a62aa9d171d6915123c344d21da7"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reproduce_outputs_are_unchanged(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--outdir", str(tmp_path)],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr.decode()
    for name, digest in FIGURE_SHA256.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name
    stdout = result.stdout.decode().replace(str(tmp_path), "<outdir>")
    assert _sha256(stdout.encode()) == STDOUT_SHA256
    assert result.stderr.decode().startswith("done in ")


def _run_in_process(monkeypatch, capsys, outdir):
    """(exit code, stdout, stderr) of the script run as __main__ in this process."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--outdir", str(outdir)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


def test_each_block_is_the_commands_own_output(monkeypatch, capsys, tmp_path):
    code, out, _ = _run_in_process(monkeypatch, capsys, tmp_path)
    assert code == 0
    end = 0
    for argv in runpy.run_path(str(SCRIPT))["COMMANDS"]:
        assert cli.main(list(argv)) == 0
        block = f"$ fibvar {' '.join(argv)}\n" + capsys.readouterr().out
        end = out.index(block, end) + len(block)
        assert out.startswith(("$ fibvar ", "closed form and asymptotics\n"), end), argv


def test_failed_check_prints_its_rows_and_exits_nonzero(monkeypatch, capsys, tmp_path):
    step = moments.recurrence_step
    monkeypatch.setattr(moments, "recurrence_step", lambda history, m: step(history, m) + 1)
    code, out, _ = _run_in_process(monkeypatch, capsys, tmp_path)
    lines = out.splitlines()
    assert code == 1
    assert "m=7 lhs=53 rhs=54 FAIL" in lines
    assert "verify-lemma: FAIL (0/22)" in lines
    assert lines[-1] == "done, 1 failure(s)"


def test_internal_error_is_reported_and_the_run_goes_on(monkeypatch, capsys, tmp_path):
    def broken(m, counts):
        raise RuntimeError(f"stray solution at m={m}")

    monkeypatch.setattr(casework, "case_breakdown", broken)
    code, out, err = _run_in_process(monkeypatch, capsys, tmp_path)
    lines = out.splitlines()
    assert code == 1
    assert err.startswith("fibvar: internal error: stray solution at m=7\n")
    after = lines[lines.index("$ fibvar verify-cases --to 16") + 1]
    assert after == "$ fibvar check-carlitz --to 28"
    assert "exponent_main = 1.88844074722255490488695341448" in lines
    for name, digest in FIGURE_SHA256.items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name
    assert lines[-1] == "done, 1 failure(s)"
