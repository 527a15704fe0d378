"""Rules that every module of the package keeps."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fibvar"


def test_no_assert_statements():
    # python -O strips assert, so a runtime invariant must raise explicitly
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_package_import_loads_no_submodule():
    # `import fibvar` exports nothing; users import the submodules they need
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import fibvar; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('fibvar.')))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
