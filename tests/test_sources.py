"""Rules that every module of the package keeps."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

from fibvar.errors import BudgetError

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


def test_every_exception_class_has_an_exit_code():
    # cli.main reports BudgetError as exit 3 and RuntimeError or ValueError as exit 4;
    # any other exception would escape as a traceback with exit 1, the usage code
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"fibvar.{path.stem}".removesuffix(".__init__"))
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            cls = getattr(module, node.name) if isinstance(node, ast.ClassDef) else None
            if (
                isinstance(cls, type)
                and issubclass(cls, BaseException)
                and not issubclass(cls, (BudgetError, ValueError, RuntimeError))
            ):
                offenders.append(f"{path.name}:{node.name}")
    assert offenders == []
