import subprocess
import sys
import types
from pathlib import Path

import defosc

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    for name in defosc.__all__:
        assert hasattr(defosc, name), name


def test_exports_are_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(defosc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(defosc.__all__) == sorted(public | {"__version__"})


def test_failing_property_test_reports_its_example(tmp_path):
    # under the project's pytest settings a failing @given test must end
    # as a plain failure with its falsifying example, not an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
