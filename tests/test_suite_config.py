"""The suite's own configuration, run on a throwaway test file."""

from __future__ import annotations

from helpers import SRC, run_python

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_small(x):
    assert x < 10
'''


def test_hypothesis_failure_prints_its_example(tmp_path):
    # Hypothesis explains a failure with libcst, which warns of
    # mypy_extensions.TypedDict; under filterwarnings = error that warning
    # must not turn the report into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = run_python(
        "-m", "pytest", "-p", "no:cacheprovider", "-c", str(SRC.parent / "pyproject.toml"),
        "--rootdir", str(tmp_path), str(tmp_path / "test_property.py"),
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
