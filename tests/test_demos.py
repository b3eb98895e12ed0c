"""Every demo script runs to completion in-process."""
import pathlib
import runpy
import tempfile

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_free_field_closed_forms",
    "02_band_structure",
    "03_martin_function_and_robin_constant",
    "04_growth_and_eigenvalue_counting",
    "05_regularity_verdicts",
    "06_cli_pipeline",
])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
