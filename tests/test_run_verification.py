"""``scripts/run_verification.py``: a battery that raises fails, and the run goes on."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_verification", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_raising_battery_fails_with_exit_code_2_and_the_run_goes_on(monkeypatch, capsys):
    script = _load_script()

    def broken(z):
        raise RuntimeError("regularity search passed its cap; this indicates a bug")

    monkeypatch.setattr(script, "regularity_index", broken)
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--trials", "1"])
    assert script.main() == 2
    lines = capsys.readouterr().out.splitlines()
    raised = next(line for line in lines if "regularity in the span vs P^n" in line)
    assert "raised RuntimeError: regularity search passed its cap" in raised
    assert any("certificate soundness" in line and "failures=0" in line for line in lines)
    assert lines[-1] == "overall: PROBLEMS FOUND"
