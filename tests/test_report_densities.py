import runpy
import sys
from pathlib import Path

import pytest

from polignac import oracle

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_densities.py"


def run_script(monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *args])
    runpy.run_path(str(SCRIPT), run_name="__main__")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--x", "60", "2400012"], "over the construction limit 200000"),
        (["--x", "1"], "x must be >= 2, got 1"),
    ],
    ids=["over-construction-limit", "below-2"],
)
def test_refused_x_exits_2_before_printing(monkeypatch, capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, *args)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def test_refusal_waits_on_no_exact_solve(monkeypatch, capsys):
    # x = 216 alone takes seconds to solve exactly; 1200008 is over geh's limit.
    monkeypatch.setattr(oracle, "max_disjoint_packing", lambda x: pytest.fail(f"solved x = {x}"))
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, "--x", "216", "1200008")
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "over the construction limit 200000" in captured.err


def test_exact_column_is_dash_above_the_oracle_domain(monkeypatch, capsys):
    run_script(monkeypatch, "--x", "2", "400")
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines() if line.strip()}
    assert rows["2"][4] == "0.0000"
    assert rows["400"][4] == "-"
