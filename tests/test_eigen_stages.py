"""Smoke test of tools/eigen_stages.py, the per-stage timer of `eigen`."""

import importlib.util
from pathlib import Path

import pytest

from siegeleis.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "eigen_stages.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("eigen_stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("fmt, stages", [
    ("json", ["basis", "tables", "eigenbasis", "comparison", "vectors",
              "descriptor"]),
    ("csv", ["basis", "tables", "eigenbasis", "rows"]),
])
def test_one_run_times_every_stage_and_counts_the_cli_bytes(capsys, fmt,
                                                           stages):
    times = load_tool().one_run(30, "1", 4, "descriptor", fmt)
    assert list(times) == stages + ["bytes"]
    assert all(times[name] >= 0 for name in stages)
    # the sink sees what the CLI writes for the same command
    assert main(["eigen", "--level", "30", "--weight", "4",
                 "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert times["bytes"] == len(out.encode())
