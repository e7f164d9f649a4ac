"""Smoke test of tools/stages.py, the per-stage timer of one command."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from siegeleis.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stages.py"
PROVIDER = str(TOOL.parent.parent / "data" / "e8_weight4_level1.coeffs")
EIGEN_30 = ["eigen", "--level", "30", "--weight", "4"]
EIGEN_STAGES = ["parse", "basis", "tables", "eigenbasis", "render"]


def run_tool(capsys, *argv) -> dict:
    spec = importlib.util.spec_from_file_location("stages", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(["--repeat", "1", *argv])
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("argv, names", [
    (["basis", "--level", "30", "--weight", "4"],
     ["parse", "basis", "render"]),
    (["hecke", "--level", "30", "--weight", "4", "--op", "T:2;S1:3"],
     ["parse", "basis", "tables", "render"]),
    (EIGEN_30, EIGEN_STAGES),
    (EIGEN_30 + ["--format", "csv"], EIGEN_STAGES),
    (["relations", "--level", "30", "--weight", "4"],
     ["parse", "basis", "relations", "render"]),
    (["fourier", "--provider", PROVIDER, "--level", "2"],
     ["parse", "load", "project", "render"]),
    (["verify", "--preset", "quick"], ["parse", "suite", "render"]),
], ids=["basis", "hecke", "eigen-json", "eigen-csv", "relations", "fourier",
        "verify"])
def test_each_stage_is_timed_and_the_bytes_are_the_clis(capsys, argv, names):
    out = run_tool(capsys, "--", *argv)
    assert list(out["seconds"]) == names and out["code"] == 0
    assert all(t >= 0 for t in out["seconds"].values())
    assert main(argv) == 0
    assert out["bytes"] == len(capsys.readouterr().out.encode())


def test_through_stops_after_the_named_stage(capsys):
    out = run_tool(capsys, "--through", "eigenbasis", "--", *EIGEN_30)
    assert list(out["seconds"]) == EIGEN_STAGES[:4]
    assert (out["code"], out["bytes"]) == (None, 0)
    assert (out["dimension"], out["tables"], out["local_rows"]) == (27, 6, 18)


@pytest.mark.parametrize("char, conductor", [("1", 1), ("5:1,11:1", 20)])
def test_the_largest_conductor_is_counted(capsys, char, conductor):
    out = run_tool(capsys, "--through", "eigenbasis", "--", "eigen", "--level",
                   "2310", "--weight", "4", "--char", char)
    assert out["max_conductor"] == conductor


@pytest.mark.parametrize("char, count", [("1", 15), ("5:1,11:1", 42)])
def test_the_distinct_local_vectors_are_counted(capsys, char, count):
    # one per key of T(q): 3 per prime at the trivial character, and
    # 12, 12, 4, 12 and 2 at 2, 3, 5, 7 and 11 at the conductor-20 one
    out = run_tool(capsys, "--through", "eigenbasis", "--", "eigen", "--level",
                   "2310", "--weight", "4", "--char", char)
    assert out["local_vectors"] == count


def test_the_tool_imports_only_the_cli():
    nodes = list(ast.walk(ast.parse(TOOL.read_text())))
    names = [a.name for n in nodes if isinstance(n, ast.Import)
             for a in n.names]
    names += [f"{n.module}.{a.name}" for n in nodes
              if isinstance(n, ast.ImportFrom) for a in n.names]
    assert [m for m in names if "siegeleis" in m] == ["siegeleis.cli.main"]


def test_the_size_of_an_ingested_provider_is_counted(capsys):
    from siegeleis.fourier import provider_load

    out = run_tool(capsys, "--through", "load", "--", "fourier", "--provider",
                   PROVIDER, "--apply", "U:1,2")
    exp = provider_load(PROVIDER).expansion
    assert list(out["seconds"]) == ["parse", "load"]
    assert (out["classes"], out["distinct_values"]) == (895, 124)
    assert out["classes"] == len(exp.coeffs)
    assert out["distinct_values"] == len(set(exp.coeffs.values()))
    assert (out["det_bound"], out["content_bound"]) == (144, 36)
    assert out["max_conductor"] == 1


def test_every_fourier_stage_reads_above_zero(capsys):
    # six decimals: the cheap stages of a fourier command are microseconds
    out = run_tool(capsys, "--repeat", "5", "--", "fourier", "--provider",
                   PROVIDER, "--apply", "U:6,1")
    assert list(out["seconds"]) == ["parse", "load", "apply", "render"]
    assert all(t > 0 for t in out["seconds"].values())
