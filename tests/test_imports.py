"""The import graph: each entry point loads only the modules it runs.

Every check starts a fresh interpreter, since this test process has long
since imported the whole package."""

import os
import subprocess
import sys
from pathlib import Path

import siegeleis

PACKAGE = Path(siegeleis.__file__).resolve().parent
SRC = str(PACKAGE.parent)
PROVIDER = str(Path(__file__).resolve().parent.parent / "data"
               / "e8_weight4_level1.coeffs")


def loaded_after(code: str) -> set[str]:
    """The siegeleis modules held by a fresh interpreter after it runs
    `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    report = ("\nimport sys\nprint(*sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'siegeleis'))")
    proc = subprocess.run([sys.executable, "-c", code + report], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def run_main(argv, output) -> str:
    return (f"from siegeleis.cli import main\n"
            f"assert main({[*argv, '--output', str(output)]!r}) == 0")


def test_import_siegeleis_loads_no_submodule():
    assert loaded_after("import siegeleis") == {"siegeleis"}


def test_every_submodule_resolves_without_its_own_import():
    names = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    code = ("import siegeleis\n"
            "assert siegeleis.hecke.HeckeOp is siegeleis.HeckeOp\n"
            f"for name in {names!r}: getattr(siegeleis, name)")
    assert loaded_after(code) == {"siegeleis"} | {
        f"siegeleis.{name}" for name in names}


def test_building_the_parser_loads_only_the_cli():
    # the parser of every command, and main parsing a valid argv of each
    # command (which builds that command's parser alone) with the command
    # itself replaced by one that does nothing
    cli = {"siegeleis", "siegeleis.cli", "siegeleis.jsonout"}
    assert loaded_after("import siegeleis.cli\n"
                        "siegeleis.cli.build_parser()") == cli
    for argv in (["eigen", "--level", "6", "--weight", "4"],
                 ["fourier", "--provider", PROVIDER],
                 ["verify", "--preset", "desk"]):
        code = ("import siegeleis.cli as c\n"
                "c._COMMANDS = {n: (h, a, lambda args: 0)\n"
                "               for n, (h, a, _) in c._COMMANDS.items()}\n"
                f"assert c.main({argv!r}) == 0")
        assert loaded_after(code) == cli, argv


def test_eigen_loads_no_fourier_side(tmp_path):
    loaded = loaded_after(run_main(
        ["eigen", "--level", "30", "--weight", "4"], tmp_path / "out"))
    assert "siegeleis.hecke" in loaded
    assert not loaded & {"siegeleis.verify", "siegeleis.fourier",
                         "siegeleis.lattices"}


def test_fourier_apply_loads_no_hecke_side(tmp_path):
    loaded = loaded_after(run_main(
        ["fourier", "--provider", PROVIDER, "--apply", "U:5,1"],
        tmp_path / "out"))
    assert "siegeleis.fourier" in loaded
    assert not loaded & {"siegeleis.hecke", "siegeleis.eisspace",
                         "siegeleis.characters", "siegeleis.verify"}
