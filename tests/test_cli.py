import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from siegeleis import cli
from siegeleis.cli import main, parse_op_word
from siegeleis.cyclotomic import (PRIMALITY_BOUND, TRIAL_BOUND,
                                  conductor_cap, set_conductor_cap)
from siegeleis.fourier import UOperator
from siegeleis.hecke import HeckeOp
from siegeleis.linalg import CycMatrix
from siegeleis.verify import PRESETS, run_suite

PROVIDER = Path(__file__).resolve().parent.parent / "data" / "e8_weight4_level1.coeffs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_op_word():
    assert parse_op_word("T:2;T1:3") == [HeckeOp("T", 2), HeckeOp("T1", 3)]
    assert parse_op_word("S1:2;S2:3") == [HeckeOp("S1", 2), HeckeOp("S2", 3)]
    assert parse_op_word("U:2,1") == [UOperator(2, 1)]
    with pytest.raises(ValueError):
        parse_op_word("X:2")
    with pytest.raises(ValueError):
        parse_op_word("U:2")
    for tok in ("T:x", "T1:x", "S1:x", "S2:x", "U:x,2", "U:2,x"):
        with pytest.raises(ValueError, match=f"^bad operator spec '{tok}'$"):
            parse_op_word(tok)


def test_bad_operator_argument_exit_code(capsys):
    code, out, err = run(capsys, "hecke", "--level", "2", "--weight", "4",
                         "--op", "T:x")
    assert code == 1 and out == ""
    assert err == "error: bad operator spec 'T:x'\n"


def test_large_prime_operator_runs_in_bounded_time(capsys):
    # trial division would take about 10^9 steps on the prime 2^61 - 1
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hecke", "--level", "6", "--weight", "4",
                         "--op", f"T:{2**61 - 1}")
    assert time.perf_counter() - t0 < 2
    assert code == 0 and err == ""
    assert len(json.loads(out)["matrix"]) == 9


def test_prime_past_the_primality_bound_exit_code(capsys):
    big = 2**89 - 1  # a prime above cyclotomic.PRIMALITY_BOUND
    code, out, err = run(capsys, "hecke", "--level", "6", "--weight", "4",
                         "--op", f"T:{big}")
    assert code == 1 and out == ""
    assert err == (f"error: {big} is too large to test for primality; "
                   f"the bound is {PRIMALITY_BOUND}\n")


def test_level_with_a_large_prime_factor_runs_in_bounded_time(capsys):
    # trial division stops at TRIAL_BOUND; the prime cofactor 2^61 - 1 is
    # then accepted by is_prime
    t0 = time.perf_counter()
    code, out, err = run(capsys, "basis", "--level", str(2**61 - 1),
                         "--weight", "4")
    assert time.perf_counter() - t0 < 3
    assert code == 0 and err == ""
    assert json.loads(out)["dimension"] == 3


def test_level_with_two_factors_past_the_trial_bound_exit_code(capsys):
    n = 1000003 * 1000033  # both primes exceed TRIAL_BOUND
    t0 = time.perf_counter()
    code, out, err = run(capsys, "basis", "--level", str(n), "--weight", "4")
    assert time.perf_counter() - t0 < 3
    assert code == 1 and out == ""
    assert err == (f"error: cannot factor {n}: its cofactor {n} has no prime "
                   f"factor up to {TRIAL_BOUND} and is not a prime below "
                   f"{PRIMALITY_BOUND}\n")


def test_bad_prime_list_exit_code(capsys):
    code, out, err = run(capsys, "eigen", "--level", "6", "--weight", "4",
                         "--primes", "x")
    assert code == 1 and out == ""
    assert err == "error: bad prime list 'x'\n"


@pytest.mark.parametrize("spec", ["3:x", "3:1:2"])
def test_bad_character_component_exit_code(capsys, spec):
    code, out, err = run(capsys, "basis", "--level", "3", "--weight", "5",
                         "--char", spec)
    assert code == 1 and out == ""
    assert err == f"error: bad character component '{spec}'; want q:j\n"


@pytest.mark.parametrize("flag,name", [("--k-set", "weight list"),
                                       ("--char-orders", "character order list")])
@pytest.mark.parametrize("text", ["4,x", "4,", ""])
def test_bad_verify_list_exit_code(capsys, flag, name, text):
    code, out, err = run(capsys, "verify", flag, text)
    assert code == 1 and out == ""
    assert err == f"error: bad {name} {text!r}\n"


def test_conductor_over_the_cap_exit_code(capsys):
    old = conductor_cap()
    set_conductor_cap(3)  # the character 5:1 takes values in Q(zeta_4)
    try:
        code, out, err = run(capsys, "hecke", "--level", "10", "--weight", "5",
                             "--char", "5:1", "--op", "T:2")
    finally:
        set_conductor_cap(old)
    assert code == 1 and out == ""
    assert err == "error: conductor 4 exceeds the configured cap 3\n"


def test_missing_provider_is_a_clean_error(capsys, tmp_path):
    missing = tmp_path / "missing.coeffs"
    code, out, err = run(capsys, "fourier", "--provider", str(missing),
                         "--level", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("sample_bound", ["0", "-1"])
def test_fourier_split_below_the_coverage_exit_code(capsys, sample_bound):
    # a bound below 1 samples nothing: the split reported the symptom
    # ("component validation failed ... raise coverage"); the bound is now
    # refused up front, by name
    code, out, err = run(capsys, "fourier", "--provider", str(PROVIDER),
                         "--ops", "U:1,2", "--sample-bound", sample_bound)
    assert code == 1 and out == ""
    assert err == f"error: --sample-bound must be at least 1, got {sample_bound}\n"


@pytest.mark.parametrize("sample_bound", ["0", "-1"])
@pytest.mark.parametrize("mode", [("--level", "2"), ("--level", "2", "--calibrate"),
                                  ("--apply", "U:1,2")],
                         ids=["project", "calibrate", "apply"])
def test_fourier_sample_bound_below_one_exit_code(capsys, mode, sample_bound):
    code, out, err = run(capsys, "fourier", "--provider", str(PROVIDER),
                         *mode, "--sample-bound", sample_bound)
    assert code == 1 and out == ""
    assert err == f"error: --sample-bound must be at least 1, got {sample_bound}\n"


@pytest.mark.parametrize("lines,lineno", [
    (["!weight 4 level 1 group GL2", "0 0 0 1/0"], 2),
    (["!weight 4 level 1 group GL2", "0 0 x 1"], 2),
    (["!weight x level 1 group GL2", "0 0 0 1"], 1),
], ids=["zero-denominator", "form-entry", "weight"])
def test_bad_provider_number_exit_code(capsys, tmp_path, lines, lineno):
    path = tmp_path / "bad.coeffs"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "fourier", "--provider", str(path),
                         "--apply", "U:1,2")
    assert code == 1 and out == ""
    line = lines[lineno - 1]
    assert err == f"error: {path}:{lineno}: bad number in {line!r}\n"


@pytest.mark.parametrize("group,orient", [("GL2", "garbage"), ("GL2", "2"),
                                          ("SL2", "0"), ("SL2", "+1")])
def test_bad_provider_orientation_exit_code(capsys, tmp_path, group, orient):
    lines = [f"!weight 4 level 1 group {group}", "0 0 0 1 -1",
             f"1 0 1 5 {orient}"]
    path = tmp_path / "bad.coeffs"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "fourier", "--provider", str(path),
                         "--apply", "U:1,2")
    assert code == 1 and out == ""
    assert err == (f"error: {path}:3: bad orientation {orient!r} in "
                   f"{lines[2]!r}; want 1 or -1\n")


def test_basis_examples(capsys):
    code, out, _ = run(capsys, "basis", "--level", "6", "--weight", "4", "--char", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 9 and len(obj["basis"]) == 9

    code, _, err = run(capsys, "basis", "--level", "5", "--weight", "4",
                       "--char", "5:1")
    assert code == 1 and "parity" in err

    code, out, _ = run(capsys, "basis", "--level", "1", "--weight", "4")
    assert code == 0 and json.loads(out)["dimension"] == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--level", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])


@pytest.mark.parametrize("exc", [
    RuntimeError("eigenvector verification failed"),
    AssertionError("chi(-1) must be +-1"),
    ZeroDivisionError("inverse of zero"),
    KeyError("(1,1,1)"),
    IndexError("list index out of range"),
], ids=lambda e: type(e).__name__)
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_basis", broken)
    code, out, err = run(capsys, "basis", "--level", "2", "--weight", "4")
    assert code == 3 and out == ""
    assert err == f"internal error: {exc}\n"


SMALL_SCALES = [
    (("--prime-max", "1"), "prime_max must be at least 2, got 1"),
    (("--trials", "-5"), "trials must be at least 1, got -5"),
    (("--n-max", "0"), "N_max must be at least 1, got 0"),
    (("--k-set", "4,3"), "every k_set entry must be at least 4, got 3"),
    (("--char-orders", "1,0"), "every char_orders entry must be at least 1, got 0"),
]


@pytest.mark.parametrize("argv,field", SMALL_SCALES,
                         ids=[argv[0] for argv, _ in SMALL_SCALES])
def test_verify_scale_below_the_minimum_exit_code(capsys, argv, field):
    # --prime-max 1 gave the level-1 oracle no operators (an IndexError
    # traceback); --trials -5 and --n-max 0 reported ok without checking
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {field}\n"


def test_run_suite_refuses_a_scale_below_the_minimum():
    for name, value in (("N_max", 0), ("prime_max", 1), ("trials", 0),
                        ("k_set", [3]), ("char_orders", [0])):
        config = dict(PRESETS["quick"], **{name: value})
        with pytest.raises(ValueError, match=f"{name} "):
            run_suite(config)


def test_hecke_matrix_and_round_trip(capsys):
    code, out, _ = run(capsys, "hecke", "--level", "2", "--weight", "4",
                       "--char", "1", "--op", "T:2")
    assert code == 0
    obj = json.loads(out)
    mat = CycMatrix.from_json(obj["matrix"])
    assert mat == CycMatrix(
        [[1, Fraction(1, 2), Fraction(1, 2)], [0, 8, 6], [0, 0, 32]]
    )
    # byte stability
    code2, out2, _ = run(capsys, "hecke", "--level", "2", "--weight", "4",
                         "--char", "1", "--op", "T:2")
    assert out2 == out


def test_hecke_word_and_errors(capsys):
    code, out, _ = run(capsys, "hecke", "--level", "2", "--weight", "4",
                       "--op", "S1:2;S2:2")
    assert code == 0
    mat = CycMatrix.from_json(json.loads(out)["matrix"])
    assert mat.rows == 3
    code, _, err = run(capsys, "hecke", "--level", "2", "--weight", "4",
                       "--op", "U:2,1")
    assert code == 1 and "fourier" in err
    code, _, err = run(capsys, "hecke", "--level", "2", "--weight", "4",
                       "--op", "T:9")
    assert code == 1


def test_eigen_json_and_csv(capsys):
    code, out, _ = run(capsys, "eigen", "--level", "2", "--weight", "4")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["eigenbasis"]) == 3
    mism = [r for r in obj["comparison"] if not r["match"]]
    assert len(mism) == 1 and mism[0]["op"] == "T1:2"

    code, out, _ = run(capsys, "eigen", "--level", "2", "--weight", "4",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,op,eigenvalue,closed_form,match"
    assert "(1;2;1),T1:2,66,34,false" in lines


def test_relations(capsys):
    code, out, _ = run(capsys, "relations", "--level", "2", "--weight", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_hold"] is True
    assert obj["constants"]["2"]["coeffs"] == ["4/15"]
    assert len(obj["identities"]) == 3


def test_verify_quick(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(["verify", "--preset", "quick", "--output", str(out_path)])
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["ok"] is True and obj["counts"]["fail"] == 0


@pytest.mark.skipif(not PROVIDER.exists(), reason="no provider data file")
def test_fourier_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "fourier", "--provider", str(PROVIDER),
                       "--level", "2")
    assert code == 0
    obj = json.loads(out)
    parts = [c["partition"] for c in obj["components"]]
    assert parts == [
        {"N0": 2, "N1": 1, "N2": 1},
        {"N0": 1, "N1": 2, "N2": 1},
        {"N0": 1, "N1": 1, "N2": 2},
    ]

    code, out, _ = run(capsys, "fourier", "--provider", str(PROVIDER),
                       "--apply", "U:1,2;U:2,1")
    assert code == 0
    assert json.loads(out)["det_bound"] == 144 // 4 // 4

    code, out, _ = run(capsys, "fourier", "--provider", str(PROVIDER),
                       "--level", "2", "--calibrate")
    assert code == 0
    rep = json.loads(out)
    assert rep["primes"]["2"]["T"]["distinct_count"] == 3

    code, _, err = run(capsys, "fourier", "--provider", str(PROVIDER),
                       "--level", "2", "--apply", "T:2")
    assert code == 1 and "U:Q,P" in err


def test_output_file(capsys, tmp_path):
    target = tmp_path / "basis.json"
    code = main(["basis", "--level", "2", "--weight", "4",
                 "--output", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["dimension"] == 3

    argv = ["eigen", "--level", "30", "--weight", "4", "--primes", "7"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "eigen.json"
    assert main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


def _written(obj) -> list[str]:
    pieces = []
    cli.write_json(obj, pieces.append)
    return pieces


def test_write_json_across_flush_chunks():
    rng = random.Random(20)

    def tree(depth):
        if depth == 0:
            return rng.choice([rng.randint(-10**30, 10**30), "x\"\\\né",
                               None, True, False, [], {}, ()])
        kind = rng.randrange(3)
        if kind == 0:
            return {f"k{rng.randint(0, 99)}": tree(depth - 1) for _ in range(4)}
        if kind == 1:
            return [tree(depth - 1) for _ in range(4)]
        return tuple(str(rng.random()) for _ in range(3))

    obj = [tree(6) for _ in range(10)]
    pieces = _written(obj)
    assert len(pieces) > 1
    assert "".join(pieces) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj,message", [
    (Fraction(1, 2), "cannot write Fraction as JSON"),
    ({"a": [1, {"b": {3}}]}, "cannot write set as JSON"),
    (["a", 0.5], "cannot write float as JSON"),
    ({"a": 1, 2: "b"}, "keys must be str, not int"),
])
def test_write_json_rejects_what_no_output_holds(obj, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        _written(obj)
