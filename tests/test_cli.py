import contextlib
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from siegeleis import cli, cyclotomic
from siegeleis.cli import main, parse_op_word
from siegeleis.cyclotomic import (PRIMALITY_BOUND, TRIAL_BOUND, CycNum,
                                  as_cyc, conductor_cap, set_conductor_cap)
from siegeleis.fourier import (PROVIDER_MAX_CHARS, UOperator,
                               provider_load)
from siegeleis.hecke import HeckeOp
from siegeleis.lattices import MAX_SUBLATTICES, GramForm
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


def test_a_level_is_factored_once(capsys, monkeypatch):
    # each factorization of 2^61 - 1 trial-divides up to TRIAL_BOUND
    level = 2**61 - 1
    calls = []
    factorize = cyclotomic.factorize
    monkeypatch.setattr(cyclotomic, "factorize",
                        lambda n: calls.append(n) or factorize(n))
    cyclotomic.prime_factors.cache_clear()
    code, out, err = run(capsys, "basis", "--level", str(level),
                         "--weight", "4")
    assert code == 0 and err == ""
    assert calls == [level]
    assert isinstance(cyclotomic.prime_factors(level), tuple)


def test_sublattice_count_past_the_cap_exit_code(capsys):
    q = 2**61 - 1  # U(q,1) sums over q + 1 sublattices per class
    t0 = time.perf_counter()
    code, out, err = run(capsys, "fourier", "--provider", str(PROVIDER),
                         "--apply", f"U:{q},1")
    assert time.perf_counter() - t0 < 3
    assert code == 1 and out == ""
    assert err == (f"error: index {q} has {q + 1} sublattices, more than "
                   f"the {MAX_SUBLATTICES} allowed\n")


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
    # read before a huge weight is refused
    assert run(capsys, "eigen", "--level", "6", "--weight", "1000000",
               "--primes", "x") == (1, "", err)


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


@pytest.mark.parametrize("value,message", [
    ("0", "SIEGELEIS_CONDUCTOR_CAP='0' is not a positive integer"),
    ("-7", "SIEGELEIS_CONDUCTOR_CAP='-7' is not a positive integer"),
    ("x", "SIEGELEIS_CONDUCTOR_CAP='x' is not a positive integer"),
    ("3", "conductor 4 exceeds the configured cap 3"),
])
def test_conductor_cap_from_the_environment(value, message):
    # read when the library loads, in a child process with the variable set
    env = dict(os.environ, SIEGELEIS_CONDUCTOR_CAP=value)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "siegeleis.cli", "hecke", "--level", "10",
         "--weight", "5", "--char", "5:1", "--op", "T:2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {message}\n"


def _padded_provider(path, size: int, first: str = "") -> str:
    """The E8 table after the line `first`, padded by a comment line to
    `size` characters."""
    text = first + PROVIDER.read_text()
    path.write_text(text + "#" + "x" * (size - len(text) - 2) + "\n")
    return str(path)


def test_a_provider_file_past_the_size_bound_is_refused_unparsed(capsys,
                                                                 tmp_path):
    def apply(provider):
        return run(capsys, "fourier", "--provider", provider, "--apply",
                   "U:1,2")

    code, expected, err = apply(str(PROVIDER))
    assert (code, err) == (0, "")
    full = _padded_provider(tmp_path / "full.coeffs", PROVIDER_MAX_CHARS)
    assert apply(full) == (0, expected, "")
    # one character more, and a malformed first line that is never read
    over = _padded_provider(tmp_path / "over.coeffs", PROVIDER_MAX_CHARS + 1,
                            "bad line\n")
    assert apply(over) == (1, "", (
        f"error: {over}: a provider file holds at most "
        f"{PROVIDER_MAX_CHARS} characters\n"))


def test_an_endless_provider_stream_is_refused(capsys, tmp_path):
    # a FIFO's size reads 0: the bound is on the characters read
    fifo = tmp_path / "endless.coeffs"
    os.mkfifo(fifo)

    def write_forever():
        line = "#" + "x" * 4094 + "\n"
        with contextlib.suppress(BrokenPipeError), open(fifo, "w") as fh:
            while True:
                fh.write(line)

    writer = threading.Thread(target=write_forever, daemon=True)
    writer.start()
    code, out, err = run(capsys, "fourier", "--provider", str(fifo),
                         "--apply", "U:1,2")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert (code, out) == (1, "")
    assert err == (f"error: {fifo}: a provider file holds at most "
                   f"{PROVIDER_MAX_CHARS} characters\n")


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


def test_provider_exponent_past_the_digit_limit_exit_code(tmp_path):
    # Fraction builds 10^e whatever e: 1e100000000 ran for minutes, and is
    # now a bad number, refused before it is read (in a child process, so
    # that a parse which does read it stops at the timeout)
    lines = ["!weight 4 level 1 group GL2", "0 0 0 1e100000000"]
    path = tmp_path / "bad.coeffs"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "siegeleis.cli", "fourier", "--provider",
         str(path), "--apply", "U:1,2"],
        env=env, capture_output=True, text=True, timeout=5)
    assert time.perf_counter() - t0 < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: {path}:2: bad number in {lines[1]!r}\n"
    # an exponent within the limit is read as Fraction reads it
    path.write_text("!weight 4 level 1 group GL2\n0 0 0 1.5e2\n")
    coeffs = provider_load(path).expansion.coeffs
    assert coeffs == {GramForm(0, 0, 0): as_cyc(150)}


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


@pytest.mark.parametrize("line", [
    " ".join(["1"] * 2_000_000),  # two million value tokens
    "0 0 0 " + "x" * 100_000,
    "1 0 1 5 " + "7" * 100_000,
    "0 0 0 1/" + "0" * 100_000,
], ids=["malformed", "number", "orientation", "zero-denominator"])
def test_bad_provider_error_quotes_a_bounded_excerpt(capsys, tmp_path, line):
    path = tmp_path / "bad.coeffs"
    path.write_text(f"!weight 4 level 1 group GL2\n0 0 0 1\n{line}\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "fourier", "--provider", str(path),
                         "--apply", "U:1,2")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}:3: ") and err.count("\n") == 1
    assert len(err.encode()) < 1024 and "Traceback" not in err
    assert f"... ({len(line.strip())} characters)" in err


BIG = str(10**4000)


@pytest.mark.parametrize("lines, form, message", [
    ([f"{BIG} {BIG} 1 1"], f"[{BIG},{BIG};1]", "form {} is not psd"),
    ([f"1 0 {BIG} 1", f"1 0 {BIG} 2"], f"[1,0;{BIG}]",
     "inconsistent duplicate for class {}"),
], ids=["not-psd", "duplicate"])
def test_provider_form_errors_quote_a_bounded_excerpt(capsys, tmp_path, lines,
                                                      form, message):
    # a form of 4000-digit entries is quoted by its first 80 characters and
    # its length, in at most 256 bytes of stderr (whole, over 8,000 bytes)
    path = tmp_path / "bad.coeffs"
    path.write_text("\n".join(["!weight 4 level 1 group GL2", "0 0 0 1",
                               *lines]) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "fourier", "--provider", str(path),
                         "--apply", "U:1,2")
    excerpt = f"{form[:80]}... ({len(form)} characters)"
    assert (code, out) == (1, "")
    assert err == f"error: {path}:{2 + len(lines)}: {message.format(excerpt)}\n"
    assert len(err.encode()) <= 256


def test_a_short_form_error_keeps_its_bytes(capsys, tmp_path):
    # (the short duplicate message is pinned in tests/test_fourier.py)
    path = tmp_path / "bad.coeffs"
    path.write_text("!weight 4 level 1 group GL2\n0 0 0 1\n1 2 1 1\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "fourier", "--provider", str(path),
                         "--apply", "U:1,2")
    assert (code, out, err) == (1, "", f"error: {path}:3: form [1,2;1] is "
                                       f"not psd\n")


def _e8_with(lines: list[str], at: int, header: str) -> list[str]:
    """The E8 table's lines with `header` put in at index `at`."""
    return lines[:at] + [header] + lines[at:]


E8_LINES = PROVIDER.read_text(encoding="utf-8").splitlines()
E8_HEADER = E8_LINES.index("!weight 4 level 1 group GL2")


@pytest.mark.parametrize("lines, lineno, message", [
    # an SL2 header after the fifth data line made the rest of the table
    # SL2, so the det bound fell from 144 to 10
    (_e8_with(E8_LINES, E8_HEADER + 6, "!weight 4 level 1 group SL2"),
     E8_HEADER + 7, "repeated header"),
    # a second header at the end changed the weight from 4 to 6
    (E8_LINES + ["!weight 6 level 1 group GL2"], len(E8_LINES) + 1,
     "repeated header"),
    # the one header, after the fifth data line
    (_e8_with(E8_LINES[:E8_HEADER] + E8_LINES[E8_HEADER + 1:], E8_HEADER + 5,
              E8_LINES[E8_HEADER]), E8_HEADER + 6,
     "header after the first data line"),
], ids=["sl2-after-data", "second-at-end", "only-after-data"])
def test_a_header_after_data_or_a_second_header_is_refused(capsys, tmp_path,
                                                           lines, lineno,
                                                           message):
    path = tmp_path / "bad.coeffs"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "fourier", "--provider", str(path),
                         "--apply", "U:1,2")
    assert (code, out) == (1, "")
    assert err == f"error: {path}:{lineno}: {message}\n"


def test_bad_provider_group_quotes_a_bounded_excerpt(capsys, tmp_path):
    path = tmp_path / "bad.coeffs"
    path.write_text("!weight 4 level 1 group " + "G" * 100_000 + "\n",
                    encoding="utf-8")
    code, out, err = run(capsys, "fourier", "--provider", str(path),
                         "--apply", "U:1,2")
    assert code == 1 and out == ""
    assert err == (f"error: {path}:1: unknown group {'G' * 80!r}... "
                   f"(100000 characters)\n")


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


def test_parity_error_says_what_to_change(capsys):
    # a CLI user cannot pass the library's forced=True: the message names
    # the weight's parity and the character instead
    code, out, err = run(capsys, "eigen", "--level", "6", "--weight", "4",
                         "--char", "3:1")
    assert (code, out) == (1, "")
    assert err == ("error: parity violation: chi(-1) = -1 != (-1)^4; the "
                   "space is identically zero (use an odd weight, or a "
                   "character with chi(-1) = 1)\n")
    code, _, err = run(capsys, "basis", "--level", "5", "--weight", "5",
                       "--char", "5:2")
    assert code == 1 and err.endswith(
        "(use an even weight, or a character with chi(-1) = -1)\n")


def test_relations_refuse_an_odd_weight_by_the_weight_alone(capsys):
    # relations takes no --char, so the message suggests no character
    code, out, err = run(capsys, "relations", "--level", "6", "--weight", "5")
    assert (code, out, err) == (
        1, "", "error: relation words need an even weight, got 5\n")


def test_relations_refuse_a_huge_weight_before_the_words():
    # the S constants bound the digits of the output; they take well under
    # a second to build at weight 10^6, where proving the words took over
    # a minute, so the refusal comes before the proof
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "siegeleis.cli", "relations", "--level", "6",
         "--weight", "1000000"],
        env=env, capture_output=True, text=True, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: the output would print integers of up to "
                           "477122 digits; at most 4300 can be printed\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("weight,digits", [(10**6, 954242),
                                           (10**9, 954242509)])
def test_eigen_refuses_a_huge_weight_before_the_tables(fmt, weight, digits):
    # both formats print the corner's T1(3^2) eigenvalue 4 * 3^(2k-3), whose
    # digits are counted without forming it, and named as a floor: the
    # JSON's vectors would hold longer integers; the csv ran 6.7 s and the
    # JSON 44 s at weight 10^6 before their refusal
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "siegeleis.cli", "eigen", "--level", "6",
         "--weight", str(weight), "--format", fmt],
        env=env, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - t0 < 2
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"error: the output would print integers of at least "
                           f"{digits} digits; at most 4300 can be printed\n")


@pytest.mark.parametrize("argv,inverses", [
    (["--char", "5:1,11:1", "--format", "csv"], 0),
    (["--format", "csv"], 0),
    (["--char", "5:1,11:1"], 24),
], ids=["csv-chi20", "csv-trivial", "json-chi20"])
def test_only_an_eigen_output_that_prints_vectors_divides(
        capsys, monkeypatch, argv, inverses):
    # the proof reads the w_q; the csv prints no vector, so it never
    # divides a w_q by its entry at the rank, and the JSON divides once
    # per (prime, key) whose entry is not 1
    calls = []
    real = CycNum.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CycNum, "inverse", counted)
    assert run(capsys, "eigen", "--level", "2310", "--weight", "4", *argv)[0] == 0
    assert len(calls) == inverses


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--level", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_double_dash_is_read_as_a_value(capsys):
    # `--char=--` gives the spec "--", refused as a bad spec (exit 1), not an
    # empty list that reaches the parser as a traceback
    code, out, err = run(capsys, "basis", "--level", "15", "--weight", "4",
                         "--char=--")
    assert (code, out) == (1, "")
    assert err == "error: bad character component '--'; want q:j\n"
    code, out, err = run(capsys, "hecke", "--level", "6", "--weight", "4",
                         "--op=--")
    assert (code, out, err) == (1, "", "error: bad operator spec '--'\n")
    for argv in (["basis", "--level=--", "--weight", "4"],
                 ["verify", "--preset=--"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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

    help_text, add_arguments, _ = cli._COMMANDS["basis"]
    monkeypatch.setitem(cli._COMMANDS, "basis",
                        (help_text, add_arguments, broken))
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
    mat = [[CycNum.from_json(e) for e in row] for row in obj["matrix"]]
    assert mat == [[1, Fraction(1, 2), Fraction(1, 2)], [0, 8, 6], [0, 0, 32]]
    # byte stability
    code2, out2, _ = run(capsys, "hecke", "--level", "2", "--weight", "4",
                         "--char", "1", "--op", "T:2")
    assert out2 == out


# chi_3 is nontrivial, so the S1(3) table cannot be built; at level 2310
# the basis alone fills more than one chunk of the writer, so a table built
# mid-output would leave the header behind
BAD_WORD = ("hecke", "--level", "2310", "--weight", "5", "--char", "3:1",
            "--op", "T:2;S1:3")


def test_hecke_word_without_a_table_writes_nothing(capsys, tmp_path):
    code, out, err = run(capsys, *BAD_WORD)
    assert code == 1 and out == ""
    assert err == "error: S1(3) requires trivial chi_3\n"
    path = tmp_path / "word.json"
    code, out, err = run(capsys, *BAD_WORD, "--output", str(path))
    assert code == 1 and out == "" and err.startswith("error: ")
    assert not path.exists()


# Runs argv[1:] and prints its exit code and peak RSS in KiB.  A child's
# ru_maxrss starts at the RSS of the process that forked it, so the
# measured command is forked from this small probe, not from pytest.
RSS_PROBE = """import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def test_hecke_streams_rows_in_bounded_memory(tmp_path):
    # dimension 729: a dense matrix of the word would hold 531,441 cells
    # (204 MiB as a child process); the streamed rows hold one at a time
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "t2.json"
    proc = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "siegeleis.cli",
         "hecke", "--level", "30030", "--weight", "4", "--op", "T:2",
         "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    code, peak_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert peak_kib < 64 * 1024
    assert out.stat().st_size == 40974926  # the whole output


def test_hecke_word_and_errors(capsys):
    code, out, _ = run(capsys, "hecke", "--level", "2", "--weight", "4",
                       "--op", "S1:2;S2:2")
    assert code == 0
    mat = [[CycNum.from_json(e) for e in row]
           for row in json.loads(out)["matrix"]]
    assert len(mat) == 3 and all(len(row) == 3 for row in mat)
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


def test_relations_write_the_plain_tree_from_records(capsys, monkeypatch):
    # each identity is rendered as a record, with no dict per identity; the
    # bytes are those of the plain tree, a failing identity included
    import siegeleis.hecke as hecke
    from siegeleis.eisspace import Partition, enumerate_partitions
    defects = [0, 2, 0, 0, 1, 0, 0, 0, 0]
    monkeypatch.setattr(hecke, "relation_defects", lambda ops: defects)
    monkeypatch.setattr(Partition, "to_json", None)
    code, out, _ = run(capsys, "relations", "--level", "6", "--weight", "4")
    space = enumerate_partitions(6, None, 4)
    plain = {
        "level": 6, "weight": 4, "all_hold": False,
        "constants": {str(q): hecke.s_constant(space, q).to_json()
                      for q in (2, 3)},
        "identities": [
            {"holds": bad == 0, "word": f"S1:{rho.n1};S2:{rho.n2}",
             "target": {"N0": rho.n0, "N1": rho.n1, "N2": rho.n2}}
            for rho, bad in zip(space.basis, defects)],
    }
    assert code == 1
    assert out == json.dumps(plain, indent=2, sort_keys=True) + "\n"


SUITE_FLAGS = [("--n-max", "2"), ("--k-set", "4"), ("--prime-max", "3"),
               ("--char-orders", "1"), ("--trials", "5"), ("--seed", "3")]


@pytest.mark.parametrize("flag,value", SUITE_FLAGS,
                         ids=[flag for flag, _ in SUITE_FLAGS])
def test_verify_preset_refuses_a_suite_flag(capsys, flag, value):
    # the preset's config was run and the flag ignored, its value not even
    # in the report; given at all, even at the value the suite reads in its
    # place, it is a usage error naming both flags
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--preset", "quick", flag, value])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith("usage: siegeleis verify ")
    assert out.err.endswith(f"\nsiegeleis verify: error: argument {flag}: "
                            "not allowed with argument --preset\n")


def test_verify_reads_the_suite_values_of_flags_not_given(monkeypatch):
    configs = []

    def record(config):
        configs.append(config)
        raise ValueError("recorded")

    monkeypatch.setattr("siegeleis.verify.run_suite", record)
    assert main(["verify"]) == main(["verify", "--seed", "3", "--k-set", "6"]) == 1
    assert configs == [
        {"N_max": 6, "k_set": [4, 5], "prime_max": 5, "char_orders": [1, 2],
         "trials": 100, "seed": 7},
        {"N_max": 6, "k_set": [6], "prime_max": 5, "char_orders": [1, 2],
         "trials": 100, "seed": 3}]


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


@pytest.mark.parametrize("flags", [
    ("--apply", "U:1,2", "--ops", "U:1,2"),
    ("--apply", "U:1,2", "--calibrate"),
    ("--ops", "U:1,2", "--calibrate"),
    ("--apply", "U:1,2", "--ops", "U:1,2", "--calibrate"),
], ids=["apply-ops", "apply-calibrate", "ops-calibrate", "all-three"])
def test_fourier_tasks_are_mutually_exclusive(capsys, flags):
    # each flag picks what fourier prints, so two of them are a usage error
    with pytest.raises(SystemExit) as exc:
        main(["fourier", "--provider", str(PROVIDER), "--level", "2", *flags])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "not allowed with argument" in out.err


@pytest.mark.parametrize("flags,refused,task", [
    (("--level", "4", "--ops", "U:1,2"), "--level", "--ops"),
    (("--level", "1", "--apply", "U:1,2"), "--level", "--apply"),
    (("--apply", "U:1,2", "--level", "7"), "--level", "--apply"),
    (("--sample-bound", "3", "--apply", "U:1,2"), "--sample-bound", "--apply"),
    (("--sample-bound", "2", "--apply", "U:1,2"), "--sample-bound", "--apply"),
], ids=["level-ops", "level-1-apply", "apply-level", "bound-apply",
        "bound-2-apply"])
def test_fourier_refuses_a_flag_its_task_ignores(capsys, flags, refused, task):
    # --apply reads no level and no sample bound, --ops no level: such a flag
    # was ignored (even --level 4, which is not square-free), so given at
    # all, even at its default value, it is a usage error naming both flags
    with pytest.raises(SystemExit) as exc:
        main(["fourier", "--provider", str(PROVIDER), *flags])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert out.err.startswith("usage: siegeleis fourier ")
    assert out.err.endswith(f"\nsiegeleis fourier: error: argument {refused}: "
                            f"not allowed with argument {task}\n")


@pytest.mark.parametrize("flags", [
    ("--apply", ""), ("--ops", ""), ("--apply", "  "), ("--ops", ";"),
    ("--apply", "", "--level", "2"), ("--ops", "", "--level", "2"),
    ("--apply", "", "--sample-bound", "3"),
], ids=["apply", "ops", "apply-blank", "ops-separator", "apply-level",
        "ops-level", "apply-bound"])
def test_fourier_refuses_an_empty_word(capsys, flags):
    # an empty word was read as no task (the E8 expansion or the level
    # projection came out); it is a bad value, refused before any flag the
    # task would not read, as `hecke --op ""` is
    code, out, err = run(capsys, "fourier", "--provider", str(PROVIDER), *flags)
    assert (code, out, err) == (1, "", "error: empty operator word\n")


@pytest.mark.skipif(shutil.which("head") is None, reason="no head command")
def test_a_closed_stdout_stops_quietly():
    # the 155 kB output overfills the pipe, so the writer meets the closed
    # pipe once `head` has read its 10 bytes and gone
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    writer = subprocess.Popen(
        [sys.executable, "-m", "siegeleis.cli", "fourier", "--provider",
         str(PROVIDER), "--apply", "U:1,1"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = subprocess.run(["head", "-c", "10"], stdin=writer.stdout,
                              capture_output=True, timeout=60)
        writer.stdout.close()  # head held the only other reading end
        err = writer.stderr.read()
        code = writer.wait(timeout=60)
    finally:
        writer.kill()
        writer.stderr.close()
    assert (head.returncode, head.stdout) == (0, b"{\n  \"coeff")
    assert (code, err) == (141, b"")


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
                               None, True, False, [], {}])
        kind = rng.randrange(3)
        if kind == 0:
            return {f"k{rng.randint(0, 99)}": tree(depth - 1) for _ in range(4)}
        if kind == 1:
            return [tree(depth - 1) for _ in range(4)]
        return [str(rng.random()) for _ in range(3)]

    obj = [tree(6) for _ in range(10)]
    pieces = _written(obj)
    assert len(pieces) > 1
    assert "".join(pieces) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj,message", [
    (Fraction(1, 2), "cannot write Fraction as JSON"),
    ({"a": [1, {"b": {3}}]}, "cannot write set as JSON"),
    (["a", 0.5], "cannot write float as JSON"),
    ({"a": 1, 2: "b"}, "keys must be str, not int"),
    ({"a": [(1, 2)]}, "cannot write tuple as JSON"),
])
def test_write_json_rejects_what_no_output_holds(obj, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        _written(obj)


# every usage, help and error text argparse prints, at a fixed 80 columns:
# (exit code, sha256 of stdout, sha256 of stderr), recorded before the parser
# was built from the command table for the invoked command alone
EMPTY = hashlib.sha256(b"").hexdigest()
MESSAGES = {
    "help": (["--help"], 0,
        "7abc3d0e5526b89a80005ca1e1eadb45c70e0ac9be7f621150f0af2bf4d3597f",
        EMPTY),
    "basis-help": (["basis", "--help"], 0,
        "4658663ae82033c871188a7f7e9132ba61eadab3eab704a8ee9c18bd1b0919c1",
        EMPTY),
    "hecke-help": (["hecke", "--help"], 0,
        "8590c8eb8d7d904ada430b39fad1382d321f97d8f485ef8ba7e2544f7f63a155",
        EMPTY),
    "eigen-help": (["eigen", "--help"], 0,
        "dede312c1925eacfbc2e19679ee193c435c90823d3d75456f3b667a37befd2f3",
        EMPTY),
    "relations-help": (["relations", "--help"], 0,
        "235e4bf73611aea4c9dc5ebb5d8d9f80345cea31af8a118224e908a81726c3c5",
        EMPTY),
    "fourier-help": (["fourier", "--help"], 0,
        "59e668a99da05f959c8f124016168e9eba59387367b535ed130b5cc8fe9f6d3d",
        EMPTY),
    "verify-help": (["verify", "--help"], 0,
        "332388d210b631b992da4b611e142515a818bcb2d7cd5fb604eea6dc690ec5fd",
        EMPTY),
    "no-arguments": ([], 2,
        EMPTY,
        "6dcf78f11c43a196170ab10101c0a1b7210e0a63dcab8387ec76ec3ae676e5b2"),
    "bogus": (["bogus"], 2,
        EMPTY,
        "7fa25ad3957cd29336e6bc56a1b19102365ce351d645f477814b2ece20a3882c"),
    "unrecognized": (["fourier", "--provider", "P", "--level", "2", "extra"], 2,
        EMPTY,
        "46aa80be24f8dc9fd0d8bf8b7105f302e4672385bcec88a30afa4e54bdc70b97"),
    "missing-weight": (["eigen", "--level", "6"], 2,
        EMPTY,
        "a121a76fa23511efb11380e2c6bba32260adbc247d04e99eff9d1d6dc92848e9"),
    # a leftover argument with a missing flag: the missing flag is named
    "leftover-missing-weight": (["eigen", "--level", "6", "extra"], 2,
        EMPTY,
        "a121a76fa23511efb11380e2c6bba32260adbc247d04e99eff9d1d6dc92848e9"),
    # after `--` every word is positional, so --provider is missing
    "dashdash-before-flags": (["fourier", "--", "--provider", "P"], 2,
        EMPTY,
        "a238341d7d5269fed7c48834d245c5df81c4902113cdca2854d36c7124a7f7ba"),
    # an abbreviated flag is read; the leftover is reported by `siegeleis`
    "abbreviated-flag": (["fourier", "--prov", "P", "--level", "2", "x"], 2,
        EMPTY,
        "e86e6420b83f38af60a88c96ce67d17eb1d7b56df2f9b5fd23a98485549b330f"),
    "exclusive": (["fourier", "--apply", "U:1,2", "--ops", "U:1,2"], 2,
        EMPTY,
        "9889a423e8bb4232aa3d8a3bb28f5782afc68064d054738d9a95f4458d568313"),
    # an explicit empty word counts as given: the same message as above
    "exclusive-empty-word": (["fourier", "--provider", "P", "--apply", "",
                              "--ops", "U:1,2"], 2,
        EMPTY,
        "9889a423e8bb4232aa3d8a3bb28f5782afc68064d054738d9a95f4458d568313"),
    "invalid-choice": (["verify", "--preset", "nope"], 2,
        EMPTY,
        "73acd81e9b0793701eb73975b35cf9679555de902ce7b32083fb4255fc514a90"),
    # a suite flag the preset would ignore; of several, the first in the
    # parser's order is named
    "preset-seed": (["verify", "--preset", "quick", "--seed", "3"], 2,
        EMPTY,
        "b610132c5597359f531e8cff3b481d7988f8950f6f2bb6c25bcbe2ce77e8b8f8"),
    "preset-seed-n-max": (["verify", "--preset", "quick", "--seed", "3",
                           "--n-max", "2"], 2,
        EMPTY,
        "14672fe333141fdb86c0673add95bccfaaee9206beae0c3b907b4998e672f8ce"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(MESSAGES))
def test_cli_messages_are_pinned(capsys, monkeypatch, case):
    argv, code, out_sha, err_sha = MESSAGES[case]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, _sha(out.out), _sha(out.err)) == (
        code, out_sha, err_sha)


@pytest.fixture
def str_digits():
    """sys.set_int_max_str_digits for one test, restored after it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


def _nines_provider(path) -> str:
    """The E8 table with every value but the zero form's set to the
    4300-digit integer 9...9, the longest that str() writes by default."""
    lines = []
    for line in PROVIDER.read_text().splitlines():
        words = line.split()
        if len(words) == 4 and words[0][0].isdigit() and words[:3] != ["0"] * 3:
            line = " ".join(words[:3] + ["9" * 4300])
        lines.append(line)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _weight_8000_provider(path) -> str:
    """The E8 table with its header's weight set to 8000, so that the
    closed forms of `--calibrate` pass 4300 digits."""
    path.write_text(PROVIDER.read_text().replace(
        "!weight 4 level 1 group GL2", "!weight 8000 level 1 group GL2"))
    return str(path)


# each stands for a provider file that the test writes
NINES = "the 4300-digit provider"
WEIGHT_8000 = "the weight-8000 provider"
PROVIDERS = {NINES: _nines_provider, WEIGHT_8000: _weight_8000_provider}


@pytest.mark.parametrize("argv,digits", [
    (["eigen", "--level", "30", "--weight", "1800"], 7967),
    (["hecke", "--level", "30", "--weight", "3200", "--op", "T1:5"], 4474),
    (["eigen", "--level", "6", "--weight", "5000"], 11670),
    (["eigen", "--level", "6", "--weight", "5000", "--format", "csv"], 4771),
    (["relations", "--level", "30", "--weight", "7000"], 4894),
    # U(2,1) sums values, past 4300 digits; U(1,2) keeps them, and prints
    (["fourier", "--provider", NINES, "--apply", "U:2,1"], 4301),
    (["fourier", "--provider", NINES, "--apply", "U:1,2"], None),
    # the closed forms and the matrix diagonal hold 3 * 2^15997
    (["fourier", "--provider", WEIGHT_8000, "--level", "2", "--calibrate"],
     4817),
], ids=["eigen-json", "hecke", "eigen-level-6", "eigen-csv", "relations",
        "fourier-apply-sum", "fourier-apply-printable", "fourier-calibrate"])
def test_integers_past_the_str_digit_limit_are_refused_first(
        capsys, tmp_path, str_digits, argv, digits):
    # the command would have stopped part way, in str(), after up to
    # 391,734 bytes; it now refuses before the first one
    str_digits(4300)
    argv = [PROVIDERS[word](tmp_path / "table.coeffs") if word in PROVIDERS
            else word for word in argv]
    if digits is None:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and "9" * 4300 in out
        return
    assert run(capsys, *argv) == (1, "", (
        f"error: the output would print integers of up to {digits} digits; "
        f"at most 4300 can be printed\n"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_refused_eigen_run_keeps_its_output_file(capsys, tmp_path,
                                                   str_digits, fmt):
    # the csv's checks ran at its first line, after --output was opened,
    # so a refused run left an existing file at 0 bytes; both formats now
    # refuse before the file is opened
    str_digits(4300)
    path = tmp_path / "eigen.out"
    path.write_bytes(b"kept\n")
    code, out, err = run(capsys, "eigen", "--level", "6", "--weight", "5000",
                         "--format", fmt, "--output", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: the output would print integers of up to ")
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("argv", [
    ["--level", "70", "--weight", "5", "--char", "5:1,7:2", "--primes", "3"],
    ["--level", "2310", "--weight", "4", "--char", "5:1,11:1"],
], ids=["N70", "N2310"])
def test_the_eigen_formats_agree(capsys, argv):
    # a csv line holds the eigenvalue, closed form and match of the JSON
    # comparison row of its (partition, op), the values as their repr
    code, out, _ = run(capsys, "eigen", *argv)
    assert code == 0
    rows = {("({N0};{N1};{N2})".format(**row["partition"]), row["op"]): row
            for row in json.loads(out)["comparison"]}
    code, out, _ = run(capsys, "eigen", *argv, "--format", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "partition,op,eigenvalue,closed_form,match"
    assert len(lines) == len(rows) > 0

    def text(value):
        return repr(CycNum.from_json(value)).replace(" ", "")
    assert any(row["match"] and "z" in text(row["matrix_value"])
               for row in rows.values())  # a value off Q
    for line in lines:
        partition, op, eigenvalue, closed_form, match = line.split(",")
        row = rows.pop((partition, op))
        assert eigenvalue == text(row["matrix_value"])
        assert closed_form == text(row["closed_form"])
        assert match == str(row["match"]).lower()
    assert rows == {}


@pytest.mark.parametrize("argv", [
    ["eigen", "--level", "30", "--weight", "200"],
    ["eigen", "--level", "35", "--weight", "301", "--char", "5:1"],
    ["eigen", "--level", "105", "--weight", "200", "--char", "5:1,7:1"],
    ["eigen", "--level", "1155", "--weight", "320", "--char", "5:2,7:3,11:5",
     "--primes", "2", "--format", "csv"],
    ["hecke", "--level", "15", "--weight", "301", "--char", "5:1",
     "--op", "T:2;T1:3;T:5"],
    ["hecke", "--level", "30", "--weight", "400", "--op", "T:2;T1:3;S1:5"],
    ["relations", "--level", "30", "--weight", "1000"],
])
def test_the_digit_bound_holds_where_the_output_is_printed(
        capsys, str_digits, argv):
    # at the least limit above the bound the whole output is written, and
    # no integer in it has more digits than the bound; a limit one below
    # the bound refuses the output
    str_digits(640)  # the least limit there is
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    bound = int(err.split("up to ")[1].split()[0])
    str_digits(bound)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    longest = max(map(len, "".join(c if c.isdigit() else " "
                                   for c in out).split()))
    assert bound - 3 <= longest <= bound
    str_digits(bound - 1)
    assert run(capsys, *argv)[:2] == (1, "")


ALL_COMMANDS = ["basis", "hecke", "eigen", "relations", "fourier", "verify"]
FULL = ["siegeleis", *(f"siegeleis {name}" for name in ALL_COMMANDS)]
VALID = {
    "basis": ["--level", "6", "--weight", "4"],
    "hecke": ["--level", "6", "--weight", "4", "--op", "T:2"],
    "eigen": ["--level", "6", "--weight", "4"],
    "relations": ["--level", "6", "--weight", "4"],
    "fourier": ["--provider", "P", "--apply", "U:1,2"],
    "verify": ["--preset", "quick"],
}


@pytest.fixture
def built(monkeypatch):
    """The _Parser objects that each call of main builds, in order, with
    every command replaced by one that does nothing."""
    parsers = []
    real = cli._Parser.__init__

    def counted(self, *a, **kw):
        parsers.append(self)
        real(self, *a, **kw)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for name, (help_text, add_arguments, _) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name,
                            (help_text, add_arguments, lambda args: 0))
    return parsers


@pytest.mark.parametrize("argv,progs", [
    (None, FULL),
    ([], FULL),
    (["--help"], FULL),
    (["bogus", "--level", "6"], FULL),
    (["--", "eigen"], FULL),
    *(([name, *VALID[name]], [f"siegeleis {name}"]) for name in ALL_COMMANDS),
    (["fourier", "--help"], ["siegeleis fourier"]),
    (["basis", *VALID["basis"], "extra"], ["siegeleis basis", *FULL]),
    (["eigen", "--level", "6", "extra"], ["siegeleis eigen"]),
], ids=["none", "empty", "help", "bogus", "dashdash", *ALL_COMMANDS,
        "fourier-help", "leftover", "leftover-missing-flag"])
def test_the_parser_registers_the_invoked_command_alone(
        built, capsys, monkeypatch, argv, progs):
    # a valid command builds its own parser alone, the one the full parser
    # adds for it (its help and errors are pinned above); --help, a typo, no
    # command and a leftover argument build the parser of every command,
    # whose text they print; a command's own --help and a missing flag are
    # its parser's, and exit before any leftover is read
    monkeypatch.setattr(sys, "argv", ["siegeleis"])
    with contextlib.suppress(SystemExit):
        main(argv)
    assert [p.prog for p in built] == progs
