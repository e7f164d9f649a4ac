"""Property tests of the CLI spec grammars.

Whatever text is given to `--char`, `--op`, `--primes` or `fourier --ops`,
the command either parses it and runs (exit 0), or exits 1 with one line
`error: ...` on stderr, and no traceback reaches the user.  The text goes
in as `--flag=TEXT`, so argparse takes any of it and exit 2 (a usage error)
cannot occur.  The texts mix the grammar's pieces (kinds, ':', ',', ';',
signs, spaces, integers up to 10^25, past the primality bound) with
arbitrary text.  Each command runs in-process on a small space, or on the
shipped E8 table at sample bound 1, so a property costs a few seconds.
"""

import contextlib
import io
from pathlib import Path

import pytest

from siegeleis.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROVIDER = str(Path(__file__).resolve().parent.parent / "data"
               / "e8_weight4_level1.coeffs")
SETTINGS = hypothesis.settings(max_examples=80, deadline=2000)

INTS = st.one_of(st.integers(-3, 40), st.integers(-10**6, 10**6),
                 st.integers(-10**25, 10**25)).map(str)
SEPS = st.sampled_from(["", ":", ",", ";", " ", "-", ":-"])
NOISE = st.one_of(st.text(max_size=8),
                  st.text(alphabet="TUS1:,;- 0x9", max_size=8))
HECKE_TOKENS = st.builds("{}{}{}".format,
                         st.sampled_from(["T", "T1", "S1", "S2", "U", "X", ""]),
                         SEPS, INTS)
U_TOKENS = st.builds("U:{},{}".format, INTS, INTS)


def _joined(piece, sep):
    return st.lists(piece, max_size=3).map(sep.join)


OP_WORDS = st.one_of(_joined(st.one_of(HECKE_TOKENS, U_TOKENS, NOISE), ";"),
                     NOISE)
CHAR_SPECS = st.one_of(
    _joined(st.one_of(st.builds("{}:{}".format, INTS, INTS), NOISE), ","),
    st.sampled_from(["1", "", "3:1", "5:2", "3:1,5:2"]), NOISE)
PRIME_LISTS = st.one_of(_joined(st.one_of(INTS, NOISE), ","), NOISE)


def _run(*argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_clean(*argv):
    code, out, err = _run(*argv)
    if code == 0:
        assert err == ""
    else:
        assert code == 1, (code, err)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


@SETTINGS
@hypothesis.given(CHAR_SPECS)
def test_char_spec_parses_or_fails_cleanly(text):
    _assert_clean("basis", "--level", "15", "--weight", "4", f"--char={text}")


@SETTINGS
@hypothesis.given(OP_WORDS)
def test_op_word_parses_or_fails_cleanly(text):
    _assert_clean("hecke", "--level", "6", "--weight", "4", f"--op={text}")


@SETTINGS
@hypothesis.given(PRIME_LISTS)
def test_prime_list_parses_or_fails_cleanly(text):
    _assert_clean("eigen", "--level", "6", "--weight", "4", "--format", "csv",
                  f"--primes={text}")


@hypothesis.settings(max_examples=40, deadline=5000)
@hypothesis.given(OP_WORDS)
def test_fourier_ops_parses_or_fails_cleanly(text):
    _assert_clean("fourier", "--provider", PROVIDER, "--sample-bound", "1",
                  f"--ops={text}")


def test_zero_character_prime_is_a_domain_error():
    # q = 0 used to reach N % q and exit 3 with "integer modulo by zero"
    assert _run("basis", "--level", "15", "--weight", "4", "--char=0:1") == (
        1, "", "error: prime 0 does not divide the modulus 15\n")
