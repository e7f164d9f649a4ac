"""Golden-output guard: the stdout of a fixed list of fast CLI commands must
keep the sha256 digests recorded before the one-helper-per-job refactor
(the level-210 eigen digest before the tables became sparse rows; at
dimension 81 it runs the sparse verifier over four level primes; the level-55
eigen and level-10 hecke digests before CycNum moved to integer numerators:
they print values at conductors 5 and 4, where the others print only
rationals; the level-70 and level-210 hecke words and the level-210
relations before S1/S2 became cached sparse tables applied to row vectors:
the level-70 word prints entries at conductor 12; the level-2310 eigen with
a conductor-20 character and the level-70 eigen with extra primes before
eigenvectors were verified one prime at a time: they verify against tables
whose local blocks differ by character pattern; the level-2310 trivial
eigen, the largest rational tree, before JSON output was streamed through
`cli.write_json`; the level-55 csv eigen, which prints values at conductor
20, before eigenvectors were stored factored and csv cells were formatted
from the values instead of a JSON round trip; the fourier `--apply` words
U:1,5, U:6,1 and U:1,2;U:2,1 before provider parsing, reduction and class
keys were made cheap: they apply U(Q,1), U(1,P) and a two-letter word to the
parsed E8 table; the level-2310 csv eigen, trivial and with a conductor-20
character, before each csv prefix and suffix was built once; the other five
fourier `--apply` words U:1,2, U:2,1, U:3,1, U:5,1 and U:2,3 before an
expansion's domain keys moved into the memoized `reduced_class_keys` and the
Krylov relation was read off `left_null_space`: with them every command of
the perfbench fourier-e8 workload is pinned).

A refactor that changes no result leaves every digest unchanged.  When an
output changes on purpose, re-record the digest and name the change in
CHANGES.md.
"""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

import siegeleis.cli as cli
import siegeleis.hecke as hecke
from siegeleis.cli import main
from siegeleis.cyclotomic import CycNum

PROVIDER = str(Path(__file__).resolve().parent.parent / "data"
               / "e8_weight4_level1.coeffs")

EIGEN_30_PRIMES_7 = ("eigen", "--level", "30", "--weight", "4", "--primes", "7")
RELATIONS_210 = ("relations", "--level", "210", "--weight", "4")
EIGEN_2310_CSV = ("eigen", "--level", "2310", "--weight", "4", "--format", "csv")
EIGEN_55_CSV = ("eigen", "--level", "55", "--weight", "4", "--char",
                "5:1,11:1", "--format", "csv")

GOLDEN = [
    (("basis", "--level", "30", "--weight", "4"),
     "431e8a5bd7c8855ea6022d7fd08843950401b5bf9cc02359e650c2c798849ef8"),
    (("basis", "--level", "10", "--weight", "4", "--char", "5:2"),
     "ca6e152ff0ccbcb8107eeecea7b924ea29eb10e00e84afb48074d65addea016e"),
    (("hecke", "--level", "6", "--weight", "4", "--op", "T:2;S1:3;S2:2"),
     "22e8f668e64aaad77a87cf61726e2ab6ac08af08f1833a80adbba61a7b8230ce"),
    (("hecke", "--level", "6", "--weight", "4", "--op", "T1:5"),
     "f7a84d390e80090c58c67f7cfdc4983edea907ad97743989a08488778f3d7546"),
    (("eigen", "--level", "30", "--weight", "4"),
     "f3ab844b1dd39f28a4e735242dff1d3ccfe41a6e853484250be694b7961665b9"),
    (("eigen", "--level", "30", "--weight", "4", "--format", "csv"),
     "4c5a2142884d09a11bda4d82b3be0c4d2d939a1c19eb5e510ad1d8ffdd5485ba"),
    (("eigen", "--level", "10", "--weight", "4", "--char", "5:2",
      "--primes", "3"),
     "28af00b712fd908e0021930a79e984ab25bd97cef7b28c358e961bc8240fa3e4"),
    (EIGEN_30_PRIMES_7,
     "16d202b2b9859fa0eacfd750fbc10f5aa51bb62df0824151e32b1cb8446e3010"),
    (("eigen", "--level", "210", "--weight", "4"),
     "38e8f87388fe4b74c7b665f9671570e9b524acda6cdb2ce3a5275c54a485ad08"),
    (("eigen", "--level", "55", "--weight", "4", "--char", "5:1,11:1"),
     "7a81fc89669bd9a1cffb2ecc191555956cea0b2a0a5224e16643ea491f79c8a6"),
    (EIGEN_55_CSV,
     "24f3c4e9dd95581b8f2a3fa41dc40403c08b52aa5f1bad38677e055786b90493"),
    (("eigen", "--level", "2310", "--weight", "4"),
     "83787407a0c7766556e731b3a4f5871de2aabdfcdc05b0076b05dba55d5c5a47"),
    (("eigen", "--level", "2310", "--weight", "4", "--char", "5:1,11:1"),
     "dc58e53b85bbb68f5d3a412c77fb8fe0b989908bfacb151c2ddaa08571d136cb"),
    (EIGEN_2310_CSV,
     "7d62c702dfd3408b516ce6808e81ea5d1f1e8f81dc73dfc9aa3d7e54ba6c6c9a"),
    (("eigen", "--level", "2310", "--weight", "4", "--char", "5:1,11:1",
      "--format", "csv"),
     "09c73d81279802f2aad191933ee39785372e1b011e98f6ee7bea102805973169"),
    (("eigen", "--level", "70", "--weight", "5", "--char", "5:1,7:2",
      "--primes", "3,11"),
     "0568553e32059e25126095223ef76c866298c5e01b1b7363e4435778146ba1e4"),
    (("hecke", "--level", "10", "--weight", "5", "--char", "5:1",
      "--op", "T:2;T1:5;S2:2;T:3"),
     "8d482f96cd9aa66c4cae7e2b02c2a217e97e4488a5dabcfb527cc0283ca70768"),
    (("hecke", "--level", "70", "--weight", "5", "--char", "5:1,7:2",
      "--op", "S1:2;T:3;S2:2"),
     "47774f21320d095edf9b9632f8ea3b8de7a3a6512c6a92fa2cee016ba36dd0e0"),
    (("hecke", "--level", "210", "--weight", "4", "--op", "T:2;S1:3;S2:5"),
     "85ae3aee8e6ed0569afea0dd17c09ee68be57308cc9e74b3e5efa25dea0473cf"),
    (("relations", "--level", "30", "--weight", "4"),
     "854f8d584076800e83d528f449ef0fd6776d617dda134547667a36efbabdc014"),
    (RELATIONS_210,
     "cb949c95a6865b98fcc76af3a4a3add4dd65548d6d9a44dcb509e57a82512d64"),
    (("fourier", "--provider", PROVIDER, "--level", "2"),
     "22dc2d83c0157c0851aaca1f231d78deef188fe7452a8f936a845b77e03233b3"),
    (("fourier", "--provider", PROVIDER, "--level", "2", "--calibrate"),
     "7cace6c3aa356e814bd4c9526d63cef7d1a9f6f0bb095bfe6645f9542fd23bfa"),
    (("fourier", "--provider", PROVIDER, "--ops", "U:1,2;U:2,1"),
     "009fd983aaa5980930dde3d2b26b326e23eb9b2a3b317ff32151bb44a07a6edd"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:1,2"),
     "15a14087b66919228c741726cda62843aa7267c50573ee3b4a2c24268f35a10b"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:2,1"),
     "2711b03abae3288c917367cc2215ecf9c6e0451214ff82f2239a3252066c4218"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:1,3"),
     "0a519d27d6a5422a7671ecf71b2270e247a797f8b02eb244ccb288f8fda0f5df"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:3,1"),
     "6e37cc45bd8e641b12300b35b58950e45d5401111c246831528745869e419eea"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:1,5"),
     "32ed83eddf3df6645821cc50e8ee2220f0fb36b893e0bf35db88bef661dd7745"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:5,1"),
     "f72ec1fb269cade0e93cc28669d52eb638d28f8888ca7ee5735a2b354c579fdc"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:2,3"),
     "eeba3d8959027eb1d6bcb3f2d6c77b3516e53d82e0876b36dfe072018835ab39"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:6,1"),
     "d41dd7e15b8aeb746c26cdd611b233dc2f83f118a1d4dd6d6ff12c72685ba1c3"),
    (("fourier", "--provider", PROVIDER, "--apply", "U:1,2;U:2,1"),
     "b58d09d969e88cf3e0ccee725e55847bccba2f5d1c0c3fa75c75254e5a199fec"),
    (("verify", "--preset", "quick"),
     "b4f091bfc548201b2357800dd41757d15614680f86d1c7ddf7f2a6bb59e8afd5"),
]


def stdout_digest(capsys, argv) -> str:
    code = main(list(argv))
    assert code == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=[" ".join(a).replace(PROVIDER, "E8")
                              for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, digest):
    assert stdout_digest(capsys, argv) == digest


def test_eigen_builds_one_eigenbasis(capsys, monkeypatch):
    calls = []
    real = hecke.eigenbasis

    def counted(ops):
        calls.append(ops.space.level)
        return real(ops)

    # both names, so a second call from inside hecke is counted too
    monkeypatch.setattr(cli, "eigenbasis", counted)
    monkeypatch.setattr(hecke, "eigenbasis", counted)
    digest = stdout_digest(capsys, EIGEN_30_PRIMES_7)
    assert calls == [30]
    assert digest == dict(GOLDEN)[EIGEN_30_PRIMES_7]


def test_relations_build_each_s_table_once(capsys, monkeypatch):
    calls = []
    real = hecke.s_operator

    def counted(ops, q, which):
        calls.append((q, which))
        return real(ops, q, which)

    monkeypatch.setattr(hecke, "s_operator", counted)
    digest = stdout_digest(capsys, RELATIONS_210)
    # 4 primes x {S1, S2}, each built once for the 81 relation words
    assert sorted(calls) == [(q, w) for q in (2, 3, 5, 7) for w in ("S1", "S2")]
    assert digest == dict(GOLDEN)[RELATIONS_210]


def test_csv_eigen_expands_no_vector(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("csv output expanded an eigenvector")

    monkeypatch.setattr(hecke, "_expand", forbidden)
    assert stdout_digest(capsys, EIGEN_55_CSV) == dict(GOLDEN)[EIGEN_55_CSV]


def test_csv_eigen_formats_each_row_tail_once(capsys, monkeypatch):
    # at the trivial character a level table's value and closed form depend
    # only on the rank at p: the 2430 rows at N=2310 share 10 x 3 tails,
    # each formatting its two values once
    shown = []
    real = CycNum.__repr__

    def counted(self):
        shown.append(self)
        return real(self)

    monkeypatch.setattr(CycNum, "__repr__", counted)
    assert stdout_digest(capsys, EIGEN_2310_CSV) == dict(GOLDEN)[EIGEN_2310_CSV]
    assert len(shown) == 2 * 10 * 3


def test_json_eigen_expands_each_vector_once(capsys, monkeypatch):
    calls = Counter()
    real = hecke._expand

    def counted(vec, products):
        calls[vec.partition] += 1
        return real(vec, products)

    monkeypatch.setattr(hecke, "_expand", counted)
    digest = stdout_digest(capsys, EIGEN_30_PRIMES_7)
    assert len(calls) == 27 and set(calls.values()) == {1}
    assert digest == dict(GOLDEN)[EIGEN_30_PRIMES_7]
