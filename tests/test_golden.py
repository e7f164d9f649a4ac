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
the perfbench fourier-e8 workload is pinned; the level-30030 hecke T:2,
dimension 729, before its rows were streamed from `apply_word` instead of
held as a dense matrix; the level-2310 relations before its identities were
streamed as rendered records instead of one dict each; at scale, `basis`
and the csv `eigen` at N=9699690 (omega 8) and `relations` at N=223092870
(omega 9), before the basis was stored as one sorted code per element, the
order that rewrite computes anew; the JSON and csv `eigen` at N=30030
(omega 6) with a character of conductor 60, whose rank-0 local vectors lie
in a field larger than Q(zeta_20), before the local vectors were proved
without division and normalized once per key; the level-390 hecke word
with quadratic chi_5 and chi_13, whose S2 tables are (T - I) f, before
S1 and S2 became one combination of T, T1 and I).  `SL2_APPLY` pins four
fourier `--apply` words on a generated SL2 table, whose twin proper classes
carry different values, before an SL2 class was keyed by its proper reduced
form alone.

A refactor that changes no result leaves every digest unchanged.  When an
output changes on purpose, re-record the digest and name the change in
CHANGES.md.  Every golden command runs with a recording `stage` callback
installed, which must see the command's stages in order and change no byte.
"""

import hashlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import siegeleis.hecke as hecke
import siegeleis.jsonout as jsonout
from siegeleis.cli import main
from siegeleis.cyclotomic import CycNum
from siegeleis.eisspace import EisSpace, Partition, enumerate_partitions
from siegeleis.fourier import (CoefficientProvider, FourierExpansion,
                               UOperator, apply_U, provider_load)
from siegeleis.jsonout import write_json
from siegeleis.lattices import GL2, SL2, reduced_class_keys, reduced_posdef_forms

PROVIDER = str(Path(__file__).resolve().parent.parent / "data"
               / "e8_weight4_level1.coeffs")

EIGEN_30_PRIMES_7 = ("eigen", "--level", "30", "--weight", "4", "--primes", "7")
RELATIONS_210 = ("relations", "--level", "210", "--weight", "4")
RELATIONS_2310 = ("relations", "--level", "2310", "--weight", "4")
EIGEN_2310_CSV = ("eigen", "--level", "2310", "--weight", "4", "--format", "csv")
EIGEN_30030_CHAR = ("eigen", "--level", "30030", "--weight", "5", "--char",
                    "7:1,11:1,13:1")
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
    (EIGEN_30030_CHAR,
     "7ebec27f1d593ede69ba93e71c17e315e6e8f4511e26902088dfda37e071a608"),
    (EIGEN_30030_CHAR + ("--format", "csv"),
     "d6f72cec000947d71326ea00af21551d55aa8aee5b2506b9ed556d9e477d74e2"),
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
    (("hecke", "--level", "30030", "--weight", "4", "--op", "T:2"),
     "40c62763d6acee2e79935bc128b710a5c82706a155c9c4a27dc37e55c643b7a8"),
    (("hecke", "--level", "390", "--weight", "6", "--char", "5:2,13:6",
      "--op", "S2:5;S1:3;S2:13;T1:2"),
     "0c6e638ad568d3432a6988d2c550d2c59c4385b88279a897245f5c2d80f9bfb5"),
    (("relations", "--level", "30", "--weight", "4"),
     "854f8d584076800e83d528f449ef0fd6776d617dda134547667a36efbabdc014"),
    (RELATIONS_210,
     "cb949c95a6865b98fcc76af3a4a3add4dd65548d6d9a44dcb509e57a82512d64"),
    (RELATIONS_2310,
     "eb7e3e94599c083c2400392acc5c34427bff2296d672e43a2f5704e57dc9d6ef"),
    (("basis", "--level", "9699690", "--weight", "4"),
     "c706dc0d91d5d980bd1675993514ee7d459f9dd4719b2e459eee9fae6f7d0317"),
    (("eigen", "--level", "9699690", "--weight", "4", "--format", "csv"),
     "e8b7d9c18e2a8947e8eb9b916672cf105d1896ad25d20c75f586f357490815f7"),
    (("relations", "--level", "223092870", "--weight", "4"),
     "be9c2fd177c3091ca5f1acc13828638e98c3328a3dfbfac5bdd537c2cf66db55"),
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
GOLDEN_IDS = [" ".join(a).replace(PROVIDER, "E8") for a, _ in GOLDEN]


SL2_APPLY = [
    ("U:1,1",
     "afefb099eea3231234446b9d9e8825742f9ff3002cd82608140c5c01977fa242"),
    ("U:1,2",
     "9b6635752cbb972c05a76fd2bb8e8220a013061237df22488b85246d9b748095"),
    ("U:2,1",
     "e1c2c1b7654ecb61bbc7d33f9a19a1555b20d4c925630bbd2c5c52ee55f2d203"),
    ("U:1,3;U:2,1",
     "af596292c9fddad547b870b81a888d17d834b78ba6971156e4eaa4d87a7041df"),
]


# the stages each command reports to cli.main's callback, in order, and the
# type of what each hands over (None where a stage is not named here)
STAGES = {"basis": ["parse", "basis", "render"],
          "hecke": ["parse", "basis", "tables", "render"],
          "eigen": ["parse", "basis", "tables", "eigenbasis", "render"],
          "relations": ["parse", "basis", "relations", "render"],
          "verify": ["parse", "suite", "render"]}
BUILT = {"basis": EisSpace, "tables": hecke.SpaceOperators,
         "eigenbasis": hecke.EigenSystem, "relations": hecke.SpaceOperators,
         "load": CoefficientProvider}


def stdout_digest(capsys, argv) -> str:
    code = main(list(argv))
    assert code == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def staged_digest(capsys, argv) -> str:
    """stdout_digest with a recording stage callback, after checking what
    the callback saw."""
    seen = []
    code = main(list(argv), stage=lambda name, value: seen.append((name, value)))
    assert code == 0
    task = next((a[2:] for a in argv if a in ("--apply", "--ops", "--calibrate")),
                "project")
    assert [name for name, _ in seen] == STAGES.get(argv[0],
                                                    ["parse", "load", task,
                                                     "render"])
    for name, value in seen:
        assert isinstance(value, BUILT.get(name, type(None))), name
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_stdout(capsys, argv, digest):
    assert stdout_digest(capsys, argv) == digest


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=GOLDEN_IDS)
def test_golden_stdout_with_stages_recorded(capsys, argv, digest):
    assert staged_digest(capsys, argv) == digest


def test_eigen_builds_one_eigenbasis(capsys, monkeypatch):
    calls = []
    real = hecke.eigenbasis

    def counted(ops):
        calls.append(ops.space.level)
        return real(ops)

    # cli reads hecke.eigenbasis when it runs, so this counts every call
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


def test_relations_apply_no_word(capsys, monkeypatch):
    # the 81 words are proved from the S tables' local rows, prime by prime
    def forbidden(*args):
        raise AssertionError("relations applied a table to a vector")

    monkeypatch.setattr(hecke.HeckeMatrix, "vec_mat", forbidden)
    monkeypatch.setattr(hecke, "apply_word", forbidden)
    assert stdout_digest(capsys, RELATIONS_210) == dict(GOLDEN)[RELATIONS_210]


def test_csv_eigen_expands_no_vector(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("csv output expanded an eigenvector")

    monkeypatch.setattr(hecke.EigenSystem, "_terms", forbidden)
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
    real = hecke.EigenSystem._terms

    def counted(system, i, ranks):
        calls[i] += 1
        return real(system, i, ranks)

    monkeypatch.setattr(hecke.EigenSystem, "_terms", counted)
    digest = stdout_digest(capsys, EIGEN_30_PRIMES_7)
    assert calls == Counter(range(27))  # each basis index once
    assert digest == dict(GOLDEN)[EIGEN_30_PRIMES_7]


def test_no_command_builds_a_partition_per_basis_element(capsys, monkeypatch):
    # the space is its codes: enumerate_partitions builds no Partition, and
    # basis, hecke, eigen (JSON and csv) and relations print the decoded
    # parts, so none of them builds one either
    made = []
    monkeypatch.setattr(Partition, "__post_init__",
                        lambda self: made.append(self))
    assert enumerate_partitions(2310, None, 4).dimension == 243
    assert made == []
    golden = dict(GOLDEN)
    for argv in [("basis", "--level", "2310", "--weight", "4"),
                 ("hecke", "--level", "210", "--weight", "4", "--op",
                  "T:2;S1:3;S2:5"),
                 ("eigen", "--level", "2310", "--weight", "4"),
                 EIGEN_2310_CSV, RELATIONS_2310]:
        digest = stdout_digest(capsys, argv)
        assert made == [], argv
        assert digest == golden.get(argv, digest)


def write_sl2_table(path) -> str:
    """A weight-5 SL2 table on det <= 108 and content <= 36.  Each proper
    class (a, s, c) holds (a + 3c - 2s)/(det + 1), so the twins (a, +-b, c)
    of a class that splits differ.  Every third class is written as its
    image under the shear [[1,1],[0,1]], and any other class with s < 0 as
    the b > 0 form with orient -1."""
    lines = ["!weight 5 level 1 group SL2", "0 0 0 1"]
    lines += [f"{m} 0 0 {3 * m - 1}" for m in range(1, 37)]
    classes = []
    for f in reduced_posdef_forms(108):
        classes.append(f)
        if 0 < 2 * f.b < f.a < f.c:
            classes.append((f.a, -f.b, f.c))
    for i, (a, s, c) in enumerate(classes):
        value = f"{a + 3 * c - 2 * s}/{a * c - s * s + 1}"
        if i % 3 == 1:
            lines.append(f"{a} {a + s} {a + 2 * s + c} {value}")
        elif s < 0:
            lines.append(f"{a} {-s} {c} {value} -1")
        else:
            lines.append(f"{a} {s} {c} {value}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("word,digest", SL2_APPLY,
                         ids=[w for w, _ in SL2_APPLY])
def test_golden_sl2_apply(capsys, tmp_path, word, digest):
    table = write_sl2_table(tmp_path / "sl2.coeffs")
    argv = ("fourier", "--provider", table, "--apply", word)
    assert stdout_digest(capsys, argv) == digest
    assert staged_digest(capsys, argv) == digest


def written(obj) -> str:
    pieces = []
    write_json(obj, pieces.append)
    return "".join(pieces)


# where `fourier` writes an expansion: the whole --apply output, the
# expansion of an --ops component and that of a level-projection component
AT_DEPTH = {0: lambda x: x, 2: lambda x: [{"expansion": x}],
            3: lambda x: {"components": [{"expansion": x}]}}


@pytest.mark.parametrize("chunk", [1, 7, jsonout._CHUNK_ITEMS])
def test_rendered_expansions_write_their_plain_json(tmp_path, monkeypatch,
                                                    chunk):
    # the oracle is write_json of to_json(): E8 and its images, the SL2
    # golden table (orient -1 keys and a/b values), and a validated table
    # holding a value off Q, zeta_5 + 1/3
    monkeypatch.setattr(jsonout, "_CHUNK_ITEMS", chunk)
    e8 = provider_load(PROVIDER).expansion
    sl2 = provider_load(write_sl2_table(tmp_path / "sl2.coeffs")).expansion
    assert any(b < 0 for _, b, _ in sl2.domain_keys())
    assert any(v.d > 1 for v in sl2.coeffs.values())
    zeta = CycNum(5, [Fraction(1, 3), 1, 0, 0])
    keys = reduced_class_keys(6, 3, GL2)
    mixed = FourierExpansion(GL2, 6, 3, {k: zeta if i % 3 else Fraction(i, 4)
                                         for i, k in enumerate(keys)})
    expansions = [e8, apply_U(e8, UOperator(1, 2)), apply_U(e8, UOperator(3, 1)),
                  sl2, apply_U(sl2, UOperator(1, 2)), mixed]
    assert (sl2.mode, mixed.coeffs[keys[1]].m) == (SL2, 5)
    for exp in expansions:
        for depth, place in AT_DEPTH.items():
            assert (written(place(exp.rendered(depth)))
                    == written(place(exp.to_json()))), (exp.mode, depth)


def test_json_eigen_decodes_each_element_once(monkeypatch):
    # eigen_json decodes each basis element once, and the representative
    # of each key of a comparison once, where it evaluates the closed form
    space = enumerate_partitions(2310, None, 4)
    system = hecke.eigenbasis(hecke.SpaceOperators(space))
    cases = sum(len(c.cases) for c in hecke.eigenvalue_comparisons(system))
    calls = Counter()
    real = EisSpace.decode

    def counted(self, i):
        calls[i] += 1
        return real(self, i)

    monkeypatch.setattr(EisSpace, "decode", counted)
    text = written(hecke.eigen_json(system))
    assert sum(calls.values()) <= space.dimension + cases == 243 + 30
    assert set(calls) == set(range(space.dimension))
    digest = dict(GOLDEN)[("eigen", "--level", "2310", "--weight", "4")]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
