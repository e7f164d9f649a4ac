import os
import pickle
import random
import subprocess
import sys
import time
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from siegeleis.characters import (DirichletCharacter, LocalCharacter,
                                  enumerate_characters, legendre_epsilon,
                                  smallest_primitive_root)
from siegeleis.cyclotomic import CycNum


def test_make_examples():
    triv = DirichletCharacter.make(1)
    assert triv.order == 1 and triv(5) == 1
    quad3 = DirichletCharacter.make(3, [(3, 1)])
    assert quad3.order == 2  # (3-1)/gcd(2,1)
    chi5 = DirichletCharacter.make(5, [(5, 1)])
    assert chi5.order == 4
    assert smallest_primitive_root(5) == 2
    assert chi5(2) == CycNum.root_of_unity(4)


def test_make_errors():
    with pytest.raises(ValueError):
        DirichletCharacter.make(12)  # not square-free
    with pytest.raises(ValueError):
        DirichletCharacter.make(15, [(7, 1)])  # 7 does not divide 15
    with pytest.raises(ValueError):
        DirichletCharacter.make(5, [(5, 4)])  # exponent out of range
    with pytest.raises(ValueError):
        LocalCharacter(2, 1)  # the group mod 2 is trivial
    with pytest.raises(ValueError):
        DirichletCharacter.make(10, [(5, 1), (5, 2)])


def test_eval_examples():
    quad3 = DirichletCharacter.make(3, [(3, 1)])
    # Euler criterion: 2 is a non-residue mod 3
    assert pow(2, 1, 3) == 3 - 1
    assert quad3(2) == -1
    chi6 = DirichletCharacter.make(6, [(3, 1)])
    assert chi6(3).is_zero()
    chi5 = DirichletCharacter.make(5, [(5, 1)])
    assert chi5(4) == -1  # 4 = 2^2, so chi(4) = i^2


def test_eval_matches_a_discrete_log_table():
    # chi(g^t) = zeta_{q-1}^(j t), read off a table of every power of g
    for q in (3, 5, 7, 11, 13, 31, 37, 41):
        g = smallest_primitive_root(q)
        dlog = {pow(g, t, q): t for t in range(q - 1)}
        for j in range(q - 1):
            chi = LocalCharacter(q, j)
            for n in range(1, q):
                want = CycNum.root_of_unity(q - 1, j * dlog[n])
                assert chi(n) == want and chi(n).m == want.m, (q, j, n)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, bound):
    """The CLI in a child process, which must finish within `bound`
    seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("SIEGELEIS_CONDUCTOR_CAP", None)  # the default cap, 120
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "siegeleis.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert time.perf_counter() - t0 < bound
    return proc


def test_character_at_a_huge_prime_level_runs_in_bounded_time():
    # a discrete-log table would hold q - 1 entries; chi(-1) = -1 is
    # odd, so weight 4 exits on parity
    proc = run_cli("basis", "--level", "10000019", "--weight", "4",
                   "--char", "10000019:1", bound=5)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "parity violation" in proc.stderr
    # q - 1 = 2 * 500000003, so this character is quadratic and odd
    q = 1000000007
    proc = run_cli("eigen", "--level", str(q), "--weight", "5",
                   "--char", f"{q}:500000003", bound=5)
    assert proc.returncode == 0 and proc.stderr == ""
    # chi(2) has order (q - 1) / 2 = 500000003, refused before any search
    proc = run_cli("eigen", "--level", str(q), "--weight", "5",
                   "--char", f"{q}:1", "--primes", "2", bound=5)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: conductor 500000003 exceeds the "
                           "configured cap 120\n")


def test_eval_matches_euler_criterion():
    # for quadratic local characters the value agrees with p^((q-1)/2)
    for q in (3, 5, 7, 11, 13):
        chi = DirichletCharacter.make(q, [(q, (q - 1) // 2)])
        for n in range(1, q):
            e = pow(n, (q - 1) // 2, q)
            want = 1 if e == 1 else -1
            assert chi(n) == want, (q, n)


def test_props_examples():
    triv2 = DirichletCharacter.make(2)
    assert triv2.order == 1 and triv2.is_real_at(2)
    assert triv2.parity() == 1 and triv2.valid_for_weight(4)
    quad3 = DirichletCharacter.make(3, [(3, 1)])
    assert quad3.parity() == -1
    assert not quad3.valid_for_weight(4) and quad3.valid_for_weight(5)
    chi5 = DirichletCharacter.make(5, [(5, 1)])
    assert chi5.order == 4 and chi5.is_real_at(5) is False
    assert DirichletCharacter.make(1).parity() == 1


def test_legendre_epsilon():
    assert legendre_epsilon(5) == 1
    assert legendre_epsilon(3) == -1
    assert legendre_epsilon(13) == 1
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        eps = legendre_epsilon(q)
        assert eps * eps == 1
        assert (q % 4 == 1) == (eps == 1)
    with pytest.raises(ValueError):
        legendre_epsilon(2)
    with pytest.raises(ValueError):
        legendre_epsilon(15)


def test_multiplicativity_property():
    rng = random.Random(99)
    chars = [
        DirichletCharacter.make(15, [(3, 1), (5, 1)]),
        DirichletCharacter.make(21, [(3, 1), (7, 2)]),
        DirichletCharacter.make(10, [(5, 3)]),
    ]
    for chi in chars:
        N = chi.modulus
        for _ in range(300):
            m = rng.randint(1, 500)
            n = rng.randint(1, 500)
            if gcd(m * n, N) != 1:
                assert chi(m * n).is_zero() or gcd(m * n, N) == 1
                continue
            assert chi(m * n) == chi(m) * chi(n)
            assert chi(m) ** chi.order == 1


def test_restriction_reassembles():
    chi = DirichletCharacter.make(30, [(3, 1), (5, 2)])
    parts = [chi.local(q) for q in (2, 3, 5)]
    for n in range(1, 31):
        prod = CycNum.one()
        for part in parts:
            prod = prod * part(n)
        assert chi(n) == prod


@pytest.mark.parametrize("modulus,spec,conductors", [
    (2310, "5:1,11:1", {1, 4, 5, 20}),
    (15, "3:1,5:1", {1, 4}),
    (35, "5:1,7:1", {1, 3, 4, 12}),
])
def test_eval_over_memo_matches_the_local_product(modulus, spec, conductors):
    chi = DirichletCharacter.parse(modulus, spec)
    primes = [lc.q for lc in chi.locals]
    seen = set()
    for r in range(len(primes) + 1):
        for sub in combinations(primes, r):
            for n in range(2 * modulus):
                direct = CycNum.one()
                for q in sub:
                    direct = direct * chi.local(q)(n)
                seen.add(direct.m)
                assert chi.eval_over(list(sub), n) == direct  # first call
                assert chi.eval_over(sub, n) == direct  # memoized
    assert seen == conductors


def test_character_pickles_with_its_memo():
    chi = DirichletCharacter.parse(55, "5:1,11:1")
    values = {n: chi.eval_over((5, 11), n) for n in range(1, 56)}
    back = pickle.loads(pickle.dumps(chi))
    assert back == chi and back.spec_string() == "5:1,11:1"
    assert back._memo.keys() == chi._memo.keys()
    for n, v in values.items():
        assert back.eval_over((5, 11), n).to_json() == v.to_json()
        assert back(n) == chi(n)


def test_enumerate_characters():
    out = enumerate_characters(15, {1, 2})
    assert len(out) == 4  # two real choices at 3, two at 5
    out = enumerate_characters(5, {1, 2, 4})
    assert len(out) == 4  # trivial, quadratic, two of order 4
    assert len(enumerate_characters(2, {1, 2, 4})) == 1
    specs = [c.spec_string() for c in out]
    assert specs == sorted(specs, key=lambda s: s != "1") or len(set(specs)) == 4


def test_parse_and_spec_string():
    chi = DirichletCharacter.parse(15, "3:1,5:2")
    assert chi.spec_string() == "3:1,5:2"
    assert DirichletCharacter.parse(15, "1").order == 1
    with pytest.raises(ValueError):
        DirichletCharacter.parse(15, "3")
