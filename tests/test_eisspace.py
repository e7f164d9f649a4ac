import json
from math import prod

import pytest

from siegeleis.characters import DirichletCharacter
from siegeleis.eisspace import Partition, enumerate_partitions, prime_factors
from siegeleis.jsonout import write_json


def brute_force_partitions(N):
    # independent enumeration oracle: ordered triples with product N
    out = set()
    for n0 in range(1, N + 1):
        if N % n0:
            continue
        for n1 in range(1, N // n0 + 1):
            if (N // n0) % n1 == 0:
                out.add((n0, n1, N // (n0 * n1)))
    return out


def test_enumerate_examples():
    sp = enumerate_partitions(1, None, 4)
    assert sp.basis == (Partition(1, 1, 1),) and sp.dimension == 1

    sp = enumerate_partitions(6, None, 4)
    assert sp.dimension == 9
    assert {(p.n0, p.n1, p.n2) for p in sp.basis} == brute_force_partitions(6)

    chi5 = DirichletCharacter.make(5, [(5, 1)])  # order 4
    sp = enumerate_partitions(5, chi5, 5)
    assert sp.basis == (Partition(5, 1, 1), Partition(1, 1, 5))


def test_dimension_formula():
    for N, spec, a, b in [
        (15, [(3, 1)], 2, 0),
        (15, [(5, 1)], 1, 1),
        (30, [(5, 1)], 2, 1),
    ]:
        chi = DirichletCharacter.make(N, spec)
        k = 4 if chi.valid_for_weight(4) else 5
        sp = enumerate_partitions(N, chi, k)
        assert sp.dimension == 3**a * 2**b


def test_ordering_deterministic_and_triangular_friendly():
    sp = enumerate_partitions(6, None, 4)
    order = [(p.n0, p.n1, p.n2) for p in sp.basis]
    assert order == [
        (6, 1, 1), (2, 3, 1), (3, 2, 1), (2, 1, 3), (3, 1, 2),
        (1, 6, 1), (1, 2, 3), (1, 3, 2), (1, 1, 6),
    ]
    again = enumerate_partitions(6, None, 4)
    assert again.basis == sp.basis
    ranks = [p.rank_of(2) + p.rank_of(3) for p in sp.basis]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("N,spec", [(30, "1"), (2310, "1"), (2310, "5:1,11:1"),
                                    (1155, "5:2,7:3,11:5"), (30030, "13:2")])
def test_basis_order_and_rank_tuples_from_the_enumerated_ranks(N, spec):
    # enumerate_partitions sorts codes by a packed integer key; decoded, they
    # must be the brute-force partitions with chi_q^2 = 1 at every q | N1,
    # in Partition.sort_key order, with the ranks that each partition says
    char = DirichletCharacter.parse(N, spec)
    sp = enumerate_partitions(N, char, 4)
    want = sorted((Partition(*t) for t in brute_force_partitions(N)
                   if all(map(char.is_real_at, prime_factors(t[1])))),
                  key=Partition.sort_key)
    primes = prime_factors(N)
    # at 30030, chi_13 has order 6: 13 is never in N1
    assert len(want) == prod(3 if char.is_real_at(q) else 2 for q in primes)
    assert [sp.decode(i) for i in range(sp.dimension)] == [
        (tuple(p.rank_of(q) for q in primes), (p.n0, p.n1, p.n2)) for p in want]
    assert sp.basis == tuple(want)


@pytest.mark.parametrize("spec", ["1", "5:1,11:1"])
def test_index_of_code_finds_each_basis_element(spec):
    # each code is sum r_x 3^x over its decoded ranks; index_of_code inverts
    # the codes and is None exactly at the rank tuples that no basis element
    # has; index_of finds a Partition by its code, and refuses one off the
    # basis
    sp = enumerate_partitions(2310, DirichletCharacter.parse(2310, spec), 4)
    for i, (p, c) in enumerate(zip(sp.basis, sp.codes)):
        assert c == sum(r * 3 ** x for x, r in enumerate(sp.decode(i)[0]))
        assert sp.index_of(p) == i and sp.index_of_code[c] == i
    off = {c for c, i in enumerate(sp.index_of_code) if i is None}
    assert len(sp.index_of_code) == 3 ** 5
    assert off == set(range(3 ** 5)) - set(sp.codes)
    # rank 1 at 5 or 11 is off the basis when chi_5 and chi_11 are not real
    assert len(off) == (0 if spec == "1" else 3 ** 5 - 3 ** 3 * 2 ** 2)
    for p in [Partition(6, 1, 1)] + [Partition(462, 5, 1)] * (spec != "1"):
        with pytest.raises(KeyError):
            sp.index_of(p)


def test_decode_reads_both_halves_of_a_code():
    # the decoder splits the primes in two halves: at omega = 0 and 1 the
    # low half is empty, and every code of omega = 3 reads back its ranks
    assert enumerate_partitions(1, None, 4).decode(0) == ((), (1, 1, 1))
    assert [enumerate_partitions(7, None, 4).decode(i) for i in range(3)] == [
        ((0,), (7, 1, 1)), ((1,), (1, 7, 1)), ((2,), (1, 1, 7))]
    sp = enumerate_partitions(30, None, 4)
    for i, c in enumerate(sp.codes):
        ranks, parts = sp.decode(i)
        assert ranks == (c % 3, c // 3 % 3, c // 9)
        assert parts == tuple(Partition(*parts))
        assert [Partition(*parts).rank_of(q) for q in (2, 3, 5)] == list(ranks)


def test_partition_validation():
    # one square-free test of the product settles every valid partition;
    # the message names the first rule broken: positive square-free parts,
    # then coprimality
    square_free = "partition parts must be square-free positive"
    coprime = "partition parts must be pairwise coprime"
    for parts, message in [((2, 2, 1), coprime), ((1, 6, 3), coprime),
                           ((4, 1, 1), square_free), ((4, 2, 1), square_free),
                           ((0, 1, 1), square_free), ((-2, 3, 1), square_free),
                           ((-2, -3, 1), square_free)]:
        with pytest.raises(ValueError, match=f"^{message}: "):
            Partition(*parts)
    assert Partition(10, 3, 7).level == 210


def test_space_errors_and_forced_mode():
    chi = DirichletCharacter.make(3, [(3, 1)])
    with pytest.raises(ValueError):
        enumerate_partitions(3, chi, 4)  # chi(-1) = -1 != (+1)^4
    forced = enumerate_partitions(3, chi, 4, forced=True)
    assert forced.dimension == 3
    with pytest.raises(ValueError):
        enumerate_partitions(12, None, 4)  # not square-free
    with pytest.raises(ValueError):
        enumerate_partitions(3, None, 3)  # weight below 4
    with pytest.raises(ValueError):
        enumerate_partitions(6, chi, 5)  # character modulus mismatch


def test_partition_json():
    p = Partition(2, 3, 1)
    assert Partition.from_json(p.to_json()) == p
    sp = enumerate_partitions(2, None, 4)
    pieces = []
    write_json(sp.descriptor(), pieces.append)
    desc = json.loads("".join(pieces))
    assert desc["dimension"] == 3
    assert desc["basis"] == [{"index": 0, "N0": 2, "N1": 1, "N2": 1},
                             {"index": 1, "N0": 1, "N1": 2, "N2": 1},
                             {"index": 2, "N0": 1, "N1": 1, "N2": 2}]
