"""Per-stage wall time of `siegeleis eigen --weight 4`, in one process.

    PYTHONPATH=src python tools/eigen_stages.py --level 2310 [--char 5:1,11:1]
        [--through eigenbasis]

The stages are those of the JSON command, which builds its tree with
hecke.eigen_json:
  tables      the level tables T(q), T1(q^2) for q | N;
  eigenbasis  the verified eigenbasis;
  to_json     the space descriptor and the eigenbasis as JSON, which
              writes out every eigenvector coefficient, each distinct
              value and partition encoded once (eigen_json less the time
              inside compare_eigenvalues);
  comparison  the comparison rows against the closed forms, as JSON, the
              time eigen_json spends in compare_eigenvalues;
  write_json  the exact indent-2 writer, into a sink that counts bytes.
--through eigenbasis stops after the first two stages, for levels whose
JSON tree would not fit in memory.
Each repeat starts from a new space and character, so no memo carries
over.  Prints one JSON object with the best time of each stage.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

import siegeleis.hecke as hecke
from siegeleis.characters import DirichletCharacter
from siegeleis.eisspace import enumerate_partitions
from siegeleis.hecke import SpaceOperators, eigen_json, eigenbasis
from siegeleis.jsonout import write_json


def _timed(fn, spent: list):
    """fn, appending the seconds of each call to spent."""
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - t)
    return wrapper


def one_run(level: int, char: str, weight: int, compared: list,
            through: str) -> dict:
    times = {}
    t = time.perf_counter()

    def stage(name):
        nonlocal t
        now = time.perf_counter()
        times[name] = now - t
        t = now

    space = enumerate_partitions(level, DirichletCharacter.parse(level, char),
                                 weight)
    ops = SpaceOperators(space)
    for op in ops.level_ops():
        ops.matrix(op)
    stage("tables")
    system = eigenbasis(ops)
    stage("eigenbasis")
    if through == "eigenbasis":
        return times
    compared.clear()
    tree = {"space": space.descriptor(), **eigen_json(system, ops.level_ops())}
    stage("to_json")
    times["comparison"] = sum(compared)
    times["to_json"] -= times["comparison"]
    size = 0

    def sink(chunk):
        nonlocal size
        size += len(chunk)

    write_json(tree, sink)
    stage("write_json")
    times["bytes"] = size
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--char", default="1")
    parser.add_argument("--weight", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--through", choices=("eigenbasis", "write_json"),
                        default="write_json", help="the last stage to run")
    args = parser.parse_args()
    compared: list = []  # eigen_json reads compare_eigenvalues from hecke
    hecke.compare_eigenvalues = _timed(hecke.compare_eigenvalues, compared)
    best: dict = {}
    for _ in range(args.repeat):
        gc.collect()
        for name, value in one_run(args.level, args.char, args.weight,
                                   compared, args.through).items():
            best[name] = min(best.get(name, value), value)
    out = {"level": args.level, "char": args.char, "weight": args.weight,
           "repeat": args.repeat, "through": args.through}
    out.update({k: v if k == "bytes" else round(v, 4) for k, v in best.items()})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
