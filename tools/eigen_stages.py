"""Per-stage wall time of `siegeleis eigen --weight 4`, in one process.

    PYTHONPATH=src python tools/eigen_stages.py --level 2310 [--char 5:1,11:1]

The stages are those of the JSON command:
  tables      the level tables T(q), T1(q^2) for q | N;
  eigenbasis  the verified eigenbasis;
  comparison  the comparison rows against the closed forms, as JSON;
  to_json     the space descriptor and the eigenbasis as JSON, which
              writes out every eigenvector coefficient;
  write_json  the exact indent-2 writer, into a sink that counts bytes.
Each repeat starts from a new space and character, so no memo carries
over.  Prints one JSON object with the best time of each stage.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

from siegeleis.characters import DirichletCharacter
from siegeleis.cli import write_json
from siegeleis.eisspace import enumerate_partitions
from siegeleis.hecke import SpaceOperators, compare_eigenvalues, eigenbasis


def one_run(level: int, char: str, weight: int) -> dict:
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
    comparison = compare_eigenvalues(system)
    stage("comparison")
    tree = {"space": space.descriptor(), "eigenbasis": system.to_json(),
            "comparison": comparison}
    stage("to_json")
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
    args = parser.parse_args()
    best: dict = {}
    for _ in range(args.repeat):
        gc.collect()
        for name, value in one_run(args.level, args.char, args.weight).items():
            best[name] = min(best.get(name, value), value)
    out = {"level": args.level, "char": args.char, "weight": args.weight,
           "repeat": args.repeat}
    out.update({k: v if k == "bytes" else round(v, 4) for k, v in best.items()})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
