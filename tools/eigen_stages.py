"""Per-stage wall time of `siegeleis eigen --weight 4`, in one process.

    PYTHONPATH=src python tools/eigen_stages.py --level 2310 [--char 5:1,11:1]
        [--through eigenbasis] [--format csv]

The stages are those of the JSON command, whose output hecke.eigen_json
renders record by record, each at the depth where it stands, while
jsonout.write_json streams it:
  basis        enumerate_partitions: the ordered basis and its rank tuples;
  tables       the level tables T(q), T1(q^2) for q | N;
  eigenbasis   the verified eigenbasis;
  comparison   the comparison records, one per partition, each closed
               form evaluated once per (op, key) and each row's text up
               to its partition built once per (op, key, matrix value),
               written as they come (the writer takes the keys in sorted
               order, so they go first; this stage also holds
               eigen_json's own set-up: the comparison columns, the
               partition texts and the descriptor's basis record);
  vectors      the eigenbasis records, rendered and written as they come,
               which expands every eigenvector coefficient;
  descriptor   the rest of the space descriptor, written by the writer.
With --format csv the stages after eigenbasis are those of the csv command
(cli.eigen_csv):
  rows         the comparison columns, their closed forms and their lines,
               written one partition at a time.
Output goes to a sink that counts bytes.  --through eigenbasis stops after
the first three stages.  Each repeat starts from a new space and
character, so no memo carries over.  Prints one JSON object with the best
time of each stage.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

from siegeleis.characters import DirichletCharacter
from siegeleis.cli import eigen_csv
from siegeleis.eisspace import enumerate_partitions
from siegeleis.hecke import SpaceOperators, eigen_json, eigenbasis
from siegeleis.jsonout import write_json


def _then(items, stage, name: str):
    """The items of `items`, then the end of stage `name` once they are
    all written."""
    yield from items
    stage(name)


def one_run(level: int, char: str, weight: int, through: str,
            fmt: str) -> dict:
    times = {}
    t = time.perf_counter()

    def stage(name):
        nonlocal t
        now = time.perf_counter()
        times[name] = now - t
        t = now

    space = enumerate_partitions(level, DirichletCharacter.parse(level, char),
                                 weight)
    stage("basis")
    ops = SpaceOperators(space)
    for op in ops.level_ops():
        ops.matrix(op)
    stage("tables")
    system = eigenbasis(ops)
    stage("eigenbasis")
    if through == "eigenbasis":
        return times
    size = 0

    def sink(chunk):
        nonlocal size
        size += len(chunk)

    if fmt == "csv":
        for chunk in eigen_csv(system, ops.level_ops()):
            sink(chunk)
        stage("rows")
    else:
        out = eigen_json(system, ops.level_ops())
        out["comparison"] = _then(out["comparison"], stage, "comparison")
        out["eigenbasis"] = _then(out["eigenbasis"], stage, "vectors")
        write_json(out, sink)
        stage("descriptor")
    times["bytes"] = size
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level", type=int, required=True)
    parser.add_argument("--char", default="1")
    parser.add_argument("--weight", type=int, default=4)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--through", choices=("eigenbasis", "descriptor"),
                        default="descriptor", help="the last stage to run")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args()
    best: dict = {}
    for _ in range(args.repeat):
        gc.collect()
        for name, value in one_run(args.level, args.char, args.weight,
                                   args.through, args.format).items():
            best[name] = min(best.get(name, value), value)
    out = {"level": args.level, "char": args.char, "weight": args.weight,
           "repeat": args.repeat, "through": args.through,
           "format": args.format}
    out.update({k: v if k == "bytes" else round(v, 4) for k, v in best.items()})
    print(json.dumps(out))


if __name__ == "__main__":
    main()
