"""Per-stage wall time of one `siegeleis` command, in one process.

    PYTHONPATH=src python tools/stages.py [--repeat N] [--through STAGE] \\
        -- eigen --level 2310 --weight 4 [--format csv]

Calls `siegeleis.cli.main` on the words after `--`, stdout sent to a sink
that counts bytes, and times the gaps between its `stage` callbacks (the
stages of each command are listed in the `siegeleis.cli` docstring).  The
first stage of every command is parse, the argument parsing (and, on the
first repeat, the imports).  The counts (dimension, tables and local rows
of the stored tables, local_vectors, the keys of the eigen system's maps of
local vectors as its proof read them, undivided, and max_conductor, the
largest conductor m of the values in the tables' local rows, the eigenvalue
maps and those local vectors, and a provider's coefficients; and for a
provider its classes, the keys of its table, distinct_values, det_bound and
content_bound) are read off what the stages hand over, with the clock
stopped.
`--through STAGE` stops after that stage.  Prints one JSON line: the
command, its exit code (null when stopped), the best time of each stage over
the repeats, and the counts.
"""

import argparse
import contextlib
import gc
import io
import json
import time

from siegeleis.cli import main as cli_main


class _Stop(Exception):
    """Raised by the callback after the --through stage."""


class _Sink(io.TextIOBase):
    """A stdout that keeps only the number of bytes written to it."""
    bytes = 0

    def write(self, text: str) -> int:
        # str.isascii() is O(1), so the count makes no pass over the text
        self.bytes += len(text) if text.isascii() else len(text.encode())
        return len(text)


def _count(value, counts: dict) -> None:
    space = getattr(value, "space", value)
    if hasattr(space, "dimension"):
        counts["dimension"] = space.dimension
    values = []  # the exact values the stage hands over
    if hasattr(value, "stored"):  # the tables' local rows
        tables = value.stored().values()
        counts["tables"] = len(tables)
        counts["local_rows"] = sum(len(t.local) for t in tables)
        values = [a for t in tables for row in t.local.values()
                  for _, a in (row if t.pos is not None else ((0, row),))]
    if hasattr(value, "columns"):  # eigenvalues and local vectors
        # the proof's w_q: reading the u_q would divide
        values = [a for lams in value.columns.values() for a in lams.values()]
        counts["local_vectors"] = sum(map(len, value.scaled))
        values += [a for ws in value.scaled for w in ws.values()
                   for a in w.values()]
    if hasattr(value, "expansion"):  # a provider's coefficients
        exp = value.expansion
        values = exp.coeffs.values()
        counts.update(classes=len(exp.coeffs), distinct_values=len(set(values)),
                      det_bound=exp.det_bound, content_bound=exp.content_bound)
    if values:
        counts["max_conductor"] = max(counts.get("max_conductor", 1),
                                      *(a.m for a in values))


def one_run(argv: list[str], through: str | None):
    """(exit code or None, {stage: seconds}, counts) of one call."""
    seconds, counts, sink = {}, {}, _Sink()

    def stage(name, value):
        nonlocal start
        seconds[name] = time.perf_counter() - start
        _count(value, counts)
        if name == through:
            raise _Stop
        start = time.perf_counter()

    code = None
    with contextlib.redirect_stdout(sink), contextlib.suppress(_Stop):
        start = time.perf_counter()
        code = cli_main(list(argv), stage=stage)
    return code, seconds, {**counts, "bytes": sink.bytes}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--through", help="the last stage to run")
    parser.add_argument("command", nargs="+", help="siegeleis argv, after --")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    best: dict = {}
    for _ in range(args.repeat):
        gc.collect()
        code, seconds, counts = one_run(args.command, args.through)
        for name, value in seconds.items():
            best[name] = min(best.get(name, value), value)
    print(json.dumps({"argv": args.command, "repeat": args.repeat,
                      "through": args.through, "code": code,
                      "seconds": {k: round(v, 6) for k, v in best.items()},
                      **counts}))


if __name__ == "__main__":
    main()
