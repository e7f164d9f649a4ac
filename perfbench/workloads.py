"""Command lists of the benchmark workloads and the check of every output.

A workload is a list of `siegeleis` command lines (argv lists without the
program name).  The seed only permutes the order of the commands; it never
changes which commands run, so every pass does the same work.  Each command
carries a kind (a stable label used to report its time) and a check that
decides from the exit code and stdout whether the command's output is right.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

PROVIDER = "data/e8_weight4_level1.coeffs"

# counts of the desk oracle sweep; the records do not depend on the seed
DESK_COUNTS = {"pass": 789, "documented-mismatch": 598, "fail": 0}
# counts of the reduced sweep the tiny mode runs
TINY_VERIFY_COUNTS = {"pass": 59, "documented-mismatch": 17, "fail": 0}

FOURIER_APPLY_WORDS = [
    "U:1,2", "U:2,1", "U:1,3", "U:3,1", "U:1,5", "U:5,1", "U:2,3", "U:6,1",
    "U:1,2;U:2,1",
]


class CheckFailed(Exception):
    """A command's exit code or output is not what the workload expects."""


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str], None]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # passes of the traced run; cheap workloads repeat to steady the ratio
    trace_passes: int = 1

    def pass_order(self, rng: random.Random) -> list[Command]:
        order = list(self.commands)
        rng.shuffle(order)
        return order


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _load(code: int, out: str):
    _require(code == 0, f"exit code {code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            n //= d
        else:
            d += 1
    return out + ([n] if n > 1 else [])


# -- eigen ----------------------------------------------------------------------


def check_eigen(code: int, out: str) -> None:
    doc = _load(code, out)
    rows = doc["comparison"]
    basis = doc["space"]["basis"]
    _require(len(doc["eigenbasis"]) == len(basis) == doc["space"]["dimension"],
             "eigenbasis size differs from the dimension")
    _require(all(r["match"] or r["expected_mismatch"] for r in rows),
             "a comparison row neither matches nor is an expected mismatch")
    want = sum(len(_factors(p["N1"])) for p in basis)
    got = sum(1 for r in rows if r["expected_mismatch"])
    _require(got == want, f"{got} expected mismatches, want {want} (q | N1)")


def _eigen(kind: str, level: int, char: str | None) -> Command:
    argv = ["eigen", "--level", str(level), "--weight", "4"]
    if char:
        argv += ["--char", char]
    return Command(kind, tuple(argv), check_eigen)


# -- verify ---------------------------------------------------------------------


def _check_verify(counts: dict) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        doc = _load(code, out)
        _require(doc["ok"] is True, "report is not ok")
        _require(doc["counts"] == counts,
                 f"counts {doc['counts']}, want {counts}")
    return check


def _verify(kind: str, n_max: int, k_set: str, prime_max: int, orders: str,
            trials: int, seed: int, counts: dict) -> Command:
    argv = ("verify", "--n-max", str(n_max), "--k-set", k_set,
            "--prime-max", str(prime_max), "--char-orders", orders,
            "--trials", str(trials), "--seed", str(seed))
    return Command(kind, argv, _check_verify(counts))


# -- fourier --------------------------------------------------------------------


def _fourier(kind: str, extra: list[str], check) -> Command:
    return Command(kind, ("fourier", "--provider", PROVIDER, *extra), check)


def _check_projection(level_two_basis: list[dict]):
    def check(code: int, out: str) -> None:
        doc = _load(code, out)
        labels = sorted(json.dumps(c["partition"], sort_keys=True)
                        for c in doc["components"])
        want = sorted(json.dumps(p, sort_keys=True) for p in level_two_basis)
        _require(labels == want, f"labels {labels}, want {want}")
    return check


def _check_calibration(code: int, out: str) -> None:
    doc = _load(code, out)
    _require(doc["level"] == 2 and set(doc["primes"]) == {"2"},
             "calibration report is not for level 2")


def _check_split(code: int, out: str) -> None:
    comps = _load(code, out)
    _require(isinstance(comps, list) and len(comps) > 0, "no components")
    _require(all(set(c["eigenvalues"]) == {"U:1,2", "U:2,1"} for c in comps),
             "components are not tagged by both operators")


def _check_apply(word: str, det_bound: int, content_bound: int):
    from siegeleis.cli import parse_op_word

    for u in parse_op_word(word):
        det_bound //= u.det_factor
        content_bound //= u.content_factor

    def check(code: int, out: str) -> None:
        doc = _load(code, out)
        got = (doc["det_bound"], doc["content_bound"])
        _require(got == (det_bound, content_bound),
                 f"bounds {got}, want {(det_bound, content_bound)}")
    return check


def fourier_commands() -> list[Command]:
    """The fixed fourier command list; output checks use the provider's own
    bounds and the level-2 basis, both read through the public API."""
    from siegeleis.eisspace import enumerate_partitions
    from siegeleis.fourier import provider_load

    exp = provider_load(PROVIDER).expansion
    basis = [p.to_json() for p in enumerate_partitions(2, None, 4).basis]
    cmds = [
        _fourier("level2", ["--level", "2"], _check_projection(basis)),
        _fourier("calibrate2", ["--level", "2", "--calibrate"],
                 _check_calibration),
        _fourier("ops", ["--ops", "U:1,2;U:2,1"], _check_split),
    ]
    for word in FOURIER_APPLY_WORDS:
        cmds.append(_fourier(
            "apply." + word.replace(";", "+"), ["--apply", word],
            _check_apply(word, exp.det_bound, exp.content_bound),
        ))
    return cmds


# -- workloads ------------------------------------------------------------------

WORKLOAD_NAMES = ("eigen-scale", "verify-desk", "fourier-e8")


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's command list; tiny mode keeps every command kind at a
    scale that runs in seconds."""
    if name == "eigen-scale":
        if tiny:
            cmds = (_eigen("eigen_s.30-k4-trivial", 30, None),
                    _eigen("eigen_s.55-k4-chi20", 55, "5:1,11:1"))
        else:
            cmds = (_eigen("eigen_s.2310-k4-trivial", 2310, None),
                    _eigen("eigen_s.2310-k4-chi20", 2310, "5:1,11:1"))
        return Workload(name, cmds)
    if name == "verify-desk":
        if tiny:
            cmd = _verify("verify.tiny", 6, "4,5", 5, "1,2", 50, seed,
                          TINY_VERIFY_COUNTS)
        else:
            cmd = _verify("verify.desk", 30, "4,5,6,7", 13, "1,2,4", 1000,
                          seed, DESK_COUNTS)
        return Workload(name, (cmd,))
    if name == "fourier-e8":
        cmds = fourier_commands()
        return Workload(name, tuple(cmds[:4] if tiny else cmds),
                        trace_passes=1 if tiny else 5)
    raise ValueError(f"unknown workload {name!r}; want one of {WORKLOAD_NAMES}")
