"""Command-line surface: every pipeline with machine-readable output.

Subcommands: basis, hecke, eigen, relations, fourier, verify.  Operator
specs use the grammar T:p, T1:p, S1:q, S2:q, U:Q,P and compose into words
with ';'.  Output is JSON (eigenvalue tables may also be CSV); identical
inputs produce byte-identical output.  Usage errors exit 2, domain errors
exit 1, internal errors (a failed internal check) exit 3.  The environment
variable SIEGELEIS_CONDUCTOR_CAP, a positive integer, overrides the
cyclotomic conductor cap.

The command table `_COMMANDS` drives the parsers and the dispatch.  When
the first word names a command, `main` parses the rest with that command's
parser alone, the one `build_parser` adds for it.  The parser of every
command is built only for `siegeleis --help`, an unknown or missing command
or a word the command's parser leaves over, so every usage, help and error
text is the one it prints.  Each command imports what it runs, so building
a parser loads no library module and `fourier --apply` loads no Hecke table
code.  A closed stdout (`| head`) exits 141.

`main(argv, stage=f)` calls f(name, value) as each stage ends, with what it
built (EisSpace, SpaceOperators, EigenSystem, provider) or None.  Every
command first ends parse (the argument parsing); then basis, tables (hecke,
eigen), eigenbasis (eigen), relations, render; fourier load,
apply|ops|project|calibrate, render; verify suite, render.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .jsonout import write_json


def _spec_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {what}") from None


def _int_list(text: str, name: str) -> list[int]:
    return [_spec_int(t, f"{name} {text!r}") for t in text.split(",")]


def _parse_op_token(tok: str):
    tok = tok.strip()
    spec = f"operator spec {tok!r}"
    kind, _, rest = tok.partition(":")
    if not rest:
        raise ValueError(f"bad {spec}")
    if kind in ("T", "T1", "S1", "S2"):
        from .hecke import HeckeOp
        return HeckeOp(kind, _spec_int(rest, spec))
    if kind == "U":
        q_s, _, p_s = rest.partition(",")
        if not p_s:
            raise ValueError(f"bad U operator spec {tok!r}; want U:Q,P")
        from .fourier import UOperator
        return UOperator(_spec_int(q_s, spec), _spec_int(p_s, spec))
    raise ValueError(f"unknown operator kind {kind!r} in {tok!r}")


def parse_op_word(text: str) -> list:
    return [_parse_op_token(tok) for tok in text.split(";") if tok.strip()]


def _space_from_args(args):
    from .characters import DirichletCharacter
    from .eisspace import enumerate_partitions
    char = DirichletCharacter.parse(args.level, args.char)
    return enumerate_partitions(args.level, char, args.weight)


@contextlib.contextmanager
def _writer(args):
    """The write function of the --output file, or of stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh.write
    else:
        yield sys.stdout.write
        sys.stdout.flush()  # a closed pipe is met here, not at exit


def _emit_json(args, obj) -> None:
    with _writer(args) as write:
        write_json(obj, write)


def cmd_basis(args) -> int:
    space = _space_from_args(args)
    args.stage("basis", space)
    _emit_json(args, space.descriptor())
    args.stage("render", None)
    return 0


def cmd_hecke(args) -> int:
    from .hecke import HeckeOp, SpaceOperators, check_word_printable, word_json
    space = _space_from_args(args)
    args.stage("basis", space)
    word = parse_op_word(args.op)
    if not word:
        raise ValueError("empty operator word")
    if not all(isinstance(op, HeckeOp) for op in word):
        raise ValueError("U operators act on Fourier expansions; use `fourier`")
    ops = SpaceOperators(space)
    for op in word:  # every table before the first byte: a bad word writes none
        ops.matrix(op)
    args.stage("tables", ops)
    check_word_printable(ops, word)
    _emit_json(args, word_json(ops, word, args.op))
    args.stage("render", None)
    return 0


def cmd_eigen(args) -> int:
    from .hecke import (HeckeOp, SpaceOperators, check_corner_printable,
                        eigen_csv, eigen_json, eigenbasis)
    space = _space_from_args(args)
    args.stage("basis", space)
    ops = SpaceOperators(space)
    primes = _int_list(args.primes, "prime list") if args.primes.strip() else []
    extra = [HeckeOp(kind, p) for p in primes for kind in ("T", "T1")]
    check_corner_printable(space)  # a huge weight, before any table
    op_list = list(dict.fromkeys(ops.level_ops() + extra))
    for op in extra + op_list:  # eigenbasis ranks failures in this order
        ops.matrix(op)
    args.stage("tables", ops)
    system = eigenbasis(ops)
    args.stage("eigenbasis", system)
    if args.format == "csv":
        chunks = eigen_csv(system, op_list)  # it refuses here, before the open
        with _writer(args) as write:
            for chunk in chunks:
                write(chunk)
    else:
        _emit_json(args, eigen_json(system, op_list))
    args.stage("render", None)
    return 0


def cmd_relations(args) -> int:
    from .characters import DirichletCharacter
    from .cyclotomic import check_printable, prime_factors
    from .eisspace import enumerate_partitions
    from .hecke import (SpaceOperators, relation_defects, relations_json,
                        s_constant)
    char = DirichletCharacter.trivial(args.level)
    if args.weight % 2:  # the trivial character is even: the space is zero
        raise ValueError(f"relation words need an even weight, got {args.weight}")
    space = enumerate_partitions(args.level, char, args.weight)
    args.stage("basis", space)
    # the constants alone bound the digits, so a huge weight is refused
    # before the words are proved
    constants = {q: s_constant(space, q) for q in prime_factors(space.level)}
    check_printable(constants.values())
    ops = SpaceOperators(space)
    defects = relation_defects(ops)
    args.stage("relations", ops)
    _emit_json(args, relations_json(space, constants, defects))
    args.stage("render", None)
    return 1 if any(defects) else 0


def cmd_fourier(args) -> int:
    from .fourier import (apply_U, calibrate_normalization, krylov_spectral,
                          project_components, provider_load)
    # values first (exit 1), then flags the task would ignore (exit 2)
    bound = 2 if args.sample_bound is None else args.sample_bound
    if bound < 1:  # a Krylov split would sample nothing
        raise ValueError(f"--sample-bound must be at least 1, got {bound}")
    task = ("--apply" if args.apply is not None
            else "--ops" if args.ops is not None else None)
    text = args.apply if task == "--apply" else args.ops
    word = _u_word(text, task) if task else None
    if task and args.level is not None:
        args.usage_error(f"argument --level: not allowed with argument {task}")
    if task == "--apply" and args.sample_bound is not None:
        args.usage_error("argument --sample-bound: not allowed with argument "
                         "--apply")
    level = 1 if args.level is None else args.level
    provider = provider_load(args.provider)
    args.stage("load", provider)
    if args.calibrate:
        out = calibrate_normalization(provider, level, provider.weight, bound)
        args.stage("calibrate", None)
    elif task == "--apply":
        exp = provider.expansion
        for u in word:
            exp = apply_U(exp, u)
        args.stage("apply", None)
        _check_fourier_printable([exp])
        out = exp.rendered(0)
    elif task == "--ops":
        comps = krylov_spectral(provider.expansion, word, bound)
        args.stage("ops", None)
        _check_fourier_printable([], comps)
        out = [_component_json(c, 2) for c in comps]
    else:
        labeled = project_components(provider, level, provider.weight, bound)
        args.stage("project", None)
        _check_fourier_printable([], [comp for _, comp in labeled])
        out = {
            "level": level,
            "weight": provider.weight,
            "components": [{"partition": rho.to_json(), **_component_json(comp, 3)}
                           for rho, comp in labeled],
        }
    _emit_json(args, out)
    args.stage("render", None)
    return 0


def _u_word(text: str, flag: str) -> list:
    from .fourier import UOperator
    word = parse_op_word(text)
    if not word:
        raise ValueError("empty operator word")
    if not all(isinstance(op, UOperator) for op in word):
        raise ValueError(f"`fourier {flag}` takes U:Q,P operators only")
    return word


def _check_fourier_printable(expansions, comps=()) -> None:
    """check_printable for what `fourier` prints: the coefficients of each
    expansion on its domain, and each component's eigenvalues and expansion."""
    from .cyclotomic import check_printable
    expansions = [*expansions, *(c.expansion for c in comps)]
    check_printable([*(lam for c in comps for lam in c.eigenvalues.values()),
                     *(e.coeffs[k] for e in expansions for k in e.domain_keys())])


def _component_json(comp, depth: int) -> dict:
    """A spectral component's U eigenvalues and expansion at `depth`."""
    return {
        "eigenvalues": {u.spec_string(): lam.to_json()
                        for u, lam in comp.eigenvalues.items()},
        "expansion": comp.expansion.rendered(depth),
    }


def cmd_verify(args) -> int:
    from .verify import PRESETS, run_suite
    # the suite flags and the values read in place of one not given
    suite = {"n_max": 6, "k_set": "4,5", "prime_max": 5, "char_orders": "1,2",
             "trials": 100, "seed": 7}
    given = {name: value for name in suite
             if (value := getattr(args, name)) is not None}
    if args.preset:
        if given:  # the preset's config would ignore it
            flag = "--" + next(iter(given)).replace("_", "-")
            args.usage_error(f"argument {flag}: not allowed with argument "
                             "--preset")
        config = dict(PRESETS[args.preset])
    else:
        suite.update(given)
        config = {
            "N_max": suite["n_max"],
            "k_set": _int_list(suite["k_set"], "weight list"),
            "prime_max": suite["prime_max"],
            "char_orders": _int_list(suite["char_orders"],
                                     "character order list"),
            "trials": suite["trials"],
            "seed": suite["seed"],
        }
    report = run_suite(config)
    args.stage("suite", None)
    _emit_json(args, report.to_json())
    for name, dt in report.timings.items():
        print(f"# {name}: {dt:.2f}s", file=sys.stderr)
    args.stage("render", None)
    return 0 if report.ok else 1


class _Parser(argparse.ArgumentParser):
    """Reads `--flag=--` as the value "--", which the spec parsers then
    refuse; Python 3.11's argparse strips it and passes an empty list on."""

    def _get_values(self, action, arg_strings):
        if (action.option_strings and action.nargs is None
                and arg_strings == ["--"]):
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _space_args(p, char=True) -> None:
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    if char:
        p.add_argument("--char", default="1",
                       help="character spec 'q1:j1,q2:j2' or '1'")
    p.add_argument("--output", default=None, help="write to file")


def _hecke_args(p) -> None:
    _space_args(p)
    p.add_argument("--op", required=True,
                   help="word over T:p, T1:p, S1:q, S2:q joined by ';'")


def _eigen_args(p) -> None:
    _space_args(p)
    p.add_argument("--primes", default="",
                   help="extra primes p (comma separated) for T(p), T1(p^2)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _fourier_args(p) -> None:
    p.add_argument("--provider", required=True)
    # no default, so that a task which reads no level or bound can refuse
    # one given at all; cmd_fourier reads level 1 and bound 2 in their place
    p.add_argument("--level", type=int)
    p.add_argument("--sample-bound", type=int)
    task = p.add_mutually_exclusive_group()  # else the level projection
    # no default either, so that an explicit empty word is seen: argparse
    # counts it against the other task flags, and cmd_fourier refuses it
    task.add_argument("--apply", help="apply a word of U:Q,P operators")
    task.add_argument("--ops",
                      help="split by these U:Q,P operators instead of the "
                           "default level projection")
    task.add_argument("--calibrate", action="store_true",
                      help="emit the normalization calibration report")
    p.add_argument("--output", default=None)
    p.set_defaults(usage_error=p.error)


def _verify_args(p) -> None:
    # the names of verify.PRESETS, spelled here so the parser loads no verify
    p.add_argument("--preset", choices=("desk", "quick"))
    # no default, so that --preset can refuse a suite flag given at all;
    # cmd_verify reads the suite's own values in their place
    p.add_argument("--n-max", type=int)
    p.add_argument("--k-set")
    p.add_argument("--prime-max", type=int)
    p.add_argument("--char-orders")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", default=None)
    p.set_defaults(usage_error=p.error)


# name: (help, the function that adds its arguments, handler), in help order
_COMMANDS = {
    "basis": ("list the valid partitions", _space_args, cmd_basis),
    "hecke": ("action table of an operator word", _hecke_args, cmd_hecke),
    "eigen": ("eigenbasis and eigenvalue comparison", _eigen_args, cmd_eigen),
    "relations": ("corner-to-basis word identities (trivial char)",
                  lambda p: _space_args(p, char=False), cmd_relations),
    "fourier": ("coefficient pipelines on a provider", _fourier_args,
                cmd_fourier),
    "verify": ("run the oracle suite", _verify_args, cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for `--help`, a typo, no command or a
    leftover argument; `main` parses a command's flags with its own alone."""
    parser = _Parser(
        prog="siegeleis",
        description="Exact Hecke computations on degree-2 Siegel Eisenstein "
        "series of square-free level",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None, *, stage=lambda name, value: None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv else None
    args = argparse.Namespace(stage=stage, command=name)
    if name in _COMMANDS:  # the parser that build_parser adds for it
        parser = _Parser(prog="siegeleis " + name)
        _COMMANDS[name][1](parser)
    if name not in _COMMANDS or parser.parse_known_args(argv[1:], args)[1]:
        # --help, a typo, no command or a leftover word: the full parser's text
        args = build_parser().parse_args(argv, argparse.Namespace(stage=stage))
    stage("parse", None)
    try:
        return _COMMANDS[args.command][2](args)
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: stop without a word,
        # and point stdout at devnull so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a writer it stopped
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, AssertionError, ZeroDivisionError, KeyError,
            IndexError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
