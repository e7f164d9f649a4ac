"""Benchmark of the `siegeleis` command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it needs no installed
package, because it puts the checkout's `src/` on the import path.  One
client sends one command after another in a closed loop, on one thread, and
captures stdout in memory.  The workloads are listed in `workloads.py`; the
metric names, units and directions come from `BENCHMARK.json`.

--trace 0 repeats passes over the workload's command list until S seconds
have gone (at least one pass) and reports the end-to-end metrics.  --trace 1
runs the list untraced, then again with spans and counters installed from
outside (`tracer.py`), checks that every command printed the same bytes
both times, runs the CycNum microbenchmark (`cycbench.py`) and reports the
per-layer metrics.  --tiny runs a reduced command list in seconds; the smoke
test uses it.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Details (stdout digests, per-command times, the
machine) go to perfbench/results/.  Exit code 2, without a result line,
means the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_PROBES = 9
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); "
    "import siegeleis.cli as c; c.build_parser(); print(time.monotonic())"
)

VERIFY_CHECKS = (
    "exactmath-field-axioms", "eisspace-enumeration", "hecke-commutativity",
    "hecke-triangularity", "hecke-eigen-exactness",
    "hecke-closed-form-comparison", "hecke-relation-words",
    "hecke-level-one-specialization", "hecke-eigen-oracle",
    "lattice-sublattice-counts", "lattice-reduction-invariance",
    "lattice-isotropy", "fourier-operator-properties",
)
CALL_COUNTED = (
    "hecke.hecke_matrix", "hecke.eigen_vector", "hecke.eigenbasis",
    "linalg.vec_mat", "linalg.eigen", "linalg.kernel", "linalg.min_poly",
    "linalg.intersect_spans", "lattices.reduce_form", "fourier.apply_U",
    "eisspace.enumerate_partitions",
)
BUSY_TIMED = CALL_COUNTED + (
    "hecke.compare_eigenvalues", "hecke.s_word", "linalg.matmul",
    "lattices.reduced_class_keys", "fourier.provider_parse",
    "fourier.krylov_spectral",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="reduced command lists that run in seconds")
    return p.parse_args(argv)


# -- one command ----------------------------------------------------------------


@dataclass
class Outcome:
    kind: str
    argv: tuple[str, ...]
    code: int
    start: float  # perf_counter
    end: float
    digest: str  # sha256 of stdout
    size: int  # stdout bytes
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self):
        return {"kind": self.kind, "argv": list(self.argv), "code": self.code,
                "seconds": self.seconds, "stdout_sha256": self.digest,
                "stdout_bytes": self.size, "error": self.error}


def run_command(main, cmd, tracer=None, index=0) -> Outcome:
    """Call the CLI in-process with stdout and stderr captured, then check
    the output outside the timed region."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    close = tracer.root(index) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(cmd.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed command, not a dead run
        code, error = -1, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if close is not None:
        close()
    text = out.getvalue()
    data = text.encode("utf-8")
    if error is None:
        try:
            cmd.check(code, text)
        except Exception as exc:  # a malformed output fails its command
            error = f"check failed: {type(exc).__name__}: {exc}"
            tail = err.getvalue().strip().splitlines()[-1:]
            if tail:
                error += f" (stderr: {tail[0]})"
    return Outcome(cmd.kind, cmd.argv, code, t0, t1,
                   hashlib.sha256(data).hexdigest(), len(data), error)


def run_pass(main, order, tracer=None) -> tuple[tuple, list[Outcome]]:
    """((start, end), outcomes) of one pass over the command list."""
    t0 = time.perf_counter()
    outcomes = [run_command(main, cmd, tracer, i) for i, cmd in enumerate(order)]
    return (t0, time.perf_counter()), outcomes


# -- set-up and environment -----------------------------------------------------


def setup_intervals() -> list[tuple[float, float]]:
    """Fresh interpreters timed from spawn until `siegeleis.cli` is imported
    and its parser built (the probe prints the monotonic clock then, which
    is the clock perf_counter reads on Linux)."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append((t0, float(proc.stdout.split()[-1])))
    return out


def environment() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "siegeleis")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"git_sha": sha, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


# -- metrics --------------------------------------------------------------------


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _kind_times(passes: list[list[Outcome]], seconds) -> dict[str, float]:
    """Median time per command kind; seconds(start, end) measures one."""
    by_kind: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            by_kind.setdefault(o.kind, []).append(seconds(o.start, o.end))
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def _raw(t0: float, t1: float) -> float:
    return t1 - t0


def end_to_end(walls, passes, setups, sampler) -> dict[str, float]:
    """Times are scaled to the reference CPU speed (see speed.py)."""
    kinds = _kind_times(passes, sampler.scaled)
    return {
        "wall_s": statistics.median(sampler.scaled(*w) for w in walls),
        "setup_s": statistics.median(
            sampler.scaled(*s, on_thread=False) for s in setups),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cmd_max_s": max(kinds.values()),
        "cmd_min_s": min(kinds.values()),
    }


def per_layer(tracer, n_passes, walls_plain, walls_traced, bytes_traced,
              micro) -> dict[str, float]:
    busy, self_s, calls = tracer.layer_times()
    c = tracer.counts
    out = {
        "cli.self_s": self_s["cli"] / n_passes,
        "cli.output_bytes": bytes_traced / n_passes,
        "hecke.table_nnz_ratio":
            _ratio(c["hecke.table_nnz"], c["hecke.table_entries"]),
        "hecke.eigenbasis.self_s": self_s["hecke.eigenbasis"] / n_passes,
        "linalg.vec_mat.useful_ratio":
            _ratio(c["linalg.vec_mat.useful"], c["linalg.vec_mat.visited"]),
        "fourier.apply_U.classes_out":
            c["fourier.apply_U.classes_out"] / n_passes,
        "fourier.apply_U.lookups_per_class":
            _ratio(c["fourier.apply_U.lookups"],
                   c["fourier.apply_U.classes_out"]),
        "fourier.krylov.depth":
            _ratio(tracer.apply_in_split(), calls["fourier.split"]),
        "cyclotomic.max_conductor": tracer.max_conductor,
        "trace.overhead_ratio":
            statistics.median(_raw(*w) for w in walls_traced)
            / statistics.median(_raw(*w) for w in walls_plain),
    }
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = calls[name] / n_passes
    for name in BUSY_TIMED:
        out[f"{name}.busy_s"] = busy[name] / n_passes
    for op in ("add", "mul", "inverse"):
        for m in ("m1", "mgt1"):
            key = f"cyclotomic.{op}.count.{m}"
            out[key] = c[key] / n_passes
    for check in VERIFY_CHECKS:
        out[f"verify.check_s.{check}"] = (
            tracer.check_seconds.get(check, 0.0) / n_passes)
    out.update(micro)
    return out


# -- main -----------------------------------------------------------------------


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "siegeleis", "cli.py")):
        return _fail(f"no program to measure: {SRC}/siegeleis is missing")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import workloads
    from speed import SpeedSampler

    if not os.path.isfile(workloads.PROVIDER):
        return _fail(f"no provider table at {workloads.PROVIDER}")
    if args.workload not in workloads.WORKLOAD_NAMES:
        return _fail(f"unknown workload {args.workload!r}")

    from siegeleis.cli import main as cli_main

    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    rng = random.Random(args.seed)
    plain_walls, plain_passes = [], []
    traced_walls, traced_passes = [], []
    tracer = None
    micro = {}
    setups = []
    if args.trace == 0:
        sampler = SpeedSampler()
        with sampler:
            setups = setup_intervals()
            t_end = time.perf_counter() + args.seconds
            while not plain_walls or time.perf_counter() < t_end:
                wall, outcomes = run_pass(cli_main, wl.pass_order(rng))
                plain_walls.append(wall)
                plain_passes.append(outcomes)
    else:
        from cycbench import run as cycbench_run
        from tracer import Tracer

        orders = [wl.pass_order(rng) for _ in range(wl.trace_passes)]
        for order in orders:
            wall, outcomes = run_pass(cli_main, order)
            plain_walls.append(wall)
            plain_passes.append(outcomes)
        tracer = Tracer()
        tracer.install()
        try:
            for order in orders:
                wall, outcomes = run_pass(cli_main, order, tracer)
                traced_walls.append(wall)
                traced_passes.append(outcomes)
        finally:
            tracer.uninstall()
        micro = cycbench_run(args.seed, batch=40 if args.tiny else 200)

    all_outcomes = [o for p in plain_passes + traced_passes for o in p]
    failed = [o for o in all_outcomes if o.code != 0 or o.error]
    # one command must print the same bytes every time, traced or not
    digests: dict[tuple, set] = {}
    for o in all_outcomes:
        digests.setdefault(o.argv, set()).add(o.digest)
    unstable = sorted(" ".join(a) for a, d in digests.items() if len(d) > 1)

    if args.trace == 0:
        values = end_to_end(plain_walls, plain_passes, setups, sampler)
        names = spec["end_to_end"]
    else:
        traced_bytes = sum(o.size for p in traced_passes for o in p)
        values = per_layer(tracer, len(traced_passes), plain_walls,
                           traced_walls, traced_bytes, micro)
        names = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "environment": environment(),
        "fail_ratio": _ratio(len(failed), len(all_outcomes)),
        "unstable_outputs": unstable,
        "raw_pass_walls_s": [_raw(*w) for w in plain_walls],
        "raw_traced_pass_walls_s": [_raw(*w) for w in traced_walls],
        "raw_kind_times_s": _kind_times(plain_passes, _raw),
        "raw_setup_s": [_raw(*s) for s in setups],
        "probe_median_s":
            statistics.median(sampler.probe_s) if args.trace == 0 else None,
        "metrics": metrics,
        "commands": [o.to_json() for o in all_outcomes],
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}{'-tiny' if args.tiny else ''}"
        f"-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)

    env = details["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"git={env['git_sha'][:12]} python={env['python']} "
          f"nproc={env['nproc']} cpu={env['cpu_model']!r}")
    for kind, t in details["raw_kind_times_s"].items():
        print(f"# {kind}: {t:.4f} s (raw wall)")
    print(f"# fail_ratio: {details['fail_ratio']:.4f} ratio "
          f"({len(failed)} of {len(all_outcomes)} commands)")
    for o in failed:
        print(f"# FAILED {' '.join(o.argv)}: code {o.code}, {o.error}")
    for line in unstable:
        print(f"# OUTPUT DIFFERS between runs of: {line}")
    for name, m in metrics.items():
        print(f"# {name}: {m['value']:.6g} {m['unit']}")
    print(f"# details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failed and not unstable,
        "attempted": len(all_outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
