"""Spans and counters recorded from outside the program.

The tracer replaces public callables of `siegeleis` with wrappers for the
length of a traced pass and restores them afterwards.  A function is
rebound under every module attribute that holds it, because `cli`, `verify`
and `fourier` import functions by name; a method is replaced on its class.

A span is (name, start, end, parent, command).  Spans stay in memory until
the pass ends.  A layer's busy time counts only its outermost spans, and a
span's self time is its duration minus the durations of its children.
CycNum operations are counted, not spanned: they are too many and too short.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute); "Class.method" patches the class
SPANNED = {
    "hecke.hecke_matrix": ("siegeleis.hecke", "hecke_matrix"),
    "hecke.eigen_vector": ("siegeleis.hecke", "eigen_vector"),
    "hecke.eigenbasis": ("siegeleis.hecke", "eigenbasis"),
    "hecke.compare_eigenvalues": ("siegeleis.hecke", "compare_eigenvalues"),
    "hecke.s_word": ("siegeleis.hecke", "s_word"),
    "linalg.vec_mat": ("siegeleis.linalg", "CycMatrix.vec_mat"),
    "linalg.matmul": ("siegeleis.linalg", "CycMatrix.__matmul__"),
    "linalg.eigen": ("siegeleis.linalg", "CycMatrix.eigen"),
    "linalg.kernel": ("siegeleis.linalg", "CycMatrix.kernel"),
    "linalg.min_poly": ("siegeleis.linalg", "CycMatrix.min_poly"),
    "linalg.intersect_spans": ("siegeleis.linalg", "intersect_spans"),
    "lattices.reduce_form": ("siegeleis.lattices", "reduce_form"),
    "lattices.reduced_class_keys": ("siegeleis.lattices", "reduced_class_keys"),
    "fourier.provider_parse": ("siegeleis.fourier", "provider_parse"),
    "fourier.apply_U": ("siegeleis.fourier", "apply_U"),
    "fourier.krylov_spectral": ("siegeleis.fourier", "krylov_spectral"),
    # one Krylov split per operator and component; it defines the depth
    "fourier.split": ("siegeleis.fourier", "_split_by"),
    "eisspace.enumerate_partitions": ("siegeleis.eisspace",
                                      "enumerate_partitions"),
    "verify.run_suite": ("siegeleis.verify", "run_suite"),
}

CYC_OPS = {"add": ("__add__", "__radd__"), "mul": ("__mul__", "__rmul__"),
           "inverse": ("inverse",)}


def _resolve(module: str, attr: str):
    """(owner, key) for a dotted target; owner is None once it is gone."""
    owner = sys.modules.get(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.counts: Counter = Counter()
        self.max_conductor = 1
        self.check_seconds: Counter = Counter()  # VerificationReport.timings
        self.command = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._row_nnz: dict[int, tuple[object, list[int]]] = {}

    # -- installing -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, (module, attr) in SPANNED.items():
            owner, key = _resolve(module, attr)
            orig = vars(owner).get(key) if owner is not None else None
            if orig is None:
                continue  # the program no longer has it; the metric reads 0
            wrapped = self._spanned(name, orig)
            if isinstance(owner, type):
                self._set(owner, key, wrapped)
                continue
            # rebind the function wherever a siegeleis module imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "siegeleis" or mod is None:
                    continue
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        self._set(mod, k, wrapped)
        self._install_cyc_counters()
        self._install_lookup_counter()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        self._row_nnz.clear()

    # -- spans ----------------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = {
            "hecke.hecke_matrix": self._after_table,
            "linalg.vec_mat": self._after_vec_mat,
            "fourier.apply_U": self._after_apply_U,
            "verify.run_suite": self._after_suite,
        }.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.command])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                # hook time is its own child span so no layer's self time
                # absorbs it
                t0 = clock()
                try:
                    after(args, result)
                except (AttributeError, TypeError, IndexError):
                    # the program's data layout changed; the counter reads 0
                    self.counts["trace.hook_errors"] += 1
                spans.append(["trace", t0, clock(), stack[-1] if stack else -1,
                              self.command])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def root(self, command: int):
        """Open the root span of one CLI call; returns the closing function."""
        self.command = command
        idx = len(self.spans)
        self.spans.append(["cli", time.perf_counter(), 0.0, -1, command])
        self._stack.append(idx)

        def close():
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
        return close

    # -- counters at layer boundaries -------------------------------------------

    def _after_table(self, args, hm) -> None:
        data = hm.mat.data
        self.counts["hecke.table_entries"] += hm.mat.rows * hm.mat.cols
        self.counts["hecke.table_nnz"] += sum(
            1 for row in data for x in row if not x.is_zero())

    def _after_vec_mat(self, args, result) -> None:
        mat, v = args[0], args[1]
        key = id(mat)
        hit = self._row_nnz.get(key)
        if hit is None or hit[0] is not mat:
            hit = (mat, [sum(1 for x in row if not x.is_zero())
                         for row in mat.data])
            self._row_nnz[key] = hit
        live = [i for i, x in enumerate(v) if x]
        self.counts["linalg.vec_mat.visited"] += len(live) * mat.cols
        self.counts["linalg.vec_mat.useful"] += sum(hit[1][i] for i in live)

    def _after_apply_U(self, args, result) -> None:
        self.counts["fourier.apply_U.classes_out"] += len(result.coeffs)

    def _after_suite(self, args, report) -> None:
        self.check_seconds.update(report.timings)

    def _install_lookup_counter(self) -> None:
        from siegeleis.fourier import FourierExpansion

        orig = FourierExpansion.value
        spans, stack, counts = self.spans, self._stack, self.counts

        def value(exp, T):
            if stack and spans[stack[-1]][0] == "fourier.apply_U":
                counts["fourier.apply_U.lookups"] += 1
            return orig(exp, T)

        self._set(FourierExpansion, "value", value)

    def _install_cyc_counters(self) -> None:
        from siegeleis.cyclotomic import CycNum

        counts = self.counts
        tracer = self

        def counted(op: str, fn):
            def wrapper(a, b=None):
                m = max(a.m, getattr(b, "m", 1))
                if m > tracer.max_conductor:
                    tracer.max_conductor = m
                counts[f"cyclotomic.{op}.count.{'m1' if m == 1 else 'mgt1'}"] += 1
                return fn(a) if b is None else fn(a, b)
            return wrapper

        for op, attrs in CYC_OPS.items():
            for attr in attrs:
                self._set(CycNum, attr, counted(op, CycNum.__dict__[attr]))

    # -- summaries --------------------------------------------------------------

    def apply_in_split(self) -> int:
        """apply_U calls made directly by a Krylov split."""
        spans = self.spans
        return sum(1 for name, _s, _e, parent, _c in spans
                   if name == "fourier.apply_U" and parent >= 0
                   and spans[parent][0] == "fourier.split")

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """busy seconds (outermost spans only), self seconds and calls per
        span name."""
        busy: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict = defaultdict(float)
        for _name, start, end, parent, _cmd in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, _cmd) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
            p = parent
            nested = False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                busy[name] += end - start
        return busy, self_s, calls
