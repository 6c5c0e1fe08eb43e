"""In-memory span tracer and the wrappers that attach it to gradedlab.

A span records a name, a start, an end and the span that was open when
it started.  Spans are kept in flat arrays until the pass ends; the
self time of a span is its duration minus the durations of its direct
children (spans nest strictly, because they come from wrapped calls on
one thread).

`install` rebinds, from outside the program, every public function this
benchmark times: each module-level name is replaced in every gradedlab
module that holds it (the modules import them with `from .x import y`),
methods are replaced on their class, and the linear-algebra kernels are
replaced on `numpy.linalg` and `scipy.linalg`, which the modules look up
at call time.  Bookkeeping a wrapper does for its counters runs in its
own `trace.bookkeeping` span so it does not inflate any layer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MARK = "__perfbench_span__"
BOOKKEEPING = "trace.bookkeeping"

# (module, attribute or Class.attribute, span name)
FUNCTION_TARGETS = (
    *(("gradedlab.sampling", fn, "sampling") for fn in (
        "trial_seed", "rng_for", "balanced_space", "random_space", "random_even", "random_odd",
        "random_homogeneous", "random_hermitian_even", "random_odd_selfadjoint", "random_even_unitary",
    )),
    ("gradedlab.graded", "graded_commutator", "graded.commutator"),
    ("gradedlab.graded", "operator_norm", "graded.operator_norm"),
    ("gradedlab.graded", "graded_tensor", "graded.tensor"),
    ("gradedlab.graded", "GradedMatrix.__post_init__", "graded.construct"),
    ("gradedlab.graded", "OddSelfAdjoint.__post_init__", "graded.construct"),
    ("gradedlab.funcalc", "Spectrum.of", "funcalc.spectrum_of"),
    ("gradedlab.funcalc", "Spectrum.apply", "funcalc.apply"),
    ("gradedlab.pairs", "validate_pair", "pairs.validate_pair"),
    ("gradedlab.pairs", "compose_pairs", "pairs.compose_pairs"),
    ("gradedlab.pairs", "factorization_defect_profiles", "pairs.factorization_profiles"),
    ("gradedlab.pairs", "DecayProfile.from_values", "pairs.decay_fit"),
    ("gradedlab.estimates", "matrix_exp", "estimates.matrix_exp"),
    ("gradedlab.estimates", "transform_commutator_check", "estimates.transform_commutator"),
    ("gradedlab.estimates", "transform_sum_sweep", "estimates.sum_sweep"),
    ("gradedlab.estimates", "exp_shift_bound_check", "estimates.exp_checks"),
    ("gradedlab.estimates", "exp_product_bound_check", "estimates.exp_checks"),
    ("gradedlab.estimates", "exp_product_path_profiles", "estimates.exp_checks"),
    ("gradedlab.bott", "hermite_model", "bott.assemble"),
    ("gradedlab.bott", "bott_dirac", "bott.assemble"),
    ("gradedlab.bott", "multiplication_generators", "bott.assemble"),
    ("gradedlab.bott", "spectrum_and_kernel", "bott.spectrum"),
    ("gradedlab.bott", "dc_commutator_check", "bott.dc_check"),
    ("gradedlab.bott", "perturbation_check", "bott.perturbation"),
)
KERNEL_TARGETS = (
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("numpy.linalg", "norm", "linalg.norm2"),
    ("numpy.linalg", "inv", "linalg.inv"),
    ("scipy.linalg", "expm", "linalg.expm"),
)

# Dense flop model, in real flops for an n x n real matrix (Golub & Van
# Loan counts); complex input costs 4x.  expm is the Pade-13
# scaling-and-squaring model: 6 products, one solve and s squarings.
_THETA_13 = 5.371920351148152


def _kernel_flops(span: str, a: np.ndarray) -> float:
    n = float(a.shape[-1])
    factor = 4.0 if np.iscomplexobj(a) else 1.0
    if span == "linalg.eigvalsh":
        real = 4.0 / 3.0 * n**3
    elif span == "linalg.eigh":
        real = 9.0 * n**3
    elif span == "linalg.norm2":
        real = 8.0 / 3.0 * n**3
    elif span == "linalg.inv":
        real = 2.0 * n**3
    else:
        norm1 = float(np.abs(a).sum(axis=-2).max()) if a.size else 0.0
        squarings = max(0, math.ceil(math.log2(norm1 / _THETA_13))) if norm1 > 0 else 0
        real = 2.0 * n**3 * (6 + squarings) + 8.0 / 3.0 * n**3
    return factor * real


class Tracer:
    """Flat in-memory span store with per-name aggregation."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span.  `count`, if given, sees the arguments first,
        in a bookkeeping span; when it returns False the call is not a
        call of this layer and runs untraced."""
        nid, book = self.name_id(name), self.name_id(BOOKKEEPING)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                idx = open_(book)
                try:
                    is_call = count(*args, **kwargs)
                finally:
                    close(idx)
                if is_call is False:
                    return fn(*args, **kwargs)
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        setattr(traced, MARK, name)
        return traced

    def table(self) -> tuple[dict[str, dict[str, float]], float]:
        """Per span name: calls, total (inclusive) and self seconds; and the
        smallest self time of any span, which is negative only if spans
        overlapped instead of nesting."""
        if self._stack != [-1]:
            raise RuntimeError("table requested while spans are open")
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=duration.size)
        self_time = duration - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }, float(self_time.min(initial=0.0))


def _useful_terms(counters):
    """graded_commutator(a, b): of its four parity-part products, count
    those whose two operands are not identically zero."""

    def count(a, b):
        # parity parts are exact: the even part keeps the entries between
        # equal parities, the odd part the others
        parity = np.asarray(a.space.parity)
        same = parity[:, None] == parity[None, :]
        a_parts = (np.any(a.entries[same]), np.any(a.entries[~same]))
        b_parts = (np.any(b.entries[same]), np.any(b.entries[~same]))
        counters["graded.commutator.useful_terms"] += sum(bool(x and y) for x in a_parts for y in b_parts)

    return count


def _repeats(counters):
    """Spectrum.of(operator): count calls on a matrix already decomposed."""
    seen = set()

    def count(cls, operator, *args, **kwargs):
        matrix = getattr(operator, "mat", None)
        if matrix is None:
            matrix = getattr(operator, "entries", operator)
        matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        key = (matrix.shape, hashlib.blake2b(matrix.data, digest_size=16).digest())
        counters["funcalc.spectrum_of.repeats"] += key in seen
        seen.add(key)

    return count


def _flops(counters, span: str):
    """A dense kernel call: add its computed flops.  Only the spectral norm
    of a matrix counts as a `norm` kernel call."""

    def count(a, *args, **kwargs):
        a = np.asarray(a)
        if span == "linalg.norm2":
            order = args[0] if args else kwargs.get("ord")
            if order != 2 or a.ndim != 2 or kwargs.get("axis") is not None:
                return False
        counters["linalg.flops"] += _kernel_flops(span, a)

    return count


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _gradedlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gradedlab" or name.startswith("gradedlab."))]


def _rebind_everywhere(original, replacement) -> int:
    """Replace `original` by `replacement` in every loaded gradedlab module."""
    count = 0
    for module in _gradedlab_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                count += 1
    return count


def install(tracer: Tracer) -> int:
    """Attach the tracer to gradedlab and the kernels; returns sites rebound."""
    import gradedlab  # noqa: F401  (all submodules must be loaded first)
    import scipy.linalg  # noqa: F401

    counters = tracer.counters
    counted = {"graded.commutator": _useful_terms(counters), "funcalc.spectrum_of": _repeats(counters)}
    sites = 0
    for module, attr, span in FUNCTION_TARGETS:
        owner, key = _resolve(module, attr)
        raw = owner.__dict__[key]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = tracer.wrap(span, fn, counted.get(span))
        if isinstance(owner, type):
            setattr(owner, key, classmethod(wrapped) if is_classmethod else wrapped)
            sites += 1
        else:
            sites += _rebind_everywhere(fn, wrapped)
    for module, attr, span in KERNEL_TARGETS:
        owner = sys.modules[module]
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), _flops(counters, span)))
        sites += 1
    return sites


def installed_wrappers() -> int:
    """Count traced callables reachable from gradedlab and the kernel modules."""
    found = 0
    for module in _gradedlab_modules():
        for value in vars(module).values():
            found += hasattr(value, MARK)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member in vars(value).values():
                    found += hasattr(getattr(member, "__func__", member), MARK)
    for module, attr, _ in KERNEL_TARGETS:
        found += hasattr(getattr(sys.modules[module], attr), MARK) if module in sys.modules else 0
    return found
