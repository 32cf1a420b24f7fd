"""Call spans recorded from outside torsionkit, for the traced run.

:class:`Tracer` swaps each public function listed in :data:`TARGETS` for a
wrapper that records one span per call: name, start, end, parent span and
request id. The swap covers every torsionkit module namespace that binds
the function (so ``from .matrices import mat_mul`` in ``torsion``, ``cli``
and ``mpp`` is caught too) and the methods on the classes. Spans stay in
memory until the run ends; :func:`layer_metrics` folds them into the
per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType

#: (layer metric prefix, module, attribute path). A dotted path names a
#: method or classmethod on a class of that module.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("cli.parse_matrix", "cli", "parse_matrix"),
    ("cli.run", "cli", "run"),
    ("torsion.torsion_certificate", "torsion", "torsion_certificate"),
    ("torsion.verify_certificate", "torsion", "verify_certificate"),
    ("torsion.decide_torsion_annihilation", "torsion", "decide_torsion_annihilation"),
    ("matrices.minimal_polynomial", "matrices", "minimal_polynomial"),
    ("matrices.mat_mul", "matrices", "mat_mul"),
    ("matrices.mat_pow", "matrices", "mat_pow"),
    ("matrices.horner_matrix_eval", "matrices", "horner_matrix_eval"),
    ("matrices.RatMatrix.scalar", "matrices", "RatMatrix.scalar"),
    ("polynomials.RatPoly.divmod", "polynomials", "RatPoly.__divmod__"),
    ("polynomials.RatPoly.mul", "polynomials", "RatPoly.__mul__"),
    ("polynomials.IntPoly.mul", "polynomials", "IntPoly.__mul__"),
    ("polynomials.IntPoly.to_rational", "polynomials", "IntPoly.to_rational"),
    ("polynomials.IntPoly.exact_div", "polynomials", "IntPoly.exact_div"),
    ("polynomials.IntPoly.cyclic", "polynomials", "IntPoly.cyclic"),
    ("polynomials.int_gcd", "polynomials", "int_gcd"),
    ("numbertheory.nu_poly", "numbertheory", "nu_poly"),
    ("numbertheory.pi_poly_product", "numbertheory", "pi_poly_product"),
    ("numbertheory.pi_poly_gcd", "numbertheory", "pi_poly_gcd"),
    ("numbertheory.cyclotomic", "numbertheory", "cyclotomic"),
    ("numbertheory.torsion_bound", "numbertheory", "torsion_bound"),
    ("numbertheory.totient", "numbertheory", "totient"),
)


def _max_bits(matrix) -> int:
    return max(
        max(abs(e.numerator).bit_length(), e.denominator.bit_length())
        for row in matrix.rows
        for e in row
    )


def _annihilation_args(args, kwargs, result):
    faithful = kwargs.get("faithful", args[1] if len(args) > 1 else False)
    return [args[0].order, bool(faithful)]


#: Per-span facts taken from a call's arguments or result. Their cost is
#: timed and charged to the tracer, not to the enclosing span.
EXTRAS = {
    "matrices.mat_mul": lambda args, kwargs, result: _max_bits(result),
    "matrices.horner_matrix_eval": lambda args, kwargs, result: int(args[0].degree),
    "torsion.decide_torsion_annihilation": _annihilation_args,
    "torsion.torsion_certificate": lambda args, kwargs, result: len(result.J) if result.torsion else 0,
    "polynomials.RatPoly.divmod": lambda args, kwargs, result: result[1].is_zero(),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int
    request: int | None
    end: float = 0.0
    extra: object = None
    extra_s: float = 0.0


@dataclass
class Tracer:
    """Records spans while installed; restores every original on exit."""

    spans: list[Span] = field(default_factory=list)
    request: int | None = None
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
                span.extra_s = clock() - span.end
            return result

        return traced

    def __enter__(self) -> Tracer:
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if isinstance(mod, ModuleType) and (key == "torsionkit" or key.startswith("torsionkit."))
        ]
        for name, module, path in TARGETS:
            owner = sys.modules[f"torsionkit.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._swap(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                    continue
                wrapper = self.wrap(name, raw)
                # Aliases such as RatPoly.__rmul__ = __mul__ share the span name.
                for alias, value in list(vars(cls).items()):
                    if value is raw:
                        self._swap(cls, alias, wrapper)
                continue
            raw = getattr(owner, path)
            wrapper = self.wrap(name, raw)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        self._swap(mod, alias, wrapper)

    def _swap(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "extra": s.extra,
                }) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    A span's self time is its duration minus the time covered by its child
    spans, including the time the tracer spent taking each child's extras.
    Calls run one at a time, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += (s.end - s.start) + s.extra_s
    calls: dict[str, int] = {name: 0 for name, _, _ in TARGETS}
    self_s: dict[str, float] = {name: 0.0 for name, _, _ in TARGETS}
    for s, cover in zip(spans, covered):
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - cover

    def parent_name(s: Span) -> str | None:
        return spans[s.parent].name if s.parent >= 0 else None

    mat_bits = [s.extra for s in spans if s.name == "matrices.mat_mul"]
    built = sum(
        1 for s in spans
        if s.name == "polynomials.IntPoly.cyclic" and parent_name(s) == "numbertheory.cyclotomic"
    )
    divisions = sum(
        1 for s in spans
        if s.name == "polynomials.RatPoly.divmod" and parent_name(s) == "torsion.torsion_certificate"
    )
    hits = sum(s.extra for s in spans if s.name == "torsion.torsion_certificate")
    cyclo_calls = calls["numbertheory.cyclotomic"]

    out: dict[str, tuple[float, str]] = {}

    def both(prefix: str) -> None:
        out[f"{prefix}.calls"] = (calls[prefix], "count")
        out[f"{prefix}.self_s"] = (self_s[prefix], "s")

    for prefix in (
        "cli.parse_matrix",
        "torsion.torsion_certificate",
        "torsion.verify_certificate",
        "torsion.decide_torsion_annihilation",
        "matrices.minimal_polynomial",
        "matrices.mat_mul",
        "matrices.mat_pow",
        "matrices.horner_matrix_eval",
        "polynomials.RatPoly.divmod",
        "polynomials.RatPoly.mul",
        "polynomials.IntPoly.mul",
        "polynomials.IntPoly.to_rational",
        "polynomials.IntPoly.exact_div",
        "polynomials.int_gcd",
        "numbertheory.pi_poly_product",
        "numbertheory.cyclotomic",
        "numbertheory.torsion_bound",
        "numbertheory.totient",
    ):
        both(prefix)
    for prefix in ("cli.run", "numbertheory.nu_poly", "numbertheory.pi_poly_gcd"):
        out[f"{prefix}.self_s"] = (self_s[prefix], "s")
    out["matrices.RatMatrix.scalar.calls"] = (calls["matrices.RatMatrix.scalar"], "count")
    out["matrices.mat_mul.max_bits"] = (max(mat_bits, default=0), "bits")
    out["numbertheory.cyclotomic.built"] = (built, "count")
    out["numbertheory.cyclotomic.hit_ratio"] = (
        (cyclo_calls - built) / cyclo_calls if cyclo_calls else 0.0, "ratio")
    out["torsion.trial_divisions"] = (divisions, "count")
    out["torsion.trial_hits"] = (hits, "count")
    out["torsion.trial_hit_ratio"] = (hits / divisions if divisions else 0.0, "ratio")
    return out


def horner_identity(spans: list[Span], expected_annihilation_degree) -> list[str]:
    """Check two totals of Horner work that are reached by separate paths.

    The mat_mul spans under each horner_matrix_eval span must number
    deg(p) + 1, summed over all evaluations; and under each annihilation
    decision the evaluated polynomial must have the degree the benchmark
    computes itself, d + sum of phi(j) for j <= n.
    """
    problems = []
    under = {}
    for s in spans:
        if s.name == "matrices.mat_mul" and s.parent >= 0 and spans[s.parent].name == "matrices.horner_matrix_eval":
            under[s.parent] = under.get(s.parent, 0) + 1
    horner = [(i, s) for i, s in enumerate(spans) if s.name == "matrices.horner_matrix_eval"]
    counted = sum(under.values())
    predicted = sum(s.extra + 1 for _, s in horner)
    if counted != predicted:
        problems.append(f"mat_mul calls under horner_matrix_eval: {counted}, sum of (deg p + 1): {predicted}")
    for i, s in horner:
        if s.parent >= 0 and spans[s.parent].name == "torsion.decide_torsion_annihilation":
            d, faithful = spans[s.parent].extra
            want = expected_annihilation_degree(d, faithful)
            if s.extra != want:
                problems.append(
                    f"annihilation at order {d} (faithful={faithful}) evaluated degree {s.extra}, expected {want}"
                )
    return problems
