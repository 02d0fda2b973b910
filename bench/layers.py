"""Which public functions the traced run wraps, and the per-layer metrics.

Layer names follow the modules: ``starprod.star_general`` is
:func:`superstar.starprod.star_general` wherever it was imported.  Every
figure is per round (totals divided by the rounds run), except
``superfun.chop.max_dropped_rel``, which is the largest over the run.
"""

from __future__ import annotations

import superstar.cli
import superstar.expr
import superstar.gwaction
import superstar.heisenberg
import superstar.hilbert
import superstar.qgroup
import superstar.starprod
import superstar.superfun
import superstar.supertorus
import superstar.udf
import superstar.verify
from superstar.exppoly import ExpPolyFunction
from superstar.grassmann import GrassmannElement
from superstar.superfun import Superfunction

import tracing

_SUITE_FUNCTIONS = {
    "eps": "verify_eps", "star": "verify_star", "hilbert": "verify_hilbert",
    "heisenberg": "verify_heisenberg", "udf": "verify_udf", "torus": "verify_torus",
    "qgroup": "verify_qgroup", "gw": "verify_gw_suite",
}


def _sf_terms(f) -> int:
    return sum(len(e.terms) for e in f.terms.values())


def _star_before(args, kwargs):
    f, g = args[0], args[1]
    return _sf_terms(f) + _sf_terms(g), len(f.terms) * len(g.terms)


def _star_after(layer, state, result):
    layer.add("terms_in", state[0])
    layer.add("word_pairs", state[1])
    layer.add("terms_out", _sf_terms(result))


def _integrate_before(args, kwargs):
    f = args[0]
    return len(f.terms), len({(t.A_ut, t.b) for t in f.terms})


def _integrate_after(layer, state, result):
    layer.add("terms_in", state[0])
    layer.add("distinct_keys", state[1])
    layer.add("terms_out", len(result.terms))


def _terms_out_after(layer, state, result):
    layer.add("terms_out", len(result.terms))


def _chop_after(layer, state, result):
    f = state
    dropped = _sf_terms(f) - _sf_terms(result)
    layer.add("dropped_terms", dropped)
    if dropped:
        top = max(abs(t.c) for e in f.terms.values() for t in e.terms)
        kept = {id(t) for e in result.terms.values() for t in e.terms}
        worst = max(abs(t.c) for e in f.terms.values() for t in e.terms
                    if id(t) not in kept)
        layer.peak("max_dropped_rel", worst / top)


def install(tracer: tracing.Tracer) -> None:
    """Wrap every layer named in :data:`PER_LAYER`."""
    fn = tracer.install_function
    for suite, attr in _SUITE_FUNCTIONS.items():
        fn(superstar.verify, attr, f"verify.{suite}")
    fn(superstar.starprod, "star_general", "starprod.star_general",
       _star_before, _star_after)
    fn(superstar.starprod, "star_oracle", "starprod.star_oracle")
    fn(superstar.starprod, "ep_integrate_partial", "exppoly.ep_integrate_partial",
       _integrate_before, _integrate_after)
    fn(superstar.starprod, "ep_mul", "exppoly.ep_mul", None, _terms_out_after)
    tracer.install_method(ExpPolyFunction, "affine", "exppoly.affine")
    tracer.install_method(ExpPolyFunction, "__init__", "exppoly.normal_form")
    tracer.install_method(GrassmannElement, "wedge", "grassmann.wedge")
    fn(superstar.superfun, "eps", "grassmann.eps")
    for name in ("smul", "substitute", "sintegrate", "sf_max_dev"):
        fn(superstar.superfun, name, f"superfun.{name}")
    tracer.install_method(Superfunction, "chop", "superfun.chop",
                          lambda args, kwargs: args[0], _chop_after)
    fn(superstar.udf, "udf_product", "udf.udf_product")
    fn(superstar.qgroup, "pentagon_check", "qgroup.pentagon_check")
    fn(superstar.heisenberg, "representation", "heisenberg.representation")
    fn(superstar.hilbert, "inner_fock", "hilbert.inner_fock")
    fn(superstar.gwaction, "verify_gw", "gwaction.verify_gw")
    fn(superstar.supertorus, "torus_mul", "supertorus.torus_mul")
    fn(superstar.expr, "parse", "expr.parse")
    fn(superstar.expr, "evaluate", "expr.evaluate")
    fn(superstar.cli, "main", "cli.main")


# (metric name, unit); the layer is the name up to its last dot.
PER_LAYER = [(f"verify.{suite}.s", "s") for suite in _SUITE_FUNCTIONS] + [
    ("starprod.star_general.calls", "count"),
    ("starprod.star_general.s", "s"),
    ("starprod.star_general.self_s", "s"),
    ("starprod.star_general.terms_in", "count"),
    ("starprod.star_general.terms_out", "count"),
    ("starprod.star_general.word_pairs", "count"),
    ("starprod.star_oracle.calls", "count"),
    ("starprod.star_oracle.s", "s"),
    ("exppoly.ep_integrate_partial.calls", "count"),
    ("exppoly.ep_integrate_partial.s", "s"),
    ("exppoly.ep_integrate_partial.terms_in", "count"),
    ("exppoly.ep_integrate_partial.terms_out", "count"),
    ("exppoly.ep_integrate_partial.distinct_keys", "count"),
    ("exppoly.ep_mul.calls", "count"),
    ("exppoly.ep_mul.s", "s"),
    ("exppoly.ep_mul.terms_out", "count"),
    ("exppoly.affine.calls", "count"),
    ("exppoly.affine.s", "s"),
    ("exppoly.normal_form.calls", "count"),
    ("exppoly.normal_form.s", "s"),
    ("grassmann.wedge.calls", "count"),
    ("grassmann.wedge.s", "s"),
    ("grassmann.eps.calls", "count"),
    ("grassmann.eps.s", "s"),
] + [(f"superfun.{name}.{field}", unit)
     for name in ("smul", "substitute", "sintegrate", "sf_max_dev")
     for field, unit in (("calls", "count"), ("s", "s"))] + [
    ("superfun.chop.calls", "count"),
    ("superfun.chop.dropped_terms", "count"),
    ("superfun.chop.max_dropped_rel", "ratio"),
    ("udf.udf_product.calls", "count"),
    ("udf.udf_product.s", "s"),
    ("qgroup.pentagon_check.s", "s"),
    ("heisenberg.representation.calls", "count"),
    ("heisenberg.representation.s", "s"),
    ("hilbert.inner_fock.calls", "count"),
    ("hilbert.inner_fock.s", "s"),
    ("gwaction.verify_gw.s", "s"),
    ("supertorus.torus_mul.calls", "count"),
    ("supertorus.torus_mul.s", "s"),
    ("expr.parse.s", "s"),
    ("expr.evaluate.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.wrapped_calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]


def metrics(tracer: tracing.Tracer, rounds: int, wall_s: float, per_call_s: float) -> dict:
    """Per-round figures for every name in :data:`PER_LAYER`."""
    calls = tracer.wrapped_calls() / rounds
    overhead = calls * per_call_s
    extra = {
        "trace.wall_s": wall_s,
        "trace.wrapped_calls": calls,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / max(wall_s - overhead, 1e-9),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in extra:
            value = extra[name]
        else:
            layer_name, field = name.rsplit(".", 1)
            layer = tracer.layers.get(layer_name, tracing.Layer())
            if field == "max_dropped_rel":
                value = layer.counts.get(field, 0.0)
            elif field in ("calls", "s", "self_s"):
                value = getattr(layer, field) / rounds
            else:
                value = layer.counts.get(field, 0) / rounds
        out[name] = {"value": float(value), "unit": unit}
    return out
