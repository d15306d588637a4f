"""Per-layer metrics: which program functions are traced, and how the traced
calls and counters turn into the metrics BENCHMARK.json lists under
``per_layer``. README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

from finitype import cli, dimcalc, exactfield, ifsmodel, loopclasses, netgraph


def _sort_unique(count, args, result):
    count("exactfield.sort_unique.elements", len(args[0]))


def _build_graph(count, args, graph):
    count("netgraph.vertices", len(graph))
    count("netgraph.edges", len(graph.edges))


def _positivity(count, args, result):
    count("loopclasses.positivity.states", result.explored_states)


def _enumerate_cycles(count, args, result):
    count("dimcalc.cycles.found", len(result.cycles))
    count("dimcalc.cycles.extremes",
          (result.min_cycle is not None) + (result.max_cycle is not None))


def _norm_bounds(count, args, result):
    count("dimcalc.norm_bounds.paths", result.path_count)
    count("dimcalc.norm_bounds.returned")
    count("dimcalc.norm_bounds.depth_sum", result.depth)


# (where the program looks the name up, attribute, span name, observer).
# Names imported from another module are wrapped in the importing module.
SPANS = (
    (exactfield.NumberField, "__init__", "exactfield.field_init", None),
    (exactfield.NumberField, "sign_of", "exactfield.sign_of", None),
    (exactfield.NumberField, "refine", "exactfield.refine", None),
    (netgraph, "sort_unique", "exactfield.sort_unique", _sort_unique),
    (netgraph, "build_graph", "netgraph.build_graph", _build_graph),
    (netgraph, "children", "netgraph.children", None),
    (loopclasses, "classify_all", "loopclasses.classify_all", None),
    (loopclasses, "strongly_connected_components", "loopclasses.scc", None),
    (loopclasses, "positivity_certificate", "loopclasses.positivity",
     _positivity),
    (dimcalc, "enumerate_cycles", "dimcalc.enumerate_cycles",
     _enumerate_cycles),
    (dimcalc, "mat_mul", "dimcalc.mat_mul", None),
    (dimcalc, "spectral_radius", "dimcalc.spectral_radius", None),
    (dimcalc, "norm_bounds", "dimcalc.norm_bounds", _norm_bounds),
    (dimcalc, "assemble_report", "dimcalc.assemble_report", None),
    (cli, "parse_document", "cli.parse_document", None),
    (ifsmodel, "validate", "ifsmodel.validate", None),
    (cli, "report_to_document", "cli.report_to_document", None),
    (cli, "render_text", "cli.render_text", None),
)


def instrument(tracer):
    for owner, attr, name, observe in SPANS:
        tracer.wrap(owner, attr, name, observe)


def metrics(counts, times, overhead_s, degraded):
    """Per-layer metrics from one traced pass's counts and its span times
    (inclusive, self), each as (value, unit)."""
    def total(span):
        return times[span][0], "s"

    def calls(span):
        return counts[span], "count"

    def counter(name):
        return counts.get(name, 0), "count"

    found = counts.get("dimcalc.cycles.found", 0)
    returned = counts.get("dimcalc.norm_bounds.returned", 0)
    return {
        "exactfield.field_init.s": total("exactfield.field_init"),
        "exactfield.sign_of.calls": calls("exactfield.sign_of"),
        "exactfield.sign_of.s": total("exactfield.sign_of"),
        "exactfield.refine.calls": calls("exactfield.refine"),
        "exactfield.sort_unique.calls": calls("exactfield.sort_unique"),
        "exactfield.sort_unique.elements":
            counter("exactfield.sort_unique.elements"),
        "exactfield.sort_unique.s": total("exactfield.sort_unique"),
        "netgraph.build_graph.s": total("netgraph.build_graph"),
        "netgraph.children.calls": calls("netgraph.children"),
        "netgraph.children.s": total("netgraph.children"),
        "netgraph.vertices": counter("netgraph.vertices"),
        "netgraph.edges": counter("netgraph.edges"),
        "loopclasses.classify_all.s": total("loopclasses.classify_all"),
        "loopclasses.scc.s": total("loopclasses.scc"),
        "loopclasses.positivity.s": total("loopclasses.positivity"),
        "loopclasses.positivity.states":
            counter("loopclasses.positivity.states"),
        "dimcalc.enumerate_cycles.s": total("dimcalc.enumerate_cycles"),
        "dimcalc.cycles.found": (found, "count"),
        "dimcalc.mat_mul.calls": calls("dimcalc.mat_mul"),
        "dimcalc.spectral_radius.calls": calls("dimcalc.spectral_radius"),
        "dimcalc.spectral_radius.s": total("dimcalc.spectral_radius"),
        # every cycle found is certified once; the report keeps two extremes
        "dimcalc.cycles.useful_ratio":
            (counts.get("dimcalc.cycles.extremes", 0) / found if found else 0.0,
             "ratio"),
        "dimcalc.norm_bounds.s": total("dimcalc.norm_bounds"),
        "dimcalc.norm_bounds.paths": counter("dimcalc.norm_bounds.paths"),
        "dimcalc.norm_bounds.depth":
            (counts.get("dimcalc.norm_bounds.depth_sum", 0) / returned
             if returned else 0.0, "steps"),
        "dimcalc.assemble_report.self_s":
            (times["dimcalc.assemble_report"][1], "s"),
        "cli.parse_document.s": total("cli.parse_document"),
        "ifsmodel.validate.s": total("ifsmodel.validate"),
        "cli.report_to_document.s": total("cli.report_to_document"),
        "cli.render_text.s": total("cli.render_text"),
        "trace.overhead_s": (overhead_s, "s"),
        "degraded_classes": (degraded, "count"),
    }
