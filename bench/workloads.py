"""The benchmark's workloads: which shipped catalog documents run through
which pipeline, and what each document's run hands to the checks.

Every workload runs its documents one after another in one thread, each
starting when the previous one has finished, as the CLI is used. See
README.md for why each document set was chosen.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from finitype import cli, dimcalc, ifsmodel, loopclasses, netgraph

# the CLI defaults of `finitype analyze`
CYCLE_LEN = 10
BOUND_LEN = 8
SUBSET = "auto"
MAX_CVS = 10000
PARAMETERS = {"max_cvs": MAX_CVS, "cycle_len": CYCLE_LEN,
              "bound_len": BOUND_LEN, "subset": SUBSET}

# Pisot documents with a published census row. The 1809-vertex
# bc_x3_plus_x2_minus_1 takes most of the time; the cap row
# bc_x4_plus_x_minus_1 is left out.
CENSUS_DOCS = (
    "golden",
    "golden_square",
    "bc_x3_plus_x_minus_1",
    "bc_x3_plus_x2_minus_1",
    "bc_x3_minus_x2_plus_2x_minus_1",
    "bc_x3_plus_x2_plus_x_minus_1",
    "bc_x4_minus_2x2_minus_x_plus_1",
    "bc_x4_minus_x3_plus_2x_minus_1",
    "bc_x4_plus_x3_plus_x2_plus_x_minus_1",
)
# the same rows up to 538 vertices: the full analysis of the 1809-vertex
# graph takes about 99 s, too long to repeat
PISOT_DOCS = tuple(n for n in CENSUS_DOCS if n != "bc_x3_plus_x2_minus_1")
# degree-1 field; m = 3 is inside the range where the closed forms are
# proven, m = 7 and m = 10 are the odd and even rows past it that fit a run
CANTOR_DOCS = (
    "cantor_r3_m3_binomial",
    "cantor_r3_m7_binomial",
    "cantor_r3_m10_binomial",
)


@dataclass
class Outcome:
    """What one document's run produced."""

    name: str
    model: object
    graph: object
    classes: list
    report: object = None       # DimensionReport, full pipeline only
    document: dict | None = None
    text: str | None = None


# The pipelines look every function up on its module at call time, so the
# tracer's wrappers see the calls.

def census(name, doc) -> Outcome:
    """Parse, validate, build the graph and classify its loop classes."""
    model = ifsmodel.validate(cli.parse_document(doc))
    graph = netgraph.build_graph(model, cap_cvs=MAX_CVS)
    return Outcome(name, model, graph, loopclasses.classify_all(graph))


def analyze(name, doc) -> Outcome:
    """The whole `finitype analyze` pipeline, through the JSON and text reports."""
    out = census(name, doc)
    out.report = dimcalc.assemble_report(
        out.model, out.graph, classes=out.classes, cycle_len=CYCLE_LEN,
        bound_len=BOUND_LEN, subset=SUBSET)
    out.document = cli.report_to_document(out.report, PARAMETERS)
    out.text = cli.render_text(out.report, graph=out.graph)
    return out


WORKLOADS = {
    "census": (census, CENSUS_DOCS),
    "pisot": (analyze, PISOT_DOCS),
    "cantor": (analyze, CANTOR_DOCS),
}


def fingerprint(out: Outcome) -> str:
    """Digest of everything the document's run produced: the graph's vertices
    and edges, the loop classes and, for the full pipeline, both reports."""
    g = out.graph
    parts = (
        [cv.key() for cv in g.cvs],
        [(e.parent, e.child, e.matrix, e.multiplicity) for e in g.edges],
        [(c.members, c.is_essential, c.is_simple_loop,
          c.positivity.verdict.value, c.positivity.witness)
         for c in out.classes],
        out.document,
        out.text,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def ess_gap(out: Outcome) -> float:
    """Outer width minus inner width of the essential class's dimension range."""
    ess = out.report.essential
    outer = ess.dim_outer[1] - ess.dim_outer[0]
    inner = ess.dim_inner[1] - ess.dim_inner[0] if ess.dim_inner else 0.0
    return outer - inner
