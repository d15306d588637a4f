"""Correctness gate and degradation count.

Each document's output is checked against references that the pipeline under
test does not produce: published values copied below, the closed-form
predictions, and brute-force enumeration of the first levels of the measure.
The checks run outside the timed region.
"""

from __future__ import annotations

import math

from finitype import catalog, cli, closedforms, dimcalc, ifsmodel, \
    loopclasses, netgraph, oracle
from finitype.loopclasses import Positivity

from workloads import BOUND_LEN, Outcome

# Published census (arXiv 1504.00510): vertices of the reduced transition
# graph and members of its essential class. Copied, like every reference
# below, so that a change to the program cannot move its own yardstick; the
# same numbers are pinned by tests/test_acceptance.py.
CENSUS = {
    "golden": (6, 3),
    "golden_square": (40, 11),
    "bc_x3_plus_x_minus_1": (152, 46),
    "bc_x3_plus_x2_minus_1": (1809, 1207),
    "bc_x3_minus_x2_plus_2x_minus_1": (30, 27),
    "bc_x3_plus_x2_plus_x_minus_1": (11, 8),
    "bc_x4_minus_2x2_minus_x_plus_1": (538, 535),
    "bc_x4_minus_x3_plus_2x_minus_1": (190, 187),
    "bc_x4_plus_x3_plus_x2_plus_x_minus_1": (14, 11),
}

# Cantor-like measures S_j(x) = x/3 + 2j/(3m) with binomial weights
# (arXiv 1504.00510, tables for R = 3), keyed by m: the closed-form
# predictions of the minimal and maximal dimension, and the ranges the paper
# computed for the true extremes ("actual" columns).
R = 3
MIN_FORMULA = {3: 0.892790, 7: 1.18029, 10: 1.27620}
MAX_FORMULA = {3: 1.13355, 7: 1.01434, 10: 1.03074}
ACTUAL_MIN = {3: (0.892790, 0.892790), 7: (0.993576, 0.993848),
              10: (0.999022, 0.999022)}
ACTUAL_MAX = {3: (1.13354, 1.13354), 7: (1.00605, 1.00736),
              10: (1.00079, 1.00082)}
PUBLISHED_TOL = 1e-5    # the published values carry six digits

# Inner intervals are certified enclosures of relative width 1e-10 and the
# final floats are not yet rounded outward, so a simple-loop class's inner
# enclosure can stick out of its outer point by a few ulps. The report itself
# compares dimensions with this tolerance.
CONTAIN_TOL = 1e-9

# brute-force oracle depth: (m + 1) ** level words, so fewer levels for
# more maps
ORACLE_LEVELS_TWO_MAPS = 4
ORACLE_LEVELS = 2


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def check(out):
    """Raise CheckFailed (or the oracle's Mismatch) unless ``out`` is right."""
    if out.name in CENSUS:
        ess = [c for c in out.classes if c.is_essential]
        require(len(ess) == 1, f"{len(ess)} essential classes")
        got = (len(out.graph), len(ess[0].members))
        require(got == CENSUS[out.name],
                f"census {got}, published {CENSUS[out.name]}")
        require(ess[0].positivity.verdict is Positivity.POSITIVE,
                f"essential class is {ess[0].positivity.verdict.value}")
    top = ORACLE_LEVELS_TWO_MAPS if out.model.m == 1 else ORACLE_LEVELS
    for level in range(1, top + 1):
        oracle.check_graph_against_oracle(out.model, out.graph, level)
    if out.report is not None:
        _check_report(out.report)
        if out.name.startswith("cantor_r3_m") and out.name.endswith("_binomial"):
            _check_cantor(out.report, out.model.m)


def _check_report(report):
    for cs in report.classes:
        inner, outer = cs.dim_inner, cs.dim_outer
        if inner and outer:
            require(outer[0] - CONTAIN_TOL <= inner[0]
                    and inner[1] <= outer[1] + CONTAIN_TOL,
                    f"class {cs.loop_class.label()}: inner {inner} not inside "
                    f"outer {outer}")
    ess = report.essential
    require(ess.dim_outer is not None and all(map(math.isfinite, ess.dim_outer)),
            f"essential class has no finite outer bound: {ess.dim_outer}")


def _check_cantor(report, m):
    params = closedforms.CantorParams.binomial(R, m)
    fmin = closedforms.bhm_min_formula(params)
    fmax = closedforms.bhm_max_formula(params)
    require(abs(fmin - MIN_FORMULA[m]) <= PUBLISHED_TOL,
            f"min formula {fmin}, published {MIN_FORMULA[m]}")
    require(abs(fmax - MAX_FORMULA[m]) <= PUBLISHED_TOL,
            f"max formula {fmax}, published {MAX_FORMULA[m]}")

    # the true minimum lies in [outer lo, inner lo] and in the published
    # range, so the two must meet; likewise the maximum
    ess = report.essential
    (in_lo, in_hi), (out_lo, out_hi) = ess.dim_inner, ess.dim_outer
    lo, hi = ACTUAL_MIN[m]
    require(out_lo <= hi + PUBLISHED_TOL and in_lo >= lo - PUBLISHED_TOL,
            f"minimum in [{out_lo}, {in_lo}] misses published [{lo}, {hi}]")
    lo, hi = ACTUAL_MAX[m]
    require(in_hi <= hi + PUBLISHED_TOL and out_hi >= lo - PUBLISHED_TOL,
            f"maximum in [{in_hi}, {out_hi}] misses published [{lo}, {hi}]")
    if R <= m <= 2 * R - 2:
        # where the formulas are proven, cycle search attains them
        require(abs(in_lo - fmin) <= PUBLISHED_TOL
                and abs(in_hi - fmax) <= PUBLISHED_TOL,
                f"inner {ess.dim_inner} misses the formulas ({fmin}, {fmax})")
    else:
        # past that range the paper's point: a cycle beats the formula
        require(in_lo < fmin - PUBLISHED_TOL,
                f"no cycle below the min formula {fmin}: {in_lo}")

    dz, interior = closedforms.isolated_point_bound(params)
    require(abs(report.dim_zero - dz) <= CONTAIN_TOL,
            f"endpoint dimension {report.dim_zero}, closed form {dz}")
    require(out_hi <= interior + CONTAIN_TOL,
            f"essential outer {out_hi} above the interior bound {interior}")
    require(any(abs(v - dz) <= CONTAIN_TOL for v in report.isolated_values()),
            f"endpoint dimension {dz} not reported isolated")


def degradations(out):
    """(class members, reason) for every class whose result is weaker than
    asked for: positivity left UNKNOWN, the bound length halved after a path
    explosion, or a truncated cycle search."""
    found = [(c.members, "positivity_unknown") for c in out.classes
             if c.positivity.verdict is Positivity.UNKNOWN]
    if out.report is not None:
        for cs in out.report.classes:
            if cs.bound_len < BOUND_LEN:
                found.append((cs.members, "bound_len_halved"))
            if cs.cycles_truncated:
                found.append((cs.members, "cycles_truncated"))
    return found


def degraded_classes(out):
    return len({members for members, _ in degradations(out)})


def degradation_selftest():
    """Starve the path and cycle budgets on a small document and require that
    degradations() sees both the halved bound length and the truncation."""
    model = ifsmodel.validate(cli.parse_document(catalog.load_document("golden")))
    graph = netgraph.build_graph(model)
    out = Outcome("golden", model, graph, loopclasses.classify_all(graph))
    out.report = dimcalc.assemble_report(
        model, graph, classes=out.classes, bound_len=BOUND_LEN,
        cycle_budget=1, path_budget=4)
    reasons = {reason for _, reason in degradations(out)}
    missing = {"bound_len_halved", "cycles_truncated"} - reasons
    require(not missing, f"starved budgets not seen as degraded: {missing}")
