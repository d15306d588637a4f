"""Command-line entry point: analyze / rescale / formulas.

Exit codes: 0 success, 1 validation or input error (including an oracle
mismatch and a command-line usage error), 2 when a cap or enumeration budget
is exceeded. Rationals travel through JSON as strings so nothing is ever
contaminated by floating point.

Reports are strict JSON of floats to 10 significant digits: ``null`` marks a
value that is absent, or a per-step display value past the float range,
where the certified dimension ends stay finite.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from .closedforms import (
    CantorParams,
    bhm_max_formula,
    bhm_min_formula,
    isolated_point_bound,
    x_max_location,
    x_min_location,
)
from .dimcalc import (
    DimensionReport, ISOLATED, POINT_TOL, UNDECIDED, _flog, assemble_report,
    per_step,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    FinitypeError,
    InputDocumentError,
)
from .exactfield import NumberField
from .ifsmodel import (
    Ifs,
    binomial_convolution_probabilities,
    rescale,
    uniform_probabilities,
    validate,
)
from .loopclasses import classify_all
from .netgraph import build_graph, export_dot
from .oracle import check_graph_against_oracle


# ----------------------------------------------------------------------------
# input documents
# ----------------------------------------------------------------------------

# Python's limit on the digits of an int read from or written to a string
# (sys.get_int_max_str_digits, Python 3.10.7 on); 0 is no limit
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class _LongInt(str):
    """The digits of a JSON integer past ``_DIGITS``, which ``int`` refuses:
    no field takes one, so the field that holds it is named."""

    def __repr__(self):
        return f"an integer of {len(self.lstrip('-'))} digits"


def _frac(value, where):
    try:
        # a JSON boolean parses as a bool, which Python counts as an int
        if type(value) is str or type(value) is int:
            # Fraction("1e9999999") first builds 10 ** 9999999, for seconds
            exp = str(value).lower().partition("e")[2]
            if exp and 0 < _DIGITS < abs(int(exp)):
                raise InputDocumentError(f"{where}: exponent {int(exp)} is "
                                         f"past the {_DIGITS}-digit limit")
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputDocumentError(f"{where}: expected a rational string, got {value!r}")


def parse_document(doc: dict) -> Ifs:
    """Input document -> raw IFS; errors carry the offending field."""
    if not isinstance(doc, dict):
        raise InputDocumentError("document root must be a JSON object")
    try:
        rho = doc["rho"]
    except KeyError:
        raise InputDocumentError("rho: missing")
    if not isinstance(rho, dict) or "minpoly" not in rho or "interval" not in rho:
        raise InputDocumentError("rho: need an object with minpoly and interval")
    minpoly = rho["minpoly"]
    if not isinstance(minpoly, list) or not all(type(c) is int for c in minpoly):
        raise InputDocumentError("rho.minpoly: expected a list of integers")
    interval = rho["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise InputDocumentError("rho.interval: expected [lo, hi]")
    lo = _frac(interval[0], "rho.interval[0]")
    hi = _frac(interval[1], "rho.interval[1]")
    field = NumberField(minpoly, (lo, hi))

    trans = doc.get("translations")
    if not isinstance(trans, list) or not trans:
        raise InputDocumentError("translations: expected a non-empty list")
    elements = []
    for i, coeffs in enumerate(trans):
        if not isinstance(coeffs, list) or not coeffs:
            raise InputDocumentError(
                f"translations[{i}]: expected a coefficient array")
        if len(coeffs) > field.degree:
            raise InputDocumentError(
                f"translations[{i}]: {len(coeffs)} coefficients for a field "
                f"of degree {field.degree}")
        elements.append(field.element(
            [_frac(c, f"translations[{i}][{j}]") for j, c in enumerate(coeffs)]))

    m = len(elements) - 1
    probs = doc.get("probabilities")
    if probs == "uniform":
        p = uniform_probabilities(m)
    elif isinstance(probs, dict) and set(probs) == {"binomial_convolution"}:
        k = probs["binomial_convolution"]
        if type(k) is not int or k != m:
            raise InputDocumentError(
                f"probabilities.binomial_convolution: expected the integer "
                f"{m}, the map count minus one, got {k!r}")
        p = binomial_convolution_probabilities(m)
    elif isinstance(probs, list):
        if len(probs) != m + 1:
            raise InputDocumentError(
                f"probabilities: {len(probs)} weights for {m + 1} maps")
        p = tuple(_frac(q, f"probabilities[{i}]") for i, q in enumerate(probs))
    else:
        raise InputDocumentError(
            'probabilities: expected an array, "uniform", or '
            '{"binomial_convolution": m}')
    name = doc.get("name")
    if name is not None and type(name) is not str:
        raise InputDocumentError("name: expected a string")
    return Ifs(field=field, translations=tuple(elements), probabilities=p,
               name=name)


def document_from_ifs(ifs: Ifs) -> dict:
    return {
        "name": ifs.name,
        "rho": {"minpoly": list(ifs.field.minpoly),
                "interval": [str(q) for q in ifs.field._orig]},
        "translations": [[str(Fraction(c)) for c in t.coeffs]
                         for t in ifs.translations],
        "probabilities": [str(q) for q in ifs.probabilities],
    }


# ----------------------------------------------------------------------------
# output documents
# ----------------------------------------------------------------------------

def _r10(x):
    """x to 10 significant digits; None (null) for None and for inf."""
    if x is None or not math.isfinite(x):
        return None
    return float(f"{x:.10g}")


def _pair(p):
    return None if p is None else [_r10(p[0]), _r10(p[1])]


def _spectral_ranges(cs):
    """A class's per-step ranges (inner, outer), None where none; each end
    is an exact value with its number of steps, as ``per_step`` takes."""
    lo, hi, nb = cs.min_cycle, cs.max_cycle, cs.outer
    return (lo and ((lo.sp_lo, lo.L), (hi.sp_hi, hi.L)),
            nb and ((nb.min_norm, nb.depth), (nb.max_norm, nb.depth)))


def _step_pair(p):
    return None if p is None else _pair([per_step(*end) for end in p])


def report_to_document(report: DimensionReport, parameters: dict) -> dict:
    classes = []
    for cs in report.classes:
        lc = cs.loop_class
        inner, outer = _spectral_ranges(cs)
        classes.append({
            "members": list(lc.members),
            "is_essential": lc.is_essential,
            "is_maximal": True,
            "simple_loop": lc.is_simple_loop,
            "positivity": (lc.positivity.verdict.value
                           if lc.positivity is not None else None),
            "certified_interval": lc.positive,
            "spectral_range_inner": _step_pair(inner),
            "spectral_range_outer": _step_pair(outer),
            "dim_inner": _pair(cs.dim_inner),
            "dim_outer": _pair(cs.dim_outer),
            "exact_point": _r10(cs.exact_point),
            "min_cycle": list(cs.min_cycle.vertices) if cs.min_cycle else None,
            "max_cycle": list(cs.max_cycle.vertices) if cs.max_cycle else None,
            "cycle_len": cs.cycle_len,
            "bound_len": cs.bound_len,
            "cycles_truncated": cs.cycles_truncated,
        })
    return {
        "tool": "finitype",
        "version": __version__,
        "parameters": parameters,
        "cv_count": report.cv_count,
        "essential_size": report.essential_size,
        "dim_at_zero": _r10(report.dim_zero),
        "supported_by_theory": report.model.supported,
        "classes": classes,
        "isolated_points": [
            {"value": _r10(p.value), "status": p.status,
             "classes": [list(c) for c in p.classes]}
            for p in report.isolated],
        "global_inner": [list(map(_r10, iv)) for iv in report.global_inner],
        "global_outer": [list(map(_r10, iv)) for iv in report.global_outer],
    }


def _fmt(x):
    return f"{x:.10g}"


def _fmt_iv(p):
    return f"[{_fmt(p[0])}, {_fmt(p[1])}]"


def _fmt_step(x, L):
    """``per_step(x, L)`` to 10 significant digits. Past the float range,
    where that is inf (or 0.0 for an x > 0), from log x / L instead, as a
    mantissa and a decimal exponent: 10^400 prints as 1e+400."""
    y = per_step(x, L)
    if 0 < y < math.inf or not x:
        return _fmt(y)
    e = _flog(x) / L / math.log(10)
    exp = math.floor(e)
    mantissa = float(f"{10 ** (e - exp):.10g}")
    if mantissa == 10:  # rounded up to the next power
        mantissa, exp = 1, exp + 1
    return f"{mantissa:.10g}e{exp:+03d}"


def _fmt_steps(p):
    return f"[{_fmt_step(*p[0])}, {_fmt_step(*p[1])}]"


def render_text(report: DimensionReport, graph=None, show_matrices=False) -> str:
    """Human-readable report mirroring the per-class layout of the JSON."""
    model = report.model
    lines = []
    name = model.ifs.name or "unnamed system"
    lines.append(f"# {name}")
    if not model.supported:
        lines.append("!! UNSUPPORTED-BY-THEORY: irregular weights; interval "
                     "conclusions below are not backed by the theory")
    lines.append(f"contraction rho = {model.rho().to_decimal(10)}, "
                 f"{model.m + 1} maps")
    lines.append(f"The reduced transition graph has {report.cv_count} reduced "
                 f"characteristic vectors.")
    if graph is not None and len(graph) <= 60:
        shown: dict = {}     # each distinct value rendered once
        for i in range(1, len(graph) + 1):
            lines.append(f"  vector {i}: {graph.cv(i).describe(shown=shown)}")
        if show_matrices:
            for e in graph.edges:
                rows = "; ".join(" ".join(str(v) for v in row)
                                 for row in e.matrix)
                mult = f" x{e.multiplicity}" if e.multiplicity > 1 else ""
                lines.append(f"  T({e.parent},{e.child}){mult} = [{rows}]")
    lines.append("")
    lines.append(f"local dimension at the endpoints: {_fmt(report.dim_zero)}")

    ess = report.essential
    others = [c for c in report.classes if not c.loop_class.is_essential]
    lines.append("")
    lines.append(f"The essential class is: {ess.loop_class.label()}.")
    lines.extend(_class_block(ess))
    lines.append("")
    lines.append(f"There are {len(others)} additional maximal loops.")
    for cs in others:
        lines.append("")
        lines.append(f"Maximal loop class: {cs.loop_class.label()}.")
        lines.extend(_class_block(cs))

    lines.append("")
    point_like = [iv[1] - iv[0] <= POINT_TOL for iv in report.global_outer]
    pieces = ["{" + _fmt(iv[0]) + "}" if point else _fmt_iv(iv)
              for iv, point in zip(report.global_outer, point_like)]
    lines.append("global dimension set bracket (outer): " +
                 " U ".join(pieces))
    if all(point_like):
        vals = ", ".join(_fmt(iv[0]) for iv in report.global_outer)
        lines.append(f"The set of local dimensions consists of "
                     f"{len(point_like)} distinct points: {vals}.")
    iso = [p for p in report.isolated if p.status == ISOLATED]
    und = [p for p in report.isolated if p.status == UNDECIDED]
    if iso:
        for p in iso:
            lines.append(f"Isolated point: {_fmt(p.value)} "
                         f"(attained by {', '.join(str(list(c)) for c in p.classes)}).")
    else:
        lines.append("No isolated point.")
    for p in und:
        lines.append(f"UNDECIDED point: {_fmt(p.value)} lies inside an outer "
                     f"bracket but outside every certified interval.")
    return "\n".join(lines) + "\n"


def _class_block(cs) -> list[str]:
    lc = cs.loop_class
    inner, outer = _spectral_ranges(cs)
    lines = []
    if lc.positivity is not None:
        if lc.positive:
            kind = "essential class" if lc.is_essential else "maximal loop class"
            lines.append(f"The {kind} is of positive type.")
            lines.append(f"A positive product arises along the path "
                         f"{list(lc.positivity.witness)}.")
        elif lc.positivity.verdict.value == "NOT_POSITIVE":
            lines.append("The class is not of positive type.")
        else:
            lines.append("Positivity undecided within the search budget.")
    if lc.is_simple_loop:
        p = cs.point
        value = (per_step(p.sp_lo, p.L) + per_step(p.sp_hi, p.L)) / 2
        shown = (_fmt(value) if 0 < value < math.inf
                 else _fmt_step(p.sp_hi, p.L))
        lines.append("The class is a simple loop.")
        lines.append(f"Its per-step spectral value is exactly {shown}; "
                     f"these points have local dimension "
                     f"{_fmt(cs.exact_point)}.")
    else:
        lines.append("The class is not a simple loop.")
    if inner:
        lines.append(f"Cycle search (length <= {cs.cycle_len}) shows the "
                     f"per-step spectral range includes {_fmt_steps(inner)}.")
        lines.append(f"  minimum from the loop {list(cs.min_cycle.vertices)}, "
                     f"maximum from the loop {list(cs.max_cycle.vertices)}")
        lines.append(f"  giving local dimensions that include "
                     f"{_fmt_iv(cs.dim_inner)}.")
    if cs.cycles_truncated:
        lines.append("The cycle search stopped at its step budget; any "
                     "inner range here comes from a truncated search.")
    if outer:
        lines.append(f"Pseudo-norm products of length {cs.bound_len} confine "
                     f"the per-step spectral range to {_fmt_steps(outer)}.")
        lines.append(f"  so these local dimensions are contained in "
                     f"{_fmt_iv(cs.dim_outer)}.")
    if not lc.positive and not lc.is_simple_loop:
        lines.append("Outer bounds only (NOT CERTIFIED as an interval).")
    return ["  " + ln for ln in lines]


# ----------------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; argparse's own 2 is taken
    by cap and budget overflows."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    ap = _Parser(
        prog="finitype",
        description="Exact transition-graph analysis of finite-type "
                    "self-similar measures")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="full graph + dimension analysis")
    an.add_argument("--input", required=True, help="input document (JSON)")
    an.add_argument("--max-cvs", type=int, default=10000,
                    help="most vertices the graph closure may reach; past "
                         "it the analysis stops with exit code 2")
    an.add_argument("--cycle-len", type=int, default=10,
                    help="longest closed walk the cycle search covers for "
                         "the inner ranges; past its work budget the search "
                         "stops and the class is marked cycles_truncated")
    an.add_argument("--bound-len", type=int, default=8,
                    help="maximum length of the norm-bound products; the "
                         "report gives the length their work budget allows")
    an.add_argument("--subset", default=None,
                    help="comma-separated 1-based column indices for the "
                         "restricted lower norm (default: every contiguous "
                         "window of width 3 in each class); an explicit "
                         "subset is added to the windows of each class "
                         "where no index exceeds a member's neighbour count")
    an.add_argument("--oracle-level", type=int, default=0,
                    help="cross-check the graph against brute enumeration "
                         "up to this level")
    an.add_argument("--json", dest="json_out", default=None,
                    help="write the full report document here")
    an.add_argument("--dot", dest="dot_out", default=None,
                    help="write the graph in DOT format here")
    an.add_argument("--text", action="store_true",
                    help="print the full text report")
    an.add_argument("--matrices", action="store_true",
                    help="include primitive matrices in the text report")
    an.add_argument("--allow-irregular", action="store_true",
                    help="accept irregular weights (results unsupported "
                         "by the theory)")

    rs = sub.add_parser("rescale", help="rescale translations to [0, 1]")
    rs.add_argument("--input", required=True)

    fm = sub.add_parser("formulas", help="closed-form Cantor predictions")
    fm.add_argument("--R", type=int, required=True)
    fm.add_argument("--m", type=int, required=True)
    return ap


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=lambda s: (
                _LongInt(s) if 0 < _DIGITS < len(s.lstrip("-")) else int(s)))
    except OSError as e:
        raise InputDocumentError(f"cannot read {path}: {e}")
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError too
        raise InputDocumentError(f"{path} is not valid JSON: {e}")
    except RecursionError:
        raise InputDocumentError(f"{path} is not valid JSON: nested too deeply")


def _require_at_least(*checks):
    """Reject the first (flag, value, least) whose value is below least."""
    for flag, value, least in checks:
        if value < least:
            raise InputDocumentError(
                f"{flag}: expected an integer >= {least}, got {value}")


def _cmd_analyze(args) -> int:
    _require_at_least(("--max-cvs", args.max_cvs, 1),
                      ("--cycle-len", args.cycle_len, 1),
                      ("--bound-len", args.bound_len, 1),
                      ("--oracle-level", args.oracle_level, 0))
    subset = "auto"
    if args.subset:
        try:
            subset = tuple(int(s) for s in args.subset.split(","))
        except ValueError:
            raise InputDocumentError("--subset: expected integers like 2,3,4")
        if min(subset) < 1:
            raise InputDocumentError(
                "--subset: column indices are 1-based and must be positive")
    doc = _load_json(args.input)
    ifs = parse_document(doc)
    model = validate(ifs, allow_irregular=args.allow_irregular)
    for w in model.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for path in (args.dot_out, args.json_out):
        if path:
            _check_writable(path)
    graph = build_graph(model, cap_cvs=args.max_cvs)
    classes = classify_all(graph)
    if args.oracle_level > 0:
        for level in range(1, args.oracle_level + 1):
            count = check_graph_against_oracle(model, graph, level)
            print(f"oracle: level {level} matches exactly "
                  f"({count} net intervals)", file=sys.stderr)
    report = assemble_report(model, graph, classes=classes,
                             cycle_len=args.cycle_len,
                             bound_len=args.bound_len, subset=subset)
    parameters = {
        "input": doc, "max_cvs": args.max_cvs, "cycle_len": args.cycle_len,
        "bound_len": args.bound_len,
        "subset": list(subset) if isinstance(subset, tuple) else subset,
        "oracle_level": args.oracle_level,
    }
    if args.dot_out:
        _write_atomic(args.dot_out, export_dot(graph, classes=classes))
    if args.json_out:
        out = report_to_document(report, parameters)
        _write_atomic(args.json_out,
                      json.dumps(out, indent=2, allow_nan=False) + "\n")
    if args.text:
        sys.stdout.write(render_text(report, graph=graph,
                                     show_matrices=args.matrices))
    else:
        ess = report.essential
        print(f"{report.cv_count} reduced characteristic vectors; essential "
              f"class {ess.loop_class.label()} ({report.essential_size} "
              f"members); {len(report.classes)} maximal loop classes; "
              f"dim at endpoints {_fmt(report.dim_zero)}")
    return 0


def _temp_beside(path):
    """A new temporary file in ``path``'s directory, as (fd, name)."""
    return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                            prefix=".finitype-")


def _cannot_write(path, e: OSError):
    return FinitypeError(f"cannot write {path}: {e.strerror or e}")


def _check_writable(path):
    """Raise now the error ``_write_atomic`` would raise after the whole
    analysis when ``path`` is a directory or its directory cannot take a new
    file (missing, not a directory, not writable)."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        fd, tmp = _temp_beside(path)
        os.close(fd)
        os.unlink(tmp)
    except OSError as e:
        raise _cannot_write(path, e)


def _write_atomic(path, text):
    tmp = None
    try:
        fd, tmp = _temp_beside(path)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(e, OSError):
            raise _cannot_write(path, e)
        raise


def _cmd_rescale(args) -> int:
    doc = _load_json(args.input)
    ifs = parse_document(doc)
    out = document_from_ifs(rescale(ifs))
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_formulas(args) -> int:
    # the support is an interval only when m >= R - 1
    _require_at_least(("--R", args.R, 2), ("--m", args.m, max(1, args.R - 1)))
    params = CantorParams.binomial(args.R, args.m)
    print(f"R = {args.R}, m = {args.m}, binomial weights")
    print(f"predicted minimal dimension : {_fmt(bhm_min_formula(params))}")
    print(f"predicted maximal dimension : {_fmt(bhm_max_formula(params))}")
    print(f"predicted minimizer         : {x_min_location(params)}")
    print(f"predicted maximizer         : {x_max_location(params)}")
    try:
        dz, interior = isolated_point_bound(params)
        print(f"endpoint dimension          : {_fmt(dz)}")
        print(f"interior upper bound        : {_fmt(interior)} "
              f"(endpoint value is isolated)")
    except FinitypeError as e:
        print(f"endpoint isolation          : not applicable ({e})")
    return 0


def run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "rescale":
            return _cmd_rescale(args)
        if args.command == "formulas":
            return _cmd_formulas(args)
        raise AssertionError(args.command)
    except (CapExceeded, BudgetExceeded) as e:
        print(f"{_qual(e)}: {e}", file=sys.stderr)
        return 2
    except FinitypeError as e:
        print(f"{_qual(e)}: {e}", file=sys.stderr)
        return 1


def _qual(e) -> str:
    return f"{type(e).__module__.rsplit('.', 1)[-1]}.{type(e).__name__}"


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
