"""Equicontractive IFS with probability weights and its admissibility checks.

A model is a family S_j(x) = rho*x + d_j (exact translations in the field)
together with positive rational weights summing to one. Validation enforces
the conventions the rest of the pipeline relies on: translations rescaled so
the attractor is exactly [0,1], no gap wider than rho, and regular weights
(first = last = minimum). Irregular weights can be let through explicitly,
but such runs are flagged as unsupported by the theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, log

from .errors import (
    IRREGULAR_PROBABILITIES,
    NOT_RESCALED,
    PROBABILITIES_NOT_NORMALIZED,
    SUPPORT_NOT_INTERVAL,
    ValidationError,
    ValidationIssue,
)
from .exactfield import FieldElement, NumberField


@dataclass(frozen=True)
class Ifs:
    """Raw (unvalidated) system: the field, translations d_0..d_m, weights p_0..p_m."""

    field: NumberField
    translations: tuple[FieldElement, ...]
    probabilities: tuple[Fraction, ...]
    name: str | None = None


@dataclass(frozen=True)
class Model:
    """Validated system, plus the weights normalized by p_0 (all >= 1)."""

    ifs: Ifs
    normalized: tuple[Fraction, ...]
    warnings: tuple[str, ...] = ()
    supported: bool = True

    @property
    def field(self) -> NumberField:
        return self.ifs.field

    @property
    def translations(self):
        return self.ifs.translations

    @property
    def probabilities(self):
        return self.ifs.probabilities

    @property
    def m(self) -> int:
        return len(self.ifs.translations) - 1

    def rho(self) -> FieldElement:
        return self.ifs.field.rho()

    @cached_property
    def log_rho(self) -> float:
        """log rho as a float, computed once per model: ``float(rho)``
        narrows rho's enclosure each time it is taken. ``dimcalc._dims`` pads
        for an error of 2**-53 (1 + 2 |log rho|): half an ulp of rho from
        ``float(rho)`` (its enclosure is 1e-20 wide), one ulp from the log."""
        return log(float(self.rho()))


def validate(ifs: Ifs, allow_irregular: bool = False) -> Model:
    """Check the standard admissibility conditions; report every violation.

    With ``allow_irregular`` the regular-weights condition downgrades to a
    warning and the model is marked unsupported by the theory.
    """
    issues: list[ValidationIssue] = []
    warnings: list[str] = []
    f = ifs.field
    d, p = ifs.translations, ifs.probabilities

    if len(d) != len(p):
        issues.append(ValidationIssue(
            PROBABILITIES_NOT_NORMALIZED,
            f"{len(p)} weights for {len(d)} maps"))
        raise ValidationError(issues)
    if len(d) < 2:
        issues.append(ValidationIssue(
            SUPPORT_NOT_INTERVAL, "need at least two maps"))
        raise ValidationError(issues)

    rho = f.rho()
    one_minus_rho = f.one - rho

    if not d[0].is_zero():
        issues.append(ValidationIssue(
            NOT_RESCALED, "first translation is not 0", index=0))
    if (d[-1] - one_minus_rho).sign() != 0:
        issues.append(ValidationIssue(
            NOT_RESCALED, "last translation is not 1 - rho", index=len(d) - 1))
    for i in range(len(d) - 1):
        gap = d[i + 1] - d[i]
        s = gap.sign()
        if s <= 0:
            issues.append(ValidationIssue(
                SUPPORT_NOT_INTERVAL,
                "translations must be strictly increasing", index=i + 1))
        elif (gap - rho).sign() > 0:
            issues.append(ValidationIssue(
                SUPPORT_NOT_INTERVAL,
                "gap between consecutive translations exceeds rho "
                "(attractor is not an interval)", index=i + 1))

    for i, q in enumerate(p):
        if q <= 0:
            issues.append(ValidationIssue(
                PROBABILITIES_NOT_NORMALIZED, "weight is not positive", index=i))
    total = sum(p, Fraction(0))
    if total != 1:
        try:
            message = f"weights sum to {total}, not 1"
        except ValueError:  # past Python's limit on the digits it prints
            message = "weights do not sum to 1"
        issues.append(ValidationIssue(PROBABILITIES_NOT_NORMALIZED, message))

    if all(q > 0 for q in p):
        pmin = min(p)
        if not (p[0] == p[-1] == pmin):
            issue = ValidationIssue(
                IRREGULAR_PROBABILITIES,
                "weights are not regular (need p_0 = p_m = min p_j)")
            if allow_irregular:
                warnings.append(
                    "UNSUPPORTED-BY-THEORY: " + issue.message +
                    "; results are not covered by the interval theorems")
            else:
                issues.append(issue)

    if issues:
        raise ValidationError(issues)

    normalized = tuple(q / p[0] for q in p)
    return Model(ifs=ifs, normalized=normalized, warnings=tuple(warnings),
                 supported=not warnings)


def uniform_probabilities(m: int) -> tuple[Fraction, ...]:
    """m+1 equal weights."""
    if m < 1:
        raise ValueError("need at least two maps (m >= 1)")
    return tuple([Fraction(1, m + 1)] * (m + 1))


def binomial_convolution_probabilities(m: int) -> tuple[Fraction, ...]:
    """Weights C(m, j) / 2**m of the m-fold convolution of a fair two-map measure."""
    if m < 1:
        raise ValueError("need m >= 1")
    return tuple(Fraction(comb(m, j), 2 ** m) for j in range(m + 1))


def rescale(ifs: Ifs) -> Ifs:
    """Conjugate the system so its attractor becomes exactly [0, 1]."""
    d = ifs.translations
    f = ifs.field
    if len(d) < 2:
        raise ValidationError([ValidationIssue(
            SUPPORT_NOT_INTERVAL, "need at least two maps")])
    span = d[-1] - d[0]
    if span.sign() <= 0:
        raise ValidationError([ValidationIssue(
            SUPPORT_NOT_INTERVAL, "translations must be strictly increasing")])
    scale = (f.one - f.rho()) / span
    new_d = tuple((x - d[0]) * scale for x in d)
    return Ifs(field=f, translations=new_d, probabilities=ifs.probabilities,
               name=ifs.name)
