"""Model validation and weight helpers."""

from fractions import Fraction

import pytest

from finitype.errors import ValidationError
from finitype.exactfield import NumberField
from finitype.ifsmodel import (
    Ifs,
    binomial_convolution_probabilities,
    rescale,
    uniform_probabilities,
    validate,
)

from conftest import catalog_model, golden_ifs


def test_golden_model_valid():
    m = validate(golden_ifs())
    assert m.supported
    assert m.normalized == (1, 1)
    assert m.m == 1


def test_cantor_m5_valid():
    m = catalog_model("cantor_r3_m5_uniform")
    assert m.m == 5
    assert [t.as_fraction() for t in m.translations] == [
        Fraction(2 * j, 15) for j in range(6)]


def test_cantor_set_rejected():
    # rho = 1/3 with translations {0, 2/3}: middle-thirds Cantor set, gap 2/3 > 1/3
    f = NumberField([-1, 3], (Fraction(1, 4), Fraction(1, 2)))
    ifs = Ifs(field=f, translations=(f.zero, f.rational(Fraction(2, 3))),
              probabilities=uniform_probabilities(1))
    with pytest.raises(ValidationError) as ei:
        validate(ifs)
    assert any(i.code == "SupportNotInterval" for i in ei.value.issues)


def test_not_rescaled_rejected_and_rescue():
    f = NumberField([-1, 3], (Fraction(1, 4), Fraction(1, 2)))
    ifs = Ifs(field=f,
              translations=(f.zero, f.rational(Fraction(1, 6)),
                            f.rational(Fraction(1, 3))),
              probabilities=uniform_probabilities(2))
    with pytest.raises(ValidationError) as ei:
        validate(ifs)
    assert any(i.code == "NotRescaled" for i in ei.value.issues)
    fixed = validate(rescale(ifs))
    assert [t.as_fraction() for t in fixed.translations] == [
        Fraction(0), Fraction(1, 3), Fraction(2, 3)]


def test_irregular_probabilities():
    f = NumberField([-1, 3], (Fraction(1, 4), Fraction(1, 2)))
    ifs = Ifs(field=f,
              translations=tuple(f.rational(Fraction(j, 3)) for j in range(3)),
              probabilities=(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(ValidationError) as ei:
        validate(ifs)
    assert any(i.code == "IrregularProbabilities" for i in ei.value.issues)
    m = validate(ifs, allow_irregular=True)
    assert not m.supported
    assert any("UNSUPPORTED-BY-THEORY" in w for w in m.warnings)


def test_probabilities_must_normalize():
    f = NumberField([-1, 3], (Fraction(1, 4), Fraction(1, 2)))
    ifs = Ifs(field=f,
              translations=tuple(f.rational(Fraction(j, 3)) for j in range(3)),
              probabilities=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 4)))
    with pytest.raises(ValidationError) as ei:
        validate(ifs)
    assert any(i.code == "ProbabilitiesNotNormalized" for i in ei.value.issues)


def test_validate_idempotent():
    m = validate(golden_ifs())
    again = validate(m.ifs)
    assert again.normalized == m.normalized


def test_uniform_probabilities():
    assert uniform_probabilities(1) == (Fraction(1, 2), Fraction(1, 2))
    assert uniform_probabilities(5) == tuple([Fraction(1, 6)] * 6)
    with pytest.raises(ValueError):
        uniform_probabilities(0)


def test_binomial_convolution_probabilities():
    assert binomial_convolution_probabilities(3) == (
        Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8))
    assert binomial_convolution_probabilities(5) == (
        Fraction(1, 32), Fraction(5, 32), Fraction(5, 16),
        Fraction(5, 16), Fraction(5, 32), Fraction(1, 32))
    assert binomial_convolution_probabilities(1) == (Fraction(1, 2), Fraction(1, 2))


def test_normalized_weights():
    m = catalog_model("cantor_r3_m5_binomial")
    assert m.normalized == (1, 5, 10, 10, 5, 1)
    assert min(m.normalized) == 1
