import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie import (GF, QQ, ConstraintError, FieldMismatchError,
                        NotInvertibleError, ParseError, Scalar, cast_scalar,
                        format_scalar, poly_ring, substitute)
from antiprelie.scalars import (MAX_EXPONENT, MAX_MODULUS, Field,
                                parse_json_scalar)

LAM = poly_ring(["lambda"])
AB = poly_ring(["a", "beta"], units=["a"])


def test_rational_add():
    assert QQ.scalar(Fraction(1, 2)) + QQ.scalar(Fraction(1, 3)) \
        == QQ.scalar(Fraction(5, 6))


def test_poly_product_identity():
    lam = LAM.variable("lambda")
    one = LAM.one()
    assert (lam + one) * (lam - one) == lam * lam - one


def test_gf_mul():
    f = GF(5)
    assert f.scalar(3) * f.scalar(4) == f.scalar(2)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_invert_rational():
    assert QQ.scalar(Fraction(2, 3)).invert() == QQ.scalar(Fraction(3, 2))


def test_invert_unit_monomial():
    a = AB.variable("a")
    assert a.invert() * a == AB.one()
    assert a.invert() == AB.parse("a^-1")


def test_invert_multi_term_fails():
    lam = LAM.variable("lambda")
    with pytest.raises(NotInvertibleError):
        (lam + LAM.one()).invert()


def test_invert_non_unit_variable_fails():
    beta = AB.variable("beta")
    with pytest.raises(NotInvertibleError):
        beta.invert()


def test_negative_exponent_needs_unit():
    with pytest.raises(ParseError):
        LAM.parse("lambda^-1")


def test_eval_polynomial():
    x = LAM.parse("lambda^2-1")
    assert x.eval_at({"lambda": 2}) == QQ.scalar(3)


def test_eval_laurent():
    x = AB.parse("a^-1*beta")
    assert x.eval_at({"a": 2, "beta": 4}) == QQ.scalar(2)


def test_eval_missing_assignment():
    with pytest.raises(ValueError):
        LAM.variable("lambda").eval_at({})


def test_eval_zero_unit():
    with pytest.raises(ValueError):
        AB.parse("a*beta").eval_at({"a": 0, "beta": 1})


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        QQ.one() + GF(5).one()


def test_parse_examples():
    assert QQ.parse("-1") == QQ.scalar(-1)
    assert QQ.parse("3/2") == QQ.scalar(Fraction(3, 2))
    assert LAM.parse("lambda+1") == LAM.variable("lambda") + LAM.one()
    got = AB.parse("a^-1*beta")
    assert got * AB.variable("a") == AB.variable("beta")


def test_parse_rejects_garbage():
    for bad in ("2 +", "lambda^", "((1)", "1//2", "$x"):
        with pytest.raises(ParseError):
            QQ.parse(bad) if "lambda" not in bad else LAM.parse(bad)


def test_format_round_trip_samples():
    samples = [("-1", LAM), ("3/2", LAM), ("lambda+1", LAM),
               ("a^-1*beta", AB), ("0", AB), ("2*a^2*beta-1/3", AB),
               ("-lambda^3+lambda", LAM)]
    for text, field in samples:
        x = field.parse(text)
        assert field.parse(format_scalar(x)) == x


def test_canonicalization_idempotent():
    # building a Scalar from an already-canonical value changes nothing
    x = AB.parse("2*a*beta-a*beta-a*beta")  # collapses to zero
    assert x.is_zero()
    y = Scalar(AB, dict(AB.parse("a+1").value))
    assert y == AB.parse("a+1")


def test_cast_and_reduce():
    x = QQ.scalar(Fraction(7, 3))
    assert cast_scalar(x, GF(5)) == GF(5).scalar(Fraction(7, 3))
    with pytest.raises(ZeroDivisionError):
        cast_scalar(QQ.scalar(Fraction(1, 5)), GF(5))
    lifted = cast_scalar(QQ.scalar(2), LAM)
    assert lifted == LAM.scalar(2)


def test_non_constant_polynomial_does_not_cast_to_a_constant_field():
    from antiprelie import Algebra
    from antiprelie.algebra import cast_algebra
    x = poly_ring(["x"]).variable("x")
    with pytest.raises(FieldMismatchError, match="not a constant"):
        QQ.scalar(x)
    for field in (QQ, GF(5)):
        for value in (x, x.field.parse("x+1"), AB.parse("a^-1"),
                      AB.parse("2*beta-1")):
            with pytest.raises(FieldMismatchError, match="not a constant"):
                cast_scalar(value, field)
    with pytest.raises(FieldMismatchError, match="not a constant"):
        cast_algebra(Algebra.from_entries(AB, 1, [(1, 1, 1, "a+1")]), GF(5))
    # constants still cast, over any ring, and eval_at keeps its error
    for field in (QQ, GF(5)):
        for ring, text in ((LAM, "7/3"), (AB, "-2/3"), (AB, "0"),
                           (poly_ring([]), "4")):
            want = field.scalar(Fraction(text))
            assert cast_scalar(ring.parse(text), field) == want
            assert field.scalar(ring.parse(text)) == want
            assert cast_algebra(Algebra.from_entries(ring, 1, [
                (1, 1, 1, text)]), field).sc[0][0][0] == want
    with pytest.raises(ZeroDivisionError):
        cast_scalar(LAM.parse("1/5"), GF(5))
    with pytest.raises(ValueError, match="no assignment"):
        x.eval_at({})


def test_substitute_composition():
    ring = poly_ring(["alpha", "beta"])
    x = ring.parse("alpha^2+beta")
    target = poly_ring(["beta", "gamma"])
    out = substitute(x, {"alpha": target.variable("gamma")}, target)
    assert out == target.parse("gamma^2+beta")


def test_random_rational_ring_axioms():
    rng = random.Random(1)
    for _ in range(1000):
        x = QQ.scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        y = QQ.scalar(Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        assert (x + y) - y == x
        if not x.is_zero():
            assert x * x.invert() == QQ.one()


@st.composite
def polys(draw):
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    terms = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), coeffs),
        max_size=4))
    out = AB.zero()
    a, b = AB.variable("a"), AB.variable("beta")
    for ea, eb, c in terms:
        out = out + AB.scalar(c) * (a ** ea) * (b ** eb)
    return out


@settings(max_examples=200, deadline=None)
@given(polys(), polys(),
       st.fractions(min_value=-5, max_value=5, max_denominator=4)
       .filter(lambda q: q != 0),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_eval_commutes_with_arithmetic(x, y, va, vb):
    assign = {"a": va, "beta": vb}
    assert (x * y).eval_at(assign) == x.eval_at(assign) * y.eval_at(assign)
    assert (x + y).eval_at(assign) == x.eval_at(assign) + y.eval_at(assign)


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@st.composite
def laurent_polys(draw):
    """Polynomials in AB with negative powers of the unit a."""
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 3), coeffs),
        max_size=4))
    out = AB.zero()
    a, b = AB.variable("a"), AB.variable("beta")
    for ea, eb, c in terms:
        out = out + AB.scalar(c) * (a ** ea) * (b ** eb)
    return out


@settings(max_examples=200, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_poly_ops_results_are_canonical(x, y):
    for r in (x + y, x - y, x * y, -x, x - x, y + (-y), (x + y) * (x - y)):
        assert r == Scalar(AB, dict(r.value))
        assert all(c != 0 for c in r.value.values())
    assert (x - y) + y == x
    assert x - y == x + (-y)


def test_constructor_rejects_negative_exponent_on_non_unit():
    with pytest.raises(ValueError):
        Scalar(AB, {(0, -1): Fraction(1)})
    with pytest.raises(ValueError):
        Scalar(LAM, {(-2,): Fraction(3)})
    assert Scalar(AB, {(-1, 0): Fraction(1), (0, 1): Fraction(0)}).value \
        == {(-1, 0): Fraction(1)}


@pytest.mark.parametrize("make", [lambda: QQ, lambda: GF(7),
                                  lambda: poly_ring(["x", "y"], units=["y"])])
def test_cached_zero_one_keep_field_equality_and_hash(make):
    used, fresh = make(), make()
    z, o = used.zero(), used.one()
    assert used.zero() is z and used.one() is o
    assert used == fresh and hash(used) == hash(fresh)
    assert {fresh: 1}[used] == 1
    assert z == fresh.zero() and o == fresh.one()
    assert hash(z) == hash(fresh.zero()) and hash(o) == hash(fresh.one())
    assert z.is_zero() and o.is_one() and (o + z) == o and (o * z) == z


def test_modulus_limit_is_checked_before_primality(monkeypatch):
    import antiprelie.scalars as scalars
    seen = []
    real = scalars._is_prime
    monkeypatch.setattr(scalars, "_is_prime",
                        lambda n: seen.append(n) or real(n))
    with pytest.raises(ValueError, match="prime"):
        Field("GF", p=2 ** 61 - 1)
    assert seen == []
    assert Field("GF", p=2 ** 31 - 1).p == 2 ** 31 - 1 <= MAX_MODULUS


def test_exponent_limit():
    x = poly_ring(["x"]).variable("x")
    assert LAM.parse(f"lambda^{MAX_EXPONENT}") == \
        LAM.variable("lambda") ** MAX_EXPONENT
    assert AB.parse(f"a^-{MAX_EXPONENT}") == AB.variable("a") ** -MAX_EXPONENT
    for text in (f"(x+1)^{MAX_EXPONENT + 1}", "(x+1)^100000", "x^-100000"):
        with pytest.raises(ParseError, match="exceeds"):
            x.field.parse(text)


@pytest.mark.parametrize("value", [True, False, 1.0, None, ["1"], {"a": 1}])
def test_json_coefficient_must_be_string_or_integer(value):
    with pytest.raises(ParseError, match="string or an integer"):
        parse_json_scalar(value, QQ)


def test_json_integer_coefficient_reads_as_its_text():
    for field in (QQ, GF(5), poly_ring(["x"])):
        assert parse_json_scalar(-3, field) == parse_json_scalar("-3", field)
        assert parse_json_scalar(12, field) == field.parse("12")


# ---------------------------------------------------------------------------
# coercion: one path for ints, rationals, Scalars and grammar strings
# ---------------------------------------------------------------------------

def old_scalar(field, value):
    """The coercion through Fraction, for ints, Fractions and Scalars."""
    if isinstance(value, Scalar):
        return cast_scalar(value, field)
    q = Fraction(value)
    if field.kind == "Q":
        return Scalar(field, q)
    if field.kind == "GF":
        return Scalar(field, q.numerator % field.p
                      * pow(q.denominator % field.p, -1, field.p) % field.p)
    return Scalar(field, {(0,) * len(field.variables): q} if q else {})


COERCION_FIELDS = (QQ, GF(2), GF(5), GF(2 ** 31 - 1), LAM, AB)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COERCION_FIELDS),
       st.one_of(st.integers(-10 ** 30, 10 ** 30), st.booleans(),
                 st.fractions(max_denominator=10 ** 6).filter(
                     lambda q: q.denominator % 5 and q.denominator % 2
                     and q.denominator % (2 ** 31 - 1))))
def test_scalar_coercion_matches_fraction_path(field, value):
    got = field.scalar(value)
    assert got == old_scalar(field, value)
    assert got.field is field and format_scalar(got) == \
        format_scalar(old_scalar(field, value))
    # the same value written in the grammar reads the same
    assert field.scalar(format_scalar(QQ.scalar(value))) == got


def test_scalar_coercion_of_scalars_and_strings():
    assert GF(5).scalar(QQ.scalar(Fraction(1, 2))) == GF(5).scalar(3)
    assert LAM.scalar(LAM.variable("lambda")) == LAM.variable("lambda")
    assert LAM.scalar("lambda^2-1") == LAM.parse("lambda^2-1")
    assert GF(5).scalar("-1/2") == GF(5).scalar(2)
    assert QQ.scalar("(1/2)^3") == QQ.scalar(Fraction(1, 8))


@pytest.mark.parametrize("value", [0.1, 1.0, float("inf"), None, [1],
                                   complex(1, 0)])
def test_scalar_coercion_refuses_other_types(value):
    for field in (QQ, GF(5), LAM):
        with pytest.raises(TypeError, match="cannot coerce"):
            field.scalar(value)


HOSTILE = ["1e30000000", "1e10000000", "2E3", "1.5", "-.5", "1_000"]


@pytest.fixture
def fraction_guard(monkeypatch):
    """Fails at once if a string reaches Fraction, which would read
    e-notation by building 10**exp in full."""
    new = Fraction.__new__

    def guard(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str):
            raise AssertionError(f"Fraction parses {numerator!r}")
        return new(cls, numerator, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(guard))


@pytest.mark.parametrize("value", HOSTILE)
def test_hostile_strings_fail_fast_in_every_coercion(fraction_guard, value):
    from antiprelie.catalog import (automorphism_of, case_for, get_family,
                                    instantiate)
    t0 = time.perf_counter()
    for field in (QQ, GF(5), LAM):
        with pytest.raises(ParseError):
            field.scalar(value)
    with pytest.raises(ParseError):
        LAM.parse("lambda+1").eval_at({"lambda": value})
    with pytest.raises(ParseError):
        instantiate(get_family("A6"), {"lambda": value})
    with pytest.raises(ConstraintError):  # not a listed branch value
        instantiate(get_family("CA11"), {"alpha": 1}, branch=value)
    with pytest.raises(ParseError):
        case_for("A6", value)
    with pytest.raises(ParseError):
        case_for("A8", value, prime=5)
    with pytest.raises(ParseError):
        automorphism_of("A2", {"a": value})
    assert time.perf_counter() - t0 < 0.5
