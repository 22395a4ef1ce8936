"""Exact scalar arithmetic: rationals, prime fields, and Laurent polynomials.

Every value is immutable and kept in canonical form: rationals fully
reduced, prime-field residues in [0, p), polynomials without zero
coefficients.  Negative exponents are allowed only on variables declared
as units of their ring.

The public ``Scalar(field, value)`` enforces the form: it drops zero
polynomial coefficients and rejects negative exponents on non-units.
The ring operations keep it by construction and skip those checks
(``_make``): Fraction results are reduced, residues are taken mod p,
sums drop cancelled terms, and products only add exponents, so a
negative one appears only where an operand had one, on a unit.  Values
are never mutated, so results may share them, and ``Field.zero()`` and
``Field.one()`` are built once per field.  The `_poly_*` helpers act on
bare coefficient dicts: those of Scalars and the integer ones of the
plain values of `linalg`.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import add

from .errors import FieldMismatchError, NotInvertibleError, ParseError

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

# input limits, checked before any work: primality is trial division and
# x^N expands a polynomial N-fold
MAX_MODULUS = 2 ** 31
MAX_EXPONENT = 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """A coefficient domain: Q, GF(p), or a Laurent polynomial ring over Q."""

    __slots__ = ("kind", "p", "variables", "units", "_zero", "_one")

    def __init__(self, kind, p=None, variables=(), units=()):
        if kind not in ("Q", "GF", "poly"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "GF":
            if p is None or p > MAX_MODULUS or not _is_prime(p):
                raise ValueError(
                    f"GF modulus must be a prime <= 2^31, got {p!r}")
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        for v in variables:
            if not _NAME_RE.fullmatch(v):
                raise ValueError(f"bad variable name {v!r}")
        units = frozenset(units)
        if not units <= set(variables):
            raise ValueError("unit variables must be declared variables")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "units", units)

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Field) and self.kind == other.kind
                and self.p == other.p and self.variables == other.variables
                and self.units == other.units)

    def __hash__(self):
        return hash((self.kind, self.p, self.variables, self.units))

    def __repr__(self):
        if self.kind == "Q":
            return "Field(Q)"
        if self.kind == "GF":
            return f"Field(GF({self.p}))"
        us = sorted(self.units)
        return f"Field(poly{list(self.variables)}, units={us})"

    # -- constructors ------------------------------------------------------

    def zero(self) -> Scalar:
        try:
            return self._zero
        except AttributeError:  # built on first use, then shared
            object.__setattr__(self, "_zero", self.scalar(0))
            return self._zero

    def one(self) -> Scalar:
        try:
            return self._one
        except AttributeError:
            object.__setattr__(self, "_one", self.scalar(1))
            return self._one

    def scalar(self, value) -> Scalar:
        """Coerce a value into this field, the one coercion of the
        toolkit: an int directly (value % p over GF(p)), a Fraction or a
        Scalar as a rational or by `cast_scalar`, a str through the
        coefficient grammar (`parse`, whose exponents are bounded);
        anything else, a float included, raises TypeError."""
        if isinstance(value, int):
            if self.kind == "GF":
                return _make(self, value % self.p)
            q = Fraction(value)
        elif isinstance(value, Fraction):
            q = value
        elif isinstance(value, Scalar):
            return cast_scalar(value, self)
        elif isinstance(value, str):
            return self.parse(value)
        else:
            raise TypeError(f"cannot coerce {type(value).__name__} "
                            f"{value!r} into {self!r}")
        if self.kind == "Q":
            return _make(self, q)
        if self.kind == "GF":
            return _make(self, _residue(q, self.p))
        return _make(self, {(0,) * len(self.variables): q} if q else {})

    def variable(self, name: str) -> Scalar:
        if self.kind != "poly" or name not in self.variables:
            raise ValueError(f"{name!r} is not a variable of {self!r}")
        mono = tuple(1 if v == name else 0 for v in self.variables)
        return Scalar(self, {mono: Fraction(1)})

    def parse(self, text: str) -> Scalar:
        return parse_scalar(text, self)

    def to_json(self):
        if self.kind == "Q":
            return {"kind": "Q"}
        if self.kind == "GF":
            return {"kind": "GF", "p": self.p}
        return {"kind": "poly", "vars": list(self.variables),
                "units": sorted(self.units)}

    @staticmethod
    def from_json(obj) -> Field:
        kind = obj.get("kind")
        if kind == "Q":
            return QQ
        if kind == "GF":
            return Field("GF", p=obj["p"])
        if kind == "poly":
            return Field("poly", variables=obj.get("vars", []),
                         units=obj.get("units", []))
        raise ParseError(f"unknown field descriptor {obj!r}")


QQ = Field("Q")


def GF(p: int) -> Field:
    return Field("GF", p=p)


def poly_ring(variables, units=()) -> Field:
    return Field("poly", variables=variables, units=units)


def _rational(value) -> Fraction:
    """value as a Fraction, through `Field.scalar` over Q."""
    return QQ.scalar(value).value


def _residue(q: Fraction, p: int) -> int:
    den = q.denominator % p
    if den == 0:
        raise ZeroDivisionError(f"denominator of {q} vanishes mod {p}")
    return (q.numerator % p) * pow(den, p - 2, p) % p


class Scalar:
    """An element of a Field, stored canonically.

    value is a Fraction (Q), an int residue (GF), or a dict mapping
    exponent tuples to nonzero Fractions (poly).
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        if field.kind == "poly":
            value = {m: c for m, c in value.items() if c != 0}
            for m in value:
                for v, e in zip(field.variables, m):
                    if e < 0 and v not in field.units:
                        raise ValueError(
                            f"negative exponent on non-unit variable {v!r}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.value

    def is_one(self) -> bool:
        return self == self.field.one()

    def __bool__(self):
        return bool(self.value)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        v = self.value
        if isinstance(v, dict):
            v = frozenset(v.items())
        return hash((self.field, v))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: Scalar) -> Field:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        f = self.field
        if other.field is not f and other.field != f:
            raise FieldMismatchError(f"{f!r} vs {other.field!r}")
        return f

    def __add__(self, other):
        f = self._check(other)
        a, b = self.value, other.value
        if f.kind == "poly":
            return self if not b else other if not a else \
                _make(f, _poly_add(a, b))
        return _make(f, a + b if f.kind == "Q" else (a + b) % f.p)

    def __sub__(self, other):
        f = self._check(other)
        a, b = self.value, other.value
        if f.kind == "poly":
            return self if not b else -other if not a else \
                _make(f, _poly_sub(a, b))
        return _make(f, a - b if f.kind == "Q" else (a - b) % f.p)

    def __neg__(self):
        f = self.field
        if f.kind == "Q":
            return _make(f, -self.value)
        if f.kind == "GF":
            return _make(f, -self.value % f.p)
        return _make(f, _poly_neg(self.value))

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        f = self._check(other)
        if f.kind == "Q":
            return _make(f, self.value * other.value)
        if f.kind == "GF":
            return _make(f, self.value * other.value % f.p)
        return _make(f, _poly_mul(self.value, other.value))

    __rmul__ = __mul__

    def invert(self) -> Scalar:
        """Multiplicative inverse; defined for nonzero field elements and
        for unit monomials of a polynomial ring."""
        f = self.field
        if self.is_zero():
            raise NotInvertibleError("zero is not invertible")
        if f.kind == "Q":
            return Scalar(f, 1 / self.value)
        if f.kind == "GF":
            return Scalar(f, pow(self.value, f.p - 2, f.p))
        if len(self.value) != 1:
            raise NotInvertibleError(f"{self} is not a unit (multiple terms)")
        (mono, coeff), = self.value.items()
        for v, e in zip(f.variables, mono):
            if e != 0 and v not in f.units:
                raise NotInvertibleError(
                    f"{self} involves non-unit variable {v!r}")
        inv_mono = tuple(-e for e in mono)
        return Scalar(f, {inv_mono: 1 / coeff})

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation ---------------------------------------------------------

    def eval_at(self, assignment: dict) -> Scalar:
        """Substitute rationals for all variables; result lands in Q.

        Unit variables must receive nonzero values.
        """
        f = self.field
        if f.kind != "poly":
            return self
        vals = {}
        for v in f.variables:
            if v not in assignment:
                if any(m[f.variables.index(v)] != 0 for m in self.value):
                    raise ValueError(f"no assignment for variable {v!r}")
                vals[v] = Fraction(0)
                continue
            q = _rational(assignment[v])
            if v in f.units and q == 0:
                raise ValueError(f"unit variable {v!r} assigned zero")
            vals[v] = q
        total = Fraction(0)
        for mono, coeff in self.value.items():
            term = coeff
            for v, e in zip(f.variables, mono):
                if e:
                    term *= vals[v] ** e
            total += term
        return Scalar(QQ, total)

    # -- display ------------------------------------------------------------

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


_set = object.__setattr__


def _make(field: Field, value) -> Scalar:
    """A Scalar from a value already in canonical form (no filtering)."""
    x = object.__new__(Scalar)
    _set(x, "field", field)
    _set(x, "value", value)
    return x


def _poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign*b on coefficient dicts, dropping cancelled terms."""
    out = dict(a)
    for m, c in b.items():
        c = c if sign > 0 else -c
        s = out.pop(m, None)
        s = c if s is None else s + c
        if s:
            out[m] = s
    return out


def _poly_sub(a: dict, b: dict) -> dict:
    return _poly_add(a, b, -1)


def _poly_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _poly_dot(xs, ys) -> dict:
    """sum_a x_a y_a of coefficient dicts, dropping cancelled terms."""
    acc = {}
    get = acc.get
    for x, y in zip(xs, ys):
        if x and y:
            for m1, c1 in x.items():
                for m2, c2 in y.items():
                    mono = tuple(map(add, m1, m2))
                    p, c = c1 * c2, get(mono)
                    # not get(mono, 0) + p: 0 + Fraction is a slow add
                    acc[mono] = p if c is None else c + p
    return {mono: c for mono, c in acc.items() if c}


def _poly_mul(x: dict, y: dict) -> dict:
    return _poly_dot((x,), (y,))


def cast_scalar(x: Scalar, field: Field) -> Scalar:
    """Embed x into another field, when a canonical embedding exists."""
    if x.field == field:
        return x
    if x.field.kind == "Q":
        return field.scalar(x.value)
    if x.field.kind == "poly" and field.kind == "poly":
        if not set(x.field.variables) <= set(field.variables):
            raise FieldMismatchError("target ring lacks some variables")
        if not x.field.units <= field.units:
            raise FieldMismatchError("target ring lacks some unit variables")
        pos = [field.variables.index(v) for v in x.field.variables]
        out = {}
        for mono, c in x.value.items():
            m = [0] * len(field.variables)
            for idx, e in zip(pos, mono):
                m[idx] = e
            out[tuple(m)] = c
        return Scalar(field, out)
    if x.field.kind == "poly" and field.kind in ("Q", "GF"):
        if any(any(mono) for mono in x.value):
            raise FieldMismatchError(f"{x} is not a constant of {x.field!r}")
        return field.scalar(sum(x.value.values(), Fraction(0)))
    raise FieldMismatchError(f"cannot embed {x.field!r} into {field!r}")


def substitute(x: Scalar, mapping: dict, field: Field) -> Scalar:
    """Polynomial composition: replace each variable by a Scalar of the
    target field.  Variables absent from the mapping must be variables of
    the target field and are carried over."""
    if x.field.kind != "poly":
        return cast_scalar(x, field)
    out = field.zero()
    for mono, coeff in x.value.items():
        term = field.scalar(coeff)
        for v, e in zip(x.field.variables, mono):
            if e == 0:
                continue
            repl = mapping.get(v)
            if repl is None:
                repl = field.variable(v)
            elif not isinstance(repl, Scalar):
                repl = field.scalar(repl)
            term = term * (repl ** e)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# coefficient grammar
#
#   expr   := term (("+"|"-") term)*
#   term   := factor ("*" factor)*
#   factor := ("-")* atom ("^" int)?
#   atom   := int ("/" int)? | name | "(" expr ")"
#
# Negative exponents are legal only on unit variables.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([a-zA-Z][a-zA-Z0-9_]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad character at {text[pos:]!r}")
        if m.group(1):
            tokens.append(("num", int(m.group(1))))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, field: Field):
        self.tokens = tokens
        self.i = 0
        self.field = field

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse_expr(self) -> Scalar:
        node = self.parse_term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> Scalar:
        node = self.parse_factor()
        while self.peek() == ("op", "*"):
            self.next()
            node = node * self.parse_factor()
        return node

    def parse_factor(self) -> Scalar:
        sign = 1
        while self.peek() in (("op", "-"), ("op", "+")):
            _, op = self.next()
            if op == "-":
                sign = -sign
        node = self.parse_atom()
        if self.peek() == ("op", "^"):
            self.next()
            exp = self.parse_int()
            if abs(exp) > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds {MAX_EXPONENT}")
            node = node ** exp
        if sign < 0:
            node = -node
        return node

    def parse_int(self) -> int:
        sign = 1
        while self.peek() in (("op", "-"), ("op", "+")):
            _, op = self.next()
            if op == "-":
                sign = -sign
        kind, val = self.next()
        if kind != "num":
            raise ParseError(f"expected integer exponent, got {val!r}")
        return sign * val

    def parse_atom(self) -> Scalar:
        kind, val = self.next()
        if kind == "num":
            if self.peek() == ("op", "/"):
                self.next()
                k2, den = self.next()
                if k2 != "num":
                    raise ParseError("expected denominator")
                return self.field.scalar(Fraction(val, den))
            return self.field.scalar(val)
        if kind == "name":
            if self.field.kind != "poly":
                raise ParseError(
                    f"variable {val!r} in constant field {self.field!r}")
            return self.field.variable(val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}")


def parse_scalar(text: str, field: Field) -> Scalar:
    try:
        parser = _Parser(_tokenize(text), field)
        node = parser.parse_expr()
        if parser.peek() != ("end", None):
            raise ParseError(f"trailing input in {text!r}")
        return node
    except (NotInvertibleError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coefficient {text!r}: {exc}") from exc


def parse_json_scalar(x, field: Field) -> Scalar:
    """A coefficient read from JSON: a grammar string or an integer (read
    through str); anything else, booleans included, raises ParseError."""
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ParseError(f"coefficient must be a string or an integer, "
                         f"got {x!r}")
    return parse_scalar(str(x), field)


def _json_int(x, what: str) -> int:
    """A size or count read from JSON: an integer, booleans excluded;
    anything else raises ParseError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{what} must be an integer, got {x!r}")
    return x


def _read_json(path):
    """The JSON document in a file; a file that cannot be read, is not
    UTF-8 or holds invalid JSON raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ParseError(str(exc)) from exc


def _format_q(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(x: Scalar) -> str:
    """Render a scalar in the coefficient grammar (round-trips via parse)."""
    f = x.field
    if f.kind == "Q":
        return _format_q(x.value)
    if f.kind == "GF":
        return str(x.value)
    if not x.value:
        return "0"
    # highest total degree first, ties by exponent tuple, constants last
    monos = sorted(x.value, key=lambda m: (-sum(m), tuple(-e for e in m)))
    parts = []
    for mono in monos:
        coeff = x.value[mono]
        vars_part = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(f.variables, mono) if e != 0)
        if not vars_part:
            body = _format_q(abs(coeff))
        elif abs(coeff) == 1:
            body = vars_part
        else:
            body = f"{_format_q(abs(coeff))}*{vars_part}"
        parts.append(("-" if coeff < 0 else "+", body))
    head_sign, head = parts[0]
    out = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        out += sign + body
    return out
