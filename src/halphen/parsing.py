"""Text format for polynomials, ideals, and points.

Polynomial grammar: signed terms, optional rational coefficients written
p/q, variables with `^` integer powers, `*` optional between factors.
There are no parentheses, so every term is a coefficient times a
monomial; the terms are summed into one dict per polynomial.
Ideal files: a `ring x y z w` line followed by one homogeneous generator
per line; `#` starts a comment.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .poly import DEFAULT_ORDER, Monomial, Polynomial, Rational

# Largest total degree of a term the parser accepts.  The Hilbert polynomial
# of a generator costs time linear in its degree: about 0.08 s at 10^4.
DEGREE_BUDGET = 10_000


class ParseError(ValueError):
    """Syntax or validation error with a 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class IdealSpec:
    """A homogeneous ideal presented by its generators."""

    ring_vars: tuple[str, ...]
    generators: tuple[Polynomial, ...]
    label: str | None = None

    @property
    def n_vars(self) -> int:
        return len(self.ring_vars)


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*/^])|(.)")


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, col); kind in {num, name, op}."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        num, name, op, bad = m.groups()
        col = m.start(m.lastindex) + 1
        if num is not None:
            tokens.append(("num", num, col))
        elif name is not None:
            tokens.append(("name", name, col))
        elif op is not None:
            tokens.append(("op", op, col))
        else:
            if bad == ".":
                raise ParseError("decimal literals are not supported; use p/q", line, col)
            raise ParseError(f"unexpected character {bad!r}", line, col)
        pos = m.end()
    return tokens


class _PolyParser:
    def __init__(self, text: str, ring_vars: Sequence[str], line: int = 1):
        self.line = line
        self.ring = tuple(ring_vars)
        self.tokens = _tokenize(text, line)
        self.i = 0
        self.end_col = len(text) + 1

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _error(self, message: str, col: int | None = None):
        if col is None:
            tok = self._peek()
            col = tok[2] if tok else self.end_col
        raise ParseError(message, self.line, col)

    def _int(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # longer than the interpreter's int-string limit
            limit = sys.get_int_max_str_digits()
            self._error(f"a literal of {len(tok[1])} digits; the limit is {limit} digits", tok[2])

    def parse(self) -> Polynomial:
        if not self.tokens:
            self._error("empty polynomial")
        terms: dict[Monomial, Rational] = {}
        tok = self._peek()
        while True:
            # the sign is optional before the first term only
            sign = 1
            if tok[0] == "op" and tok[1] in "+-":
                sign = -1 if tok[1] == "-" else 1
                self.i += 1
            coeff, mono = self._term()
            terms[mono] = terms.get(mono, 0) + sign * coeff
            tok = self._peek()
            if tok is None:
                return Polynomial(terms, self.ring)
            if not (tok[0] == "op" and tok[1] in "+-"):
                self._error(f"expected '+' or '-', got {tok[1]!r}")

    def _term(self) -> tuple[Rational, Monomial]:
        coeff, exps = 1, [0] * len(self.ring)
        while True:
            c, index, power = self._factor()
            coeff *= c
            if index is not None:
                exps[index] += power
                degree = sum(exps)
                if degree > DEGREE_BUDGET:
                    # reported at the exponent (or variable) that crossed it
                    self._error(
                        f"a term of degree {degree}; the degree budget is {DEGREE_BUDGET}",
                        self.tokens[self.i - 1][2],
                    )
            tok = self._peek()
            # "*", or implicitly a number or name ("2x", "x y"), continues the term
            if tok is None or tok[0] == "op" and tok[1] != "*":
                return coeff, tuple(exps)
            if tok[1] == "*":
                self.i += 1

    def _factor(self) -> tuple[Rational, int | None, int]:
        """(coefficient, variable index or None, power)."""
        tok = self._peek()
        if tok is None:
            self._error("expected a number or variable")
        kind, value, col = tok
        if kind == "num":
            self.i += 1
            numerator = self._int(tok)
            nxt = self._peek()
            if nxt and nxt[:2] == ("op", "/"):
                self.i += 1
                den = self._peek()
                if den is None or den[0] != "num":
                    self._error("expected an integer denominator")
                self.i += 1
                denominator = self._int(den)
                if denominator == 0:
                    self._error("zero denominator", den[2])
                return Fraction(numerator, denominator), None, 0
            return numerator, None, 0
        if kind == "name":
            self.i += 1
            if value not in self.ring:
                self._error(f"unknown variable {value!r}", col)
            power = 1
            nxt = self._peek()
            if nxt and nxt[:2] == ("op", "^"):
                self.i += 1
                exp = self._peek()
                if exp and exp[:2] == ("op", "-"):
                    self._error("negative exponent", exp[2])
                if exp is None or exp[0] != "num":
                    self._error("expected an integer exponent")
                self.i += 1
                power = self._int(exp)
            return 1, self.ring.index(value), power
        self._error(f"unexpected {value!r}", col)


def parse_polynomial(text: str, ring_vars: Sequence[str], line: int = 1) -> Polynomial:
    return _PolyParser(text, ring_vars, line=line).parse()


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _ring_vars(names: Sequence[str], line: int = 1) -> tuple[str, ...]:
    """The variable names of a ring line or of `tangent --ring`, checked."""
    if not names:
        raise ParseError("ring line declares no variables", line, 1)
    for name in names:
        if not _NAME_RE.match(name):
            raise ParseError(f"bad variable name {name!r}", line, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name in ring line", line, 1)
    return tuple(names)


def parse_ideal_file(text: str, label: str | None = None) -> IdealSpec:
    ring_vars: tuple[str, ...] | None = None
    generators: list[Polynomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if ring_vars is None:
            head, *rest = body.split()
            if head != "ring":
                raise ParseError("expected a 'ring x y z ...' line first", lineno, 1)
            ring_vars = _ring_vars(rest, lineno)
            continue
        if body.startswith("label "):
            label = body[len("label "):].strip()
            continue
        p = parse_polynomial(body, ring_vars, line=lineno)
        if p.is_zero:
            raise ParseError("zero generator", lineno, 1)
        if not p.is_homogeneous():
            raise ParseError(f"inhomogeneous generator {body!r}", lineno, 1)
        generators.append(p)
    if ring_vars is None:
        raise ParseError("missing ring line")
    if not generators:
        raise ParseError("empty generator list")
    return IdealSpec(ring_vars, tuple(generators), label)


def _format_monomial(mono, ring_vars) -> str:
    parts = []
    for name, e in zip(ring_vars, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    pieces = []
    for mono in DEFAULT_ORDER.sorted(p.terms):
        coeff = p.terms[mono]
        mono_str = _format_monomial(mono, p.ring)
        mag = abs(coeff)
        if not mono_str:
            body = str(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{mag}*{mono_str}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def validate_ideal(ideal: IdealSpec) -> None:
    for g in ideal.generators:
        if g.is_zero:
            raise ValueError("zero generator in ideal")
        if not g.is_homogeneous():
            raise ValueError("inhomogeneous generator in ideal")
        if g.ring != ideal.ring_vars:
            raise ValueError("generator ring does not match ideal ring")
