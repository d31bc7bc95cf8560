"""Reads every text input: polynomials, ideal files and points.

Polynomial grammar: signed terms, optional rational coefficients written
p/q, variables with `^` integer powers, `*` optional between factors.
There are no parentheses, so every term is a coefficient times a
monomial; the terms are summed into one dict per polynomial.  A text
with a character that starts no token is refused at the first one.
Otherwise one `findall` gives its tokens as plain strings (runs of
digits, names, operators), and only a refusal finds a column: one more
scan, to the refused token or one past the end of the text.
Ideal files: a `ring x y z w` line followed by one homogeneous generator
per line; `#` starts a comment.  Points: `a:b:...`, optionally in
brackets, each coordinate whatever `Fraction` reads but exponent notation.
Only the command line imports this module.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .poly import IdealSpec, Monomial, Polynomial, Rational

# Largest total degree of a term the parser accepts.  `invariants` of
# x^10000 - y^10000 in 4 variables takes 0.04 s on a 2-vCPU x86-64 host;
# x0^10000 in 1500 runs 4.7 s before its answer passes the int-string limit.
DEGREE_BUDGET = 10_000

# Most variables in a ring.  `invariants` of a quadric in 1500 takes 0.9 s on a
# 2-vCPU x86-64 host; in 1600 its Hilbert polynomial passes the int-string limit.
VARIABLE_BUDGET = 1500


class ParseError(ValueError):
    """Syntax or validation error with a 1-based line/column position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_NAME = r"[A-Za-z_][A-Za-z_0-9]*"  # a variable, in a polynomial or on a ring line
# one token: a run of digits, a name, an operator, or a character that starts none
_TOKEN_RE = re.compile(rf"\d+|{_NAME}|[+\-*/^]|\S")
_STRAY_RE = re.compile(r"[^\s\dA-Za-z_+\-*/^]")  # a character that starts no token


def _quoted(name: str) -> str:
    """A name as a message shows it: quoted, and cut after 32 characters."""
    if len(name) <= 32:
        return repr(name)
    return f"{name[:32]!r}... ({len(name)} characters)"


def _past_limit(digits: int) -> str:
    """Why `int` refuses a literal of `digits` digits (the int-string limit), or ""."""
    limit = sys.get_int_max_str_digits()
    return f"a literal of {digits} digits; the limit is {limit} digits" if limit and digits > limit else ""


class _Refused(ValueError):
    """(message, i): a refusal at token i, or at the end; `parse_polynomial` turns it into a ParseError."""


def _int(tokens: list[str], i: int) -> int:
    try:
        return int(tokens[i])
    except ValueError:  # a run of digits is refused only past the int-string limit
        raise _Refused(_past_limit(len(tokens[i])), i) from None


def _walk(tokens: list[str], index: dict[str, int]) -> dict[Monomial, Rational]:
    """The terms of a stray-free token list, summed by monomial; `index` maps a
    ring variable to its slot.  The "" appended marks the end: no token is empty."""
    if not tokens:
        raise _Refused("empty polynomial", 0)
    tokens.append("")
    terms: dict[Monomial, Rational] = {}
    i = 0
    while True:
        # the sign is optional before the first term only
        sign = -1 if tokens[i] == "-" else 1
        if tokens[i] == "-" or tokens[i] == "+":
            i += 1
        coeff, exps, degree = 1, [0] * len(index), 0
        while True:  # one factor: a variable with its power, a number, or p/q
            tok = tokens[i]
            i += 1
            k = index.get(tok)
            if k is not None:
                power = 1
                if tokens[i] == "^":
                    e = tokens[i + 1]
                    if not e.isdecimal():
                        why = "negative exponent" if e == "-" else "expected an integer exponent"
                        raise _Refused(why, i + 1)
                    power = _int(tokens, i + 1)
                    i += 2
                exps[k] += power
                degree += power
                if degree > DEGREE_BUDGET:  # refused at the exponent (or variable) that crossed it
                    raise _Refused(f"a term of degree {degree}; the degree budget is {DEGREE_BUDGET}", i - 1)
            elif tok.isdecimal():
                c = _int(tokens, i - 1)
                if tokens[i] == "/":
                    if not tokens[i + 1].isdecimal():
                        raise _Refused("expected an integer denominator", i + 1)
                    denominator = _int(tokens, i + 1)
                    if denominator == 0:
                        raise _Refused("zero denominator", i + 1)
                    c = Fraction(c, denominator)
                    i += 2
                coeff *= c
            elif tok in "+-*/^":  # an operator, or "" at the end
                raise _Refused(f"unexpected {tok!r}" if tok else "expected a number or variable", i - 1)
            else:
                raise _Refused(f"unknown variable {_quoted(tok)}", i - 1)
            # "*", or implicitly a number or name ("2x", "x y"), continues the term
            tok = tokens[i]
            if tok == "*":
                i += 1
            elif tok in "+-*/^":  # or ""
                break
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + sign * coeff
        tok = tokens[i]
        if not tok:
            return terms
        if tok != "+" and tok != "-":
            raise _Refused(f"expected '+' or '-', got {tok!r}", i)


def parse_polynomial(text: str, ring_vars: Sequence[str], line: int = 1) -> Polynomial:
    """The polynomial a text reads as, over distinct variable names `ring_vars`."""
    ring = tuple(ring_vars)
    if stray := _STRAY_RE.search(text):
        why = f"unexpected character {stray[0]!r}"
        why = "decimal literals are not supported; use p/q" if stray[0] == "." else why
        raise ParseError(why, line, stray.start() + 1)
    try:
        terms = _walk(_TOKEN_RE.findall(text), {name: k for k, name in enumerate(ring)})
    except _Refused as refused:
        message, i = refused.args  # one more scan, to token i: its start, or one past the text
        col = next((m.start() + 1 for m in islice(_TOKEN_RE.finditer(text), i, None)), len(text) + 1)
        raise ParseError(message, line, col) from None
    # the walker makes ring-length, non-negative exponent tuples: no check is left
    return Polynomial._from_pairs([(mono, Fraction(c)) for mono, c in terms.items()], ring)


def _ring_vars(names: Sequence[str], line: int = 1) -> tuple[str, ...]:
    """The variable names of a ring line or of `tangent --ring`, checked."""
    if not names:
        raise ParseError("ring line declares no variables", line, 1)
    if len(names) > VARIABLE_BUDGET:
        message = f"a ring of {len(names)} variables; the variable budget is {VARIABLE_BUDGET}"
        raise ParseError(message, line, 1)
    for name in names:
        if not re.fullmatch(_NAME, name):
            raise ParseError(f"bad variable name {_quoted(name)}", line, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name in ring line", line, 1)
    return tuple(names)


def parse_ideal_file(text: str, label: str | None = None) -> IdealSpec:
    ring_vars: tuple[str, ...] | None = None
    generators: list[Polynomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a generator keeps its indentation, so its error columns are the line's
        code = raw.split("#", 1)[0].rstrip()
        body = code.lstrip()
        if not body:
            continue
        if ring_vars is None:
            head, *rest = body.split()
            if head != "ring":
                raise ParseError("expected a 'ring x y z ...' line first", lineno, 1)
            ring_vars = _ring_vars(rest, lineno)
            if "label" in ring_vars:  # a generator "label - x" would read as the label
                raise ParseError("'label' is reserved and cannot name a variable", lineno, 1)
            continue
        if body.startswith("label "):
            label = body[len("label "):].strip()
            continue
        p = parse_polynomial(code, ring_vars, line=lineno)
        if p.is_zero:
            raise ParseError("zero generator", lineno, 1)
        if not p.is_homogeneous():
            degrees = {sum(mono) for mono in p.terms}
            message = f"inhomogeneous generator: terms of degrees {min(degrees)} to {max(degrees)}"
            raise ParseError(message, lineno, 1)
        generators.append(p)
    if ring_vars is None:
        raise ParseError("missing ring line")
    if not generators:
        raise ParseError("empty generator list")
    return IdealSpec(ring_vars, tuple(generators), label)


def parse_point(text: str) -> tuple[Fraction, ...]:
    """The coordinates, read one at a time: a refusal names its position, never the text."""
    coords = []
    for k, part in enumerate(text.strip().strip("[]").split(":"), 1):
        if "e" in part.lower():  # Fraction("1e3000000") builds a 3-million-digit int
            why = "uses exponent notation, which is not supported"
        else:
            try:
                coords.append(Fraction(part.strip()))
                continue
            except ZeroDivisionError:
                why = "has a zero denominator"
            except ValueError:
                # int() counts the digits of a literal without its underscores
                digits = max(map(len, re.findall(r"\d+", part.replace("_", ""))), default=0)
                why = "is " + (_past_limit(digits) or "not a number")
        raise ValueError(f"bad point: coordinate {k} {why}")
    return tuple(coords)
