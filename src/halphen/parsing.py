"""Reads every text input: polynomials, ideal files and points.

Polynomial grammar: signed terms, optional rational coefficients written
p/q, variables with `^` integer powers, `*` optional between factors.
There are no parentheses, so every term is a coefficient times a
monomial; the terms are summed into one dict per polynomial.  The reader
walks the token list with the end token (None, "", len(text) + 1) appended:
every look at the next token finds one, and an error at the end of the
text reports the column one past it.
Ideal files: a `ring x y z w` line followed by one homogeneous generator
per line; `#` starts a comment.  Points: `a:b:...`, optionally in
brackets, each coordinate whatever `Fraction` reads but exponent notation.
Only the command line imports this module.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
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
# leading whitespace, then one token: its group number is its kind
_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({_NAME})|([+\-*/^])|(\S))")
_KINDS = (None, "num", "name", "op")


def _quoted(name: str) -> str:
    """A name as a message shows it: quoted, and cut after 32 characters."""
    if len(name) <= 32:
        return repr(name)
    return f"{name[:32]!r}... ({len(name)} characters)"


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, col); kind in {num, name, op}.  Each match
    starts where the last one ended, since every non-space character is a
    token or the start of one; only trailing whitespace is left unmatched,
    and it is cut first: a failed match would rescan it from every position."""
    tokens = []
    for m in _TOKEN_RE.finditer(text.rstrip()):
        kind = m.lastindex
        col = m.start(kind) + 1
        if kind == 4:
            bad = m[4]
            if bad == ".":
                raise ParseError("decimal literals are not supported; use p/q", line, col)
            raise ParseError(f"unexpected character {bad!r}", line, col)
        tokens.append((_KINDS[kind], m[kind], col))
    return tokens


def _past_limit(digits: int) -> str:
    """Why `int` refuses a literal of `digits` digits (the int-string limit), or ""."""
    limit = sys.get_int_max_str_digits()
    return f"a literal of {digits} digits; the limit is {limit} digits" if limit and digits > limit else ""


def _int(tok: tuple[str, str, int], line: int) -> int:
    try:
        return int(tok[1])
    except ValueError:  # a run of digits is refused only past the int-string limit
        raise ParseError(_past_limit(len(tok[1])), line, tok[2]) from None


def parse_polynomial(text: str, ring_vars: Sequence[str], line: int = 1) -> Polynomial:
    ring = tuple(ring_vars)
    tokens = _tokenize(text, line)
    tokens.append((None, "", len(text) + 1))  # the end token
    if len(tokens) == 1:
        raise ParseError("empty polynomial", line, tokens[0][2])
    terms: dict[Monomial, Rational] = {}
    i = 0
    while True:
        # the sign is optional before the first term only
        sign = 1
        if tokens[i][0] == "op" and tokens[i][1] in "+-":
            sign = -1 if tokens[i][1] == "-" else 1
            i += 1
        coeff, exps = 1, [0] * len(ring)
        while True:  # one factor: a number, p/q, or a variable with its power
            tok = kind, value, col = tokens[i]
            i += 1
            if kind == "num":
                c = _int(tok, line)
                if tokens[i][:2] == ("op", "/"):
                    den = tokens[i + 1]
                    if den[0] != "num":
                        raise ParseError("expected an integer denominator", line, den[2])
                    i += 2
                    denominator = _int(den, line)
                    if denominator == 0:
                        raise ParseError("zero denominator", line, den[2])
                    c = Fraction(c, denominator)
                coeff *= c
            elif kind == "name":
                if value not in ring:
                    raise ParseError(f"unknown variable {_quoted(value)}", line, col)
                power = 1
                if tokens[i][:2] == ("op", "^"):
                    exp = tokens[i + 1]
                    if exp[:2] == ("op", "-"):
                        raise ParseError("negative exponent", line, exp[2])
                    if exp[0] != "num":
                        raise ParseError("expected an integer exponent", line, exp[2])
                    i += 2
                    power = _int(exp, line)
                exps[ring.index(value)] += power
                degree = sum(exps)
                if degree > DEGREE_BUDGET:
                    # reported at the exponent (or variable) that crossed it
                    message = f"a term of degree {degree}; the degree budget is {DEGREE_BUDGET}"
                    raise ParseError(message, line, tokens[i - 1][2])
            elif kind is None:
                raise ParseError("expected a number or variable", line, col)
            else:
                raise ParseError(f"unexpected {value!r}", line, col)
            # "*", or implicitly a number or name ("2x", "x y"), continues the term
            kind, value, col = tokens[i]
            if value == "*":
                i += 1
            elif kind is None or kind == "op":
                break
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + sign * coeff
        kind, value, col = tokens[i]
        if kind is None:
            return Polynomial(terms, ring)
        if value not in "+-":
            raise ParseError(f"expected '+' or '-', got {value!r}", line, col)


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
