"""Exact coefficient arithmetic: rationals, GF(2), Laurent polynomials.

Coefficient values are plain Python data and a :class:`CoeffRing` instance
dispatches the arithmetic:

* rationals      -- ``int`` when integral, else ``fractions.Fraction``
* GF(2)          -- ``int`` 0 or 1
* Laurent        -- ``dict`` mapping exponent vectors (one slot per named
                    parameter, negative exponents allowed) to nonzero
                    rationals, each an ``int`` or ``Fraction`` as above

Every result is in that form; an input may also be an integral
``Fraction``.  All operations are pure but ``add_into``, the sparse sum,
which resolves the ring once per call and then runs one loop for it.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction

RATIONALS = "Q"
GF2 = "GF2"
LAURENT = "laurent"

# The .cedga name rule: an ASCII identifier that is not a keyword.
NAME = r"[A-Za-z_][A-Za-z_0-9]*"
KEYWORDS = {"ring", "convention", "idempotents", "gen", "diff",
            "presentation", "map", "aug", "deg", "from", "to", "long",
            "short", "level", "on", "scope", "idem"}
_is_name = re.compile(NAME).fullmatch


def bad_name(name: str) -> str:
    """Why `name` breaks the name rule; '' when it keeps it."""
    if name in KEYWORDS:
        return f"{name!r} is a reserved word"
    return "" if _is_name(name) else f"{name!r} is not a name"


def _q(a):
    """A rational in canonical form: its numerator when it is integral."""
    return a.numerator if a.denominator == 1 else a


class RingMismatchError(ValueError):
    """Operands belong to different coefficient rings."""


class NotAUnitError(ArithmeticError):
    """Inversion was requested for a non-unit (e.g. a multi-term Laurent element)."""


@dataclass(frozen=True)
class CoeffRing:
    """One of Q, GF(2), or Laurent polynomials over Q in named parameters."""

    kind: str
    parameters: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (RATIONALS, GF2, LAURENT):
            raise ValueError(f"unknown coefficient ring kind {self.kind!r}")
        if self.kind != LAURENT and self.parameters:
            raise ValueError(f"{self.kind} carries no parameters")
        for p in self.parameters:
            if bad_name(p):
                raise ValueError(f"bad parameter name {p!r}")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError("parameter names must be distinct")

    # -- constructors ------------------------------------------------------

    def zero(self):
        return {} if self.kind == LAURENT else 0

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        if self.kind == RATIONALS:
            return n
        if self.kind == GF2:
            return n % 2
        return {(0,) * len(self.parameters): n} if n else {}

    def from_fraction(self, q: Fraction):
        if self.kind == GF2:
            if q.denominator % 2 == 0:
                raise ZeroDivisionError("denominator divisible by 2 in GF(2)")
            return q.numerator % 2
        q = _q(Fraction(q))
        if self.kind == RATIONALS:
            return q
        return {(0,) * len(self.parameters): q} if q else {}

    def parameter(self, name: str):
        """The Laurent monomial for one named parameter."""
        if self.kind != LAURENT:
            raise RingMismatchError(f"{self.kind} has no parameters")
        i = self.parameters.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(self.parameters)))
        return {exps: 1}

    def monomial(self, exps, coeff=1):
        if self.kind != LAURENT:
            raise RingMismatchError(f"{self.kind} has no monomials")
        exps = tuple(exps)
        if len(exps) != len(self.parameters):
            raise ValueError("exponent vector length mismatch")
        c = _q(Fraction(coeff))
        return {exps: c} if c else {}

    # -- predicates --------------------------------------------------------

    def is_field(self) -> bool:
        return self.kind in (RATIONALS, GF2)

    def is_zero(self, a) -> bool:
        # 0, Fraction(0) and the empty Laurent dict are the falsy values
        return not a

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        if self.kind == RATIONALS:
            return _q(a + b)
        if self.kind == GF2:
            return (a + b) % 2
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return {e: _q(c) for e, c in out.items() if c}

    def neg(self, a):
        if self.kind == RATIONALS:
            return _q(-a)
        if self.kind == GF2:
            return a
        return {e: _q(-c) for e, c in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def add_into(self, out: dict, x, f=None) -> dict:
        """out += f*x in place (f=None: out += x).  `out` is a sparse
        vector, a dict from keys to coefficients; `x` is one given as
        (key, coefficient) pairs, such as a dict's items(), where a key
        may repeat.  A key whose coefficient becomes zero is dropped, a
        new key goes last, and a key that stays nonzero keeps its place.
        The ring is resolved once per call, then one loop runs for it.
        Returns out."""
        get, pop = out.get, out.pop
        if self.kind == RATIONALS:
            for k, c in x:
                if f is not None:
                    c = f * c
                s = get(k, 0) + c
                if s:
                    out[k] = s if type(s) is int else _q(s)
                else:
                    pop(k, None)
        elif self.kind == GF2:
            if f is not None and not f % 2:
                x = ()  # f = 0 adds nothing
            for k, c in x:
                if (get(k, 0) + c) % 2:
                    out[k] = 1
                else:
                    pop(k, None)
        else:
            # exponent dicts are summed here, into a new dict each time:
            # a coefficient dict that was given is never changed.  A
            # constant f scales each rational (none when f is 1); only a
            # non-constant f takes a product.
            mul = scale = None
            if f is not None:
                if len(f) == 1 and not any(next(iter(f))):
                    (q,) = f.values()
                    if q != 1:
                        scale = q
                else:
                    mul = self.mul
            for k, c in x:
                if scale is not None:
                    c = {e: scale * a for e, a in c.items()}
                elif mul is not None:
                    c = mul(f, c)
                old = get(k)
                if old is not None:
                    s = dict(old)
                    for e, a in c.items():
                        s[e] = s.get(e, 0) + a
                    c = s
                s = {e: a if type(a) is int else _q(a)
                     for e, a in c.items() if a}
                if s:
                    out[k] = s
                else:
                    pop(k, None)
        return out

    def mul(self, a, b):
        if self.kind == RATIONALS:
            return _q(a * b)
        if self.kind == GF2:
            return (a * b) % 2
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(map(operator.add, ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return {e: _q(c) for e, c in out.items() if c}

    def inverse(self, a):
        """Multiplicative inverse; raises NotAUnitError unless a is a unit.

        Units: any nonzero rational, 1 in GF(2), any single-term Laurent
        element. Zero input raises ZeroDivisionError.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.kind == RATIONALS:
            return _q(Fraction(1) / a)
        if self.kind == GF2:
            return 1
        if len(a) != 1:
            raise NotAUnitError(f"{self.format(a)} is not a monomial")
        (e, c), = a.items()
        return {tuple(-x for x in e): _q(Fraction(1) / c)}

    def div(self, a, b):
        return self.mul(a, self.inverse(b))

    def sign_pow(self, k: int):
        """(-1)^k as a ring element."""
        return self.from_int(-1 if k % 2 else 1)

    # -- canonical text form ------------------------------------------------

    def sign_and_factor(self, a) -> tuple[bool, str]:
        """How a nonzero coefficient prints in front of a word: whether it
        leads with a minus sign, and the factor text ('' for 1 or -1).
        A rational constant prints as a sign and magnitude, any other
        Laurent element as one factor, parenthesized when it is a sum or
        starts with a minus sign."""
        if self.kind == GF2:
            return False, ""
        if self.kind == LAURENT:
            if len(a) != 1 or any(next(iter(a))):
                text = self.format(a)
                if " " in text or text.startswith("-"):
                    text = f"({text})"
                return False, text
            (a,) = a.values()
        mag = abs(a)
        return a < 0, "" if mag == 1 else str(mag)

    def format(self, a) -> str:
        """Canonical text; Laurent terms sorted lexicographically by exponents."""
        if self.kind == RATIONALS:
            return str(a)
        if self.kind == GF2:
            return str(a % 2)
        if not a:
            return "0"
        parts = []
        for e in sorted(a):
            c = a[e]
            mono = "*".join(
                f"{p}^{k}" if k != 1 else p
                for p, k in zip(self.parameters, e)
                if k != 0
            )
            if not mono:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mono
            else:
                term = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self):
        if self.kind == LAURENT:
            return f"laurent({','.join(self.parameters)})"
        return self.kind


def rationals() -> CoeffRing:
    return CoeffRing(RATIONALS)


def gf2() -> CoeffRing:
    return CoeffRing(GF2)


def laurent(*parameters: str) -> CoeffRing:
    return CoeffRing(LAURENT, tuple(parameters))

