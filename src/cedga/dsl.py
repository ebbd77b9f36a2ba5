"""Textual interchange format for presentations, maps, and augmentations.

Grammar (statements; `#` comments run to end of line):

    ring (Q | GF2 | laurent(p1,p2,...))
    convention (potential_plus | potential_minus)
    idempotents e1 e2 ...
    gen NAME deg INT from eI to eJ [long | short LINKID] [level P]
    diff NAME = EXPR
    presentation NAME { ... }          # idempotents/gen/diff statements
    map NAME : SRC -> TGT { g -> EXPR; idem eI -> eJ; ... }
    aug NAME on SRC scope LINKID... { g -> COEFF; ... }

Top-level idempotents/gen/diff statements belong to the presentation named
"main".  EXPR is a +/- separated sum of `*`-joined factors; factors are
generator or idempotent names and coefficient atoms (`-3`, `2/3`,
`lam^-1`, `(mu - mu*lam)`).  A term with no name letters multiplies the
unit (the sum of all idempotents), so `1` and `0` mean what they say.
In a word the rightmost factor acts first.

Names (`[A-Za-z_][A-Za-z_0-9]*`) and integers (`[0-9]+`) are ASCII.
`ring` and `convention` come at most once each, before any presentation,
map or augmentation.  Names must be declared before use, may not equal a
ring parameter, and keywords (ring, gen, diff, ...) are reserved.  An
augmentation scope names only links that some generator of its source is
on; an empty scope is legal.  The serializer emits a canonical,
byte-stable form that parses back to an equal bundle.
"""
from __future__ import annotations

import re
from collections import ChainMap
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (POTENTIAL_MINUS, POTENTIAL_PLUS, Presentation,
                      PresentationError)
from .catalog import CatalogBundle
from .coefficients import (KEYWORDS, NAME, RingMismatchError, gf2, laurent,
                           rationals)
from .morphisms import Augmentation, GenMap, MapError, ScopeError


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class _Tok:
    kind: str  # ident | int | sym | eof
    value: str
    line: int
    col: int


# one alternative per token kind, then the text between tokens, then any
# other character, which is an error
_TOKEN = re.compile(r"""(?P<sym>->|[{}():;=^*/+,-])
                      | (?P<int>[0-9]+)
                      | (?P<ident>""" + NAME + r""")
                      | (?P<newline>\n)
                      | [ \t\r]+ | \#[^\n]*
                      | (?P<bad>.)""", re.VERBOSE)


def _tokenize(text):
    toks, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind is not None:
            toks.append(_Tok(kind, m.group(), line, col))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text, env=None, target_env=None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.env = dict(env or {})
        self.target_env = dict(target_env if target_env is not None
                               else self.env)
        self.ring = None
        self.convention = None
        self.bundle = CatalogBundle("parsed")

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError(msg, tok.line, tok.col)

    def at_sym(self, *values):
        t = self.peek()
        return t.kind == "sym" and t.value in values

    def accept(self, *values):
        """Consume and return the next token if it is one of the symbols
        `values`; else None."""
        return self.next() if self.at_sym(*values) else None

    def at_ident(self, value=None):
        t = self.peek()
        return t.kind == "ident" and (value is None or t.value == value)

    def expect_sym(self, s):
        if not self.at_sym(s):
            self.err(f"expected {s!r}, found {self.peek().value!r}")
        return self.next()

    def expect_ident(self, what="name"):
        if not self.at_ident():
            self.err(f"expected {what}, found {self.peek().value!r}")
        return self.next()

    def expect_keyword(self, kw):
        if not self.at_ident(kw):
            self.err(f"expected {kw!r}, found {self.peek().value!r}")
        return self.next()

    def expect_int(self):
        sign = -1 if self.accept("-") else 1
        t = self.next()
        if t.kind != "int":
            self.err(f"expected integer, found {t.value!r}", t)
        return sign * int(t.value)

    def names(self):
        """The identifier tokens up to the next keyword or symbol."""
        toks = []
        while self.at_ident() and self.peek().value not in KEYWORDS:
            toks.append(self.next())
        return toks

    def find(self, lookup, tok, msg):
        """lookup(tok.value), with a KeyError reported as `msg` at tok."""
        try:
            return lookup(tok.value)
        except KeyError:
            self.err(msg, tok)

    # -- file structure ------------------------------------------------------

    def parse(self):
        statements = {"ring": self.parse_ring,
                      "convention": self.parse_convention,
                      "presentation": self.parse_presentation_block,
                      "map": self.parse_map, "aug": self.parse_aug}
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident":
                self.err(f"expected a statement, found {t.value!r}")
            if t.value in ("idempotents", "gen", "diff"):
                self.parse_pstmt(self.presentation("main"))
            elif t.value in statements:
                statements[t.value]()
            else:
                self.err(f"unknown statement {t.value!r}")
        return self.bundle

    def presentation(self, name):
        if name not in self.bundle.presentations:
            if self.ring is None:
                self.err("ring must be declared first")
            self.bundle.presentations[name] = Presentation(
                self.ring, self.convention or POTENTIAL_PLUS)
        return self.bundle.presentations[name]

    def lookup_presentation(self, tok, env):
        return self.find(ChainMap(self.bundle.presentations, env).__getitem__,
                         tok, f"unknown presentation {tok.value!r}")

    def header(self, current):
        """Consume a `ring` or `convention` keyword: each comes once, and
        before anything that would be built over it."""
        t = self.next()
        if current is not None:
            self.err(f"duplicate {t.value} statement", t)
        if self.bundle.presentations or self.bundle.maps \
                or self.bundle.augmentations:
            self.err(f"{t.value} must come before any presentation, map "
                     f"or augmentation", t)

    def parse_ring(self):
        self.header(self.ring)
        kind = self.expect_ident("ring kind")
        make = {"Q": rationals, "GF2": gf2, "laurent": laurent}.get(kind.value)
        if make is None:
            self.err(f"unknown ring {kind.value!r}", kind)
        params = []
        if make is laurent:
            self.expect_sym("(")
            params.append(self.expect_ident("parameter").value)
            while self.accept(","):
                params.append(self.expect_ident("parameter").value)
            self.expect_sym(")")
        try:
            self.ring = make(*params)
        except ValueError as exc:
            self.err(str(exc), kind)

    def parse_convention(self):
        self.header(self.convention)
        t = self.expect_ident("convention")
        if t.value not in (POTENTIAL_PLUS, POTENTIAL_MINUS):
            self.err(f"unknown convention {t.value!r}", t)
        self.convention = t.value

    def parse_presentation_block(self):
        self.next()
        P = self.presentation(self.expect_ident("presentation name").value)
        self.expect_sym("{")
        while not self.accept("}"):
            self.parse_pstmt(P)

    def parse_pstmt(self, P):
        t = self.next()
        if t.value == "idempotents":
            for tok in self.names():
                try:
                    P.add_idempotent(tok.value)
                except PresentationError as exc:
                    self.err(str(exc), tok)
        elif t.value == "gen":
            name = self.expect_ident("generator name")
            self.expect_keyword("deg")
            degree = self.expect_int()
            self.expect_keyword("from")
            src = self.expect_ident("idempotent")
            self.expect_keyword("to")
            tgt = self.expect_ident("idempotent")
            link, level = None, None
            if self.at_ident("long"):
                self.next()
            elif self.at_ident("short"):
                self.next()
                link = self.expect_ident("link id").value
            if self.at_ident("level"):
                self.next()
                level = self.expect_int()
            ends = [self.find(P.idem, e, f"undeclared idempotent {e.value!r}")
                    for e in (src, tgt)]
            try:
                P.add_generator(name.value, degree, *ends, link, level)
            except PresentationError as exc:
                self.err(str(exc), name)
        elif t.value == "diff":
            name = self.expect_ident("generator name")
            g = self.find(P.gen, name,
                          f"undeclared generator {name.value!r}")
            if g.index in P.differential:
                self.err(f"duplicate diff for {name.value!r}", name)
            self.expect_sym("=")
            P.set_differential(g, self.parse_expr(P))
        else:
            self.err(f"unexpected statement {t.value!r} in presentation", t)

    # -- expressions -----------------------------------------------------------

    def parse_sum(self, term, total, add):
        """An optional sign, then `+`/`-`-separated summands: each is
        term(sign), folded into `total` with add(total, summand)."""
        sign = self.accept("+", "-")
        while True:
            total = add(total, term(-1 if sign and sign.value == "-" else 1))
            sign = self.accept("+", "-")
            if sign is None:
                return total

    def parse_expr(self, P):
        return self.parse_sum(lambda sign: self.parse_term(P, sign).items(),
                              P.zero(), P.ring.add_into)

    def parse_coeff_expr(self, P):
        return self.parse_sum(lambda sign: self.parse_factors(P, sign),
                              P.ring.zero(), P.ring.add)

    def parse_factors(self, P, sign, letters=None):
        """`*`-joined factors; their coefficient product times sign is
        returned.  Given a `letters` list, the presentation's names are
        factors too, and their tokens are appended to it."""
        ring = P.ring
        coeff = ring.from_int(sign)
        while True:
            tok = self.peek()
            if letters is not None and tok.kind == "ident" \
                    and tok.value not in KEYWORDS and P.has_name(tok.value):
                letters.append(self.next())
            else:
                c = self.try_coeff_atom(P)
                if c is None:
                    self.err("expected a coefficient" if letters is None
                             else "expected a term")
                coeff = ring.mul(coeff, c)
            if not self.accept("*"):
                return coeff

    def parse_term(self, P, sign):
        letters = []
        coeff = self.parse_factors(P, sign, letters)
        if not letters:
            return P.scale(coeff, P.one())
        words = [P.idem(t.value).index if t.value in P._idem_by_label
                 else (P.gen(t.value).index,) for t in letters]
        word = words[0]
        for tok, w in zip(letters[1:], words[1:]):
            word = P.concat(word, w)
            if word is None:
                self.err("non-composable word "
                         + "*".join(t.value for t in letters), tok)
        return {word: coeff} if not P.ring.is_zero(coeff) else {}

    def try_coeff_atom(self, P):
        """Parse one coefficient factor, or return None."""
        ring = P.ring
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.value)
            if not self.accept("/"):
                return ring.from_int(num)
            den = self.expect_int()
            try:
                return ring.from_fraction(Fraction(num, den))
            except ZeroDivisionError:
                self.err(f"coefficient {num}/{den} is undefined in {ring}", t)
        if t.kind == "ident" and t.value in ring.parameters:
            self.next()
            exp = self.expect_int() if self.accept("^") else 1
            return ring.monomial(tuple(exp if p == t.value else 0
                                       for p in ring.parameters))
        if self.accept("("):
            val = self.parse_coeff_expr(P)
            self.expect_sym(")")
            return val
        if t.kind == "ident" and t.value not in KEYWORDS:
            self.err(f"undeclared name {t.value!r}", t)
        return None

    # -- maps and augmentations --------------------------------------------------

    def parse_map(self):
        self.next()
        name = self.expect_ident("map name")
        self.expect_sym(":")
        src = self.lookup_presentation(self.expect_ident("source"), self.env)
        self.expect_sym("->")
        tgt = self.lookup_presentation(self.expect_ident("target"),
                                       self.target_env)
        try:
            phi = GenMap(src, tgt, name=name.value)
        except RingMismatchError as exc:
            self.err(str(exc), name)
        self.expect_sym("{")
        while not self.accept("}"):
            if self.at_ident("idem"):
                self.next()
                a = self.expect_ident("idempotent")
                self.expect_sym("->")
                b = self.expect_ident("idempotent")
                i = self.find(src.idem, a,
                              f"unknown idempotent {a.value!r}").index
                j = self.find(tgt.idem, b,
                              f"unknown idempotent {b.value!r}").index
                if i in phi.idem_values:
                    self.err(f"duplicate map entry for {a.value!r}", a)
                phi.idem_values[i] = j
            else:
                a = self.expect_ident("generator")
                g = self.find(src.gen, a,
                              f"unknown source generator {a.value!r}")
                if g.index in phi.gen_values:
                    self.err(f"duplicate map entry for {a.value!r}", a)
                self.expect_sym("->")
                phi.gen_values[g.index] = self.parse_expr(tgt)
                try:
                    phi.check_value(g.index)
                except MapError as exc:
                    self.err(str(exc), a)
            self.accept(";")
        self.bundle.maps[name.value] = phi

    def parse_aug(self):
        self.next()
        name = self.expect_ident("augmentation name").value
        self.expect_keyword("on")
        src_tok = self.expect_ident("source")
        src = self.lookup_presentation(src_tok, self.env)
        self.expect_keyword("scope")
        carried, links = {g.link for g in src.generators}, set()
        for t in self.names():
            if t.value not in carried:
                self.err(f"no generator of {src_tok.value!r} is on link "
                         f"{t.value!r}", t)
            links.add(t.value)
        eps = Augmentation(src, name=name, scope=frozenset(
            g.index for g in src.generators if g.link in links))
        self.expect_sym("{")
        while not self.accept("}"):
            a = self.expect_ident("generator")
            g = self.find(src.gen, a, f"unknown generator {a.value!r}")
            if g.index in eps.values:
                self.err(f"duplicate augmentation entry for {a.value!r}", a)
            self.expect_sym("->")
            eps.values[g.index] = self.parse_coeff_expr(src)
            try:
                eps.check_value(g.index)
            except ScopeError as exc:
                self.err(str(exc), a)
            self.accept(";")
        self.bundle.augmentations[name] = eps


def parse(text: str, env=None, target_env=None) -> CatalogBundle:
    """Parse a .cedga source; raises ParseError with line and column."""
    return _Parser(text, env, target_env).parse()


def parse_element(text: str, P: Presentation):
    """Parse one element expression against an existing presentation."""
    parser = _Parser(text)
    el = parser.parse_expr(P)
    tok = parser.peek()
    if tok.kind != "eof":
        parser.err(f"trailing input {tok.value!r}")
    return el



# ---------------------------------------------------------------------------
# canonical serializer
# ---------------------------------------------------------------------------

def serialize_presentation(P: Presentation, name: str) -> str:
    lines = [f"presentation {name} {{"]
    if P.idempotents:
        lines.append("  idempotents " + " ".join(e.label
                                                 for e in P.idempotents))
    for g in P.generators:
        bits = [f"  gen {g.name} deg {g.degree}",
                f"from {P.idempotents[g.source].label}",
                f"to {P.idempotents[g.target].label}",
                "long" if g.link is None else f"short {g.link}"]
        if g.level is not None:
            bits.append(f"level {g.level}")
        lines.append(" ".join(bits))
    for g in P.generators:
        if g.index in P.differential:
            lines.append(f"  diff {g.name} = "
                         + P.format_element(P.differential[g.index]))
    lines.append("}")
    return "\n".join(lines)


def serialize(bundle: CatalogBundle) -> str:
    """Canonical text form; stable across runs and platforms (LF only)."""
    anchors = list(bundle.presentations.values())
    anchors += [m.source for m in bundle.maps.values()]
    anchors += [a.presentation for a in bundle.augmentations.values()]
    if not anchors:
        raise ValueError("empty bundle")
    rings = {str(P.ring) for P in anchors}
    convs = {P.convention for P in anchors}
    if len(rings) > 1 or len(convs) > 1:
        raise ValueError("bundle mixes rings or conventions")
    parts = []
    some = anchors[0]
    parts.append(f"ring {some.ring}")
    parts.append(f"convention {some.convention}")
    names = {id(P): n for n, P in bundle.presentations.items()}
    for pname in bundle.presentations:
        parts.append(serialize_presentation(bundle.presentations[pname],
                                            pname))
    for mname, m in bundle.maps.items():
        src = names.get(id(m.source), "main")
        tgt = names.get(id(m.target), "main")
        lines = [f"map {mname} : {src} -> {tgt} {{"]
        for gi in sorted(m.gen_values):
            g = m.source.generators[gi]
            lines.append(f"  {g.name} -> "
                         f"{m.target.format_element(m.gen_values[gi])};")
        for ei in sorted(m.idem_values):
            lines.append(f"  idem {m.source.idempotents[ei].label} -> "
                         f"{m.target.idempotents[m.idem_values[ei]].label};")
        lines.append("}")
        parts.append("\n".join(lines))
    for aname, a in bundle.augmentations.items():
        src = names.get(id(a.presentation), "main")
        P = a.presentation
        links = sorted({P.generators[gi].link for gi in a.scope
                        if P.generators[gi].link})
        if a.scope != {g.index for g in P.generators if g.link in links}:
            raise ValueError(f"augmentation {aname}: scope is not a union "
                             f"of whole links")
        lines = [f"aug {aname} on {src} scope {' '.join(links)} {{"]
        for gi in sorted(a.values):
            if P.ring.is_zero(a.values[gi]):
                continue
            cs = P.ring.format(a.values[gi])
            if " " in cs:
                cs = f"({cs})"
            lines.append(f"  {P.generators[gi].name} -> {cs};")
        lines.append("}")
        parts.append("\n".join(lines))
    return "\n".join(parts) + "\n"


def bundle_equal(b1: CatalogBundle, b2: CatalogBundle) -> bool:
    """Structural equality of the data a round-trip must preserve."""
    if set(b1.presentations) != set(b2.presentations):
        return False
    for n in b1.presentations:
        if not b1.presentations[n].same_data(b2.presentations[n]):
            return False
    if set(b1.maps) != set(b2.maps) or \
            set(b1.augmentations) != set(b2.augmentations):
        return False
    for n in b1.maps:
        m1, m2 = b1.maps[n], b2.maps[n]
        fmt1 = {m1.source.generators[gi].name:
                m1.target.format_element(v) for gi, v in m1.gen_values.items()}
        fmt2 = {m2.source.generators[gi].name:
                m2.target.format_element(v) for gi, v in m2.gen_values.items()}
        if fmt1 != fmt2 or m1.idem_values != m2.idem_values:
            return False
    for n in b1.augmentations:
        a1, a2 = b1.augmentations[n], b2.augmentations[n]
        P1, P2 = a1.presentation, a2.presentation
        v1 = {P1.generators[g].name: P1.ring.format(c)
              for g, c in a1.values.items() if not P1.ring.is_zero(c)}
        v2 = {P2.generators[g].name: P2.ring.format(c)
              for g, c in a2.values.items() if not P2.ring.is_zero(c)}
        s1 = {P1.generators[g].name for g in a1.scope}
        s2 = {P2.generators[g].name for g in a2.scope}
        if v1 != v2 or s1 != s2:
            return False
    return True
