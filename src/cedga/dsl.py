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

Names must be declared before use; keywords (ring, gen, diff, ...) are
reserved.  The serializer emits a canonical, byte-stable form that parses
back to an equal bundle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (POTENTIAL_MINUS, POTENTIAL_PLUS, Presentation,
                      PresentationError)
from .catalog import CatalogBundle
from .coefficients import RingMismatchError, gf2, laurent, rationals
from .morphisms import Augmentation, GenMap, MapError, ScopeError

KEYWORDS = {"ring", "convention", "idempotents", "gen", "diff",
            "presentation", "map", "aug", "deg", "from", "to", "long",
            "short", "level", "on", "scope", "idem"}


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class _Tok:
    kind: str  # ident | int | sym
    value: str
    line: int
    col: int


_SYMBOLS = ("->", "{", "}", "(", ")", ":", ";", "=", "^", "*", "/", "+",
            "-", ",")


def _tokenize(text):
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(_Tok("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "{}():;=^*/+-,":
            toks.append(_Tok("sym", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text, env=None, target_env=None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.env = dict(env or {})
        self.target_env = dict(target_env if target_env is not None
                               else self.env)
        self.ring = None
        self.convention = POTENTIAL_PLUS
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

    def expect_sym(self, s):
        t = self.next()
        if t.kind != "sym" or t.value != s:
            self.err(f"expected {s!r}, found {t.value!r}", t)
        return t

    def expect_ident(self, what="name"):
        t = self.next()
        if t.kind != "ident":
            self.err(f"expected {what}, found {t.value!r}", t)
        return t

    def expect_keyword(self, kw):
        t = self.next()
        if t.kind != "ident" or t.value != kw:
            self.err(f"expected {kw!r}, found {t.value!r}", t)
        return t

    def expect_int(self):
        t = self.next()
        sign = 1
        if t.kind == "sym" and t.value == "-":
            sign = -1
            t = self.next()
        if t.kind != "int":
            self.err(f"expected integer, found {t.value!r}", t)
        return sign * int(t.value)

    def at_ident(self, value=None):
        t = self.peek()
        return t.kind == "ident" and (value is None or t.value == value)

    # -- file structure ------------------------------------------------------

    def parse(self):
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind != "ident":
                self.err(f"expected a statement, found {t.value!r}")
            if t.value == "ring":
                self.parse_ring()
            elif t.value == "convention":
                self.parse_convention()
            elif t.value == "presentation":
                self.parse_presentation_block()
            elif t.value == "map":
                self.parse_map()
            elif t.value == "aug":
                self.parse_aug()
            elif t.value in ("idempotents", "gen", "diff"):
                self.parse_pstmt(self.presentation("main"))
            else:
                self.err(f"unknown statement {t.value!r}")
        return self.bundle

    def need_ring(self, tok):
        if self.ring is None:
            raise ParseError("ring must be declared first", tok.line, tok.col)
        return self.ring

    def presentation(self, name):
        if name not in self.bundle.presentations:
            self.need_ring(self.peek())
            self.bundle.presentations[name] = Presentation(
                self.ring, self.convention)
        return self.bundle.presentations[name]

    def lookup_presentation(self, tok, role="source"):
        name = tok.value
        if name in self.bundle.presentations:
            return self.bundle.presentations[name]
        ext = self.env if role == "source" else self.target_env
        if name in ext:
            return ext[name]
        raise ParseError(f"unknown presentation {name!r}", tok.line, tok.col)

    def parse_ring(self):
        t = self.next()
        kind = self.expect_ident("ring kind")
        if kind.value == "Q":
            self.ring = rationals()
        elif kind.value == "GF2":
            self.ring = gf2()
        elif kind.value == "laurent":
            self.expect_sym("(")
            params = [self.expect_ident("parameter").value]
            while self.peek().value == ",":
                self.next()
                params.append(self.expect_ident("parameter").value)
            self.expect_sym(")")
            self.ring = laurent(*params)
        else:
            self.err(f"unknown ring {kind.value!r}", kind)

    def parse_convention(self):
        self.next()
        t = self.expect_ident("convention")
        if t.value not in (POTENTIAL_PLUS, POTENTIAL_MINUS):
            self.err(f"unknown convention {t.value!r}", t)
        self.convention = t.value

    def parse_presentation_block(self):
        self.next()
        name = self.expect_ident("presentation name").value
        P = self.presentation(name)
        self.expect_sym("{")
        while not (self.peek().kind == "sym" and self.peek().value == "}"):
            self.parse_pstmt(P)
        self.expect_sym("}")

    def parse_pstmt(self, P):
        t = self.next()
        if t.value == "idempotents":
            while self.at_ident() and self.peek().value not in KEYWORDS:
                tok = self.next()
                try:
                    P.add_idempotent(tok.value)
                except PresentationError as exc:
                    self.err(str(exc), tok)
        elif t.value == "gen":
            name = self.expect_ident("generator name")
            if name.value in KEYWORDS:
                self.err(f"{name.value!r} is a reserved word", name)
            self.expect_keyword("deg")
            degree = self.expect_int()
            self.expect_keyword("from")
            src = self.expect_ident("idempotent")
            self.expect_keyword("to")
            tgt = self.expect_ident("idempotent")
            role, link, level = "long", None, None
            if self.at_ident("long"):
                self.next()
            elif self.at_ident("short"):
                self.next()
                link = self.expect_ident("link id").value
                role = "short"
            if self.at_ident("level"):
                self.next()
                level = self.expect_int()
            ends = []
            for e in (src, tgt):
                try:
                    ends.append(P.idem(e.value))
                except KeyError:
                    self.err(f"undeclared idempotent {e.value!r}", e)
            try:
                P.add_generator(name.value, degree, *ends, role, link, level)
            except PresentationError as exc:
                self.err(str(exc), name)
        elif t.value == "diff":
            name = self.expect_ident("generator name")
            try:
                g = P.gen(name.value)
            except KeyError:
                self.err(f"undeclared generator {name.value!r}", name)
            if g.index in P.differential:
                self.err(f"duplicate diff for {name.value!r}", name)
            self.expect_sym("=")
            P.set_differential(g, self.parse_expr(P))
        else:
            self.err(f"unexpected statement {t.value!r} in presentation", t)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, P):
        el = P.zero()
        sign = 1
        if self.peek().value in ("+", "-"):
            sign = -1 if self.next().value == "-" else 1
        while True:
            P.ring.add_into(el, self.parse_term(P, sign).items())
            t = self.peek()
            if t.kind == "sym" and t.value in ("+", "-"):
                self.next()
                sign = -1 if t.value == "-" else 1
                continue
            return el

    def parse_term(self, P, sign):
        ring = P.ring
        coeff = ring.from_int(sign)
        letters = []
        consumed = False
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.value not in KEYWORDS \
                    and P.has_name(tok.value):
                self.next()
                letters.append((tok, tok.value))
            else:
                c = self.try_coeff_atom(P)
                if c is None:
                    if not consumed:
                        self.err("expected a term")
                    break
                coeff = ring.mul(coeff, c)
            consumed = True
            if self.peek().kind == "sym" and self.peek().value == "*":
                self.next()
                continue
            break
        if not letters:
            return P.scale(coeff, P.one())
        word = None
        for tok, name in letters:
            piece = tok  # position for errors
            if name in P._idem_by_label:
                w = P.idem(name).index
            else:
                w = (P.gen(name).index,)
            if word is None:
                word = w
            else:
                nw = P.concat(word, w)
                if nw is None:
                    self.err("non-composable word "
                             + "*".join(n for _, n in letters), piece)
                word = nw
        return {word: coeff} if not P.ring.is_zero(coeff) else {}

    def try_coeff_atom(self, P):
        """Parse one coefficient factor, or return None."""
        ring = P.ring
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.value)
            if self.peek().kind == "sym" and self.peek().value == "/":
                self.next()
                den = self.expect_int()
                try:
                    return ring.from_fraction(Fraction(num, den))
                except ZeroDivisionError:
                    self.err(f"coefficient {num}/{den} is undefined in "
                             f"{ring}", t)
            return ring.from_int(num)
        if t.kind == "ident" and t.value in ring.parameters:
            self.next()
            exp = 1
            if self.peek().kind == "sym" and self.peek().value == "^":
                self.next()
                exp = self.expect_int()
            i = ring.parameters.index(t.value)
            exps = tuple(exp if k == i else 0
                         for k in range(len(ring.parameters)))
            return ring.monomial(exps)
        if t.kind == "sym" and t.value == "(":
            self.next()
            val = self.parse_coeff_expr(P)
            self.expect_sym(")")
            return val
        if t.kind == "ident" and t.value not in KEYWORDS:
            self.err(f"undeclared name {t.value!r}", t)
        return None

    def parse_coeff_expr(self, P):
        ring = P.ring
        total = ring.zero()
        sign = 1
        if self.peek().value in ("+", "-"):
            sign = -1 if self.next().value == "-" else 1
        while True:
            c = ring.from_int(sign)
            while True:
                atom = self.try_coeff_atom(P)
                if atom is None:
                    self.err("expected a coefficient")
                c = ring.mul(c, atom)
                if self.peek().kind == "sym" and self.peek().value == "*":
                    self.next()
                    continue
                break
            total = ring.add(total, c)
            t = self.peek()
            if t.kind == "sym" and t.value in ("+", "-"):
                self.next()
                sign = -1 if t.value == "-" else 1
                continue
            return total

    # -- maps and augmentations --------------------------------------------------

    def parse_map(self):
        self.next()
        name = self.expect_ident("map name")
        self.expect_sym(":")
        src = self.lookup_presentation(self.expect_ident("source"))
        self.expect_sym("->")
        tgt = self.lookup_presentation(self.expect_ident("target"),
                                       role="target")
        try:
            phi = GenMap(src, tgt, name=name.value)
        except RingMismatchError as exc:
            self.err(str(exc), name)
        self.expect_sym("{")
        while not (self.peek().kind == "sym" and self.peek().value == "}"):
            if self.at_ident("idem"):
                self.next()
                a = self.expect_ident("idempotent")
                self.expect_sym("->")
                b = self.expect_ident("idempotent")
                try:
                    i, j = src.idem(a.value).index, tgt.idem(b.value).index
                except KeyError as exc:
                    self.err(f"unknown idempotent {exc}", a)
                if i in phi.idem_values:
                    self.err(f"duplicate map entry for {a.value!r}", a)
                phi.idem_values[i] = j
            else:
                a = self.expect_ident("generator")
                try:
                    g = src.gen(a.value)
                except KeyError:
                    self.err(f"unknown source generator {a.value!r}", a)
                if g.index in phi.gen_values:
                    self.err(f"duplicate map entry for {a.value!r}", a)
                self.expect_sym("->")
                phi.gen_values[g.index] = self.parse_expr(tgt)
                try:
                    phi.check_value(g.index)
                except MapError as exc:
                    self.err(str(exc), a)
            if self.peek().kind == "sym" and self.peek().value == ";":
                self.next()
        self.expect_sym("}")
        self.bundle.maps[name.value] = phi

    def parse_aug(self):
        self.next()
        name = self.expect_ident("augmentation name").value
        self.expect_keyword("on")
        src = self.lookup_presentation(self.expect_ident("source"))
        self.expect_keyword("scope")
        links = []
        while self.at_ident() and self.peek().value not in KEYWORDS:
            links.append(self.next().value)
        eps = Augmentation(src, name=name, scope=frozenset(
            g.index for g in src.generators if g.link in links))
        self.expect_sym("{")
        while not (self.peek().kind == "sym" and self.peek().value == "}"):
            a = self.expect_ident("generator")
            try:
                g = src.gen(a.value)
            except KeyError:
                self.err(f"unknown generator {a.value!r}", a)
            if g.index in eps.values:
                self.err(f"duplicate augmentation entry for {a.value!r}", a)
            self.expect_sym("->")
            eps.values[g.index] = self.parse_coeff_expr(src)
            try:
                eps.check_value(g.index)
            except ScopeError as exc:
                self.err(str(exc), a)
            if self.peek().kind == "sym" and self.peek().value == ";":
                self.next()
        self.expect_sym("}")
        self.bundle.augmentations[name] = eps


def parse(text: str, env=None, target_env=None) -> CatalogBundle:
    """Parse a .cedga source; raises ParseError with line and column."""
    return _Parser(text, env, target_env).parse()


def parse_element(text: str, P: Presentation):
    """Parse one element expression against an existing presentation."""
    parser = _Parser(text)
    parser.ring = P.ring
    el = parser.parse_expr(P)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.value!r}", tok.line, tok.col)
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
                f"to {P.idempotents[g.target].label}"]
        if g.role == "short":
            bits.append(f"short {g.link}")
        else:
            bits.append("long")
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
