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

Tokens are ASCII names (`[A-Za-z_][A-Za-z_0-9]*`) and integers (`[0-9]+`)
and the symbols `-> { } ( ) : ; = ^ * / + , -`, between whitespace and
comments.  Parentheses nest at most MAX_NESTING deep.  Bad input raises
ParseError at line:col, from 1, in characters (a tab is one column).
The reader works on the token strings alone; a token's position is
computed, by scanning the text again, only when an error is raised.
`ring` and `convention` come at most once each, before any presentation,
map or augmentation.  Names must be declared before use, may not equal a
ring parameter, and keywords (ring, gen, diff, ...) are reserved.  An
augmentation scope names only links that some generator of its source is
on; an empty scope is legal.  The serializer emits a canonical,
byte-stable form that parses back to an equal bundle.
"""
from __future__ import annotations

import functools
import itertools
import re
import string
from collections import ChainMap
from fractions import Fraction

from .algebra import (POTENTIAL_MINUS, POTENTIAL_PLUS, Presentation,
                      PresentationError)
from .catalog import CatalogBundle
from .coefficients import (KEYWORDS, NAME, RingMismatchError, bad_name, gf2,
                           laurent, rationals)
from .morphisms import Augmentation, GenMap, MapError, ScopeError


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message

    @classmethod
    def at(cls, message, text, offset):
        """The error at character `offset` of `text`, at line:col from 1."""
        return cls(message, text.count("\n", 0, offset) + 1,
                   offset - text.rfind("\n", 0, offset))


MAX_NESTING = 100

# one token per match, in the group: `->`, an integer, a name, or any other
# character but whitespace (a symbol, or one that `_tokenize` refuses); a
# comment matches with the group empty, and whitespace never matches
_TOKEN = re.compile(r"\#[^\n]*|(->|[0-9]+|" + NAME + r"|[^ \t\r\n])")
# the characters that are tokens on their own
_CHARS = frozenset("{}():;=^*/+,-_" + string.ascii_letters + string.digits)


def _tokenize(text):
    """The token strings of `text`, then "" for the end of input."""
    toks = _TOKEN.findall(text)
    distinct = set(toks)
    if "" in distinct:
        toks = list(filter(None, toks))
    bad = {t for t in distinct if len(t) == 1} - _CHARS
    if bad:
        k = next(k for k, t in enumerate(toks) if t in bad)
        raise ParseError.at(f"unexpected character {toks[k]!r}", text,
                            _offset(text, k))
    toks.append("")
    return toks


def _offset(text, k):
    """The character offset of token k of `text`, or its length for the end
    of input.  It rescans the text, so only an error should ask for it."""
    starts = (m.start() for m in _TOKEN.finditer(text) if m.lastindex)
    return next(itertools.islice(starts, k, None), len(text))


class _Parser:
    def __init__(self, text, env=None, target_env=None):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = self.depth = 0
        self.env = dict(env or {})
        self.target_env = dict(target_env if target_env is not None
                               else self.env)
        self.ring = self.convention = None
        self.bundle = CatalogBundle("parsed")

    # -- token plumbing ------------------------------------------------------

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, msg, at=None):
        """Raise `msg` at token index `at`, by default the next token."""
        raise ParseError.at(msg, self.text, _offset(
            self.text, self.pos if at is None else at))

    def accept(self, *texts):
        """Consume and return the next token if it is one of `texts`;
        else None."""
        return self.next() if self.toks[self.pos] in texts else None

    def expect(self, text):
        if not self.accept(text):
            self.err(f"expected {text!r}, found {self.peek()!r}")

    def expect_ident(self, what="name"):
        if not self.peek().isidentifier():
            self.err(f"expected {what}, found {self.peek()!r}")
        return self.next()

    def expect_name(self, what):
        """A new presentation, map or augmentation name: an identifier
        that is not a keyword, which serialize could not write back."""
        at = self.pos
        name = self.expect_ident(what)
        if why := bad_name(name):
            self.err(f"{what} {why}", at)
        return name

    def expect_int(self):
        sign = -1 if self.accept("-") else 1
        t = self.next()
        if not t.isdigit():
            self.err(f"expected integer, found {t!r}", self.pos - 1)
        return sign * int(t)

    def names(self):
        """The indices of the name tokens up to the next keyword or
        symbol."""
        start = self.pos
        while self.peek().isidentifier() and self.peek() not in KEYWORDS:
            self.pos += 1
        return range(start, self.pos)

    def find(self, lookup, at, what):
        """lookup(the name at token index `at`); a KeyError is reported
        there as `what` and the name."""
        try:
            return lookup(self.toks[at])
        except KeyError:
            self.err(f"{what} {self.toks[at]!r}", at)

    # -- file structure ------------------------------------------------------

    def parse(self):
        statements = {"ring": self.parse_ring,
                      "convention": self.parse_convention,
                      "presentation": self.parse_presentation_block,
                      "map": self.parse_map, "aug": self.parse_aug}
        while t := self.peek():
            if not t.isidentifier():
                self.err(f"expected a statement, found {t!r}")
            if t in ("idempotents", "gen", "diff"):
                self.parse_pstmt(self.presentation("main"))
            elif t in statements:
                statements[t]()
            else:
                self.err(f"unknown statement {t!r}")
        return self.bundle

    def presentation(self, name):
        if name not in self.bundle.presentations:
            if self.ring is None:
                self.err("ring must be declared first")
            self.bundle.presentations[name] = Presentation(
                self.ring, self.convention or POTENTIAL_PLUS)
        return self.bundle.presentations[name]

    def lookup_presentation(self, what, env):
        at = self.pos
        self.expect_ident(what)
        return self.find(ChainMap(self.bundle.presentations, env).__getitem__,
                         at, "unknown presentation")

    def header(self, current):
        """Consume a `ring` or `convention` keyword: each comes once, and
        before anything that would be built over it."""
        at = self.pos
        t = self.next()
        if current is not None:
            self.err(f"duplicate {t} statement", at)
        if self.bundle.presentations or self.bundle.maps \
                or self.bundle.augmentations:
            self.err(f"{t} must come before any presentation, map "
                     f"or augmentation", at)

    def parse_ring(self):
        self.header(self.ring)
        at = self.pos
        kind = self.expect_ident("ring kind")
        make = {"Q": rationals, "GF2": gf2, "laurent": laurent}.get(kind)
        if make is None:
            self.err(f"unknown ring {kind!r}", at)
        params = []
        if make is laurent:
            self.expect("(")
            params.append(self.expect_ident("parameter"))
            while self.accept(","):
                params.append(self.expect_ident("parameter"))
            self.expect(")")
        try:
            self.ring = make(*params)
        except ValueError as exc:
            self.err(str(exc), at)

    def parse_convention(self):
        self.header(self.convention)
        at = self.pos
        t = self.expect_ident("convention")
        if t not in (POTENTIAL_PLUS, POTENTIAL_MINUS):
            self.err(f"unknown convention {t!r}", at)
        self.convention = t

    def parse_presentation_block(self):
        self.next()
        P = self.presentation(self.expect_name("presentation name"))
        self.expect("{")
        while not self.accept("}"):
            self.parse_pstmt(P)

    def parse_pstmt(self, P):
        t = self.next()
        if t == "idempotents":
            for k in self.names():
                try:
                    P.add_idempotent(self.toks[k])
                except PresentationError as exc:
                    self.err(str(exc), k)
        elif t == "gen":
            at = self.pos
            name = self.expect_ident("generator name")
            self.expect("deg")
            degree = self.expect_int()
            self.expect("from")
            src = self.pos
            self.expect_ident("idempotent")
            self.expect("to")
            tgt = self.pos
            self.expect_ident("idempotent")
            link = level = None
            if not self.accept("long") and self.accept("short"):
                link = self.expect_ident("link id")
            if self.accept("level"):
                level = self.expect_int()
            ends = [self.find(P.idem, e, "undeclared idempotent")
                    for e in (src, tgt)]
            try:
                P.add_generator(name, degree, *ends, link, level)
            except PresentationError as exc:
                self.err(str(exc), at)
        elif t == "diff":
            at = self.pos
            name = self.expect_ident("generator name")
            g = self.find(P.gen, at, "undeclared generator")
            if g.index in P.differential:
                self.err(f"duplicate diff for {name!r}", at)
            self.expect("=")
            P.set_differential(g, self.parse_expr(P))
        else:
            self.err(f"unexpected statement {t!r} in presentation",
                     self.pos - 1)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, P):
        """An element: the (word, coefficient) pairs of every term, summed
        in one add_into.  One loop reads the terms and their `*`-joined
        factors.  A factor is a generator or idempotent name, looked up in
        P's name tables, or a coefficient atom; a term with no name letter
        is its coefficient times the unit.  A term's letters must compose
        (each one's source is the next one's target); a term that does not
        is reported once all its factors are read, at its first letter
        that fails, so a later error in the same term comes first."""
        toks, ring = self.toks, P.ring
        gens, idems = P._gen_by_name, P._idem_by_label
        mul = ring.mul
        terms = []
        pos = self.pos
        t = toks[pos]
        sign = -1 if t == "-" else 1
        if t == "+" or t == "-":
            pos += 1
        while True:
            start = pos
            coeff = ring.from_int(sign)
            word = bad = src = None
            while True:
                t = toks[pos]
                if (g := gens.get(t)) is not None:
                    w, s, e = (g.index,), g.source, g.target
                elif (i := idems.get(t)) is not None:
                    w = s = e = i.index
                else:
                    w = None
                    self.pos = pos
                    c = self.try_coeff_atom(P)
                    if c is None:
                        self.err("expected a term")
                    coeff = mul(coeff, c)
                    pos = self.pos
                if w is not None:
                    # letter w, from s to e, acts before the word so far
                    if word is None:
                        word = w
                    elif e != src:
                        if bad is None:
                            bad = pos
                    elif type(w) is tuple:
                        word = w if type(word) is int else word + w
                    src = s
                    pos += 1
                if toks[pos] != "*":
                    break
                pos += 1
            if bad is not None:
                self.pos = pos
                self.err("non-composable word " + "*".join(
                    t for t in toks[start:pos] if t in gens or t in idems),
                    bad)
            if word is None:
                terms += P.scale(coeff, P.one()).items()
            else:
                terms.append((word, coeff))
            t = toks[pos]
            if t != "+" and t != "-":
                self.pos = pos
                return ring.add_into({}, terms)
            sign = -1 if t == "-" else 1
            pos += 1

    def parse_coeff_expr(self, P):
        """An optional sign, then `+`/`-`-separated products of `*`-joined
        coefficient atoms: their sum.  One loop reads the atoms; each sign
        starts a summand, which each atom multiplies."""
        ring = P.ring
        summands = []
        sep = self.accept("+", "-") or "+"
        while True:
            if sep != "*":
                summands.append(ring.from_int(-1 if sep == "-" else 1))
            c = self.try_coeff_atom(P)
            if c is None:
                self.err("expected a coefficient")
            summands[-1] = ring.mul(summands[-1], c)
            sep = self.accept("*", "+", "-")
            if sep is None:
                return functools.reduce(ring.add, summands, ring.zero())

    def try_coeff_atom(self, P):
        """Parse one coefficient factor, or return None."""
        ring = P.ring
        at = self.pos
        t = self.peek()
        if t.isdigit():
            self.next()
            num = int(t)
            if not self.accept("/"):
                return ring.from_int(num)
            den = self.expect_int()
            try:
                return ring.from_fraction(Fraction(num, den))
            except ZeroDivisionError:
                self.err(f"coefficient {num}/{den} is undefined in {ring}",
                         at)
        if t in ring.parameters:
            self.next()
            exp = self.expect_int() if self.accept("^") else 1
            return ring.monomial(tuple(exp if p == t else 0
                                       for p in ring.parameters))
        if self.accept("("):
            if self.depth == MAX_NESTING:
                self.err(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            val = self.parse_coeff_expr(P)
            self.expect(")")
            self.depth -= 1
            return val
        if t.isidentifier() and t not in KEYWORDS:
            self.err(f"undeclared name {t!r}", at)
        return None

    # -- maps and augmentations --------------------------------------------------

    def parse_map(self):
        self.next()
        at = self.pos
        name = self.expect_name("map name")
        self.expect(":")
        src = self.lookup_presentation("source", self.env)
        self.expect("->")
        tgt = self.lookup_presentation("target", self.target_env)
        try:
            phi = GenMap(src, tgt, name=name)
        except RingMismatchError as exc:
            self.err(str(exc), at)
        self.expect("{")
        while not self.accept("}"):
            if self.accept("idem"):
                a = self.pos
                self.expect_ident("idempotent")
                self.expect("->")
                b = self.pos
                self.expect_ident("idempotent")
                i = self.find(src.idem, a, "unknown idempotent").index
                j = self.find(tgt.idem, b, "unknown idempotent").index
                if i in phi.idem_values:
                    self.err(f"duplicate map entry for {self.toks[a]!r}", a)
                phi.idem_values[i] = j
            else:
                self.parse_entry(phi, src, phi.gen_values, "map",
                                 "source generator", self.parse_expr, tgt)
            self.accept(";")
        self.bundle.maps[name] = phi

    def parse_aug(self):
        self.next()
        name = self.expect_name("augmentation name")
        self.expect("on")
        src_name = self.peek()
        src = self.lookup_presentation("source", self.env)
        self.expect("scope")
        carried, links = {g.link for g in src.generators}, set()
        for k in self.names():
            if self.toks[k] not in carried:
                self.err(f"no generator of {src_name!r} is on link "
                         f"{self.toks[k]!r}", k)
            links.add(self.toks[k])
        eps = Augmentation(src, name=name, scope=frozenset(
            g.index for g in src.generators if g.link in links))
        self.expect("{")
        while not self.accept("}"):
            self.parse_entry(eps, src, eps.values, "augmentation",
                             "generator", self.parse_coeff_expr, src)
            self.accept(";")
        self.bundle.augmentations[name] = eps

    def parse_entry(self, block, src, values, kind, gen, read, P):
        """One `g -> VALUE` entry of a map or augmentation `block`: g is a
        `gen` of src with no entry yet in `values`, and read(P) reads its
        value over P.  A refusal, block.check_value's included, is at g."""
        a = self.pos
        self.expect_ident("generator")
        g = self.find(src.gen, a, f"unknown {gen}")
        if g.index in values:
            self.err(f"duplicate {kind} entry for {self.toks[a]!r}", a)
        self.expect("->")
        values[g.index] = read(P)
        try:
            block.check_value(g.index)
        except (MapError, ScopeError) as exc:
            self.err(str(exc), a)


def parse(text: str, env=None, target_env=None) -> CatalogBundle:
    """Parse a .cedga source; raises ParseError with line and column."""
    return _Parser(text, env, target_env).parse()


def parse_element(text: str, P: Presentation):
    """Parse one element expression against an existing presentation."""
    parser = _Parser(text)
    el = parser.parse_expr(P)
    if parser.peek():
        parser.err(f"trailing input {parser.peek()!r}")
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
    """Canonical text form; stable across runs and platforms (LF only).
    Raises ValueError, before any text is made, on a presentation, map or
    augmentation name that breaks the name rule.  Also raises it on a map
    or augmentation that uses a presentation the bundle does not hold,
    unless the bundle holds none (then each is written as `main`)."""
    for name in (*bundle.presentations, *bundle.maps, *bundle.augmentations):
        if why := bad_name(name):
            raise ValueError(f"cannot serialize: {why}")
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

    def name_of(P, what):
        """The name of presentation P, which `what` uses; a bundle of
        maps and augmentations alone names every presentation `main`."""
        if not names:
            return "main"
        if id(P) not in names:
            raise ValueError(f"cannot serialize {what}: it uses a "
                             f"presentation the bundle does not hold")
        return names[id(P)]
    for pname in bundle.presentations:
        parts.append(serialize_presentation(bundle.presentations[pname],
                                            pname))
    for mname, m in bundle.maps.items():
        src, tgt = (name_of(P, f"map {mname}") for P in (m.source, m.target))
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
        P = a.presentation
        src = name_of(P, f"augmentation {aname}")
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
    """Structural equality of the data a round-trip must preserve: one key
    per bundle, holding each presentation's data, each map's source and
    target names and values, and each augmentation's presentation name,
    values and scope; values and scopes are keyed by generator name."""
    def key(b):
        names = {id(P): n for n, P in b.presentations.items()}
        maps = {n: (names.get(id(m.source)), names.get(id(m.target)),
                    {m.source.generators[g].name: m.target.format_element(v)
                     for g, v in m.gen_values.items()}, m.idem_values)
                for n, m in b.maps.items()}
        augs = {}
        for n, a in b.augmentations.items():
            P = a.presentation
            augs[n] = (names.get(id(P)),
                       {P.generators[g].name: P.ring.format(c)
                        for g, c in a.values.items() if not P.ring.is_zero(c)},
                       {P.generators[g].name for g in a.scope})
        return ({n: P.data_tuple() for n, P in b.presentations.items()},
                maps, augs)
    return key(b1) == key(b2)
