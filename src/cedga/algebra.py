"""Free graded non-commutative algebra over a ring of idempotents.

Words are either a pure idempotent (stored as the idempotent's ``int``
index, length 0) or a nonempty tuple of generator indices.  In a word
``(g1, ..., gm)`` the rightmost factor acts first: the word's source is
``source(gm)`` and its target is ``target(g1)``, and ``u * v`` composes
iff ``source(u) == target(v)``.

An element is a dict mapping words to nonzero coefficients of the
presentation's ring.  The zero element is the empty dict; the unit is the
sum of all idempotents.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Union

from .coefficients import CoeffRing, RingMismatchError, bad_name

Word = Union[int, tuple]
Element = dict

POTENTIAL_PLUS = "potential_plus"
POTENTIAL_MINUS = "potential_minus"


class PresentationError(ValueError):
    """Structurally invalid presentation data."""


class IncompletePresentationError(PresentationError):
    """A generator without a differential assignment was differentiated."""


@dataclass(frozen=True)
class Idempotent:
    index: int
    label: str

    def __str__(self):
        return self.label


@dataclass
class Generator:
    name: str
    degree: int
    source: int
    target: int
    link: Optional[str] = None
    level: Optional[int] = None
    index: int = -1

    @property
    def role(self) -> str:
        """Short when the generator lies on a link, else long."""
        return "long" if self.link is None else "short"

    def __str__(self):
        return self.name


@dataclass
class Violation:
    kind: str
    generator: Optional[str]
    detail: str

    def __str__(self):
        where = f" at {self.generator}" if self.generator else ""
        return f"{self.kind}{where}: {self.detail}"


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)

    def to_json_dict(self):
        return asdict(self)


class Presentation:
    """Generators, gradings, and a differential given per generator."""

    def __init__(self, ring: CoeffRing, convention: str = POTENTIAL_PLUS):
        if convention not in (POTENTIAL_PLUS, POTENTIAL_MINUS):
            raise PresentationError(f"unknown convention {convention!r}")
        self.ring = ring
        self.convention = convention
        self.idempotents: list[Idempotent] = []
        self.generators: list[Generator] = []
        self.differential: dict[int, Element] = {}
        self._idem_by_label: dict[str, Idempotent] = {}
        self._gen_by_name: dict[str, Generator] = {}

    # -- construction ------------------------------------------------------

    def _claim(self, name: str):
        """Refuse a name that the text form could not print (`bad_name`)
        or tell apart from an idempotent, generator or ring parameter."""
        if why := bad_name(name):
            raise PresentationError(why)
        if self.has_name(name) or name in self.ring.parameters:
            raise PresentationError(f"duplicate name {name!r}")

    def add_idempotent(self, label: str) -> Idempotent:
        self._claim(label)
        e = Idempotent(len(self.idempotents), label)
        self.idempotents.append(e)
        self._idem_by_label[label] = e
        return e

    def add_generator(self, name, degree, source, target, link=None,
                      level=None) -> Generator:
        self._claim(name)
        if link is not None and (why := bad_name(link)):
            raise PresentationError(f"link {why}")
        src = source if isinstance(source, int) else self.idem(source).index
        tgt = target if isinstance(target, int) else self.idem(target).index
        n = len(self.idempotents)
        if not (0 <= src < n and 0 <= tgt < n):
            raise PresentationError(f"generator {name!r} has undeclared ends")
        g = Generator(name, int(degree), src, tgt, link, level,
                      index=len(self.generators))
        self.generators.append(g)
        self._gen_by_name[name] = g
        return g

    def set_differential(self, gen, value: Element):
        g = self.gen(gen)
        self.differential[g.index] = dict(value)

    def idem(self, key) -> Idempotent:
        if isinstance(key, Idempotent):
            return key
        if isinstance(key, int):
            return self.idempotents[key]
        return self._idem_by_label[key]

    def gen(self, key) -> Generator:
        if isinstance(key, Generator):
            return key
        if isinstance(key, int):
            return self.generators[key]
        return self._gen_by_name[key]

    def has_name(self, name: str) -> bool:
        return name in self._gen_by_name or name in self._idem_by_label

    # -- words --------------------------------------------------------------

    def word_source(self, w: Word) -> int:
        return w if isinstance(w, int) else self.generators[w[-1]].source

    def word_target(self, w: Word) -> int:
        return w if isinstance(w, int) else self.generators[w[0]].target

    def word_length(self, w: Word) -> int:
        return 0 if isinstance(w, int) else len(w)

    def word_degree(self, w: Word) -> int:
        if isinstance(w, int):
            return 0
        return sum(self.generators[i].degree for i in w)

    def composable(self, w: tuple) -> bool:
        """Whether each letter of a tuple word acts after its right-hand
        neighbour: source(a) == target(b) for every adjacent pair a, b."""
        gens = self.generators
        return all(gens[a].source == gens[b].target for a, b in zip(w, w[1:]))

    def concat(self, u: Word, v: Word) -> Optional[Word]:
        """u * v (v acts first); None encodes the zero product."""
        if self.word_source(u) != self.word_target(v):
            return None
        if isinstance(u, int):
            return v
        if isinstance(v, int):
            return u
        return u + v

    def sort_key(self, w: Word):
        """Total order: length, then lexicographic by declaration index."""
        if isinstance(w, int):
            return (0, (w,))
        return (len(w), w)

    def format_word(self, w: Word) -> str:
        if isinstance(w, int):
            return self.idempotents[w].label
        return "*".join(self.generators[i].name for i in w)

    # -- elements -----------------------------------------------------------

    def zero(self) -> Element:
        return {}

    def one(self) -> Element:
        one = self.ring.one()
        return {e.index: one for e in self.idempotents}

    def el_idem(self, key) -> Element:
        return {self.idem(key).index: self.ring.one()}

    def el_gen(self, key, coeff=None) -> Element:
        c = self.ring.one() if coeff is None else coeff
        return {} if self.ring.is_zero(c) else {(self.gen(key).index,): c}

    def el_word(self, letters: Iterable, coeff=None) -> Element:
        w = tuple(self.gen(x).index for x in letters)
        if not self.composable(w):
            raise PresentationError(
                f"non-composable word {self.format_word(w)}")
        c = self.ring.one() if coeff is None else coeff
        return {} if self.ring.is_zero(c) else {w: c}

    def add(self, x: Element, y: Element) -> Element:
        return self.ring.add_into(dict(x), y.items())

    def neg(self, x: Element) -> Element:
        return {w: self.ring.neg(c) for w, c in x.items()}

    def sub(self, x: Element, y: Element) -> Element:
        return self.ring.add_into(dict(x), y.items(), self.ring.from_int(-1))

    def scale(self, c, x: Element) -> Element:
        return self.ring.add_into({}, x.items(), c)

    def mul(self, x: Element, y: Element) -> Element:
        """Bilinear extension of word concatenation."""
        out: Element = {}
        for wx, cx in x.items():
            self.ring.add_into(
                out, [(w, cy) for wy, cy in y.items()
                      if (w := self.concat(wx, wy)) is not None], cx)
        return out

    def equal(self, x: Element, y: Element) -> bool:
        return self.sub(x, y) == {}

    def is_homogeneous(self, x: Element) -> Optional[int]:
        """The common degree of a nonzero homogeneous element, else None."""
        degs = {self.word_degree(w) for w in x}
        if len(degs) == 1:
            return degs.pop()
        return None

    def format_element(self, x: Element) -> str:
        if not x:
            return "0"
        parts = []
        for w in sorted(x, key=self.sort_key):
            neg, factor = self.ring.sign_and_factor(x[w])
            word = self.format_word(w)
            parts.append(("- " if neg else "+ " if parts else "")
                         + (f"{factor}*{word}" if factor else word))
        return " ".join(parts)

    # -- differential ---------------------------------------------------------

    def d_gen(self, key) -> Element:
        g = self.gen(key)
        if g.index not in self.differential:
            raise IncompletePresentationError(
                f"generator {g.name!r} has no differential assignment")
        return self.differential[g.index]

    def d_word(self, w: Word) -> Element:
        if isinstance(w, int):
            return {}
        diff, gens = self.differential, self.generators
        add_into, minus = self.ring.add_into, self.ring.from_int(-1)
        out: Element = {}
        sign_exp = 0
        for t, i in enumerate(w):
            dg = diff.get(i)
            if dg is None:
                self.d_gen(i)  # raises IncompletePresentationError
            if dg:
                prefix, suffix = w[:t], w[t + 1:]
                add_into(out, [(splice(prefix, dw, suffix), dc)
                               for dw, dc in dg.items()],
                         minus if sign_exp % 2 else None)
            sign_exp += gens[i].degree
        return out

    def apply_differential(self, x: Element) -> Element:
        """Linear, graded-Leibniz extension of the generator assignments."""
        out: Element = {}
        add_into, d_word = self.ring.add_into, self.d_word
        for w, c in x.items():
            add_into(out, d_word(w).items(), c)
        return out

    # -- validation -------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Name uniqueness, composability and degree homogeneity of every diff."""
        violations = []
        for g in self.generators:
            dg = self.differential.get(g.index)
            if dg is None:
                violations.append(Violation(
                    "missing-differential", g.name, "no diff statement"))
                continue
            for w in dg:
                if (self.word_source(w) != g.source
                        or self.word_target(w) != g.target):
                    violations.append(Violation(
                        "composability", g.name,
                        f"word {self.format_word(w)} has ends "
                        f"({self.idempotents[self.word_source(w)].label}, "
                        f"{self.idempotents[self.word_target(w)].label})"))
                if not isinstance(w, int):
                    for a, b in zip(w, w[1:]):
                        if self.generators[a].source != self.generators[b].target:
                            violations.append(Violation(
                                "composability", g.name,
                                f"word {self.format_word(w)} breaks between "
                                f"{self.generators[a].name} and "
                                f"{self.generators[b].name}"))
                if self.word_degree(w) != g.degree + 1:
                    violations.append(Violation(
                        "degree", g.name,
                        f"word {self.format_word(w)} has degree "
                        f"{self.word_degree(w)}, expected {g.degree + 1}"))
        return ValidationReport(ok=not violations, violations=violations)

    # -- structural equality (used by the DSL round-trip) -----------------------

    def data_tuple(self):
        return (
            str(self.ring),
            self.convention,
            tuple(e.label for e in self.idempotents),
            tuple((g.name, g.degree, g.source, g.target, g.link, g.level)
                  for g in self.generators),
            tuple(sorted(
                (i, tuple(sorted(
                    ((w, self.ring.format(c)) for w, c in el.items()),
                    key=lambda t: self.sort_key(t[0]))))
                for i, el in self.differential.items())),
        )

    def same_data(self, other: "Presentation") -> bool:
        return self.data_tuple() == other.data_tuple()

    def __str__(self):
        return (f"Presentation({self.ring}, {len(self.idempotents)} idempotents, "
                f"{len(self.generators)} generators)")


def require_valid(*presentations: Presentation):
    """Raise PresentationError unless every presentation validates."""
    for P in presentations:
        rep = P.validate()
        if not rep.ok:
            raise PresentationError(
                "presentation fails validation: "
                + "; ".join(str(v) for v in rep.violations[:3]))


def splice(prefix: tuple, w: Word, suffix: tuple) -> Word:
    """prefix * w * suffix for a word w between two tuple words; an
    idempotent w is absorbed unless both sides are empty."""
    if isinstance(w, int):
        return prefix + suffix or w
    return prefix + w + suffix


def check_ring(P: Presentation, Q: Presentation):
    if P.ring != Q.ring:
        raise RingMismatchError(f"{P.ring} vs {Q.ring}")
