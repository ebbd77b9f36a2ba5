"""Verification and computation on presentations.

d^2 and grading checks, the word-length parity-flip check, bounded
exactness and triviality searches (exact linear algebra over Q or GF(2)),
and degree-0 homology by noncommutative rewriting with a
length-then-declaration-order monomial order.

Bounded searches certify finite shadows only: NoneWithinBounds always
carries the bounds it was run at and is never an unbounded claim.
"""
from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .algebra import (Element, Presentation, PresentationError, require_valid,
                      splice)
from .coefficients import gf2


class NonHomogeneousTargetError(ValueError):
    """Exactness targets must be homogeneous of a single degree."""


class UnsupportedPresentationError(PresentationError):
    """h0 needs degree-(-1) differentials supported on degree-0 letters."""


@dataclass(frozen=True)
class Bounds:
    max_word_length: int = 6
    max_level: int = 2
    degree_bound: int = 8

    def __post_init__(self):
        if self.max_word_length < 0 or self.max_level < 0 or self.degree_bound < 0:
            raise ValueError("bounds must be nonnegative")

    def to_json_dict(self):
        return {"max_word_length": self.max_word_length,
                "max_level": self.max_level,
                "degree_bound": self.degree_bound}


# ---------------------------------------------------------------------------
# d^2, grading, parity
# ---------------------------------------------------------------------------

@dataclass
class DSquaredReport:
    ok: bool
    counterexamples: list = field(default_factory=list)  # (gen name, residual str)

    def to_json_dict(self):
        return {"ok": self.ok,
                "counterexamples": [{"generator": g, "residual": r}
                                    for g, r in self.counterexamples]}


def check_d_squared(P: Presentation) -> DSquaredReport:
    """d(d g) for every generator; Pass iff all vanish."""
    require_valid(P)
    bad = []
    for g in P.generators:
        residual = P.apply_differential(P.differential[g.index])
        if residual:
            bad.append((g.name, P.format_element(residual)))
    return DSquaredReport(ok=not bad, counterexamples=bad)


@dataclass
class DegreeReport:
    ok: bool
    violations: list = field(default_factory=list)

    def to_json_dict(self):
        return {"ok": self.ok, "violations": self.violations}

    @classmethod
    def from_validation(cls, report) -> DegreeReport:
        """The `degree` violations of a ValidationReport, as strings."""
        bad = [f"{v.generator}: {v.detail}" for v in report.violations
               if v.kind == "degree"]
        return cls(ok=not bad, violations=bad)


def check_degree(P: Presentation) -> DegreeReport:
    """Every monomial of every d(g) raises degree by exactly one."""
    return DegreeReport.from_validation(P.validate())


@dataclass
class ParityReport:
    ok: bool
    witness: Optional[tuple] = None  # (gen name, word str)

    def to_json_dict(self):
        return {"ok": self.ok,
                "witness": None if self.witness is None else
                {"generator": self.witness[0], "word": self.witness[1]}}


def check_parity_flip(P: Presentation) -> ParityReport:
    """True iff every monomial of every d(g) has even word length.

    Generators have length 1, so this is the statement that the
    differential changes word length mod 2 (idempotents count as length 0).
    """
    for g in P.generators:
        for w in P.differential.get(g.index, {}):
            if P.word_length(w) % 2 == 1:
                return ParityReport(False, (g.name, P.format_word(w)))
    return ParityReport(True)


# ---------------------------------------------------------------------------
# bounded exactness search
# ---------------------------------------------------------------------------

def walk_words(letters, target, max_len, viable):
    """Composable words over `letters` of length 1..max_len with the given
    target, in pre-order, as (word, source, degree).

    Letters are appended on the acting side: each new letter's target is
    the current source.  A word for which viable(word, source, degree) is
    false is skipped together with all of its extensions.
    """
    if max_len < 1:
        return
    by_target: dict[int, list] = {}
    for g in letters:
        by_target.setdefault(g.target, []).append(g)
    # one frame per word being extended: (word, degree, its next letters)
    stack = [((), 0, iter(by_target.get(target, ())))]
    while stack:
        word, deg, after = stack[-1]
        for g in after:
            nw, nd = word + (g.index,), deg + g.degree
            if viable(nw, g.source, nd):
                yield nw, g.source, nd
                if len(nw) < max_len:
                    stack.append((nw, nd, iter(by_target.get(g.source, ()))))
                    break
        else:
            stack.pop()


def _closings(letters, source, max_len):
    """done[k][i] for k < max_len: the (degree, length parity) pairs of the
    words of length <= k that lead from idempotent i back to `source`
    (letters appended on the acting side; the empty word when i == source).
    """
    done = [{source: {(0, 0)}}]
    for _ in range(max_len - 1):
        prev, nxt = done[-1], {source: {(0, 0)}}
        for g in letters:
            nxt.setdefault(g.target, set()).update(
                (d + g.degree, 1 - p) for d, p in prev.get(g.source, ()))
        done.append(nxt)
    return done


def composable_words(P: Presentation, *, degree, ends, max_len, max_level,
                     parity=None):
    """All composable generator words with the given ends, total degree,
    length <= max_len, letter levels <= max_level, optional length parity.

    The walk visits only words that can still close: some extension within
    the remaining length reaches the required source, degree and parity.
    """
    letters = [g for g in P.generators if (g.level or 0) <= max_level]
    out = []
    for (s, t) in sorted(set(ends)):
        done = _closings(letters, s, max_len)

        def viable(word, src, deg):
            rest = done[max_len - len(word)].get(src, ())
            if parity is None:
                return (degree - deg, 0) in rest or (degree - deg, 1) in rest
            return (degree - deg, (parity - len(word)) % 2) in rest

        out += [w for w, src, deg in walk_words(letters, t, max_len, viable)
                if src == s and deg == degree
                and (parity is None or len(w) % 2 == parity)]
    return out


class LinearSolver:
    """Incremental exact column echelon over Q or GF(2).

    Columns are sparse vectors keyed by arbitrary hashable row labels;
    `solve` returns a combination of the added columns equal to the right
    hand side, or None when the system is infeasible.  Rows and their
    combinations are ints: primitive and fraction-free over Q, XOR over GF2.
    """
    _RHS = object()  # the tag under which `solve` reduces its right side

    def __init__(self, ring):
        if not ring.is_field():
            raise ValueError("linear search needs a field (Q or GF2)")
        self._xor = ring == gf2()
        self._step = _xor_step if self._xor else _integer_step
        self._row_ids: dict = {}
        self._basis: dict = {}  # lead row id -> (vec, combo)

    def _reduce(self, tag, raw):
        """Column `tag` = raw on row ids, cleared of denominators over Q and
        reduced: (vec, combo, lead or None), vec = sum(combo[t]*column[t])."""
        ids, basis, step = self._row_ids, self._basis, self._step
        vec = {ids.setdefault(k, len(ids)): c for k, c in raw.items() if c}
        combo = {tag: 1}
        if not self._xor:
            m = combo[tag] = lcm(*(c.denominator for c in vec.values()))
            vec = {r: c.numerator * (m // c.denominator)
                   for r, c in vec.items()}
        while vec:
            lead = max(vec)
            hit = basis.get(lead)
            if hit is None:
                return vec, combo, lead
            step(vec, combo, lead, *hit)
        return vec, combo, None

    def add_column(self, tag, raw_vec):
        vec, combo, lead = self._reduce(tag, raw_vec)
        if lead is not None:
            self._basis[lead] = (vec, combo)

    def solve(self, raw_rhs):
        vec, combo, lead = self._reduce(self._RHS, raw_rhs)
        if lead is not None:
            return None
        s = combo.pop(self._RHS)  # s*rhs + sum(combo[t]*column[t]) = 0
        if self._xor:
            return combo  # -1 = 1
        return {tag: Fraction(-c, s) for tag, c in combo.items()}


def _xor_step(vec, combo, lead, bvec, bcombo):
    """vec += bvec, combo += bcombo in place; a new key goes last."""
    for out, x in ((vec, bvec), (combo, bcombo)):
        for k in x:
            if not out.pop(k, 0):
                out[k] = 1


def _integer_step(vec, combo, lead, bvec, bcombo):
    """(vec, combo) := (p*(vec, combo) - q*(bvec, bcombo)) / content in
    place, with p/q = bvec[lead]/vec[lead] in lowest terms."""
    p, q = bvec[lead], vec[lead]
    g = gcd(p, q) if p > 0 else -gcd(p, q)  # p > 0, often 1
    p, q = p // g, q // g
    for out, x in ((vec, bvec), (combo, bcombo)):
        if p != 1:
            for k in out:
                out[k] *= p
        for k, c in x.items():
            c = out.get(k, 0) - q * c
            if c:
                out[k] = c
            else:
                del out[k]
    g = gcd(*vec.values(), *combo.values())
    if g > 1:
        for out in (vec, combo):
            for k in out:
                out[k] //= g


@dataclass
class ExactnessResult:
    status: str  # "witness" | "none_within_bounds"
    target: Element
    bounds: Bounds
    parity: Optional[str] = None
    witness: Optional[Element] = None
    candidates: int = 0
    note: str = ""

    @property
    def found(self):
        return self.status == "witness"

    def to_json_dict(self, P: Presentation):
        d = {"status": self.status, "parity": self.parity,
             "candidates": self.candidates, "bounds": self.bounds.to_json_dict(),
             "target": P.format_element(self.target),
             "witness": (None if self.witness is None
                         else P.format_element(self.witness))}
        if self.note:
            d["note"] = self.note
        return d


_PARITIES = ("even", "odd")  # word-length parity bit -> name


def exactness_search(P: Presentation, target: Element, bounds: Bounds,
                     parity: Optional[str] = None) -> ExactnessResult:
    """Solve d(x) = target over the span of bounded composable words.

    The target must be nonzero and homogeneous; a returned witness is
    re-checked exactly before being reported.  NoneWithinBounds is a
    bounded certificate, not a proof of unbounded non-exactness.
    """
    require_valid(P)
    if not target:
        raise NonHomogeneousTargetError("target is zero")
    deg = P.is_homogeneous(target)
    if deg is None:
        raise NonHomogeneousTargetError(
            f"target {P.format_element(target)} is not homogeneous")
    pbit = _PARITIES.index(parity) if parity is not None else None
    ends = {(P.word_source(w), P.word_target(w)) for w in target}
    cands = composable_words(P, degree=deg - 1, ends=ends,
                             max_len=bounds.max_word_length,
                             max_level=bounds.max_level, parity=pbit)
    solver = LinearSolver(P.ring)
    for w in cands:
        solver.add_column(w, P.d_word(w))
    combo = solver.solve(target)
    if combo is None:
        return ExactnessResult("none_within_bounds", target, bounds, parity,
                               candidates=len(cands))
    if not P.equal(P.apply_differential(combo), target):
        raise AssertionError("solver returned an unsound witness")
    return ExactnessResult("witness", target, bounds, parity,
                           witness=combo, candidates=len(cands))


@dataclass
class TrivialityResult:
    certified_trivial: bool
    search: ExactnessResult


def is_trivial(P: Presentation, bounds: Bounds,
               parity: Optional[str] = None) -> TrivialityResult:
    """Search for x with d(x) = 1 (the sum of all idempotents)."""
    res = exactness_search(P, P.one(), bounds, parity=parity)
    return TrivialityResult(certified_trivial=res.found, search=res)


# ---------------------------------------------------------------------------
# degree-0 homology via noncommutative rewriting
# ---------------------------------------------------------------------------

class RewriteSystem:
    """Rules lhs -> rhs with lhs strictly larger in length-then-lex order,
    in one table `rules` from left side to right side, in rule order."""

    def __init__(self, P: Presentation):
        self.P = P
        self.rules: dict[tuple, Element] = {}
        self.collapses: dict[str, list] = {}

    def _find(self, w):
        """(lhs, pos) of the first rule in rule order in w, leftmost."""
        if isinstance(w, int):
            return None
        for lhs in self.rules:
            L = len(lhs)
            for pos in range(len(w) - L + 1):
                if w[pos:pos + L] == lhs:
                    return lhs, pos
        return None

    def normal_form(self, el: Element) -> Element:
        """Rewrite every word of `el` until no rule applies; `pending`
        holds the terms still to rewrite, summed as they meet."""
        ring = self.P.ring
        irreducible = []
        pending = dict(el)
        while pending:
            w, c = pending.popitem()
            hit = self._find(w)
            if hit is None:
                irreducible.append((w, c))
                continue
            lhs, pos = hit
            prefix, suffix = w[:pos], w[pos + len(lhs):]
            ring.add_into(pending, [(splice(prefix, rw, suffix), rc)
                                    for rw, rc in self.rules[lhs].items()], c)
        return ring.add_into({}, irreducible)

    def orient(self, el: Element):
        """Reduce, then turn a nonzero element into a rule lead -> rest.

        Returns "added", "zero", or "degenerate" (leading word is a pure
        idempotent -- a ground-ring collapse this system does not orient;
        `collapses` maps its monic text to its words, largest first).
        """
        P = self.P
        el = self.normal_form(el)
        if not el:
            return "zero"
        lead = max(el, key=P.sort_key)
        if isinstance(lead, int):
            el = P.scale(P.ring.inverse(el[lead]), el)
            self.collapses[P.format_element(el)] = sorted(
                map(P.sort_key, el), reverse=True)
            return "degenerate"
        lc = el.pop(lead)
        self.rules[lead] = P.scale(P.ring.neg(P.ring.inverse(lc)), el)
        return "added"

    def interreduce(self):
        """Put every right side in normal form, in rule order (each reads
        the ones before it already reduced); sort the rules by left side."""
        for lhs in self.rules:
            self.rules[lhs] = self.normal_form(self.rules[lhs])
        self.rules = dict(sorted(self.rules.items(),
                                 key=lambda rule: self.P.sort_key(rule[0])))

    def _overlap_words(self, new=None):
        """(l1, l2, k, length) for every overlap of two left sides, one of
        them `new` when given (a left side with itself included): the last
        k letters of l1 are the first k of l2."""
        pairs = (itertools.product(self.rules, repeat=2) if new is None else
                 [(new, l) for l in self.rules]
                 + [(l, new) for l in self.rules if l != new])
        for l1, l2 in pairs:
            for k in _overlaps(l1, l2):
                yield l1, l2, k, len(l1) + len(l2) - k

    def complete(self, relations, degree_bound: int) -> bool:
        """Complete `relations` to a rewrite system, resolving every
        overlap word of length <= degree_bound, with one FIFO queue of
        elements to orient (Buchberger/Mora pair handling).  Returns
        whether two final rules overlap beyond the bound (truncated).

        A collapse is not made a rule, so a relation that reduced to zero
        under a rule retired later may no longer reduce to idempotents.
        When the queue drains with a collapse recorded, every relation
        whose normal form keeps a word of positive length is queued
        again, until none does.
        """
        P, one, rules = self.P, self.P.ring.one(), self.rules
        queue = collections.deque(relations)
        # Terminates: every added left side is irreducible by the current
        # rules, so the reducible words of length <= max(bound, longest
        # relation word), the only lengths that occur, grow strictly with
        # each added rule, and each addition pushes finitely many elements.
        # The first relation queued again adds a rule: its normal form has
        # a word of positive length, and that word leads.
        while queue:
            while queue:
                if self.orient(queue.popleft()) != "added":
                    continue
                new = next(reversed(rules))
                # retire every rule whose left side the new one rewrites
                for lhs in [l for l in rules
                            if l != new and _contains(l, new)]:
                    queue.append(P.sub({lhs: one}, rules.pop(lhs)))
                for l1, l2, k, n in self._overlap_words(new):
                    if n <= degree_bound:
                        # S-element: the overlap word rewritten both ways
                        queue.append(P.sub(
                            P.mul(rules[l1], {l2[k:]: one}),
                            P.mul({l1[:len(l1) - k]: one}, rules[l2])))
            if self.collapses:
                queue.extend(r for r in relations
                             if not all(isinstance(w, int)
                                        for w in self.normal_form(r)))
        self.interreduce()
        return any(n > degree_bound for *_, n in self._overlap_words())


@dataclass
class H0Report:
    relations: list
    rules: list
    dimension: int
    basis: list
    degenerate: list
    truncated: bool
    degree_bound: int
    verdict: str  # "ground-ring" | "basis" | "inconclusive"; not serialized

    @property
    def is_ground_ring(self):
        return self.verdict == "ground-ring"

    def to_json_dict(self):
        return {"relations": self.relations, "rules": self.rules,
                "is_ground_ring": self.is_ground_ring,
                "dimension": self.dimension, "basis": self.basis,
                "degenerate": self.degenerate, "truncated": self.truncated,
                "degree_bound": self.degree_bound}


def _overlaps(l1, l2):
    """Proper overlap positions: a nonempty proper suffix of l1 equals a
    prefix of l2; yields the overlap length."""
    for k in range(1, min(len(l1), len(l2))):
        if l1[len(l1) - k:] == l2[:k]:
            yield k


def _contains(word, factor):
    return any(word[i:i + len(factor)] == factor
               for i in range(len(word) - len(factor) + 1))


BASIS_CAP = 100000


def h0(P: Presentation, degree_bound: int = 8) -> H0Report:
    """Quotient of the degree-0 subalgebra by the degree-(-1) differentials.

    Completes the relations to a rewrite system up to words of length
    `degree_bound`, then counts normal-form words up to that length, at
    most BASIS_CAP of them.  The walk appends letters on the acting side,
    so a word is irreducible when no suffix of it is a left side in the
    rule table.  The report decides its verdict: inconclusive for a
    truncated or cut run or one with a collapse, else the ground ring
    when the rules rewrite every degree-0 letter, else a basis.
    """
    require_valid(P)
    if not P.ring.is_field():
        raise UnsupportedPresentationError("h0 needs a field (Q or GF2)")
    relations = []
    for g in P.generators:
        dg = P.differential.get(g.index, {}) if g.degree == -1 else {}
        for w in dg:
            if not isinstance(w, int) and any(P.generators[i].degree
                                              for i in w):
                raise UnsupportedPresentationError(
                    f"d {g.name} involves letters of nonzero degree "
                    f"({P.format_word(w)})")
        if dg:
            relations.append(dg)

    rs = RewriteSystem(P)
    truncated = rs.complete(relations, degree_bound)

    lengths = sorted({len(lhs) for lhs in rs.rules})

    def irreducible(word, src, deg):
        return not any(word[-n:] in rs.rules for n in lengths)

    letters = [g for g in P.generators if g.degree == 0]
    walk = (w for t in sorted({g.target for g in letters})
            for w, _, _ in walk_words(letters, t, degree_bound, irreducible))
    basis = [e.index for e in P.idempotents]
    basis += itertools.islice(walk, max(BASIS_CAP - len(basis), 0))
    cut = next(walk, None) is not None
    verdict = ("inconclusive" if truncated or rs.collapses or cut else
               "ground-ring" if all((g.index,) in rs.rules for g in letters)
               else "basis")
    return H0Report(
        relations=[P.format_element(r) for r in relations],
        rules=[f"{P.format_word(lhs)} -> {P.format_element(rhs)}"
               for lhs, rhs in rs.rules.items()],
        dimension=len(basis),
        basis=[P.format_word(w) for w in basis],
        degenerate=sorted(rs.collapses, key=lambda c: (rs.collapses[c], c)),
        truncated=truncated,
        degree_bound=degree_bound,
        verdict=verdict,
    )
