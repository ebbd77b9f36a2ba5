"""Verification and computation on presentations.

The d^2 check, the word-length parity-flip check, bounded
exactness and triviality searches (exact linear algebra over Q or GF(2),
split by the letter weights d preserves), and degree-0 homology by
noncommutative rewriting with a length-then-declaration-order monomial
order.

Bounded searches certify finite shadows only: `none_within_bounds`
always carries the bounds it was run at and is never an unbounded claim.
"""
from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .algebra import (Element, Presentation, PresentationError, require_valid,
                      splice)
from .coefficients import _q, gf2, rationals


class NonHomogeneousTargetError(ValueError):
    """Exactness targets must be homogeneous of a single degree."""


class UnsupportedPresentationError(PresentationError):
    """h0 needs degree-(-1) differentials supported on degree-0 letters,
    and degree-0 letters that are cycles."""


def _check_bounds(**bounds):
    """Each named bound an int (not a bool), and none negative."""
    for name, v in bounds.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"bound {name} must be an int, not {v!r}")
    if min(bounds.values()) < 0:
        raise ValueError("bounds must be nonnegative")


@dataclass(frozen=True)
class Bounds:
    """The word bounds of the bounded searches."""
    max_word_length: int = 6
    max_level: int = 2

    def __post_init__(self):
        _check_bounds(**asdict(self))


# ---------------------------------------------------------------------------
# d^2, parity
# ---------------------------------------------------------------------------

@dataclass
class DSquaredReport:
    ok: bool
    counterexamples: list = field(default_factory=list)  # {generator, residual}


def check_d_squared(P: Presentation) -> DSquaredReport:
    """d(d g) for every generator; Pass iff all vanish."""
    require_valid(P)
    bad = []
    for g in P.generators:
        residual = P.apply_differential(P.differential[g.index])
        if residual:
            bad.append({"generator": g.name,
                        "residual": P.format_element(residual)})
    return DSquaredReport(ok=not bad, counterexamples=bad)


@dataclass
class ParityReport:
    ok: bool
    witness: Optional[dict] = None  # {generator, word}


def check_parity_flip(P: Presentation) -> ParityReport:
    """True iff every monomial of every d(g) has even word length.

    Generators have length 1, so this is the statement that the
    differential changes word length mod 2 (idempotents count as length 0).
    """
    require_valid(P)
    for g in P.generators:
        for w in P.differential.get(g.index, {}):
            if P.word_length(w) % 2 == 1:
                return ParityReport(False, {"generator": g.name,
                                            "word": P.format_word(w)})
    return ParityReport(True)


# ---------------------------------------------------------------------------
# bounded exactness search
# ---------------------------------------------------------------------------

def walk_words(children, root, max_len):
    """Words of length 1..max_len in pre-order, grown from the state `root`.

    children(state) lists the letters that may follow a word in state
    `state`, as (letter index, child state, emit) triples, in walk order;
    the extended word is yielded when emit is true.  An explicit stack,
    so the depth is not limited by the recursion limit.
    """
    if max_len < 1:
        return
    # one frame per word being extended: (word, its next letters)
    stack = [((), iter(children(root)))]
    while stack:
        word, after = stack[-1]
        for i, state, emit in after:
            nw = word + (i,)
            if emit:
                yield nw
            if len(nw) < max_len and (more := children(state)):
                stack.append((nw, iter(more)))
                break
        else:
            stack.pop()


def _packing(letter_vecs, goal_vecs, max_len):
    """A linear map from integer vectors to ints, one-to-one on every
    vector the walk compares: a sum of at most max_len letter vectors, or
    a goal minus such a sum (balanced digits in base 2 * bound + 1)."""
    big = max((abs(c) for v in letter_vecs for c in v), default=0)
    base = 2 * (max((abs(c) for v in goal_vecs for c in v), default=0)
                + max_len * big) + 1
    return lambda v: sum(c * base ** j for j, c in enumerate(v))


def composable_words(P: Presentation, *, degree, ends, max_len, max_level,
                     parity=None, weights=None):
    """All composable generator words with the given ends, total degree,
    length <= max_len, letter levels <= max_level, optional length parity,
    in pre-order (letters appended on the acting side, in declaration
    order).  With weights = (wt, goals), only the words whose weight under
    the letter weights wt (as from letter_weights) is one of goals.

    A word's grade packs its degree and weight into one int.  `reach`
    holds, per length k and idempotent i, the grades of the words of
    length <= k and each length parity that lead from i back to the
    source; from it, `extensions` lists, once per state (length, source,
    grade) under functools.cache, the letters after which the word can
    still close, and walk_words walks them.
    """
    letters = [g for g in P.generators if (g.level or 0) <= max_level]
    wt, goals = weights or ([()] * len(P.generators), [()])
    vecs = {g.index: (g.degree, *wt[g.index]) for g in letters}
    pack = _packing(vecs.values(), [(degree, *G) for G in goals], max_len)
    want = {pack((degree, *G)) for G in goals}
    grade = {i: pack(v) for i, v in vecs.items()}
    by_target: dict[int, list] = {}
    for g in letters:
        by_target.setdefault(g.target, []).append(
            (g.index, g.source, grade[g.index]))
    out = []
    for s, t in sorted(set(ends)):
        reach = [{s: ({0}, set())}]
        for _ in range(max_len - 1):
            prev, nxt = reach[-1], {s: ({0}, set())}
            for g in letters:
                if g.source in prev:
                    even, odd = nxt.setdefault(g.target, (set(), set()))
                    gr, (pe, po) = grade[g.index], prev[g.source]
                    even.update(x + gr for x in po)
                    odd.update(x + gr for x in pe)
            reach.append(nxt)

        @functools.cache
        def extensions(state):
            """The letters after which a word of length n, source src and
            grade acc, its state (n, src, acc), can still close, each with
            the extended word's state and whether that word closes."""
            n, src, acc = state
            rest = reach[max_len - n - 1]
            bits = (0, 1) if parity is None else ((parity - n - 1) % 2,)
            closes = parity is None or (n + 1) % 2 == parity
            return [(i, (n + 1, gs, acc + gr),
                     closes and gs == s and acc + gr in want)
                    for i, gs, gr in by_target.get(src, ())
                    if gs in rest and any(G - acc - gr in rest[gs][b]
                                          for G in want for b in bits)]

        out.extend(walk_words(extensions, (0, t, 0), max_len))
    return out


def count_words(P: Presentation, *, degree, ends, max_len, max_level,
                parity=None) -> int:
    """len(composable_words(...)) for the same arguments without weights,
    counted layer by layer: layer n maps (source, degree) to the number of
    composable words of length n from the target."""
    by_target: dict[int, list] = {}
    for g in P.generators:
        if (g.level or 0) <= max_level:
            by_target.setdefault(g.target, []).append(g)
    total = 0
    for s, t in sorted(set(ends)):
        layer = {(t, 0): 1}
        for n in range(1, max_len + 1):
            nxt: dict[tuple, int] = {}
            for (i, d), c in layer.items():
                for g in by_target.get(i, ()):
                    key = (g.source, d + g.degree)
                    nxt[key] = nxt.get(key, 0) + c
            layer = nxt
            if parity is None or n % 2 == parity:
                total += layer.get((s, degree), 0)
    return total


class LinearSolver:
    """Incremental exact column echelon over Q or GF(2).

    Columns are sparse vectors keyed by arbitrary hashable row labels;
    `solve` returns a combination of the added columns equal to the right
    hand side, or None when the system is infeasible.  A reduced column is
    one dict of ints: its entries on row ids >= 0 and its combination of
    the added columns on keys ~n < 0, for the n-th added column, whose tag
    is `_tags[n]`.  Over Q the dicts are primitive and fraction-free, over
    GF2 every value is 1 and a step is an XOR.

    A right-hand side given to `follow` is kept reduced as columns
    arrive, and `add_column` returns True from the first column that puts
    it in the span, so a caller may stop there.  The answer is the one
    the full system gives: the pivot columns are the greedy basis (each
    column independent of those before it), the greedy basis of a prefix
    of the columns is a prefix of the full one, and the combination of
    independent columns that makes the right side is unique.  The right
    side is reduced only once the columns have numbered every one of its
    labels, so that following it leaves the row numbering, and with it
    each column's pivot row, as it was: numbering its labels in `follow`
    would spare `_unseen` and `_number`, but it moves the pivots, and the
    searches over Q ran slower with it.  Once reduced, its lead is
    compared with each new pivot, and it is stepped on when they meet.  A
    right side with a label no column has numbered lies outside the
    span: no column can cancel that entry.
    """
    _RHS = object()  # the tag under which the right side is reduced

    def __init__(self, ring):
        if not ring.is_field():
            raise ValueError("linear search needs a field (Q or GF2)")
        self._xor = ring == gf2()
        self._row_ids: dict = {}
        self._tags: list = []
        self._basis: dict = {}  # lead row id -> reduced column
        self._target = None  # the right side followed, as given
        self._unseen: list = []  # its labels no column has numbered yet
        self._rhs = None  # it reduced, once every label is numbered
        self._lead = -1  # its lead; None once in the span, -1 before

    def _reduce(self, tag, raw):
        """Column `tag` = raw, numbered and reduced: (row, lead), lead None
        when no row id is left and row is a relation among the columns."""
        ids = self._row_ids
        row = {ids.setdefault(k, len(ids)): c for k, c in raw.items() if c}
        m = 1  # over Q, clear the denominators unless every entry is an int
        if not all(type(c) is int for c in row.values()):
            m = lcm(*(c.denominator for c in row.values()))
            row = {r: c.numerator * (m // c.denominator)
                   for r, c in row.items()}
        row[~len(self._tags)] = m
        self._tags.append(tag)
        return self._eliminate(row)

    def _eliminate(self, row):
        """Step a numbered row on the pivots until its lead has none."""
        basis, xor = self._basis, self._xor
        stepped = False
        while (lead := max(row)) >= 0 and (hit := basis.get(lead)):
            stepped = True
            if xor:
                for k in hit:  # a new key goes last
                    if not row.pop(k, 0):
                        row[k] = 1
                continue
            # row := p*row - q*hit, p/q = hit[lead]/row[lead] in lowest
            # terms with p > 0, so the content divides out once at the end
            p, q = hit[lead], row[lead]
            g = gcd(p, q) if p > 0 else -gcd(p, q)
            p, q = p // g, q // g
            if p != 1:
                for k in row:
                    row[k] *= p
            for k, c in hit.items():
                c = row.get(k, 0) - q * c
                if c:
                    row[k] = c
                else:
                    del row[k]
        if stepped and not xor and (g := gcd(*row.values())) > 1:
            for k in row:
                row[k] //= g
        return row, lead if lead >= 0 else None

    def _relation(self, row):
        """The relation a row with no row id left states, keyed by tag."""
        return {self._tags[~k]: c for k, c in row.items()}

    def _add(self, tag, raw):
        """Add column `tag` = raw; when it depends on the columns before
        it, return its reduced row, a relation among them (`_relation`)."""
        row, lead = self._reduce(tag, raw)
        # a column that reduces to zero numbers no new label: a new label's
        # row id has no pivot, so it would have been left as the lead
        if lead is None:
            return row
        self._basis[lead] = row
        if lead == self._lead:
            self._rhs, self._lead = self._eliminate(self._rhs)
        elif self._unseen:
            self._number()

    def add_column(self, tag, raw_vec):
        """Add a column; True when the followed right side lies in the
        span of the columns added so far."""
        self._add(tag, raw_vec)
        return self._lead is None

    def follow(self, raw_rhs):
        """Keep raw_rhs reduced as columns arrive, in place of any right
        side followed before; True when it lies in the span already."""
        ids = self._row_ids
        self._target, self._rhs, self._lead = raw_rhs, None, -1
        self._unseen = [k for k, c in raw_rhs.items() if c and k not in ids]
        self._number()
        return self._lead is None

    def _number(self):
        """Reduce the followed right side once the columns have numbered
        every one of its labels."""
        unseen, ids = self._unseen, self._row_ids
        while unseen and unseen[-1] in ids:
            unseen.pop()
        if not unseen:
            self._rhs, self._lead = self._reduce(self._RHS, self._target)

    def solve(self, raw_rhs):
        """The combination of the columns equal to raw_rhs, None when there
        is none.  A right side not followed yet is followed from here."""
        if raw_rhs != self._target:
            self.follow(raw_rhs)
        if self._lead is not None:
            return None
        combo = self._relation(self._rhs)
        s = combo.pop(self._RHS)  # s*rhs + sum(combo[t]*column[t]) = 0
        if self._xor:
            return dict.fromkeys(combo, 1)  # -1 = 1
        return {t: _q(Fraction(-c, s)) for t, c in combo.items()}


def letter_weights(P: Presentation) -> list:
    """Integer weights that d preserves: one vector per generator, in
    generator order, whose entries span every additive weight wt with
    wt(word) = wt(g) for each monomial of each d(g) (an idempotent
    monomial forces wt(g) = 0).

    The basis comes from the elimination: a generator's column of that
    system that reduces to zero gives its combination as one null vector.
    It includes the potential weights f(target) - f(source).
    """
    cols: dict[int, dict] = {g.index: {} for g in P.generators}
    for g in P.generators:
        for w in P.differential.get(g.index, {}):
            cols[g.index][g.index, w] = -1
            for i in () if isinstance(w, int) else w:
                cols[i][g.index, w] = cols[i].get((g.index, w), 0) + 1
    solver = LinearSolver(rationals())
    null = [solver._relation(row) for g in P.generators
            if (row := solver._add(g.index, cols[g.index])) is not None]
    return [tuple(v.get(g.index, 0) for v in null) for g in P.generators]


def word_weight(wt, w) -> tuple:
    """The weight of word w under the letter weights wt: the sum over its
    letters, the zero vector for an idempotent or the empty word."""
    zero = (0,) * (len(wt[0]) if wt else 0)
    letters = () if isinstance(w, int) else w
    return tuple(map(sum, zip(zero, *(wt[i] for i in letters))))


@dataclass
class ExactnessResult:
    """A bounded search's answer; `bounded_solve` alone builds it."""
    status: str  # "witness" | "none_within_bounds"
    target: Element
    bounds: Bounds
    parity: Optional[str] = None
    witness: Optional[Element] = None
    candidates: int = 0
    note: str = ""

    def to_json_dict(self, P: Presentation):
        d = {"status": self.status, "parity": self.parity,
             "candidates": self.candidates, "bounds": asdict(self.bounds),
             "target": P.format_element(self.target),
             "witness": (None if self.witness is None
                         else P.format_element(self.witness))}
        if self.note:
            d["note"] = self.note
        return d


_PARITIES = ("even", "odd")  # word-length parity bit -> name


def bounded_solve(P: Presentation, target: Element, bounds: Bounds, *,
                  parity, weights, ends=None, rows=None,
                  extra=()) -> ExactnessResult:
    """Solve d(x) = target, nonzero and homogeneous, over the bounded
    composable words of degree deg(target) - 1 with `ends` (default: the
    target's), `parity` (None, "even" or "odd") and `weights` (wt, goals)
    or None, as composable_words takes them; the (tag, column) pairs of
    `extra` are added after the words' columns, and the right-hand side
    is the target plus the entries of `rows`.

    A word's column is d(word), tagged by the word itself, so the rows
    are words, plus whatever row labels `extra` and `rows` bring.  The
    solver follows the right-hand side, and the solve stops at the first
    column that puts it in the span: no later word's d is computed and no
    later `extra` column is drawn.  The witness is the one all columns
    give (see LinearSolver); an infeasible solve adds every column.  The
    result states the search for the target alone: `candidates` counts
    the bounded words of the degree with the target's ends, whatever
    their weight, and the witness is the combination of the column tags,
    None when the system is infeasible.
    """
    own = {(P.word_source(w), P.word_target(w)) for w in target}
    kw = dict(degree=P.word_degree(next(iter(target))) - 1,
              max_len=bounds.max_word_length, max_level=bounds.max_level,
              parity=None if parity is None else _PARITIES.index(parity))
    rhs = {**target, **(rows or {})}
    solver = LinearSolver(P.ring)
    solver.follow(rhs)  # a label of the target is not numbered yet
    for w in composable_words(P, **kw, weights=weights,
                              ends=own if ends is None else ends):
        if solver.add_column(w, P.d_word(w)):
            break
    else:
        for tag, col in extra:
            if solver.add_column(tag, col):
                break
    combo = solver.solve(rhs)
    status = "none_within_bounds" if combo is None else "witness"
    return ExactnessResult(status, target, bounds, parity, witness=combo,
                           candidates=count_words(P, **kw, ends=own))


def exactness_search(P: Presentation, target: Element, bounds: Bounds,
                     parity: Optional[str] = None) -> ExactnessResult:
    """Solve d(x) = target over the span of bounded composable words.

    The target must be nonzero and homogeneous; a returned witness is
    re-checked exactly before being reported.  `none_within_bounds` is a
    bounded certificate, not a proof of unbounded non-exactness.
    """
    if parity not in (None, *_PARITIES):
        raise ValueError(f"parity must be None, 'even' or 'odd', "
                         f"not {parity!r}")
    require_valid(P)
    target = P.add({}, target)  # without its zero coefficients
    if not target:
        raise NonHomogeneousTargetError("target is zero")
    deg = P.is_homogeneous(target)
    if deg is None:
        raise NonHomogeneousTargetError(
            f"target {P.format_element(target)} is not homogeneous")
    # d preserves the letter weights, so only the words of the target's
    # weights can enter a solution; every bounded word of the degree
    # counts, whatever its weight
    wt = letter_weights(P)
    res = bounded_solve(P, target, bounds, parity=parity,
                        weights=(wt, {word_weight(wt, w) for w in target}))
    if res.witness is not None and not P.equal(
            P.apply_differential(res.witness), target):
        raise AssertionError("solver returned an unsound witness")
    return res


@dataclass
class TrivialityResult:
    certified_trivial: bool
    search: ExactnessResult


def is_trivial(P: Presentation, bounds: Bounds,
               parity: Optional[str] = None) -> TrivialityResult:
    """Search for x with d(x) = 1 (the sum of all idempotents)."""
    res = exactness_search(P, P.one(), bounds, parity=parity)
    return TrivialityResult(certified_trivial=res.status == "witness",
                            search=res)


# ---------------------------------------------------------------------------
# degree-0 homology via noncommutative rewriting
# ---------------------------------------------------------------------------

class RewriteSystem:
    """Rules lhs -> rhs with lhs strictly larger in length-then-lex order,
    in one table `rules` from left side to right side, in rule order.

    Beside the table, an index maps each left side to its rank in rule
    order (a running serial) and counts the live left sides of each
    length, so `_find` probes one dict per factor of a word.  Assigning
    `rules` rebuilds the index; a rule enters by `_add` and leaves by
    `_retire`.
    """

    def __init__(self, P: Presentation):
        self.P = P
        self.rules: dict[tuple, Element] = {}
        self.collapses: dict[str, list] = {}

    @property
    def rules(self) -> dict:
        return self._rules

    @rules.setter
    def rules(self, table: dict):
        self._rules = table
        self._rank = {lhs: k for k, lhs in enumerate(table)}
        self._serial = len(table)
        self._lengths = collections.Counter(map(len, table))

    def _add(self, lhs, rhs):
        self._rules[lhs] = rhs
        self._rank[lhs] = self._serial
        self._serial += 1
        self._lengths[len(lhs)] += 1

    def _retire(self, lhs):
        """Drop the rule of `lhs` and return its right side."""
        del self._rank[lhs]
        self._lengths[len(lhs)] -= 1
        if not self._lengths[len(lhs)]:
            del self._lengths[len(lhs)]
        return self._rules.pop(lhs)

    def _find(self, w):
        """(lhs, pos) of the first rule in rule order in w, leftmost: the
        factor of least rank among the factors of the live lengths."""
        if isinstance(w, int):
            return None
        rank, n, best = self._rank.get, len(w), None
        for L in self._lengths:
            for pos in range(n - L + 1):
                r = rank(w[pos:pos + L])
                if r is not None and (best is None or r < best[0]):
                    best = r, pos, L
        if best is None:
            return None
        _, pos, L = best
        return w[pos:pos + L], pos

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
        self._add(lead, P.scale(P.ring.neg(P.ring.inverse(lc)), el))
        return "added"

    def interreduce(self):
        """Put every right side in normal form, in rule order (each reads
        the ones before it already reduced); sort the rules by left side."""
        for lhs in self.rules:
            self.rules[lhs] = self.normal_form(self.rules[lhs])
        self.rules = dict(sorted(self.rules.items(),
                                 key=lambda rule: self.P.sort_key(rule[0])))

    def _overlap_words(self, new):
        """(l1, l2, k, length) for every proper overlap of the left side
        `new` with a left side in the table (itself included): the last k
        letters of l1, 0 < k < both lengths, are the first k of l2."""
        for l1, l2 in ([(new, l) for l in self.rules]
                       + [(l, new) for l in self.rules if l != new]):
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k:] == l2[:k]:
                    yield l1, l2, k, len(l1) + len(l2) - k

    def complete(self, relations, degree_bound: int) -> bool:
        """Complete `relations` to a rewrite system from an empty one,
        resolving every overlap word of length <= degree_bound, with one
        FIFO queue of elements to orient (Buchberger/Mora pair handling).
        Returns truncated: whether two final rules overlap beyond the
        bound, read off the pairs met beyond it as each rule was added.

        A collapse is not made a rule, so a relation that reduced to zero
        under a rule retired later may no longer reduce to idempotents.
        When the queue drains with a collapse recorded, every relation
        whose normal form keeps a word of positive length is queued
        again, until none does.
        """
        P, one, rules = self.P, self.P.ring.one(), self.rules
        queue = collections.deque(relations)
        beyond = set()  # (l1, l2) of each overlap longer than the bound
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
                    queue.append(P.sub({lhs: one}, self._retire(lhs)))
                for l1, l2, k, n in self._overlap_words(new):
                    if n > degree_bound:
                        beyond.add((l1, l2))
                    else:
                        # S-element: the overlap word rewritten both ways
                        queue.append(P.sub(
                            P.mul(rules[l1], {l2[k:]: one}),
                            P.mul({l1[:len(l1) - k]: one}, rules[l2])))
            if self.collapses:
                queue.extend(r for r in relations
                             if not all(isinstance(w, int)
                                        for w in self.normal_form(r)))
        self.interreduce()
        return any({l1, l2} <= self.rules.keys() for l1, l2 in beyond)


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


def _contains(word, factor):
    return any(word[i:i + len(factor)] == factor
               for i in range(len(word) - len(factor) + 1))


BASIS_CAP = 100000


def h0(P: Presentation, degree_bound: int = 8) -> H0Report:
    """Quotient of the degree-0 subalgebra by the degree-(-1) differentials.

    Every degree-(-1) differential must be a sum of idempotents and words
    in degree-0 letters, and every degree-0 letter a cycle; else
    UnsupportedPresentationError.

    Completes the relations to a rewrite system up to words of length
    `degree_bound`, then counts normal-form words up to that length, at
    most BASIS_CAP of them.  The walk appends letters on the acting side,
    so a word is irreducible when no suffix of it is a left side in the
    rule table.  It carries the word's source and the state of an
    Aho-Corasick automaton over the left sides (CACM 1975): the word's
    longest suffix that is a proper prefix of a left side.  `irreducible`
    lists the letters kept after each state once, for every target root
    (functools.cache).  The report decides its verdict: inconclusive for
    a truncated or cut run or one with a collapse, else the ground ring
    when the rules rewrite every degree-0 letter, else a basis.
    """
    _check_bounds(degree_bound=degree_bound)
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
    for g in P.generators:
        if g.degree == 0 and P.differential[g.index]:
            raise UnsupportedPresentationError(
                f"degree-0 letter {g.name} is not a cycle (d {g.name} = "
                f"{P.format_element(P.differential[g.index])})")

    rs = RewriteSystem(P)
    truncated = rs.complete(relations, degree_bound)

    letters = [g for g in P.generators if g.degree == 0]
    by_target: dict[int, list] = {}
    for g in letters:
        by_target.setdefault(g.target, []).append((g.index, g.source))
    rules = rs.rules
    prefixes = {lhs[:k] for lhs in rules for k in range(len(lhs))} | {()}

    @functools.cache
    def irreducible(state):
        """The letters that keep a word of state (source, u) in normal
        form, each with the longer word's state: no suffix of u + letter
        is a left side, and the next u is its longest suffix in prefixes."""
        src, u = state
        kept = []
        for i, gs in by_target.get(src, ()):
            v = u + (i,)
            tails = [v[k:] for k in range(len(v) + 1)]  # longest first
            if rules.keys().isdisjoint(tails):
                nxt = next(t for t in tails if t in prefixes)
                kept.append((i, (gs, nxt), True))
        return kept

    walk = (w for t in sorted(by_target)
            for w in walk_words(irreducible, (t, ()), degree_bound))
    basis = [e.index for e in P.idempotents]
    basis += itertools.islice(walk, max(BASIS_CAP - len(basis), 0))
    cut = next(walk, None) is not None
    verdict = ("inconclusive" if truncated or rs.collapses or cut else
               "ground-ring" if all((g.index,) in rs.rules for g in letters)
               else "basis")
    # the walk is pre-order and emits every word, so a word's parent is
    # the last word one letter shorter: texts[k] is the text of the last
    # word of length k + 1, and a one-letter word (each root's first)
    # empties it
    names, texts = [g.name for g in P.generators], []
    basis_texts = [e.label for e in P.idempotents]
    for w in itertools.islice(basis, len(basis_texts), None):
        del texts[len(w) - 1:]
        texts.append(f"{texts[-1]}*{names[w[-1]]}" if texts
                     else names[w[-1]])
        basis_texts.append(texts[-1])
    return H0Report(
        relations=[P.format_element(r) for r in relations],
        rules=[f"{P.format_word(lhs)} -> {P.format_element(rhs)}"
               for lhs, rhs in rs.rules.items()],
        dimension=len(basis),
        basis=basis_texts,
        degenerate=sorted(rs.collapses, key=lambda c: (rs.collapses[c], c)),
        truncated=truncated,
        degree_bound=degree_bound,
        verdict=verdict,
    )
