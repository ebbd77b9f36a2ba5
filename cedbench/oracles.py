"""Answers the benchmark checks cedga against, computed without cedga.

Nothing here calls into cedga: the oracles read only the generated inputs
(generator degrees, ends and levels, the differential assignments the
benchmark handed over) and the verdicts cedga returned.  A faster but
wrong ``d_word`` would still pass cedga's own witness re-check, so the
witness check below expands d by the graded Leibniz rule itself, and the
``h0`` check reduces with its own rewriting loop.

Words follow cedga's data layout: a tuple of generator indices (the
rightmost letter acts first) or an ``int`` for a bare idempotent.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

_COEFF = re.compile(r"^-?\d+(/\d+)?$")


class OracleError(Exception):
    """An oracle could not even read cedga's answer."""


def _acc(out, word, c, mod2):
    s = out.get(word, 0) + c
    if mod2:
        s %= 2
    if s:
        out[word] = s
    else:
        out.pop(word, None)


def leibniz_d(degrees, differential, x, mod2=False):
    """d(x) by the graded Leibniz rule on the generator assignments.

    d(g1...gm) = sum_t (-1)^(|g1|+...+|g(t-1)|) g1...g(t-1) d(gt) g(t+1)...gm,
    and d of an idempotent is 0.
    """
    out = {}
    for word, c in x.items():
        if isinstance(word, int):
            continue
        left_degree = 0
        for t, g in enumerate(word):
            sign = -1 if left_degree % 2 else 1
            for dw, dc in differential[g].items():
                mid = () if isinstance(dw, int) else dw
                nw = word[:t] + mid + word[t + 1:]
                _acc(out, nw if nw else dw, sign * c * dc, mod2)
            left_degree += degrees[g]
    return out


class PresentationData:
    """The parts of a presentation the oracles read, copied once."""

    def __init__(self, P):
        gens = P.generators
        self.names = [g.name for g in gens]
        self.degrees = [g.degree for g in gens]
        self.levels = [g.level or 0 for g in gens]
        self.sources = [g.source for g in gens]
        self.targets = [g.target for g in gens]
        self.idempotents = [e.label for e in P.idempotents]
        self.differential = {i: dict(el) for i, el in P.differential.items()}
        self.mod2 = str(P.ring) == "GF2"

    def d(self, x):
        return leibniz_d(self.degrees, self.differential, x, self.mod2)

    def ends(self, word):
        if isinstance(word, int):
            return word, word
        return self.sources[word[-1]], self.targets[word[0]]

    def composable(self, word):
        return isinstance(word, int) or all(
            self.sources[a] == self.targets[b] for a, b in zip(word, word[1:]))


def check_witness(data, witness, target, max_len, max_level):
    """None when d(witness) = target with every word inside the bounds."""
    if not witness:
        return "empty witness"
    for word, c in witness.items():
        if not c:
            return "zero coefficient in witness"
        if isinstance(word, int):
            return "idempotent in witness"
        if not data.composable(word):
            return f"non-composable witness word {word}"
        if len(word) > max_len:
            return f"witness word of length {len(word)} > {max_len}"
        if max(data.levels[i] for i in word) > max_level:
            return f"witness word above level {max_level}"
    got = data.d(witness)
    if got != target:
        return "d(witness) differs from the target (graded Leibniz re-check)"
    return None


# ---------------------------------------------------------------------------
# h0: parse the reported rules and basis, reduce the relations ourselves
# ---------------------------------------------------------------------------

def parse_word(text, data):
    """A word printed by cedga: an idempotent label or names joined by '*'."""
    if text in data.idempotents:
        return data.idempotents.index(text)
    index = {n: i for i, n in enumerate(data.names)}
    try:
        return tuple(index[n] for n in text.split("*"))
    except KeyError as exc:
        raise OracleError(f"unknown letter {exc} in {text!r}") from None


def parse_element(text, data):
    """An element printed by cedga over Q or GF2 ("- 2/3*a*b + e1")."""
    if text == "0":
        return {}
    out = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = -1 if tok == "-" else 1
            continue
        factors = tok.split("*")
        coeff = Fraction(1)
        if _COEFF.match(factors[0]):
            coeff = Fraction(factors.pop(0))
        if not factors:
            raise OracleError(f"term without a word in {text!r}")
        _acc(out, parse_word("*".join(factors), data), sign * coeff,
             data.mod2)
        sign = 1
    return out


def parse_rules(rule_lines, data):
    rules = []
    for line in rule_lines:
        lhs, sep, rhs = line.partition(" -> ")
        if not sep:
            raise OracleError(f"unreadable rule {line!r}")
        word = parse_word(lhs, data)
        if isinstance(word, int):
            raise OracleError(f"rule with idempotent left side {line!r}")
        rules.append((word, parse_element(rhs, data)))
    return rules


def _occurrence(word, rules):
    for lhs, rhs in rules:
        n = len(lhs)
        for pos in range(len(word) - n + 1):
            if word[pos:pos + n] == lhs:
                return lhs, rhs, pos
    return None


def reduce(el, rules, mod2, max_steps=200000):
    """Rewrite until no rule's left side occurs in any word."""
    out = {}
    todo = list(el.items())
    steps = 0
    while todo:
        word, c = todo.pop()
        hit = None if isinstance(word, int) else _occurrence(word, rules)
        if hit is None:
            _acc(out, word, c, mod2)
            continue
        steps += 1
        if steps > max_steps:
            raise OracleError("reduction under the reported rules "
                              "does not terminate")
        lhs, rhs, pos = hit
        for rw, rc in rhs.items():
            mid = () if isinstance(rw, int) else rw
            nw = word[:pos] + mid + word[pos + len(lhs):]
            todo.append((nw if nw else rw, c * rc))
    return out


# A relation that reduces to a nonzero multiple of idempotents: the
# completion met a ground-ring collapse and did not report it.
COLLAPSE_LOST = ("ground-ring collapse lost: a relation reduces to a nonzero "
                 "multiple of idempotents under the reported rules")


def check_h0_report(data, relations, report):
    """None when every relation reduces to 0 under the reported rules (or,
    when the report records a ground-ring collapse, to a multiple of
    idempotents) and no reported basis word contains a rule's left side."""
    try:
        rules = parse_rules(report.rules, data)
        basis = [parse_word(w, data) for w in report.basis]
        for rel in relations:
            rest = reduce(rel, rules, data.mod2)
            if not rest:
                continue
            if not all(isinstance(w, int) for w in rest):
                return ("a relation does not reduce to 0 under the reported "
                        "rules")
            if not report.degenerate:
                return COLLAPSE_LOST
    except OracleError as exc:
        return str(exc)
    for word in basis:
        if not isinstance(word, int) and _occurrence(word, rules):
            return "a basis word contains a rule's left side"
    if len(basis) != report.dimension:
        return "dimension differs from the basis size"
    return None


def relations_of(data):
    """The degree -1 differentials h0 quotients by."""
    return [dict(data.differential[i]) for i, d in enumerate(data.degrees)
            if d == -1 and data.differential.get(i)]


# ---------------------------------------------------------------------------
# command line: exit code and the verdict of the --json object
# ---------------------------------------------------------------------------

def check_cli(result, expected_code, expected_verdict=None):
    code, stdout = result
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    if expected_verdict is None:
        return None
    lines = stdout.strip().splitlines()
    if not lines:
        return "no --json output"
    try:
        obj = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "last line of output is not JSON"
    if obj.get("verdict") != expected_verdict:
        return f"verdict {obj.get('verdict')!r}, expected {expected_verdict!r}"
    return None
