"""Dg-algebra maps, augmentations, partial linearization, and the
Y-singularity filling obstruction.

A GenMap assigns target elements to source generators and extends
multiplicatively; augmentations are the ground-ring-valued special case
(all idempotents map to 1, nonzero-degree generators to 0).

The obstruction procedure refutes the existence of a dg-map extending a
given link map: it maps each long generator's differential (leaving
unassigned long generators symbolic), splits by word-length parity (the
codomain must flip parity), and certifies within bounds that one parity
component -- decorated with cycle-constrained corrections for the
symbolic generators -- is not hit by the differential.  `obstructed` is
a bounded certificate and always embeds the `none_within_bounds` search
it implies at correction zero.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from .algebra import Element, Presentation, check_ring, require_valid
from .analysis import (_PARITIES, Bounds, ExactnessResult, bounded_solve,
                       check_d_squared, check_parity_flip, composable_words,
                       letter_weights, word_weight)


class MapError(ValueError):
    """Structurally invalid generator map."""


class ScopeError(ValueError):
    """Augmentation scope is not differential-closed or misses a value."""


class UnverifiedAugmentationError(ValueError):
    """Linearization refused: the augmentation does not verify."""


class NonzeroDSquaredError(ValueError):
    """Linearization refused: the linearized d^2 does not vanish, so the
    presentation's own d^2 does not."""


class UnsupportedCodomainError(ValueError):
    """The obstruction codomain must pass the parity-flip check."""


@dataclass
class GenMap:
    """Assignment of target elements to source generators.

    Total maps with an idempotent assignment extend multiplicatively to
    dg-map candidates; partial maps serve as link maps for the filling
    obstruction.
    """

    source: Presentation
    target: Presentation
    gen_values: dict = field(default_factory=dict)   # gen index -> Element
    idem_values: dict = field(default_factory=dict)  # idem index -> idem index
    name: str = "phi"

    def __post_init__(self):
        check_ring(self.source, self.target)
        for gi in self.gen_values:
            self.check_value(gi)

    def check_value(self, gi):
        """Raise MapError unless the value of generator gi has one pair of
        ends and the generator's degree."""
        g, val = self.source.generators[gi], self.gen_values[gi]
        if val and self.value_ends(gi) is None:
            raise MapError(f"{self.name}: value of {g.name} mixes ends")
        for w in val:
            if self.target.word_degree(w) != g.degree:
                raise MapError(
                    f"{self.name}: value of {g.name} has degree "
                    f"{self.target.word_degree(w)}, expected {g.degree}")

    def value_ends(self, gi) -> Optional[tuple]:
        """The common (source, target) ends of a nonzero value, else None."""
        ends = {(self.target.word_source(w), self.target.word_target(w))
                for w in self.gen_values.get(gi, ())}
        return ends.pop() if len(ends) == 1 else None

    def is_total(self) -> bool:
        return (all(g.index in self.gen_values for g in self.source.generators)
                and all(e.index in self.idem_values
                        for e in self.source.idempotents))

    def apply(self, x: Element) -> Element:
        """Linear and multiplicative extension to elements."""
        S, T = self.source, self.target
        out = T.zero()
        for w, c in x.items():
            if isinstance(w, int):
                if w not in self.idem_values:
                    raise MapError(f"{self.name}: idempotent "
                                   f"{S.idempotents[w].label} unassigned")
                term = T.el_idem(self.idem_values[w])
            else:
                term = None
                for i in w:
                    if i not in self.gen_values:
                        raise MapError(f"{self.name}: generator "
                                       f"{S.generators[i].name} unassigned")
                    v = self.gen_values[i]
                    term = v if term is None else T.mul(term, v)
            T.ring.add_into(out, term.items(), c)
        return out


def compose(phi: GenMap, psi: GenMap) -> GenMap:
    """psi after phi (phi: P -> Q, psi: Q -> R)."""
    if phi.target is not psi.source and not phi.target.same_data(psi.source):
        raise MapError("maps are not composable")
    gv = {gi: psi.apply(val) for gi, val in phi.gen_values.items()}
    iv = {ei: psi.idem_values[ti] for ei, ti in phi.idem_values.items()}
    return GenMap(phi.source, psi.target, gv, iv,
                  name=f"{psi.name}.{phi.name}")


def identity_map(P: Presentation) -> GenMap:
    return GenMap(P, P,
                  gen_values={g.index: {(g.index,): P.ring.one()}
                              for g in P.generators},
                  idem_values={e.index: e.index for e in P.idempotents},
                  name="id")


@dataclass
class ChainMapReport:
    ok: bool
    failures: list = field(default_factory=list)  # (gen, residual str)
    lines: dict = field(default_factory=dict)     # gen -> (phi_d str, d_phi str)

    def to_json_dict(self):
        return {"ok": self.ok,
                "failures": [{"generator": g, "residual": r}
                             for g, r in self.failures],
                "lines": {g: {"phi_d": a, "d_phi": b}
                          for g, (a, b) in self.lines.items()}}


def verify_chain_map(phi: GenMap) -> ChainMapReport:
    """Check phi(d g) = d(phi g) on every source generator."""
    require_valid(phi.source, phi.target)
    if not phi.is_total():
        raise MapError(f"{phi.name}: not a total map")
    T = phi.target
    failures, lines = [], {}
    for g in phi.source.generators:
        phi_d = phi.apply(phi.source.differential[g.index])
        d_phi = T.apply_differential(phi.gen_values[g.index])
        lines[g.name] = (T.format_element(phi_d), T.format_element(d_phi))
        residual = T.sub(phi_d, d_phi)
        if residual:
            failures.append((g.name, T.format_element(residual)))
    return ChainMapReport(ok=not failures, failures=failures, lines=lines)


# ---------------------------------------------------------------------------
# augmentations
# ---------------------------------------------------------------------------

@dataclass
class Augmentation:
    """Ground-ring valued map on a differential-closed generator subset.

    Idempotents evaluate to 1; scoped generators of nonzero degree must
    carry the value 0 (missing values default to 0).
    """

    presentation: Presentation
    scope: frozenset
    values: dict = field(default_factory=dict)
    name: str = "eps"

    def __post_init__(self):
        P = self.presentation
        self.scope = frozenset(P.gen(g).index for g in self.scope)
        self.values = {P.gen(g).index: c for g, c in self.values.items()}
        for gi in self.values:
            self.check_value(gi)

    def check_value(self, gi):
        """Raise ScopeError unless generator gi is in scope and, if its
        degree is nonzero, its value is 0."""
        P, g = self.presentation, self.presentation.generators[gi]
        if gi not in self.scope:
            raise ScopeError(f"{self.name}: value for unscoped generator "
                             f"{g.name}")
        if g.degree != 0 and not P.ring.is_zero(self.values[gi]):
            raise ScopeError(f"{self.name}: nonzero value on nonzero-degree "
                             f"generator {g.name}")

    def value(self, gi):
        return self.values.get(gi, self.presentation.ring.zero())

    def eval(self, x: Element):
        """Evaluate in the commutative ground ring."""
        ring = self.presentation.ring
        out = ring.zero()
        for w, c in x.items():
            out = ring.add(out, self._term(w, c))
        return out

    def _term(self, w, c):
        """c times the values of the letters of word w."""
        P = self.presentation
        for i in () if isinstance(w, int) else w:
            if i not in self.scope:
                raise ScopeError(
                    f"{self.name}: generator {P.generators[i].name} "
                    f"outside the augmentation scope")
            c = P.ring.mul(c, self.value(i))
        return c


@dataclass
class AugmentationReport:
    ok: bool
    failures: list = field(default_factory=list)  # (gen, residual coeff str)

    def to_json_dict(self):
        return {"ok": self.ok,
                "failures": [{"generator": g, "residual": r}
                             for g, r in self.failures]}


def verify_augmentation(eps: Augmentation) -> AugmentationReport:
    """Check eps(d g) = 0 for every scoped generator g in index order; the
    first d g with a letter outside the scope raises ScopeError."""
    P = eps.presentation
    require_valid(P)
    failures = []
    for gi in sorted(eps.scope):
        dg = P.differential[gi]
        if out := [i for w in dg if not isinstance(w, int) for i in w
                   if i not in eps.scope]:
            raise ScopeError(f"{eps.name}: scope is not differential-closed "
                             f"(d {P.generators[gi].name} uses "
                             f"{P.generators[out[0]].name})")
        residual = eps.eval(dg)
        if not P.ring.is_zero(residual):
            failures.append((P.generators[gi].name, P.ring.format(residual)))
    return AugmentationReport(ok=not failures, failures=failures)


def partial_linearize(eps: Augmentation) -> Presentation:
    """Push eps.presentation's differential through eps on short generators.

    The output presentation keeps the idempotents and the long generators;
    each word of a long differential maps to its subword of long letters,
    scaled by the product of the eps-values of its short letters.  Words
    whose long-letter subword fails to compose (or no longer matches the
    generator's ends) vanish, by the path-algebra product rule.
    """
    rep = verify_augmentation(eps)
    if not rep.ok:
        raise UnverifiedAugmentationError(
            f"{eps.name} fails at {rep.failures[0][0]} "
            f"(residual {rep.failures[0][1]})")
    P = eps.presentation
    out = Presentation(P.ring, P.convention)
    for e in P.idempotents:
        out.add_idempotent(e.label)
    gmap = {g.index: out.add_generator(g.name, g.degree, g.source, g.target,
                                       level=g.level).index
            for g in P.generators if g.link is None}
    for gi, oi in gmap.items():
        g = P.generators[gi]
        el = out.zero()
        for w, c in P.differential[gi].items():
            if isinstance(w, int):
                P.ring.add_into(el, ((w, c),))
                continue
            coeff = eps._term(tuple(i for i in w if i not in gmap), c)
            nw = tuple(gmap[i] for i in w if i in gmap)
            if not nw:
                if g.source == g.target:
                    P.ring.add_into(el, ((g.source, coeff),))
            elif out.composable(nw) and out.word_source(nw) == g.source \
                    and out.word_target(nw) == g.target:
                P.ring.add_into(el, ((nw, coeff),))
        out.set_differential(oi, el)
    d2 = check_d_squared(out)
    if not d2.ok:
        raise NonzeroDSquaredError(
            "linearized differential fails d^2 = 0 at {} (residual {})"
            .format(*d2.counterexamples[0]))
    return out


# ---------------------------------------------------------------------------
# the Y-singularity filling obstruction
# ---------------------------------------------------------------------------

@dataclass
class ObstructionReport:
    status: str  # "obstructed" | "inconclusive"
    decisive_generator: Optional[str]
    decisive_parity: Optional[str]
    transcript: list
    certificate: Optional[ExactnessResult]
    bounds: Bounds

    def to_json_dict(self, codomain: Presentation):
        return {
            "status": self.status,
            "decisive_generator": self.decisive_generator,
            "decisive_parity": self.decisive_parity,
            "target": (None if self.certificate is None
                       else codomain.format_element(self.certificate.target)),
            "transcript": list(self.transcript),
            "certificate": (None if self.certificate is None
                            else self.certificate.to_json_dict(codomain)),
            "bounds": self.bounds.to_json_dict(),
        }


def _validate_link_map(link_map: GenMap):
    S, T = link_map.source, link_map.target
    for gi, val in link_map.gen_values.items():
        g = S.generators[gi]
        if g.role != "short":
            raise MapError(f"link map assigns the long generator {g.name}")
        if not val:
            raise MapError(f"link map sends {g.name} to zero")
        for w in val:
            if T.word_length(w) != 1:
                raise MapError(
                    f"link map value of {g.name} is not a sum of single "
                    f"generators")
            if T.generators[w[0]].role != "short":
                raise MapError(
                    f"link map value of {g.name} leaves the codomain's links")


def _idem_images(link_map: GenMap):
    """S(e): codomain idempotents forced adjacent to each domain idempotent."""
    S = link_map.source
    images: dict[int, set] = {e.index: set() for e in S.idempotents}
    for gi in link_map.gen_values:
        g = S.generators[gi]
        ends = link_map.value_ends(gi)
        images[g.source].add(ends[0])
        images[g.target].add(ends[1])
    return images


def _image_ends(idem_images, g):
    """Candidate (source, target) pairs of phi(g); empty when unknown."""
    return [(s, t) for s in sorted(idem_images[g.source])
            for t in sorted(idem_images[g.target])]


def _parity_part(T: Presentation, el: Element, bit: int) -> Element:
    return {w: c for w, c in el.items() if T.word_length(w) % 2 == bit}


def _expand(T: Presentation, coeff, values):
    """coeff times the product of `values` (sums of single generators), as
    one (coefficient, word) term per choice of a term from each value."""
    for terms in itertools.product(*(v.items() for v in values)):
        word, c = (), coeff
        for w, wc in terms:
            word, c = word + w, T.ring.mul(c, wc)
        yield c, word


def _map_differential(S, T, assigned, idem_images, gidx):
    """Image of d(gen) under the link map: (known Element, symbolic
    triples, None), or (None, None, reason) when it cannot be mapped.

    Triples are (coeff, left word, long gen index, right word), one per
    expanded term around a word's single unassigned long letter.
    """
    known = T.zero()
    symbolic = []
    for w, c in S.differential.get(gidx, {}).items():
        if isinstance(w, int):
            if not idem_images[w]:
                return None, None, (f"no image idempotents derived for "
                                    f"{S.idempotents[w].label}")
            T.ring.add_into(known, [(d, c) for d in sorted(idem_images[w])])
            continue
        longs = [k for k, i in enumerate(w) if S.generators[i].role == "long"]
        if len(longs) > 1:
            return None, None, (f"word {S.format_word(w)} has more than "
                                f"one long letter")
        for i in w:
            if S.generators[i].role == "short" and i not in assigned:
                return None, None, (f"short generator "
                                    f"{S.generators[i].name} unassigned")
        if longs:
            k = longs[0]
            right = list(_expand(T, T.ring.one(),
                                 [assigned[i] for i in w[k + 1:]]))
            for lc, lw in _expand(T, c, [assigned[i] for i in w[:k]]):
                for rc, rw in right:
                    symbolic.append((T.ring.mul(lc, rc), lw, w[k], rw))
            continue
        for coeff, word in _expand(T, c, [assigned[i] for i in w]):
            if not T.composable(word):
                raise MapError(f"link map image of {S.format_word(w)} is "
                               f"not composable")
            T.ring.add_into(known, ((word, coeff),))
    return known, symbolic, None


def _correction_blocks(S, T, wt, symbolic, bit, constraints, transcript):
    """One block per symbolic generator h and parity zbit of its bounded
    correction z (the zbit part of phi(h) that lands in the target's
    parity), in order: (h, zbit, slots, cpart, offset).  Slots are
    (coeff, lw, rw), one per term coeff*lw*z*rw that joins d u; cpart is
    what d z must equal, None when h is unconstrained; offset is the
    weight wt(lw) + wt(rw) that every slot shares, None when they differ.
    """
    blocks = {}
    for coeff, lw, h, rw in symbolic:
        zbit = (bit - len(lw) - len(rw)) % 2
        # d u = target + sum coeff*lw*z*rw: z's terms join d u negated
        blocks.setdefault((h, zbit), []).append((T.ring.neg(coeff), lw, rw))
    out = []
    for (h, zbit), slots in sorted(blocks.items()):
        hg = S.generators[h]
        constraint = constraints.get(h)
        if constraint is not None:
            cpart = _parity_part(T, constraint, 1 - zbit)
            note = ("a cycle" if not cpart else
                    f"constrained by {T.format_element(cpart)}")
            transcript.append(
                f"  symbolic phi({hg.name}) {_PARITIES[zbit]} part is {note} "
                f"(image of d {hg.name} is {T.format_element(constraint)})")
        else:
            cpart = None
            transcript.append(f"  symbolic phi({hg.name}) is unconstrained")
        offsets = {word_weight(wt, lw + rw) for _, lw, rw in slots}
        out.append((h, zbit, slots, cpart,
                    offsets.pop() if len(offsets) == 1 else None))
    return out


def _rows(wt, target, blocks):
    """The right-hand side's rows beyond the target's words, and the
    weights of all its rows: each constrained block's ("c", h, zbit, rw)
    rows, where d z must equal the block's cpart, at wt(rw) + offset, the
    weight of the z columns that reach them.  The weights are None when a
    block's slots mix offsets: its z columns are not weight-homogeneous,
    so the solve is not split."""
    rows, goals = {}, {word_weight(wt, w) for w in target}
    for h, zbit, _, cpart, offset in blocks:
        for rw, rc in (cpart or {}).items():
            rows["c", h, zbit, rw] = rc
            if offset is not None:
                goals.add(tuple(a + b for a, b in
                                zip(word_weight(wt, rw), offset)))
    if any(offset is None for *_, offset in blocks):
        goals = None
    return rows, goals


def _correction_columns(S, T, wt, goals, blocks, idem_images, bounds):
    """(tag, column) per bounded correction z of each block: z's mapped
    words, and when phi(d h) is known, d z on the block's ("c", h, zbit,
    rw) rows.  With goals, only the z whose weight plus the block's
    offset is a goal."""
    for h, zbit, slots, cpart, offset in blocks:
        hg = S.generators[h]
        z_cands = composable_words(
            T, degree=hg.degree, ends=_image_ends(idem_images, hg),
            max_len=bounds.max_word_length, max_level=bounds.max_level,
            parity=zbit, weights=None if goals is None else (wt, {
                tuple(a - b for a, b in zip(G, offset)) for G in goals}))
        for zw in z_cands:
            col = T.ring.add_into(
                {}, [(word, coeff) for coeff, lw, rw in slots
                     if T.composable(word := lw + zw + rw)])
            if cpart is not None:
                for rw, rc in T.d_word(zw).items():
                    col["c", h, zbit, rw] = rc
            yield ("z", h, zbit, zw), col


def obstruct_y_filling(domain: Presentation, codomain: Presentation,
                       link_map: GenMap, bounds: Bounds) -> ObstructionReport:
    """Refute dg-maps extending `link_map` via the word-length parity argument.

    For each long domain generator whose differential image is computable
    from the link map, the image splits into even and odd parts (symbolic
    long generators contribute correction blocks whose parity components
    are constrained by the images of their own differentials).  A parity
    component that is certifiably not a boundary within bounds --
    corrections included -- is decisive and yields `obstructed`.  domain
    and codomain are link_map's source and target, or the same data.
    """
    S, T = link_map.source, link_map.target
    for given, own, end in ((domain, S, "source"), (codomain, T, "target")):
        if given is not own and not given.same_data(own):
            raise MapError(f"{link_map.name}: the {end} given is not the "
                           f"map's {end}")
    require_valid(S)
    pf = check_parity_flip(T)  # which validates T first
    if not pf.ok:
        raise UnsupportedCodomainError(
            f"codomain differential does not flip word-length parity "
            f"(witness {pf.witness[0]})")
    _validate_link_map(link_map)
    idem_images = _idem_images(link_map)
    long_gens = [g for g in S.generators if g.role == "long"]
    images = {g.index: _map_differential(S, T, link_map.gen_values,
                                         idem_images, g.index)
              for g in long_gens}
    # a symbolic generator's correction is constrained by the image of its
    # own differential when that image is fully known
    constraints = {gi: known for gi, (known, symbolic, reason)
                   in images.items() if reason is None and not symbolic}
    # d preserves these weights, so each solve splits by them
    wt = letter_weights(T)
    transcript = []
    for g in long_gens:
        known, symbolic, reason = images[g.index]
        if reason is not None:
            transcript.append(f"skip {g.name}: {reason}")
            continue
        u_ends = _image_ends(idem_images, g)
        if not u_ends:
            transcript.append(f"skip {g.name}: image ends of phi({g.name}) "
                              f"cannot be derived")
            continue
        for bit, parity_name in enumerate(_PARITIES):
            target = _parity_part(T, known, bit)
            if not target:
                continue
            opp = 1 - bit
            transcript.append(
                f"{g.name}: {parity_name} part of the mapped differential is "
                f"{T.format_element(target)}; a solution needs the "
                f"{_PARITIES[opp]} part of phi({g.name}) to bound it")
            blocks = _correction_blocks(S, T, wt, symbolic, bit, constraints,
                                        transcript)
            rows, goals = _rows(wt, target, blocks)
            # the u columns span every image end, since corrections can
            # land there; `candidates` counts the bounded u words of the
            # target's ends: the search at correction zero it states
            res = bounded_solve(
                T, target, bounds, parity=_PARITIES[opp],
                weights=None if goals is None else (wt, goals), ends=u_ends,
                rows=rows, extra=_correction_columns(S, T, wt, goals, blocks,
                                                     idem_images, bounds))
            if res.status == "none_within_bounds":
                transcript.append(
                    f"decisive: no bounded solution at {g.name} "
                    f"({parity_name} part)")
                return ObstructionReport(
                    "obstructed", g.name, parity_name, transcript,
                    replace(res, note="implied by the corrected decisive "
                                      "solve at correction zero"), bounds)
            transcript.append(
                f"  {g.name} ({parity_name} part): bounded solution exists; "
                f"not decisive")
    transcript.append("no decisive equation found within bounds")
    return ObstructionReport("inconclusive", None, None, transcript, None,
                             bounds)
