"""The four workloads: seeded inputs, the jobs that hand them to cedga, and
the oracle that judges each verdict.

Every workload builds several pools of inputs from its seed.  A pool is
one pass: the same fixed job list (the same maps, bounds, sizes and
commands) over freshly drawn inputs.  Timed passes cycle through the
pools, so a run's median pass averages over several draws and the
figures do not hang on one lucky or unlucky input.

Why these workloads:

* obstruct_gf2 -- the paper's headline computation (Y-filling parity
  obstructions); word enumeration dominates and it is the only GF(2)
  elimination.  The seed reorders the link generators' declarations and
  the jobs only, so every verdict is the same.
* search_q -- exactness searches over Q; Fraction elimination dominates
  and it is the only workload whose solves are feasible (witness,
  back-substitution, re-check).
* verify_cli -- the command line in-process on seeded .cedga text: the
  only workload through ``dsl`` and ``cli``; d^2, chain maps and
  augmentations, with no enumeration and no solving.
* h0_rewrite -- degree-0 homology; the only workload that runs the
  noncommutative completion.  The one family of draws that can show
  ROADMAP item 4 is drawn from a fixed seed, so every pass fails the
  same jobs.

Known defects (ROADMAP items 4 and 5) stay in the job lists: a job that
fails is counted as failed, never dropped.  Job.known_defect names the
defect a job may show and Job.signature how its failure message starts.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the oracle agrees
    known_defect: Optional[str] = None  # a recorded defect it may show ...
    signature: str = ""  # ... when the failure message starts with this

    def defect(self, error):
        if self.known_defect and error.startswith(self.signature):
            return self.known_defect
        return None


class Setup:
    """The cedga package, the seeded random source, the hash of every
    generated input, and the time spent in catalog constructors."""

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.rng = random.Random(seed)
        self.catalog_s = 0.0
        self._hash = hashlib.sha256()

    def record(self, *parts):
        for part in parts:
            self._hash.update(str(part).encode())
            self._hash.update(b"\0")

    def catalog(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.catalog_s += time.perf_counter() - t0

    @property
    def input_hash(self):
        return self._hash.hexdigest()


def _ring(pkg, name):
    co = pkg.coefficients
    return {"Q": co.rationals, "GF2": co.gf2,
            "laurent": lambda: co.laurent("t")}[name]()


def _expect(label, got, want):
    return None if got == want else f"{label} {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# obstruct_gf2
# ---------------------------------------------------------------------------

OBSTRUCT_MAPS = (("unknot_edge", "codomain", "y_filling_links"),
                 ("a3_link", "codomain_xw_yv", "pairing_xw_yv"),
                 ("a3_link", "codomain_yv_xw", "pairing_yv_xw"),
                 ("a3_arboreal", "codomain", "pairing_b"))
OBSTRUCT_LENGTHS = (4, 5, 6)


def shuffle_declarations(text, rng):
    """Reorder the short (link) generators' ``gen`` lines in each
    presentation block; the same algebra under other generator indices.

    Long generators keep their places: the obstruction tries them in
    declaration order and stops at the first decisive one, so moving them
    changes which certificate is computed, and with it the work done.
    """
    out, block = [], []
    for line in text.split("\n") + [""]:
        if line.startswith("  gen "):
            block.append(line)
            continue
        short = [g for g in block if " short " in g]
        rng.shuffle(short)
        moved = iter(short)
        out += [next(moved) if " short " in g else g for g in block]
        block = []
        out.append(line)
    return "\n".join(out[:-1])


def obstruct_gf2(s: Setup, pools):
    pkg = s.pkg
    texts = {name: pkg.dsl.serialize(s.catalog(pkg.catalog.example, name))
             for name in sorted({m[0] for m in OBSTRUCT_MAPS})}
    out = []
    for _ in range(pools):
        jobs = []
        for name, cod, lm in OBSTRUCT_MAPS:
            # each map gets its own declaration order, so the two a3_link
            # maps (the heaviest jobs) do not share one draw
            shuffled = shuffle_declarations(texts[name], s.rng)
            s.record(shuffled)
            bundle = pkg.dsl.parse(shuffled)
            jobs += [_obstruct_job(pkg, name, bundle, cod, lm, length)
                     for length in OBSTRUCT_LENGTHS]
        s.rng.shuffle(jobs)
        s.record(*(j.label for j in jobs))
        out.append(jobs)
    return out


def _obstruct_job(pkg, name, bundle, cod_name, map_name, length):
    analysis, morphisms = pkg.analysis, pkg.morphisms
    bounds = analysis.Bounds(max_word_length=length, max_level=2)
    dom, cod = bundle.main, bundle.presentations[cod_name]
    link_map = bundle.maps[map_name]

    def run():
        rep = morphisms.obstruct_y_filling(dom, cod, link_map, bounds)
        cert = rep.certificate
        again = None if cert is None else analysis.exactness_search(
            cod, cert.target, bounds, parity=cert.parity)
        return rep, again

    def check(result):
        rep, again = result
        # Acceptance criterion 6 and the paper: all four links are
        # obstructed, with a certificate that re-checks as non-exact.
        return (_expect("verdict", rep.status, "obstructed")
                or _expect("certificate bounds", rep.certificate.bounds,
                           bounds)
                or _expect("re-check", again.status, "none_within_bounds"))

    return Job(f"{name}/{map_name} L={length}", run, check)


# ---------------------------------------------------------------------------
# search_q
# ---------------------------------------------------------------------------

# (points n, p_max, word length L, band of candidate-column counts).  The
# band fixes how big each search is, so its cost hardly moves with the
# seed; the count is the benchmark's own, taken before cedga is asked.
SEARCH_CELLS = ((3, 2, 3, (30, 45)), (4, 3, 3, (110, 140)),
                (5, 3, 3, (170, 220)), (3, 2, 4, (185, 220)),
                (3, 3, 4, (500, 690)), (4, 2, 4, (440, 600)),
                (5, 2, 4, (450, 600)), (3, 2, 5, (850, 1000)))
TRIVIAL_LENGTHS = (6, 7, 8)


def count_candidates(data, source, target, degree, max_len, max_level):
    """Composable words with these ends and degree, length 1..max_len."""
    by_target = {}
    for i, lvl in enumerate(data.levels):
        if lvl <= max_level:
            by_target.setdefault(data.targets[i], []).append(i)
    layer = Counter({(target, 0): 1})
    total = 0
    for _ in range(max_len):
        nxt = Counter()
        for (idem, deg), n in layer.items():
            for g in by_target.get(idem, ()):
                nxt[(data.sources[g], deg + data.degrees[g])] += n
        total += nxt[(source, degree)]
        layer = nxt
    return total


def by_target(data):
    out = {}
    for i, t in enumerate(data.targets):
        out.setdefault(t, []).append(i)
    return out


def random_word(data, rng, length, letters=None):
    """A composable word grown letter by letter from a uniform first
    letter; None when it gets stuck."""
    letters = letters or by_target(data)
    word = [rng.randrange(len(data.names))]
    for _ in range(length - 1):
        options = letters.get(data.sources[word[-1]])
        if not options:
            return None
        word.append(rng.choice(options))
    return tuple(word)


def _draw_target(s, n, p_max, length, band):
    pkg = s.pkg
    while True:
        m = tuple(s.rng.randint(0, 1) for _ in range(n))
        P = s.catalog(pkg.catalog.make_point_algebra, n, m, p_max,
                      pkg.coefficients.rationals())
        data = oracles.PresentationData(P)
        letters = by_target(data)
        for _ in range(200):
            w = random_word(data, s.rng, length, letters)
            if w is None:
                continue
            target = data.d({w: Fraction(1)})
            if not target:
                continue
            src, tgt = data.ends(w)
            degree = sum(data.degrees[i] for i in w)
            if band[0] <= count_candidates(data, src, tgt, degree, length,
                                           p_max) <= band[1]:
                s.record(n, p_max, length, m, w)
                return P, data, target


def search_q(s: Setup, pools):
    pkg = s.pkg
    Q = pkg.coefficients.rationals()
    unknot = s.catalog(pkg.catalog.example, "unknot_one_handle").main
    i3 = s.catalog(pkg.catalog.make_point_algebra, 3, (0, 0, 0), 2, Q)
    out = []
    for _ in range(pools):
        jobs = []
        for n, p_max, length, band in SEARCH_CELLS:
            P, data, target = _draw_target(s, n, p_max, length, band)
            jobs.append(_search_job(pkg, f"I{n} p={p_max} L={length}",
                                    P, data, target, length, p_max))
        jobs += [_trivial_job(pkg, f"unknot_one_handle trivial L={L}",
                              unknot, L) for L in TRIVIAL_LENGTHS]
        jobs.append(_trivial_job(pkg, "I3/Q trivial L=5", i3, 5))
        s.rng.shuffle(jobs)
        s.record(*(j.label for j in jobs))
        out.append(jobs)
    return out


def _search_job(pkg, label, P, data, target, length, p_max):
    analysis = pkg.analysis
    bounds = analysis.Bounds(max_word_length=length, max_level=p_max)

    def run():
        return analysis.exactness_search(P, target, bounds)

    def check(res):
        # exact by construction: the drawn word itself is a witness
        return (_expect("verdict", res.status, "witness")
                or oracles.check_witness(data, res.witness, target, length,
                                         p_max))

    return Job(label, run, check)


def _trivial_job(pkg, label, P, length):
    analysis = pkg.analysis
    bounds = analysis.Bounds(max_word_length=length, max_level=2)

    def run():
        return analysis.is_trivial(P, bounds)

    def check(res):
        # Acceptance criterion 9: neither the unknot nor I3 is trivial.
        return (_expect("certified_trivial", res.certified_trivial, False)
                or _expect("search", res.search.status,
                           "none_within_bounds"))

    return Job(label, run, check)


# ---------------------------------------------------------------------------
# verify_cli
# ---------------------------------------------------------------------------

# (n, p_max, ring, closed); the seed draws the potentials
POINT_SPECS = ((8, 4, "Q", None), (8, 4, "GF2", None),
               (6, 3, "laurent", None))
HAT_SPECS = ((4, 3, "Q", False), (5, 3, "GF2", True),
             (4, 2, "laurent", False))
ITEM5 = ("ROADMAP item 5: a coefficient {} under ring {} escapes the parser "
         "as ZeroDivisionError instead of exit 2")


def call_cli(cli, argv, text):
    """cli.main in-process with `text` on standard input."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _cli_job(s, label, argv, text, code, verdict=None, extra=None,
             known_defect=None):
    """`known_defect` is expected to show as an exception escaping main."""
    pkg = s.pkg
    s.record(label, argv, text)

    def run():
        return call_cli(pkg.cli, argv, text)

    def check(result):
        return (oracles.check_cli(result, code, verdict)
                or (extra(result) if extra else None))

    return Job(label, run, check, known_defect, "raised ZeroDivisionError")


def _text(s, presentations, maps=None):
    pkg = s.pkg
    bundle = pkg.catalog.CatalogBundle("bench", presentations, maps or {},
                                       {}, [])
    return pkg.dsl.serialize(bundle)


def _linearized(result):
    gens = json.loads(result[1].strip().splitlines()[-1])[
        "certificates"]["generators"]
    # partial linearization keeps exactly the long generators a and ah
    return _expect("linearized generators", gens, ["a", "ah"])


def verify_cli(s: Setup, pools):
    pkg, rng, cat = s.pkg, s.rng, s.catalog
    saddle = pkg.dsl.serialize(cat(pkg.catalog.example, "saddle_cobordism"))
    torus = pkg.dsl.serialize(cat(pkg.catalog.example, "singular_torus"))
    out = []
    for _ in range(pools):
        jobs = []
        for kind, specs in (("point", POINT_SPECS), ("hat", HAT_SPECS)):
            for n, p_max, ring, closed in specs:
                m = tuple(rng.randint(-1, 1) for _ in range(n))
                if kind == "point":
                    P = cat(pkg.catalog.make_point_algebra, n, m, p_max,
                            _ring(pkg, ring))
                else:
                    P = cat(pkg.catalog.make_hat_point_algebra, n, m, p_max,
                            closed=closed, ring=_ring(pkg, ring))
                text = _text(s, {"main": P})
                name = f"{kind} n={n} p={p_max} {ring}"
                # alternating signs: d^2 = 0 for every potential vector
                cmds = ["check-d2", "grade"] + (
                    ["parity"] if kind == "point" else [])
                jobs += [_cli_job(s, f"{cmd} {name}", [cmd, "-", "--json"],
                                  text, 0, "pass") for cmd in cmds]
        # uniform_minus fails exactly when the potentials mix parity
        bit = rng.randint(0, 1)
        same = tuple(bit + 2 * rng.randint(-1, 1) for _ in range(5))
        mixed = tuple(rng.randint(-1, 1) for _ in range(4)) + (0, 1)
        for label, m, code, verdict in (
                ("uniform parity", same, 0, "pass"),
                ("mixed parity", mixed, 1, "counterexample")):
            P = cat(pkg.catalog.make_point_algebra, len(m), m, 3,
                    pkg.coefficients.rationals(),
                    signs=pkg.catalog.UNIFORM_MINUS)
            jobs.append(_cli_job(
                s, f"check-d2 uniform_minus {label}",
                ["check-d2", "-", "--json"], _text(s, {"main": P}), code,
                verdict))
        for ring in ("GF2", "Q"):
            left = cat(pkg.catalog.make_point_algebra, 4,
                       tuple(rng.randint(-1, 1) for _ in range(4)), 3,
                       _ring(pkg, ring), prefix="x")
            right = cat(pkg.catalog.make_point_algebra, 4,
                        tuple(rng.randint(-1, 1) for _ in range(4)), 3,
                        _ring(pkg, ring), prefix="y")
            fp, inc1, inc2 = cat(pkg.catalog.free_product, left, right)
            text = _text(s, {"left": left, "right": right, "main": fp},
                         {"inc1": inc1, "inc2": inc2})
            jobs.append(_cli_job(s, f"verify-map free_product {ring}",
                                 ["verify-map", "-", "--json"], text, 0,
                                 "pass"))
        jobs.append(_cli_job(s, "verify-map saddle_cobordism/Phi",
                             ["verify-map", "-", "--json"], saddle, 0,
                             "pass"))
        jobs.append(_cli_job(s, "verify-aug singular_torus",
                             ["verify-aug", "-", "--json"], torus, 0, "pass"))
        for aug in ("eps", "eps_prime"):
            jobs.append(_cli_job(
                s, f"linearize singular_torus/{aug}",
                ["linearize", "-", "-", "-o", "-", "--aug", aug, "--json"],
                torus, 0, "ok", extra=_linearized))
        jobs += _malformed_jobs(s)
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def _malformed_jobs(s):
    pkg, rng = s.pkg, s.rng
    argv = ["check-d2", "-", "--json"]
    jobs = []
    for ring in ("Q", "GF2"):
        P = s.catalog(pkg.catalog.make_point_algebra, 3,
                      tuple(rng.randint(-1, 1) for _ in range(3)), 2,
                      _ring(pkg, ring))
        lines = _text(s, {"main": P}).split("\n")
        diffs = [i for i, line in enumerate(lines)
                 if line.startswith("  diff ")]
        k = rng.choice(diffs)
        head = lines[k].split(" = ")[0]
        bad_name = lines[:k] + [f"{head} = undeclared_{rng.randrange(99)}"] \
            + lines[k + 1:]
        unclosed = [line for line in lines if line != "}"]
        bad = "1/0" if ring == "Q" else "1/2"
        bad_coeff = lines[:k] + [f"{head} = {bad}"] + lines[k + 1:]
        for label, text, defect in (
                ("undeclared name", bad_name, None),
                ("unclosed block", unclosed, None),
                (f"coefficient {bad}", bad_coeff, ITEM5.format(bad, ring))):
            jobs.append(_cli_job(s, f"malformed {ring}: {label}", argv,
                                 "\n".join(text), 2, known_defect=defect))
    return jobs


# ---------------------------------------------------------------------------
# h0_rewrite
# ---------------------------------------------------------------------------

# (jobs per pool, idempotents, letters, relations, menu of relation word
# lengths); counts are drawn from the (lo, hi) ranges, the ring from Q and
# GF(2).  Each family was chosen for a light tail: no draw among a thousand
# took more than 0.1 s at degree bound 8.  Five letters over two
# idempotents were left out: their bases reach 60 000 words and 0.4 s, so
# the slowest job and the peak memory hung on single draws.
H0_FAMILIES = ((240, (1, 1), (3, 3), (4, 4), ((2, 2),)),
               (40, (2, 2), (3, 4), (3, 5), ((2, 2), (2, 1), (1, 1), (2, 0))),
               (40, (1, 2), (3, 3), (3, 5), ((2, 2), (2, 1), (1, 1))))
# Family 1 is the only one with a word of length 0 (an idempotent) in a
# relation, so the only one that can collapse to the ground ring and so
# show ROADMAP item 4: on the seed, 0 to 9 of a pool's 40 draws did.  A
# number of failing jobs that changes from pass to pass would make the
# failure ratio of a run hang on which pools it reached, so family 1 is
# drawn once, from H0_FIXED_SEED, and every pool and every --seed runs
# the same 40 presentations.  Families 0 and 2 cannot collapse: their
# rules rewrite words of length >= 1 into words of length >= 1.
H0_FIXED_FAMILY, H0_FIXED_SEED = 1, "h0_rewrite family 1"
# Braid relations a0a1a0 = a1a0a1 around a triangle of three letters: an
# infinite completion, truncated at the bound (29 rules, 4402 basis words,
# about 0.2 s), heavier than any draw, so it is every pass's slowest job.
BRAIDS = (((0, 1, 0), (1, 0, 1)), ((1, 2, 1), (2, 1, 2)),
          ((2, 0, 2), (0, 2, 0)))
H0_DEGREE_BOUND = 8
ITEM4 = ("ROADMAP item 4: interreduce drops a degenerate result, so h0 "
         "reports a ground ring where H0 = 0")


def random_h0_presentation(pkg, rng, n_idem, n_letters, n_rel, menu):
    """Degree-0 letters and degree -1 generators whose differentials are
    binomials w1 +- w2 in the letters (a length 0 word is an idempotent)."""
    while True:
        ring = _ring(pkg, rng.choice(("Q", "GF2")))
        P = pkg.algebra.Presentation(ring)
        for i in range(n_idem):
            P.add_idempotent(f"e{i + 1}")
        letters = [P.add_generator(f"a{k}", 0, rng.randrange(n_idem),
                                   rng.randrange(n_idem))
                   for k in range(n_letters)]
        for g in letters:
            P.set_differential(g, {})
        data = oracles.PresentationData(P)
        letters = by_target(data)
        rels = []
        for _ in range(50 * n_rel):
            if len(rels) == n_rel:
                break
            src, tgt = rng.randrange(n_idem), rng.randrange(n_idem)
            words = [_word_between(data, letters, rng, src, tgt, length)
                     for length in rng.choice(menu)]
            if None in words or words[0] == words[1]:
                continue
            rels.append((src, tgt, words))
        if len(rels) < n_rel:
            continue
        for k, (src, tgt, (w1, w2)) in enumerate(rels):
            r = P.add_generator(f"r{k}", -1, src, tgt)
            P.set_differential(r, {w1: ring.one(),
                                   w2: ring.from_int(rng.choice((1, -1)))})
        return P


def _word_between(data, letters, rng, src, tgt, length):
    """A composable word from src to tgt, grown from the tgt end."""
    if length == 0:
        return src if src == tgt else None
    for _ in range(20):
        word, cur = [], tgt
        for i in range(length):
            options = letters.get(cur, ())
            if i == length - 1:
                options = [g for g in options if data.sources[g] == src]
            if not options:
                break
            word.append(rng.choice(options))
            cur = data.sources[word[-1]]
        else:
            return tuple(word)
    return None


def h0_rewrite(s: Setup, pools):
    pkg, rng = s.pkg, s.rng
    fixed = []
    for name, want in (("unknot_one_handle", (True, 1, None)),
                       ("unknot_two_handles",
                        (False, 4, {"e1", "e2", "t1_0_12", "t1_1_21"})),
                       ("saddle_cobordism", None)):
        P = s.catalog(pkg.catalog.example, name).main
        fixed.append(_h0_job(s, f"h0 {name}", P, want))
    fixed.append(_h0_job(s, "h0 ROADMAP item 4 repro", _item4_repro(pkg),
                         (False, None, None)))
    fixed.append(_h0_job(s, "h0 braid triangle", _braids(pkg)))
    fixed += _h0_draws(s, random.Random(H0_FIXED_SEED), H0_FIXED_FAMILY,
                       "fixed")
    out = []
    for pool in range(pools):
        jobs = list(fixed)
        for family in range(len(H0_FAMILIES)):
            if family != H0_FIXED_FAMILY:
                jobs += _h0_draws(s, rng, family, f"seeded pool{pool}")
        rng.shuffle(jobs)
        out.append(jobs)
    return out


def _h0_draws(s, rng, family, tag):
    count, idem, letters, rels, menu = H0_FAMILIES[family]
    jobs = []
    for k in range(count):
        P = random_h0_presentation(
            s.pkg, rng, rng.randint(*idem), rng.randint(*letters),
            rng.randint(*rels), menu)
        jobs.append(_h0_job(s, f"h0 {tag} F{family}#{k}", P))
    return jobs


def _item4_repro(pkg):
    P = pkg.algebra.Presentation(pkg.coefficients.rationals())
    P.add_idempotent("e1")
    for name in ("a", "b"):
        P.add_generator(name, 0, "e1", "e1")
        P.set_differential(name, {})
    for name in ("r1", "r2", "r3"):
        P.add_generator(name, -1, "e1", "e1")
    P.set_differential("r1", P.sub(P.el_word(["a", "b"]), P.one()))
    P.set_differential("r2", P.el_gen("a"))
    P.set_differential("r3", P.el_gen("b"))
    return P


def _braids(pkg):
    Q = pkg.coefficients.rationals()
    P = pkg.algebra.Presentation(Q)
    P.add_idempotent("e1")
    for k in range(3):
        P.add_generator(f"a{k}", 0, "e1", "e1")
        P.set_differential(f"a{k}", {})
    for k, (u, v) in enumerate(BRAIDS):
        P.add_generator(f"r{k}", -1, "e1", "e1")
        P.set_differential(f"r{k}", {u: Q.one(), v: Q.from_int(-1)})
    return P


def _h0_job(s, label, P, want=None):
    """want: (is_ground_ring, dimension or None, basis set or None).  Any
    h0 job may show ROADMAP item 4, as a lost ground-ring collapse."""
    analysis = s.pkg.analysis
    data = oracles.PresentationData(P)
    relations = oracles.relations_of(data)
    s.record(label, data.names, data.sources, data.targets, relations)

    def run():
        return analysis.h0(P, degree_bound=H0_DEGREE_BOUND)

    def check(rep):
        err = oracles.check_h0_report(data, relations, rep)
        if err or want is None:
            return err
        ground, dim, basis = want
        # Acceptance criterion 4, and for the repro: is_trivial certifies
        # d(x) = 1 at L=3, so H0 = 0 is not the ground ring.
        return (_expect("is_ground_ring", rep.is_ground_ring, ground)
                or (dim is not None and _expect("dimension", rep.dimension,
                                                dim))
                or (basis is not None and _expect("basis", set(rep.basis),
                                                  basis))
                or None)

    return Job(label, run, check, ITEM4, oracles.COLLAPSE_LOST)


WORKLOADS = {"obstruct_gf2": (obstruct_gf2, 8), "search_q": (search_q, 8),
             "verify_cli": (verify_cli, 2), "h0_rewrite": (h0_rewrite, 8)}
