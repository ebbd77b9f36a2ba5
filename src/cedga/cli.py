"""Command-line entry point.

Exit codes: 0 = pass/success, 1 = counterexample/failure/inconclusive
(the check did not hold), 2 = usage or parse error.  `-` as a file name
reads standard input.  `--json` emits one object with fields
{command, verdict, certificates, bounds, timings}; everything except the
timings is deterministic for identical inputs and flags.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import analysis, catalog, dsl, morphisms
from .algebra import Presentation
from .analysis import Bounds


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, env=None, target_env=None):
    return dsl.parse(_read(path), env=env, target_env=target_env)


def _bounds(args) -> Bounds:
    """The command's bounds; a flag the command does not take keeps its
    default, so the JSON `bounds` object always has all three fields."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    return Bounds(
        max_word_length=given.get("max_len", 6),
        max_level=given.get("max_level", 2),
        degree_bound=given.get("degree_bound", 8),
    )


def _emit(args, command, verdict, certificates, bounds, t0):
    ms = int((time.monotonic() - t0) * 1000)
    if args.json:
        obj = {"command": command, "verdict": verdict,
               "certificates": certificates,
               "bounds": bounds.to_json_dict() if bounds else None,
               "timings": {"total_ms": ms}}
        print(json.dumps(obj, sort_keys=True))
    else:
        print(f"{command}: {verdict}")
        for key in sorted(certificates):
            print(f"  {key}: {json.dumps(certificates[key], sort_keys=True)}")


def _select(table, name, what, flag=None, one=False):
    """The entries of `table` a command acts on: {name: entry} for a given
    name, else all of them.  With `flag` (the option that names an entry)
    an empty table is an error, and with `one` so is more than one entry.
    """
    if name is not None:
        if name not in table:
            raise ValueError(f"no {what} named {name!r}")
        return {name: table[name]}
    if flag and not table:
        raise ValueError(f"the file has no {what}")
    if one and len(table) != 1:
        raise ValueError(f"choose one {what} with {flag}")
    return table


def _single(bundle, args) -> Presentation:
    (P,) = _select(bundle.presentations, args.pres or "main",
                   "presentation").values()
    return P


def cmd_catalog(args):
    if not args.name:
        for name in catalog.catalog_names():
            print(name)
        return 0
    _select(dict.fromkeys(catalog.catalog_names()), args.name,
            "catalog example")
    bundle = catalog.example(args.name, p_max=args.p_max)
    if args.map:
        sub = catalog.CatalogBundle(
            bundle.name, {}, _select(bundle.maps, args.map, "map"), {}, [])
        sys.stdout.write(dsl.serialize(sub))
        return 0
    if args.pres:
        # single-presentation files are canonically named "main" so the
        # multi-file obstruct workflow can reference them uniformly
        sub = catalog.CatalogBundle(
            bundle.name, {"main": _single(bundle, args)}, {}, {}, [])
        sys.stdout.write(dsl.serialize(sub))
        return 0
    if args.emit:
        sys.stdout.write(dsl.serialize(bundle))
        return 0
    for kind, names in (("presentations", bundle.presentations),
                        ("maps", bundle.maps),
                        ("augmentations", bundle.augmentations)):
        if names:
            print(f"{kind}: {' '.join(names)}")
    for note in bundle.notes:
        print(f"note: {note}")
    return 0


def _report(check):
    """A per-presentation check as (certificate, ok)."""
    def run(P):
        rep = check(P)
        return rep.to_json_dict(), rep.ok
    return run


def _grade(P):
    val, deg = P.validate(), analysis.check_degree(P)
    return ({"validation": val.to_json_dict(), "degree": deg.to_json_dict()},
            val.ok and deg.ok)


# command -> (help, verdict on failure, presentation -> (certificate, ok))
CHECKS = {
    "check-d2": ("d squared vanishes", "counterexample",
                 _report(analysis.check_d_squared)),
    "grade": ("degree homogeneity", "violation", _grade),
    "parity": ("word-length parity flip", "counterexample",
               _report(analysis.check_parity_flip)),
}


def cmd_check(args):
    t0 = time.monotonic()
    _, failed, check = CHECKS[args.command]
    certs, ok = {}, True
    for name, P in _select(_load(args.file).presentations, args.pres,
                           "presentation", "--pres").items():
        certs[name], passed = check(P)
        ok = ok and passed
    _emit(args, args.command, "pass" if ok else failed, certs, None, t0)
    return 0 if ok else 1


def cmd_h0(args):
    t0 = time.monotonic()
    bundle = _load(args.file)
    P = _single(bundle, args)
    bounds = _bounds(args)
    rep = analysis.h0(P, degree_bound=bounds.degree_bound)
    # a basis only from a complete, uncut run with no collapse
    complete = not (rep.truncated or rep.degenerate or rep.cut)
    verdict = ("ground-ring" if rep.is_ground_ring else
               "basis" if complete else "inconclusive")
    _emit(args, "h0", verdict, {"h0": rep.to_json_dict()}, bounds, t0)
    return 1 if verdict == "inconclusive" else 0


def cmd_exact(args):
    t0 = time.monotonic()
    bundle = _load(args.file)
    P = _single(bundle, args)
    target = dsl.parse_element(args.target, P)
    bounds = _bounds(args)
    res = analysis.exactness_search(P, target, bounds, parity=args.parity)
    _emit(args, "exact", res.status, {"search": res.to_json_dict(P)},
          bounds, t0)
    return 0 if res.found else 1


def cmd_trivial(args):
    t0 = time.monotonic()
    bundle = _load(args.file)
    P = _single(bundle, args)
    bounds = _bounds(args)
    res = analysis.is_trivial(P, bounds, parity=args.parity)
    verdict = ("certified_trivial" if res.certified_trivial
               else "not_within_bounds")
    _emit(args, "trivial", verdict, {"search": res.search.to_json_dict(P)},
          bounds, t0)
    return 0 if res.certified_trivial else 1


def cmd_verify_map(args):
    t0 = time.monotonic()
    bundle = _load(args.file)
    certs, ok = {}, True
    for name, phi in _select(bundle.maps, args.map, "map", "--map").items():
        try:
            rep = morphisms.verify_chain_map(phi)
            certs[name] = rep.to_json_dict()
            ok = ok and rep.ok
        except morphisms.MapError as exc:
            certs[name] = {"ok": False, "error": str(exc)}
            ok = False
    _emit(args, "verify-map", "pass" if ok else "failure", certs, None, t0)
    return 0 if ok else 1


def cmd_verify_aug(args):
    t0 = time.monotonic()
    bundle = _load(args.file)
    certs, ok = {}, True
    for name, eps in _select(bundle.augmentations, args.aug, "augmentation",
                             "--aug").items():
        rep = morphisms.verify_augmentation(eps)
        certs[name] = rep.to_json_dict()
        ok = ok and rep.ok
    _emit(args, "verify-aug", "pass" if ok else "failure", certs, None, t0)
    return 0 if ok else 1


def cmd_linearize(args):
    t0 = time.monotonic()
    bundle = _load(args.file)
    env = dict(bundle.presentations)
    aug_bundle = bundle if args.augfile == args.file else _load(
        args.augfile, env=env)
    ((name, eps),) = _select(aug_bundle.augmentations, args.aug,
                             "augmentation", "--aug", one=True).items()
    lin = morphisms.partial_linearize(eps.presentation, eps)
    out_bundle = catalog.CatalogBundle("linearized", {"main": lin}, {}, {}, [])
    text = dsl.serialize(out_bundle)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    _emit(args, "linearize", "ok",
          {"augmentation": name,
           "generators": [g.name for g in lin.generators]}, None, t0)
    return 0


def cmd_obstruct(args):
    t0 = time.monotonic()
    bundle = _load(args.file)
    if args.codomain:
        cod_bundle = _load(args.codomain)
        lm_bundle = _load(args.link_map, env=bundle.presentations,
                          target_env=cod_bundle.presentations)
        maps = lm_bundle.maps
    else:
        maps = bundle.maps
    ((name, link_map),) = _select(maps, args.map, "link map", "--map",
                                  one=True).items()
    bounds = _bounds(args)
    rep = morphisms.obstruct_y_filling(link_map.source, link_map.target,
                                       link_map, bounds)
    _emit(args, "obstruct", rep.status,
          {"report": rep.to_json_dict(link_map.target), "map": name},
          bounds, t0)
    return 0 if rep.obstructed else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cedga",
        description="Chekanov-Eliashberg dg-algebra engine for singular "
                    "Legendrians")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, pres_default=False, parity=False):
        p.add_argument("--json", action="store_true")
        p.add_argument("--pres", help="presentation name"
                       + (" (default: main)" if pres_default else ""))
        if parity:
            p.add_argument("--parity", choices=("odd", "even"), default=None)

    def word_bounds(p):
        p.add_argument("--max-len", type=int, default=None)
        p.add_argument("--max-level", type=int, default=None)

    p = sub.add_parser("catalog", help="list or emit worked examples")
    p.add_argument("name", nargs="?")
    p.add_argument("--emit", action="store_true")
    p.add_argument("--p-max", type=int, default=2)
    p.add_argument("--pres")
    p.add_argument("--map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    for cmd, (help_, _, _) in CHECKS.items():
        p = sub.add_parser(cmd, help=help_)
        p.add_argument("file")
        common(p)
        p.set_defaults(func=cmd_check)

    p = sub.add_parser("h0", help="degree-0 homology by rewriting")
    p.add_argument("file")
    common(p, pres_default=True)
    p.add_argument("--degree-bound", type=int, default=None)
    p.set_defaults(func=cmd_h0)

    p = sub.add_parser("exact", help="bounded exactness search")
    p.add_argument("file")
    p.add_argument("--target", required=True, help="element expression")
    common(p, pres_default=True, parity=True)
    word_bounds(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("trivial", help="search for d(x) = 1")
    p.add_argument("file")
    common(p, pres_default=True, parity=True)
    word_bounds(p)
    p.set_defaults(func=cmd_trivial)

    p = sub.add_parser("verify-map", help="chain-map check")
    p.add_argument("file")
    p.add_argument("--map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_map)

    p = sub.add_parser("verify-aug", help="augmentation check")
    p.add_argument("file")
    p.add_argument("--aug")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_aug)

    p = sub.add_parser("linearize", help="partial linearization")
    p.add_argument("file")
    p.add_argument("augfile")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--aug")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_linearize)

    p = sub.add_parser("obstruct", help="Y-singularity filling obstruction")
    p.add_argument("file")
    p.add_argument("--codomain")
    p.add_argument("--link-map")
    p.add_argument("--map")
    p.add_argument("--json", action="store_true")
    word_bounds(p)
    p.set_defaults(func=cmd_obstruct)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"cedga: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
