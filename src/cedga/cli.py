"""Command-line entry point.

Every command but `catalog` returns (verdict, certificates, bounds);
`main` alone times it and prints it, as text or, under `--json`, as one
object {command, verdict, certificates, bounds, timings} that is
deterministic but for the timings.  Exit codes: 0 = a verdict in PASSING,
1 = any other verdict (the check did not hold), 2 = usage, parse or any
other error.  `-` as a file name reads standard input.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import fields

from . import analysis, catalog, dsl, morphisms
from .algebra import Presentation
from .analysis import Bounds


def _read(path: str) -> str:
    """The text of `path` ("-": standard input) with universal newlines;
    a byte that is not UTF-8 is a ParseError at its line and column.  A
    text stream without bytes underneath is read as it is."""
    if path == "-":
        if not hasattr(sys.stdin, "buffer"):
            return sys.stdin.read()
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        good = data[:exc.start].decode()
        raise dsl.ParseError.at(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                                good, len(good)) from None


def _load(path: str, env=None, target_env=None):
    return dsl.parse(_read(path), env=env, target_env=target_env)


def _bounds(args) -> Bounds:
    """The bound flags store under Bounds' field names; a flag not given
    or not taken keeps its default, so `bounds` always has every field."""
    return Bounds(**{f.name: getattr(args, f.name) for f in fields(Bounds)
                     if getattr(args, f.name, None) is not None})


def _select(table, name, what, flag=None, one=False):
    """The entries of `table` a command acts on: the one named, else all.
    With `flag` (the option that names an entry) an empty table is an
    error, and with `one` so is more than one entry."""
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
    names = catalog.catalog_names()
    if not args.name:
        for flag in ("emit", "pres", "map"):
            if getattr(args, flag) not in (None, False):
                raise ValueError(f"catalog --{flag} needs a NAME")
        print("\n".join(names))
        return
    _select(dict.fromkeys(names), args.name, "catalog example")
    bundle = catalog.example(args.name)
    if args.map:
        bundle = catalog.CatalogBundle(
            bundle.name, {}, _select(bundle.maps, args.map, "map"), {}, [])
    elif args.pres:
        # single-presentation files are canonically named "main" so the
        # multi-file obstruct workflow can reference them uniformly
        bundle = catalog.CatalogBundle(
            bundle.name, {"main": _single(bundle, args)}, {}, {}, [])
    elif not args.emit:
        for kind in ("presentations", "maps", "augmentations"):
            if getattr(bundle, kind):
                print(f"{kind}: {' '.join(getattr(bundle, kind))}")
        for note in bundle.notes:
            print(f"note: {note}")
        return
    sys.stdout.write(dsl.serialize(bundle))


PASSING = frozenset({"pass", "ok", "witness", "certified_trivial",
                     "obstructed", "ground-ring", "basis"})


def _report(rep):
    return rep.to_json_dict(), rep.ok


def _grade(P):
    val = P.validate()
    deg = analysis.DegreeReport.from_validation(val)
    return ({"validation": val.to_json_dict(), "degree": deg.to_json_dict()},
            val.ok and deg.ok)


def _chain_map(phi):
    try:
        return _report(morphisms.verify_chain_map(phi))
    except morphisms.MapError as exc:
        return {"ok": False, "error": str(exc)}, False


# command -> (help, verdict on failure, entry kind (its plural names the
# bundle's table), option naming one entry, entry -> (certificate, ok));
# each check looks its function up when called, so wrappers take effect.
CHECKS = {
    "check-d2": ("d squared vanishes", "counterexample", "presentation",
                 "--pres", lambda P: _report(analysis.check_d_squared(P))),
    "grade": ("degree homogeneity", "violation", "presentation", "--pres",
              _grade),
    "parity": ("word-length parity flip", "counterexample", "presentation",
               "--pres", lambda P: _report(analysis.check_parity_flip(P))),
    "verify-map": ("chain-map check", "failure", "map", "--map", _chain_map),
    "verify-aug": ("augmentation check", "failure", "augmentation", "--aug",
                   lambda eps: _report(morphisms.verify_augmentation(eps))),
}


def cmd_check(args):
    _, failed, kind, flag, check = CHECKS[args.command]
    certs, verdict = {}, "pass"
    for name, entry in _select(getattr(_load(args.file), kind + "s"),
                               getattr(args, flag[2:]), kind, flag).items():
        certs[name], held = check(entry)
        if not held:
            verdict = failed
    return verdict, certs, None


def cmd_h0(args):
    P = _single(_load(args.file), args)
    bounds = _bounds(args)
    rep = analysis.h0(P, degree_bound=bounds.degree_bound)
    return rep.verdict, {"h0": rep.to_json_dict()}, bounds


def cmd_exact(args):
    P = _single(_load(args.file), args)
    target = dsl.parse_element(args.target, P)
    bounds = _bounds(args)
    res = analysis.exactness_search(P, target, bounds, parity=args.parity)
    return res.status, {"search": res.to_json_dict(P)}, bounds


def cmd_trivial(args):
    P = _single(_load(args.file), args)
    bounds = _bounds(args)
    res = analysis.is_trivial(P, bounds, parity=args.parity)
    verdict = ("certified_trivial" if res.certified_trivial
               else "not_within_bounds")
    return verdict, {"search": res.search.to_json_dict(P)}, bounds


def cmd_linearize(args):
    bundle = _load(args.file)
    if args.augfile != args.file:
        bundle = _load(args.augfile, env=dict(bundle.presentations))
    ((name, eps),) = _select(bundle.augmentations, args.aug,
                             "augmentation", "--aug", one=True).items()
    lin = morphisms.partial_linearize(eps)
    text = dsl.serialize(
        catalog.CatalogBundle("linearized", {"main": lin}, {}, {}, []))
    certs = {"augmentation": name,
             "generators": [g.name for g in lin.generators]}
    if args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif args.json:
        # stdout holds the envelope alone, so the text goes inside it
        certs["text"] = text
    else:
        sys.stdout.write(text)
    return "ok", certs, None


def cmd_obstruct(args):
    if (args.codomain is None) != (args.link_map is None):
        raise ValueError("--codomain and --link-map must be given together")
    bundle = _load(args.file)
    if args.codomain:
        bundle = _load(args.link_map, env=bundle.presentations,
                       target_env=_load(args.codomain).presentations)
    ((name, link_map),) = _select(bundle.maps, args.map, "link map", "--map",
                                  one=True).items()
    bounds = _bounds(args)
    rep = morphisms.obstruct_y_filling(link_map.source, link_map.target,
                                       link_map, bounds)
    return rep.status, {"report": rep.to_json_dict(link_map.target),
                        "map": name}, bounds


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cedga",
        description="Chekanov-Eliashberg dg-algebra engine for singular "
                    "Legendrians")
    sub = ap.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")

    def command(name, func, help_, *positionals):
        p = sub.add_parser(name, help=help_, parents=[json_flag])
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func.__name__)
        return p

    def checks(*names):
        for cmd in names:
            help_, _, kind, flag, _ = CHECKS[cmd]
            command(cmd, cmd_check, help_, "file").add_argument(
                flag, help=f"{kind} name")

    def word_bounds(p, parity=False):
        if parity:
            p.add_argument("--parity", choices=("odd", "even"))
        p.add_argument("--max-len", dest="max_word_length", type=int,
                       metavar="MAX_LEN")
        p.add_argument("--max-level", type=int)

    # catalog prints names or .cedga text and has no envelope, so no --json
    p = sub.add_parser("catalog", help="list or emit worked examples")
    p.set_defaults(func=cmd_catalog.__name__)
    p.add_argument("name", nargs="?")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--emit", action="store_true")
    out.add_argument("--pres")
    out.add_argument("--map")

    checks("check-d2", "grade", "parity")
    p = command("h0", cmd_h0, "degree-0 homology by rewriting", "file")
    p.add_argument("--pres", help="presentation name (default: main)")
    p.add_argument("--degree-bound", type=int)

    p = command("exact", cmd_exact, "bounded exactness search", "file")
    p.add_argument("--target", required=True, help="element expression")
    p.add_argument("--pres", help="presentation name (default: main)")
    word_bounds(p, parity=True)

    p = command("trivial", cmd_trivial, "search for d(x) = 1", "file")
    p.add_argument("--pres", help="presentation name (default: main)")
    word_bounds(p, parity=True)

    checks("verify-map", "verify-aug")
    p = command("linearize", cmd_linearize, "partial linearization", "file",
                "augfile")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--aug")

    p = command("obstruct", cmd_obstruct,
                "Y-singularity filling obstruction", "file")
    p.add_argument("--codomain")
    p.add_argument("--link-map")
    p.add_argument("--map")
    word_bounds(p)
    return ap


# built on the first call of main, not at import; a command names its
# function, which main looks up when it runs, so wrappers take effect
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        result = globals()[args.func](args)
    except (OSError, ValueError) as exc:
        print(f"cedga: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"cedga: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if result is None:
        return 0
    verdict, certificates, bounds = result
    if args.json:
        ms = int((time.monotonic() - t0) * 1000)
        print(json.dumps({"command": args.command, "verdict": verdict,
                          "certificates": certificates,
                          "bounds": bounds and bounds.to_json_dict(),
                          "timings": {"total_ms": ms}}, sort_keys=True))
    else:
        print(f"{args.command}: {verdict}")
        for key in sorted(certificates):
            print(f"  {key}: {json.dumps(certificates[key], sort_keys=True)}")
    return 0 if verdict in PASSING else 1


if __name__ == "__main__":
    sys.exit(main())
