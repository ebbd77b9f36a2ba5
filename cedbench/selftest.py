"""Self-test: each oracle accepts cedga's real answer and rejects a planted
wrong one -- a wrong witness, a flipped verdict, a wrong exit code and an
h0 report with a rule dropped.  Every benchmark run calls
``problems(pkg)`` before measuring; it also runs on its own:

    python3 cedbench/selftest.py
"""
from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import oracles
import workloads


def problems(pkg):
    """Descriptions of every oracle that failed its self-test."""
    out = []

    def expect(name, accepts, verdict):
        if accepts != (verdict is None):
            out.append(f"{name}: oracle {'rejected' if accepts else 'accepted'}"
                       f" ({verdict})")

    # a planted wrong witness
    Q = pkg.coefficients.rationals()
    P = pkg.catalog.make_point_algebra(3, (0, 1, 0), 2, Q)
    data = oracles.PresentationData(P)
    word = (P.gen("c1_23").index, P.gen("c0_12").index)
    target = data.d({word: Fraction(1)})
    job = workloads._search_job(pkg, "selftest", P, data, target, 2, 2)
    real = job.run()
    expect("witness", True, job.check(real))
    for bad in ({w: 2 * c for w, c in real.witness.items()},
                {**real.witness, word: Fraction(3)},
                {(P.gen("c0_13").index,): Fraction(1)}):
        expect("planted witness", False,
               job.check(dataclasses.replace(real, witness=bad)))

    # a flipped verdict
    bundle = pkg.catalog.example("unknot_edge")
    job = workloads._obstruct_job(pkg, "unknot_edge", bundle, "codomain",
                                  "y_filling_links", 4)
    rep, again = job.run()
    expect("obstruction", True, job.check((rep, again)))
    expect("flipped obstruction", False,
           job.check((dataclasses.replace(rep, status="inconclusive"), again)))
    expect("flipped re-check", False,
           job.check((rep, dataclasses.replace(again, status="witness"))))
    job = workloads._trivial_job(pkg, "selftest", P, 3)
    res = job.run()
    expect("triviality", True, job.check(res))
    expect("flipped triviality", False,
           job.check(dataclasses.replace(res, certified_trivial=True)))

    # a wrong exit code
    text = pkg.dsl.serialize(pkg.catalog.CatalogBundle("t", {"main": P}))
    code, stdout = workloads.call_cli(pkg.cli, ["check-d2", "-", "--json"],
                                      text)
    expect("exit code", True, oracles.check_cli((code, stdout), 0, "pass"))
    expect("wrong exit code", False,
           oracles.check_cli((1, stdout), 0, "pass"))
    expect("wrong verdict", False,
           oracles.check_cli((0, stdout.replace('"pass"', '"failure"')), 0,
                             "pass"))

    # an h0 report with one rule dropped, and a reducible basis word
    P = pkg.catalog.example("unknot_two_handles").main
    data = oracles.PresentationData(P)
    relations = oracles.relations_of(data)
    rep = pkg.analysis.h0(P, degree_bound=8)
    expect("h0 report", True, oracles.check_h0_report(data, relations, rep))
    for k in range(len(rep.rules)):
        dropped = rep.rules[:k] + rep.rules[k + 1:]
        expect(f"h0 report without rule {k}", False,
               oracles.check_h0_report(
                   data, relations, dataclasses.replace(rep, rules=dropped)))
    lhs = rep.rules[0].split(" -> ")[0]
    expect("h0 basis with a rule's left side", False,
           oracles.check_h0_report(
               data, relations,
               dataclasses.replace(rep, basis=rep.basis + [lhs],
                                   dimension=rep.dimension + 1)))
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import cedga
    import cedga.cli  # noqa: F401  (binds cedga.cli and cedga.dsl)
    found = problems(cedga)
    for line in found:
        print("FAIL", line)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
