"""The benchmark's tracer wraps cedga entry points by name, and its
oracles read result fields by name; these tests fail as soon as one of
those names moves, instead of only under a benchmark run."""
import json
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import cedga
import cedga.cli  # noqa: F401  (binds cedga.cli and cedga.dsl)
from cedga import example

BENCH = Path(__file__).resolve().parents[1] / "cedbench"
TRACING = BENCH / "tracing.py"
# `cedbench/run.py --workload W --seed 1 --counts-only`, one line per
# workload; a change that moves a counter re-pins it and says which
PINS = json.loads((Path(__file__).with_name("bench_counts_seed1.json"))
                  .read_text(encoding="utf-8"))


def _tracing():
    """cedbench/tracing.py as a module, read without writing a cache."""
    module = types.ModuleType("cedbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_counting_tracer_counts_h0_and_restores_every_attribute():
    tracing = _tracing()
    ring = cedga.coefficients.CoeffRing
    points = [(owner, attr) for owner, attr, _, _ in
              tracing.patch_points(cedga)]
    points += [(ring, op) for op in tracing.RING_OPS]
    before = {(owner, attr): vars(owner)[attr] for owner, attr in points}
    counts = Counter()
    patches = tracing.install_counting(cedga, counts)
    try:
        rep = cedga.analysis.h0(example("unknot_two_handles").main)
    finally:
        patches.restore()
    assert counts["analysis.rewrite.normal_form_calls"] > 0
    assert counts["analysis.h0.rules"] == len(rep.rules) > 0
    assert counts["coefficients.ops.Q"] > 0
    assert all(vars(owner)[attr] is fn
               for (owner, attr), fn in before.items())


def test_counting_tracer_sees_the_u_and_z_words_of_an_obstruction():
    """The u words enumerate through `analysis.composable_words` (the
    bounded solve), the z words through `morphisms.composable_words`;
    the tracer patches both names, so both reach its counters."""
    tracing = _tracing()
    B = example("a3_link")
    counts = Counter()
    patches = tracing.install_counting(cedga, counts)
    try:
        rep = cedga.morphisms.obstruct_y_filling(
            B.main, B.presentations["codomain_xw_yv"], B.maps["pairing_xw_yv"],
            cedga.Bounds(max_word_length=4, max_level=2))
    finally:
        patches.restore()
    assert rep.status == "obstructed"
    assert counts["analysis.enumerate.calls"] == 2
    assert counts["analysis.enumerate.words"] == 54
    assert counts["analysis.eliminate.columns"] == 54
    assert counts["analysis.eliminate.infeasible"] == 1


def _counted(tracing, run):
    counts = Counter()
    patches = tracing.install_counting(cedga, counts)
    try:
        return run(), counts
    finally:
        patches.restore()


def test_counting_tracer_sees_a_feasible_search_stop_early():
    """A feasible search solves once and stops at the column that puts
    the target in the span, so it adds fewer columns than it enumerates
    words.  The a3_link obstruction's solves are all infeasible, so it
    still adds a column for each u and z word."""
    tracing = _tracing()
    P = example("saddle_cobordism").presentations["codomain"]
    target = P.differential[P.gen("xh2_12").index]
    res, counts = _counted(tracing, lambda: cedga.exactness_search(
        P, target, cedga.Bounds(max_word_length=3)))
    assert res.status == "witness"
    assert counts["analysis.eliminate.solves"] == 1
    assert counts["analysis.eliminate.infeasible"] == 0
    assert 0 < counts["analysis.eliminate.columns"] < counts[
        "analysis.enumerate.words"]
    B = example("a3_link")
    rep, counts = _counted(tracing, lambda: cedga.morphisms.obstruct_y_filling(
        B.main, B.presentations["codomain_xw_yv"], B.maps["pairing_xw_yv"],
        cedga.Bounds(max_word_length=4, max_level=2)))
    assert rep.status == "obstructed"
    assert (counts["analysis.eliminate.solves"]
            == counts["analysis.eliminate.infeasible"])
    assert (counts["analysis.eliminate.columns"]
            == counts["analysis.enumerate.words"] > 0)


def test_benchmark_selftest_passes():
    """The oracles' self-test reads and replaces the result fields the
    benchmark checks (witness, status, certified_trivial, rules, basis,
    dimension); -B keeps it from writing bytecode into the checkout."""
    done = subprocess.run([sys.executable, "-B", str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "selftest: ok"


@pytest.mark.parametrize("workload", sorted(PINS))
def test_the_traced_counters_of_each_workload_stay_pinned(workload):
    """The counting pass over pool 0 at seed 1 gives the pinned inputs and
    counters; a mismatch names each counter that moved, as (pin, now)."""
    done = subprocess.run(
        [sys.executable, "-B", str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--counts-only"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got, pin = json.loads(done.stdout.strip().splitlines()[-1]), PINS[workload]
    assert got["input_sha256"] == pin["input_sha256"]
    moved = {k: (pin["counts"].get(k), got["counts"].get(k))
             for k in pin["counts"].keys() | got["counts"].keys()
             if pin["counts"].get(k) != got["counts"].get(k)}
    assert not moved
