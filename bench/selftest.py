#!/usr/bin/env python3
"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

Run from the repository root.  For each workload it runs real ops,
asserts that the checker accepts their answers, then corrupts one answer
(a bound, a joint, a witness, a verdict) and asserts that the checker
flags it.  It also cross-checks the Bayes-Ball oracle against the
package's d-separation and its witnesses, and checks that BENCHMARK.json
lists exactly the metrics `run.py` prints.  Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction

import run

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

from causalprox import (  # noqa: E402
    JointTable,
    build_diagram,
    d_separated,
    find_open_path,
)

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def first(ops, predicate):
    for op in ops:
        answer = op.run(NULL)
        if predicate(op, answer):
            return op, answer
    raise AssertionError("no op in the pool has the wanted property")


def halve_upper(res):
    assert res.upper > res.lower
    return dataclasses.replace(res, upper=(res.upper + res.lower) / 2)


def test_bounds():
    ops = workloads.build("bounds", 0, NULL)
    op, cert = first(ops, lambda o, a: o.kind == "certify" and a.lp["x0"].upper > 0)
    expect(op.check(cert) is None, "bounds: certified monotone bounds pass")
    bad = dataclasses.replace(cert, lp=dict(cert.lp, x0=halve_upper(cert.lp["x0"])))
    expect(op.check(bad) is not None, "bounds: a lowered x0 upper bound is flagged")

    op, out = first(ops, lambda o, a: o.kind == "unrestricted")
    expect(op.check(out) is None, "bounds: unrestricted LP bounds pass")
    wit = dict(out["x1"].witnesses["lower"])
    wit[next(t for t, m in wit.items() if m > 0)] = Fraction(0)
    bad = dict(out, x1=dataclasses.replace(
        out["x1"], witnesses=dict(out["x1"].witnesses, lower=wit)))
    expect(op.check(bad) is not None, "bounds: a witness with one type dropped is flagged")
    bad = dict(out, x1=halve_upper(out["x1"]))
    expect(op.check(bad) is not None, "bounds: a lowered x1 upper bound is flagged")

    op, out = first(ops, lambda o, a: o.kind == "infeasible")
    expect(out == workloads.INFEASIBLE and op.check(out) is None,
           "bounds: cells breaking a stochastic order are reported infeasible")
    expect(op.check({}) is not None, "bounds: solving an infeasible table is flagged")


def test_identify(workload):
    ops = workloads.build(workload, 0, NULL)
    for op in ops:
        try:
            answer = op.run(NULL)
        except Exception:  # identify-wide ops may fail; try the next
            continue
        break
    else:
        expect(workload == "identify-wide", f"{workload}: at least one op answers")
        return
    expect(op.check(answer) is None, f"{workload}: recovered joint and effects pass")
    recon, effects = answer
    probs = np.array(recon.table.probs, dtype=float)
    flat = probs.reshape(-1)
    hi, lo = int(flat.argmax()), int(flat.argmin())
    flat[hi], flat[lo] = flat[lo], flat[hi]
    bad_recon = dataclasses.replace(
        recon, table=JointTable(recon.table.schema, probs, "float")
    )
    expect(op.check((bad_recon, effects)) is not None,
           f"{workload}: a joint with two cells swapped is flagged")
    cat = sorted(effects)[0]
    dist = effects[cat].distribution
    shifted = np.roll(np.array(dist.probs, dtype=float), 1)
    bad_effects = dict(effects)
    bad_effects[cat] = dataclasses.replace(
        effects[cat], distribution=JointTable(dist.schema, shifted, "float")
    )
    expect(op.check((recon, bad_effects)) is not None,
           f"{workload}: a shifted effect distribution is flagged")


def test_check():
    ops = workloads.build("check", 0, NULL)
    op, (holds, path) = first(ops, lambda o, a: o.kind == "dsep" and not a[0])
    expect(op.check((holds, path)) is None, "check: d-connection with its witness passes")
    expect(op.check((True, None)) is not None, "check: a flipped d-separation verdict is flagged")
    expect(op.check((holds, path[:-1])) is not None, "check: a truncated witness is flagged")

    op, rep = first(ops, lambda o, a: o.kind == "backdoor" and a.failing_path)
    expect(op.check(rep) is None, "check: a failed back-door check with its path passes")
    bad = dataclasses.replace(rep, failing_path=tuple(reversed(rep.failing_path)))
    expect(op.check(bad) is not None, "check: a reversed back-door witness is flagged")
    bad = dataclasses.replace(rep, holds=True, failing_clause=None, failing_path=None)
    expect(op.check(bad) is not None, "check: a back-door check wrongly passed is flagged")

    op, rep = first(ops, lambda o, a: o.kind == "frontdoor" and a.failing_path)
    expect(op.check(rep) is None, "check: a failed front-door check with its path passes")
    bad = dataclasses.replace(rep, failing_path=rep.failing_path[1:])
    expect(op.check(bad) is not None, "check: a front-door witness missing its start is flagged")

    ops = workloads.build("adjust", 0, NULL)
    op, found = first(ops, lambda o, a: a)
    expect(op.check(found) is None, "adjust: the adjustment set found passes")
    expect(op.check(None) is not None, "adjust: a missed adjustment set is flagged")


def test_oracle_against_package():
    rng = random.Random(7)
    cases = disagreements = bad_paths = 0
    for _ in range(150):
        n = rng.randint(5, 10)
        labels, _, directed, bidirected = workloads.random_mixed_graph(rng, n, 0.3, 0.1)
        g = build_diagram(labels, directed=directed, bidirected=bidirected)
        mine = oracles.Graph(labels, directed, bidirected)
        for _ in range(6):
            a, b = rng.sample(labels, 2)
            given = tuple(v for v in labels if v not in (a, b) and rng.random() < 0.3)
            sep = d_separated(g, a, b, given)
            cases += 1
            if sep != mine.separated(a, b, given):
                disagreements += 1
            elif not sep and mine.path_problem(find_open_path(g, a, b, given), a, {b}, given):
                bad_paths += 1
    expect(disagreements == 0, f"oracle: Bayes-Ball agrees with d_separated on {cases} queries")
    expect(bad_paths == 0, "oracle: every find_open_path witness is an open path")


def test_metric_lists():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    expect(e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(layers == run.per_layer_metrics(), "BENCHMARK.json per_layer matches run.py")
    expect(all(w["name"] in run.WORKLOADS for w in spec["workloads"]),
           "BENCHMARK.json names only workloads run.py knows")


def test_failed_ops_rank_last():
    rate, p50, tail, _, n = run.latency_summary([0.001, 0.002, 0.0005], [True, True, False])
    expect(n == 3 and p50 == 0.002 and tail == 0.0035 and rate == 2 / 0.0035,
           "metrics: a failed op counts as slower than every answered op")


def test_tail_rank():
    expect(run.tail_rank(410) == (97, 398) and run.tail_rank(100000) == (99, 99000)
           and run.tail_rank(10) == (100, 10),
           "metrics: the tail is the highest whole percentile with ten ops beyond it")


def test_host_speed_scaling():
    speed = hostspeed.HostSpeed()
    speed.clocks, speed.seconds = [0.0, 10.0, 20.0], [hostspeed.NOMINAL_S / 2] * 3
    phase = run.Phase()
    op = workloads.build("bounds", 0, NULL)[0]
    phase.record(op, run.Outcome("answer", None, 0.001))
    values, notes = run.end_to_end(phase, 1.0, 1.0, speed)
    expect(abs(values["latency_p50_ms"] - 2.0) < 1e-9
           and abs(notes["raw"]["latency_p50_ms"] - 1.0) < 1e-9,
           "metrics: op times on a host twice as fast as nominal are doubled")


def main():
    test_metric_lists()
    test_failed_ops_rank_last()
    test_tail_rank()
    test_host_speed_scaling()
    test_oracle_against_package()
    test_bounds()
    test_identify("identify")
    test_identify("identify-wide")
    test_check()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
