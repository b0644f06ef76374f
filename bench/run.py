#!/usr/bin/env python3
"""Seeded benchmark for causalprox.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in one process runs the
workload's ops back to back (a closed loop, no threads) until the ops
have taken S seconds, checks every answer against an oracle outside the
timed region, and prints a report.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Workloads: bounds, identify, check, identify-wide and
adjust; see bench/README.md for why each exists and what each metric
should move.  Op times are scaled to a nominal host speed measured by
reference probes between ops; see bench/hostspeed.py.

`correct` is false when the program returned a wrong answer.  An op that
raised instead counts in `failed` only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from tracing import NULL, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("bounds", "identify", "check", "identify-wide", "adjust")
SETUP_REPEATS = 3
WARMUP_OPS = 4  # run once, untimed, before the timed phase

END_TO_END = (
    ("correct_ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

SPANS = (
    "table.load_counts",
    "bounds.cells_from_table",
    "bounds.build_program",
    "bounds.lp_bounds",
    "bounds.certify_against_lp",
    "eigenid.identify_joint",
    "eigenid.identify_causal_effect",
    "eigenid.cross_moment_matrices",
    "eigenid.solve_pencil",
    "eigenid.recover_factors",
    "table.backdoor_adjust",
    "graph.d_separated",
    "graph.find_open_path",
    "graph.satisfies_backdoor",
    "graph.satisfies_frontdoor",
    "graph.find_adjustment_set",
    "synth.random_latent_spec",
    "synth.generate_latent_model",
)
# Failures broken out by error code; every other code still counts in
# the span's `.failed` total and is listed on the report line.
FAILURE_CODES = {
    "eigenid.identify_joint": (
        "E_SINGULAR", "E_COMPLEX_EIGS", "E_EIG_GAP", "E_EIG_SIGN",
        "E_PIVOT", "E_RANGE", "E_NONDIAGONAL", "E_ORDER_AMBIGUOUS",
    ),
    "eigenid.solve_pencil": ("E_SINGULAR", "E_COMPLEX_EIGS", "E_EIG_GAP", "E_EIG_SIGN"),
    "eigenid.recover_factors": ("E_PIVOT", "E_RANGE", "E_NONDIAGONAL"),
}
DERIVED = (
    ("bounds.lp_bounds.infeasible_share", "share", "lower"),
    ("graph.find_adjustment_set.subsets_tried", "count", "lower"),
    ("graph.find_adjustment_set.found_share", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) for every metric the traced run reports."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count", "higher"))
        out.append((f"{span}.self_s", "s", "lower"))
        out.append((f"{span}.failed", "count", "lower"))
        for code in FAILURE_CODES.get(span, ()):
            out.append((f"{span}.failed.{code}", "count", "lower"))
    return out + list(DERIVED)


# ---------------------------------------------------------------------------
# Environment


def _git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "causalprox").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(numpy_version):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def fresh_import_times(count):
    """Seconds `import causalprox` takes in each of `count` new interpreters."""
    probe = "import time; t = time.perf_counter(); import causalprox; print(time.perf_counter() - t)"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return [
        float(subprocess.run(
            [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True,
            text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(count)
    ]


def inputs_digest(ops):
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.inputs_text().encode() + b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Running ops


class Outcome:
    """What one execution of an op gave: an answer or an error code, its
    wall time, and the checker's complaint if the answer was wrong."""

    __slots__ = ("answer", "code", "seconds", "problem")

    def __init__(self, answer, code, seconds):
        self.answer, self.code, self.seconds, self.problem = answer, code, seconds, None

    @property
    def ok(self):
        return self.code is None and self.problem is None


def execute(op, tr, error_code):
    start = time.perf_counter()
    try:
        answer = op.run(tr)
    except Exception as exc:  # any raise fails the op; the loop goes on
        return Outcome(None, error_code(exc), time.perf_counter() - start)
    return Outcome(answer, None, time.perf_counter() - start)


def verify(op, outcome):
    if outcome.code is not None:
        return
    try:
        outcome.problem = op.check(outcome.answer)
    except Exception as exc:  # an answer the checker cannot read is wrong
        outcome.problem = f"checker rejected the answer: {exc!r}"


class Phase:
    """Closed-loop timed phase; `timed` counts op time only, so the
    checks and host-speed probes run between ops stay outside it.  Op
    times are kept in flat arrays, so that memory does not grow with the
    op count and move `peak_rss_mb`."""

    def __init__(self):
        self.clocks = array("d")  # op time elapsed before each op
        self.seconds = array("d")
        self.ok = bytearray()
        self.failed = 0
        self.codes = Counter()
        self.problems = []
        self.timed = 0.0  # sum of op wall times
        self.by_label = defaultdict(lambda: array("d"))  # op label -> seconds

    def record(self, op, outcome):
        self.clocks.append(self.timed)
        self.seconds.append(outcome.seconds)
        self.ok.append(outcome.ok)
        self.timed += outcome.seconds
        self.by_label[op.label].append(outcome.seconds)
        if outcome.ok:
            return
        self.failed += 1
        if outcome.code is not None:
            self.codes[outcome.code] += 1
        else:
            self.codes["WRONG_ANSWER"] += 1
            self.problems.append(outcome.problem)

    @property
    def attempted(self):
        return len(self.seconds)


def run_untraced(ops, seconds, error_code, speed):
    """Run ops until they have taken `seconds` at the nominal host speed,
    so that a run holds about the same ops whatever the host's speed."""
    phase = Phase()
    scaled = 0.0
    n = 0
    while scaled < seconds:
        if speed.due(phase.timed):
            speed.probe(phase.timed)
        op = ops[n % len(ops)]
        outcome = execute(op, NULL, error_code)
        verify(op, outcome)
        phase.record(op, outcome)
        scaled += outcome.seconds * speed.current()
        n += 1
    speed.probe(phase.timed)
    return phase


def run_traced(ops, seconds, error_code, tracer):
    """Each op runs untraced and traced, in alternating order, then its
    stage probes run under the tracer outside both op timings.  Only the
    traced answer is checked and recorded."""
    phase = Phase()
    plain_s = traced_s = 0.0
    n = 0
    while plain_s + traced_s < seconds:
        op = ops[n % len(ops)]
        order = (NULL, tracer) if n % 2 == 0 else (tracer, NULL)
        outcomes = {tr: execute(op, tr, error_code) for tr in order}
        plain, traced = outcomes[NULL], outcomes[tracer]
        plain_s += plain.seconds
        traced_s += traced.seconds
        verify(op, traced)
        phase.record(op, traced)
        op.probe(tracer, traced.answer)
        n += 1
    return phase, (traced_s - plain_s) / plain_s


# ---------------------------------------------------------------------------
# Metrics


def tail_rank(n):
    """(percentile, 1-based rank) of the highest whole-number percentile
    with at least ten of `n` ops beyond it; the slowest op when n <= 10."""
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, rank
    return 100, n


def latency_summary(seconds, ok):
    """Throughput, median and tail over every attempted op.  A failed op
    counts as unanswered within the timed phase, i.e. slower than any
    answered op."""
    import numpy as np  # already loaded by the timed import

    seconds = np.asarray(seconds, dtype=float)
    ok = np.asarray(ok, dtype=bool)
    timed = float(seconds.sum())
    values = np.sort(seconds[ok])
    answered = len(values)
    values = np.concatenate([values, np.full(len(seconds) - answered, timed)])
    n = len(values)
    pct, rank = tail_rank(n)
    return answered / timed, float(values[math.ceil(n / 2) - 1]), float(values[rank - 1]), pct, n


def end_to_end(phase, setup_s, raw_setup_s, speed):
    """Metrics from op times scaled to the nominal host speed; the raw
    wall-time figures go on the report line."""
    import numpy as np

    seconds = np.frombuffer(phase.seconds, dtype=float)
    ok = np.frombuffer(phase.ok, dtype=np.uint8).astype(bool)
    scaled = seconds * speed.factors(np.frombuffer(phase.clocks, dtype=float))
    rate, p50, tail, pct, n = latency_summary(scaled, ok)
    raw_rate, raw_p50, raw_tail, _, _ = latency_summary(seconds, ok)
    values = {
        "correct_ops_per_s": rate,
        "latency_p50_ms": 1000 * p50,
        "latency_tail_ms": 1000 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "latency_tail_ms": f"p{pct} of {n} ops",
        "failed_share": f"{phase.failed} of {phase.attempted} ops",
        "raw": {
            "correct_ops_per_s": raw_rate,
            "latency_p50_ms": 1000 * raw_p50,
            "latency_tail_ms": 1000 * raw_tail,
            "setup_s": raw_setup_s,
        },
    }
    return values, notes


def layer_values(tracer, overhead):
    values = {}
    for span in SPANS:
        values[f"{span}.calls"] = tracer.calls[span]
        values[f"{span}.self_s"] = tracer.self_s[span]
        values[f"{span}.failed"] = tracer.failed[span]
        for code in FAILURE_CODES.get(span, ()):
            values[f"{span}.failed.{code}"] = tracer.failed_by_code[span, code]
    lp_calls = tracer.calls["bounds.lp_bounds"]
    infeasible = tracer.failed_by_code["bounds.lp_bounds", "E_INFEASIBLE"]
    searches = tracer.calls["graph.find_adjustment_set"]
    values["bounds.lp_bounds.infeasible_share"] = infeasible / lp_calls if lp_calls else 0.0
    values["graph.find_adjustment_set.subsets_tried"] = tracer.counters[
        "graph.find_adjustment_set.subsets_tried"
    ]
    values["graph.find_adjustment_set.found_share"] = (
        tracer.counters["graph.find_adjustment_set.found"] / searches if searches else 0.0
    )
    values["trace.overhead_share"] = overhead
    return values


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "causalprox" / "__init__.py").is_file():
        print(f"error: no causalprox package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy

    import causalprox  # noqa: F401  (timed: users pay this import)

    first_import_s = time.perf_counter() - start
    import hostspeed
    import workloads

    error_code = workloads.error_code
    tracer = Tracer(error_code) if args.trace else None

    # Each set-up repeat times the import in a fresh interpreter, then
    # builds the inputs and warms up; reference probes either side of it
    # give the host speed it ran at.
    import_times, setup_times, scaled, digests, ops = [], [], [], set(), None
    before = hostspeed.probe_seconds(2)[-1]  # the first run is cold
    for _ in range(1 if args.trace else SETUP_REPEATS):
        ops = None  # let the previous repeat's inputs go before building anew
        import_times += fresh_import_times(1)
        start = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, tracer or NULL)
        for op in ops[:WARMUP_OPS]:
            execute(op, NULL, error_code)
        setup_times.append(time.perf_counter() - start)
        digests.add(inputs_digest(ops))
        after = hostspeed.probe_seconds(1)[0]
        host = (before + after) / 2
        scaled.append((import_times[-1] + setup_times[-1]) * hostspeed.NOMINAL_S / host)
        before = after
    if len(digests) != 1:
        print("error: one seed generated different inputs", file=sys.stderr)
        return 3
    raw_setup_s = statistics.median(i + s for i, s in zip(import_times, setup_times))
    setup_s = statistics.median(scaled)

    if args.trace:
        phase, overhead = run_traced(ops, args.seconds, error_code, tracer)
        metrics = layer_values(tracer, overhead)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        notes = {
            "failed_by_code": {
                f"{span}.{code}": n for (span, code), n in sorted(tracer.failed_by_code.items())
            },
        }
    else:
        speed = hostspeed.HostSpeed()
        phase = run_untraced(ops, args.seconds, error_code, speed)
        metrics, notes = end_to_end(phase, setup_s, raw_setup_s, speed)
        units = dict(END_TO_END)

    env = environment(numpy.__version__)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, inputs_sha256=digests.pop(), distinct_ops=len(ops),
               first_import_s=first_import_s, import_s=import_times,
               inputs_and_warmup_s=setup_times, scaled_setup_s=scaled)
    print("environment " + json.dumps(env, sort_keys=True))
    if not args.trace:
        for name, unit in END_TO_END:
            note = notes.get(name)
            print(f"{name:<20} {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
        share = phase.failed / phase.attempted
        print(f"{'failed_share':<20} {share:.6g} share  ({notes['failed_share']})")
        during = sorted(speed.seconds)
        print(
            f"host speed: {len(during)} reference probes between ops, ms (min, median, "
            f"max): {1000 * during[0]:.2f}, {1000 * statistics.median(during):.2f}, "
            f"{1000 * during[-1]:.2f}; "
            f"times above are scaled to {1000 * hostspeed.NOMINAL_S:g} ms; unscaled: "
            + json.dumps({k: round(v, 6) for k, v in notes["raw"].items()})
        )
    print("queue wait: none; one client on one thread, so no op waits for another")
    print("latency by op label, ms (count, p50, max): " + json.dumps({
        label: [len(xs), round(1000 * statistics.median(xs), 4), round(1000 * max(xs), 4)]
        for label, xs in sorted(phase.by_label.items())
    }))
    if phase.codes:
        print("failed ops by code: " + json.dumps(dict(sorted(phase.codes.items()))))
    for problem in phase.problems[:5]:
        print(f"wrong answer: {problem}")
    if args.trace:
        print("failed spans by code: " + json.dumps(notes["failed_by_code"]))

    print(json.dumps({
        "correct": not phase.problems,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
