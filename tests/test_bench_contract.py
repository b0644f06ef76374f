"""What the benchmark in bench/ needs from the package.

The benchmark builds from the same checkout and is kept unchanged between
its own revisions, so a change to the package must not break it.  These
tests read bench/ as source and import nothing from it: every name a
bench module imports from causalprox must exist, and the per-stratum probe
of the identify workload (cross_moment_matrices, then solve_pencil on its
p and q, then recover_factors) must still run and agree with
identify_joint.  One test runs a short traced bounds workload in a
subprocess, so an answer the bench's own checkers reject fails here.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from causalprox import (
    ProxyDesign,
    cross_moment_matrices,
    identify_joint,
    load_counts,
    recover_factors,
    solve_pencil,
)
from causalprox.cli import main
from causalprox.eigenid import stratum_assignments
from causalprox.fixtures import education_design, education_table

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_imports(source):
    """(line, module, name) of every causalprox import in source; name is
    None for a plain `import causalprox...`."""
    ours = lambda module: (module or "").split(".")[0] == "causalprox"  # noqa: E731
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and ours(node.module):
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if ours(alias.name):
                    yield node.lineno, alias.name, None


def test_every_bench_import_from_the_package_resolves():
    sources = sorted(BENCH.glob("*.py"))
    assert sources
    missing, seen = [], 0
    for path in sources:
        for line, module, name in package_imports(path.read_text()):
            seen += 1
            imported = importlib.import_module(module)
            if name is not None and not hasattr(imported, name):
                missing.append(f"{path.name}:{line} {module}.{name}")
    assert seen and not missing


def simulated_model(tmp_path, monkeypatch):
    """The table and design `causalprox simulate --k 3 --strata 3` writes."""
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--k", "3", "--strata", "3", "--seed", "5",
                 "--out-prefix", "sim"]) == 0
    sidecar = json.loads(Path("sim.truth.json").read_text())
    design = ProxyDesign.from_json(sidecar["design"])
    return load_counts(Path("sim.csv").read_text()), design


@pytest.mark.parametrize("model", ["worked example", "simulate --k 3 --strata 3"])
def test_identify_probe_sequence_agrees_with_identify_joint(model, tmp_path, monkeypatch):
    if model == "worked example":
        table, design = education_table(), education_design()
    else:
        table, design = simulated_model(tmp_path, monkeypatch)
    recon = identify_joint(table, design)
    strata = stratum_assignments(design, table)
    assert len(strata) == len(recon.factors)
    for stratum, want in zip(strata, recon.factors):
        sm = cross_moment_matrices(table, design, stratum)
        assert sm.stratum == tuple(sorted(stratum.items()))
        system = solve_pencil(sm.p, sm.q)
        factors = recover_factors(system, sm.p, stratum=sm.stratum)
        assert factors.stratum == sm.stratum == want.stratum
        assert sorted(factors.prior) == pytest.approx(want.prior, abs=1e-12, rel=0)


def test_short_traced_bounds_run_is_correct():
    """`python3 bench/run.py --workload bounds --seed 1 --seconds 0.5
    --trace 1` from the repository root: the bench's independent oracles
    accept every answer, witnesses included, and no op fails."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=BENCH.parent, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout
    assert summary["failed"] == 0, proc.stdout
