"""End-to-end tests of the command-line front end.

Reports are compared byte-for-byte against files under tests/goldens/;
they stay stable because every run uses relative input paths inside a
temporary working directory and all serialization is sorted and exact.
To regenerate after an intentional format change, run pytest once with
CAUSALPROX_REGEN_GOLDENS=1 and review the diff.
"""

import hashlib
import json
import os
import random
import shutil
import site
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from causalprox import cli, eigenid, generate_latent_model, random_latent_spec
from causalprox import errors as err
from causalprox.bounds import MONOTONE_INDICES, cells_from_types
from causalprox.cli import main
from causalprox.eigenid import ProxyDesign
from causalprox.fixtures import (
    confounder_chain_diagram,
    chain_diagram,
    education_design,
    education_table,
    education_table_csv,
    uninformative_anchor_table,
)
from causalprox.graph import build_diagram, diagram_to_json
from causalprox.table import JointTable

GOLDEN_DIR = Path(__file__).parent / "goldens"


def assert_matches_golden(name: str, produced: bytes) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("CAUSALPROX_REGEN_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(produced)
        return
    assert path.exists(), (
        f"golden {name} missing; regenerate with CAUSALPROX_REGEN_GOLDENS=1"
    )
    assert produced == path.read_bytes(), f"report drifted from goldens/{name}"


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_worked_inputs(dirpath: Path) -> None:
    (dirpath / "data.csv").write_text(education_table_csv())
    (dirpath / "design.json").write_text(dump_json(education_design().to_json()))
    (dirpath / "model.json").write_text(
        dump_json(diagram_to_json(chain_diagram()))
    )
    (dirpath / "confounder.json").write_text(
        dump_json(diagram_to_json(confounder_chain_diagram()))
    )


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_worked_inputs(tmp_path)
    return tmp_path


def run_json(argv) -> tuple:
    """Run the CLI with --json and return (exit code, parsed report)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--json"])
    return code, json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# Parser behavior


def test_help_exits_zero():
    for argv in (["--help"], ["check", "--help"], ["bounds", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_usage_errors_exit_four():
    for argv in (
        ["frobnicate"],
        ["check"],  # missing model and --pair
        ["bounds", "data.csv", "--exposure", "X"],  # missing --proxies
        ["simulate", "--k", "2"],  # missing --seed and --out-prefix
        ["bounds", "d.csv", "--exposure", "X", "--proxies", "T,S",
         "--method", "qp"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4


def all_subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found += [sub] + all_subclasses(sub)
    return found


#: identification and feasibility failures; the subclasses of these exit 3 too
IDENT_FAILURES = (
    err.IdentificationError,
    err.ZeroMassError,
    err.ZeroConditionalError,
    err.PositivityError,
    err.InfeasibleError,
    err.NoCriterionError,
)


def test_exit_code_follows_error_class(workdir, monkeypatch, capsys):
    """Any causalprox error raised inside a subcommand exits 3 when it is an
    identification or feasibility failure and 4 otherwise; OSError exits 4."""
    classes = all_subclasses(err.CausalProxError)
    assert set(IDENT_FAILURES) < set(classes)
    for cls in [err.CausalProxError] + classes + [OSError]:
        def raise_it(payload, cls=cls):
            raise cls(f"raised {cls.__name__}")

        monkeypatch.setattr(cli, "diagram_from_json", raise_it)
        code = main(["check", "model.json", "--pair", "X,Y"])
        assert code == (3 if issubclass(cls, IDENT_FAILURES) else 4), cls
        assert capsys.readouterr().err == f"error: raised {cls.__name__}\n"


def run_install_step(argv, env, cwd=None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [str(a) for a in argv], capture_output=True, text=True, env=env,
        cwd=cwd,
    )
    assert proc.returncode == 0, (
        f"install step {argv} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return proc


def test_console_script_installed(tmp_path):
    """Installing the project yields a working `causalprox` command.

    The install goes into a throwaway environment under tmp_path, from a
    copy of the project, so the repository tree is never written to. It
    uses the setuptools `develop` command, which needs neither the network
    nor the `wheel` package. PYTHONPATH is dropped from every step: if it
    already points at src/, `develop` skips writing easy-install.pth and
    the installed script cannot find its distribution.
    """
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parent.parent
    project = tmp_path / "project"
    project.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(root / name, project / name)
    shutil.copytree(
        root / "src", project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    venv = tmp_path / "venv"
    run_install_step(
        [sys.executable, "-m", "venv", "--system-site-packages",
         "--without-pip", venv],
        env,
    )
    python = venv / "bin" / "python"
    purelib = run_install_step(
        [python, "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        env,
    ).stdout.strip()
    # When pytest itself runs inside a virtualenv, --system-site-packages
    # reaches only the base interpreter; expose this interpreter's
    # site-packages too so setuptools and numpy are found.
    (Path(purelib) / "outer-site.pth").write_text(
        "\n".join(site.getsitepackages()) + "\n"
    )
    run_install_step(
        [python, "-c", "import setuptools; setuptools.setup()",
         "develop", "--no-deps"],
        env, cwd=project,
    )
    proc = subprocess.run(
        [str(venv / "bin" / "causalprox"), "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "check" in proc.stdout and "bounds" in proc.stdout


# ---------------------------------------------------------------------------
# check


def test_check_backdoor_golden(workdir, capsys):
    code = main([
        "check", "model.json", "--pair", "X,Y", "--criterion", "backdoor",
        "--out", "report.json",
    ])
    assert code == 0
    assert capsys.readouterr().out == "backdoor(X -> Y | []): holds\n"
    assert_matches_golden(
        "check_backdoor_holds.json", (workdir / "report.json").read_bytes()
    )


def test_check_dsep_open_path_golden(workdir, capsys):
    code = main([
        "check", "model.json", "--pair", "X,S", "--criterion", "dsep",
        "--out", "report.json",
    ])
    assert code == 2
    assert capsys.readouterr().out == (
        "dsep(X -> S | []): does not hold\n  open path: X - Y - S\n"
    )
    assert_matches_golden(
        "check_dsep_open.json", (workdir / "report.json").read_bytes()
    )


def test_check_confounder_needs_adjustment(workdir):
    code, report = run_json(
        ["check", "confounder.json", "--pair", "X,Y", "--criterion", "backdoor"]
    )
    assert code == 2
    assert report["outputs"]["holds"] is False
    assert report["exit_status"] == 2
    code, report = run_json(
        ["check", "confounder.json", "--pair", "X,Y", "--set", "Z",
         "--criterion", "backdoor"]
    )
    assert code == 0
    assert report["outputs"]["holds"] is True


def test_check_unknown_vertex_is_usage_error(workdir, capsys):
    code = main(["check", "model.json", "--pair", "X,NOPE"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# identify


def test_identify_worked_example_golden(workdir, capsys):
    code = main([
        "identify", "data.csv", "design.json", "model.json",
        "--out", "report.json",
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        "stratum: anchor conditionals [0.533333, 0.109091], "
        "prior [0.45, 0.55]\n"
        "f(Y | set(X=x0)) = {'y1': 0.3, 'y2': 0.7} [backdoor, adjustment []]\n"
        "f(Y | set(X=x1)) = {'y1': 0.8, 'y2': 0.2} [backdoor, adjustment []]\n"
    )
    raw = (workdir / "report.json").read_bytes()
    assert_matches_golden("identify_worked.json", raw)
    report = json.loads(raw)
    effects = report["outputs"]["effects"]
    assert abs(effects["x1"]["distribution"]["y1"] - 0.8) < 1e-9
    assert abs(effects["x0"]["distribution"]["y1"] - 0.3) < 1e-9
    prior = report["outputs"]["strata"][0]["prior"]
    assert abs(prior[0] - 0.45) < 1e-9 and abs(prior[1] - 0.55) < 1e-9


def test_identify_recovers_each_stratum_once(workdir, monkeypatch):
    calls = []
    real_solve_pencils = eigenid._solve_pencils

    def counting_solve_pencils(p, *args, **kwargs):
        calls.append(len(p))
        return real_solve_pencils(p, *args, **kwargs)

    monkeypatch.setattr(eigenid, "_solve_pencils", counting_solve_pencils)
    assert main(["identify", "data.csv", "design.json", "model.json"]) == 0
    # one stacked pass per run, one slot per stratum
    assert calls == [1]
    assert main(["simulate", "--k", "3", "--strata", "3", "--seed", "5",
                 "--out-prefix", "sim"]) == 0
    sidecar = json.loads(Path("sim.truth.json").read_text())
    Path("sim_design.json").write_text(dump_json(sidecar["design"]))
    stratified = build_diagram(
        ["Z", "X", "U", "S", "T"],
        directed=[("Z", "X"), ("Z", "U"), ("X", "U"), ("U", "S"), ("U", "T")],
    )
    Path("sim_model.json").write_text(dump_json(diagram_to_json(stratified)))
    calls.clear()
    assert main(["identify", "sim.csv", "sim_design.json", "sim_model.json"]) == 0
    assert calls == [3]

    table, design = education_table(), education_design()
    graph = chain_diagram()
    recon = eigenid.identify_joint(table, design)
    for category in table.categories("X"):
        shared = eigenid.effect_from_joint(recon, graph, {"X": category}, "Y")
        alone = eigenid.identify_causal_effect(
            table, graph, design, {"X": category}, "Y"
        )
        assert (shared.criterion, shared.adjustment) == (
            alone.criterion, alone.adjustment
        )
        assert list(shared.distribution.probs) == list(alone.distribution.probs)


def test_identify_joint_runs_eig_twice_whatever_the_strata(monkeypatch):
    calls = []
    linalg = eigenid.np.linalg
    real_eig = linalg.eig

    def counting_eig(matrices):
        calls.append(len(matrices))
        return real_eig(matrices)

    monkeypatch.setattr(linalg, "eig", counting_eig)
    for strata in (None, 2, 3, 4):
        spec = random_latent_spec(random.Random(7), k=3, n_strata=strata)
        _, observable = generate_latent_model(spec)
        calls.clear()
        eigenid.identify_joint(observable, cli._auto_design(spec))
        # right then left spectrum, each over every stratum at once
        assert calls == [spec.n_strata, spec.n_strata]


def test_identify_searches_adjustment_set_once(workdir, monkeypatch):
    calls = []
    real_search = eigenid.find_adjustment_set

    def counting_search(*args, **kwargs):
        calls.append(args[1:4])
        return real_search(*args, **kwargs)

    monkeypatch.setattr(eigenid, "find_adjustment_set", counting_search)
    code, report = run_json(["identify", "data.csv", "design.json", "model.json"])
    assert code == 0
    assert len(report["outputs"]["effects"]) == 2
    # the back-door search succeeds on the worked example: one call per run
    assert calls == [("X", "Y", [])]


def test_identify_pair_override_and_bad_pair(workdir):
    code, report = run_json(
        ["identify", "data.csv", "design.json", "model.json", "--pair", "X,Y"]
    )
    assert code == 0
    assert report["parameters"]["pair"] == "X,Y"
    assert report["outputs"]["effects"] is not None
    assert main(
        ["identify", "data.csv", "design.json", "model.json", "--pair", "X"]
    ) == 4


def test_identify_flat_anchor_fails_identification(workdir, tmp_path):
    table = uninformative_anchor_table()
    lines = ["X,S,T,prob"]
    for x in table.categories("X"):
        for s in table.categories("S"):
            for t in table.categories("T"):
                mass = table.mass({"X": x, "S": s, "T": t})
                lines.append(f"{x},{s},{t},{mass}")
    (tmp_path / "flat.csv").write_text("\n".join(lines) + "\n")
    code, report = run_json(
        ["identify", "flat.csv", "design.json", "model.json"]
    )
    assert code == 3
    error = report["outputs"]["error"]
    assert error["failed_condition"] == "eigenvalue-separation"
    assert report["exit_status"] == 3


def test_identify_without_usable_criterion_warns(workdir):
    # the confounder diagram demands adjustment for Z, which the data lacks
    code, report = run_json(
        ["identify", "data.csv", "design.json", "confounder.json"]
    )
    assert code == 0
    assert report["outputs"]["effects"] is None
    codes = [d["code"] for d in report["diagnostics"]]
    assert "W_NO_CRITERION" in codes


def test_identify_malformed_design_is_usage_error(workdir, capsys):
    Path("broken.json").write_text("{not json")
    code = main(["identify", "data.csv", "broken.json", "model.json"])
    assert code == 4
    assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_default_lp_unrestricted(workdir):
    code, report = run_json(
        ["bounds", "data.csv", "--exposure", "X", "--proxies", "T,S"]
    )
    assert code == 0
    for target in ("x0", "x1"):
        payload = report["outputs"][target]
        assert payload["lower"] == {"exact": "0/1", "approx": 0.0}
        assert payload["upper"] == {"exact": "1/1", "approx": 1.0}
        assert payload["method"] == "lp"
        assert payload["applicable"] is True
        assert set(payload["witnesses"]) == {"lower", "upper"}


def test_bounds_monotone_lp_infeasible(workdir, capsys):
    code = main([
        "bounds", "data.csv", "--exposure", "X", "--proxies", "T,S",
        "--monotone",
    ])
    assert code == 3
    assert "bounds infeasible" in capsys.readouterr().out
    code, report = run_json([
        "bounds", "data.csv", "--exposure", "X", "--proxies", "T,S",
        "--monotone",
    ])
    assert report["outputs"]["error"]["code"] == "E_INFEASIBLE"


def test_bounds_closed_joint_compat_golden(workdir, capsys):
    code = main([
        "bounds", "data.csv", "--exposure", "X", "--proxies", "T,S",
        "--monotone", "--convention", "joint-compat", "--method", "closed",
        "--out", "report.json",
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        "x0: [0, 0.3444] (closed form, joint-compat)\n"
        "x1: [0.338, 1] (closed form, joint-compat)\n"
    )
    raw = (workdir / "report.json").read_bytes()
    assert_matches_golden("bounds_closed_joint.json", raw)
    report = json.loads(raw)
    assert report["outputs"]["x1"]["lower"]["exact"] == "169/500"
    assert report["outputs"]["x0"]["upper"]["exact"] == "861/2500"


def test_bounds_closed_without_monotone_not_applicable(workdir, capsys):
    code, report = run_json([
        "bounds", "data.csv", "--exposure", "X", "--proxies", "T,S",
        "--method", "closed",
    ])
    assert code == 0
    for target in ("x0", "x1"):
        assert report["outputs"][target]["applicable"] is False
    codes = [d["code"] for d in report["diagnostics"]]
    assert "W_CLOSED_ASSUMES_MONOTONE" in codes
    code = main([
        "bounds", "data.csv", "--exposure", "X", "--proxies", "T,S",
        "--method", "closed",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("not applicable without --monotone") == 2


def test_bounds_both_infeasible_golden(workdir, capsys):
    code = main([
        "bounds", "data.csv", "--exposure", "X", "--proxies", "T,S",
        "--monotone", "--method", "both", "--out", "report.json",
    ])
    assert code == 3
    assert "closed forms reported for reference" in capsys.readouterr().out
    raw = (workdir / "report.json").read_bytes()
    assert_matches_golden("bounds_both_infeasible.json", raw)
    cert = json.loads(raw)["outputs"]["certification"]
    assert cert["lp_status"] == "infeasible"
    assert cert["lp"] == {"x0": None, "x1": None}
    assert cert["deltas"] == {"x0": None, "x1": None}
    assert cert["closed_form"]["x1"]["lower"]["exact"] == "3/10"
    assert cert["closed_form"]["x0"]["upper"]["exact"] == "7/10"
    assert cert["authoritative"] == "lp"


def write_feasible_csv(path: Path, seed: int = 3) -> None:
    rng = random.Random(seed)
    weights = [rng.randint(0, 20) for _ in MONOTONE_INDICES]
    total = sum(weights)
    q = {idx: F(w, total) for idx, w in zip(MONOTONE_INDICES, weights)}
    cells = cells_from_types(q, x_dist=(F(1, 2), F(1, 2)))
    lines = ["T,S,X,prob"]
    for (i, j, k), mass in sorted(cells.cond.items()):
        joint = mass * cells.x_dist[k]
        lines.append(f"t{i},s{j},x{k},{joint}")
    path.write_text("\n".join(lines) + "\n")


def test_bounds_both_feasible_reports_deltas(workdir):
    write_feasible_csv(workdir / "feasible.csv")
    code, report = run_json([
        "bounds", "feasible.csv", "--exposure", "X", "--proxies", "T,S",
        "--monotone", "--method", "both",
    ])
    assert code == 0
    cert = report["outputs"]["certification"]
    assert cert["lp_status"] == "optimal"
    for target in ("x0", "x1"):
        lp = cert["lp"][target]
        closed = cert["closed_form"][target]
        deltas = cert["deltas"][target]
        assert lp["applicable"] and closed["applicable"]
        assert deltas["lower"]["approx"] <= 0 <= deltas["upper"]["approx"]
        assert lp["lower"]["approx"] <= lp["upper"]["approx"]


def test_bounds_stratify_requires_closed_method(workdir, capsys):
    code = main([
        "bounds", "data.csv", "--exposure", "X", "--proxies", "T,S",
        "--stratify", "Z", "--method", "lp",
    ])
    assert code == 4
    assert "--method closed" in capsys.readouterr().err


def test_bounds_stratified_equal_strata_match_unstratified(workdir):
    from causalprox.fixtures import EDUCATION_COUNTS

    lines = ["Z,X,S,T,count"]
    for z in ("z0", "z1"):
        for (x, s, t), count in sorted(EDUCATION_COUNTS.items()):
            lines.append(f"{z},{x},{s},{t},{count}")
    Path("stratified.csv").write_text("\n".join(lines) + "\n")
    code, report = run_json([
        "bounds", "stratified.csv", "--exposure", "X", "--proxies", "T,S",
        "--stratify", "Z", "--monotone", "--method", "closed",
    ])
    assert code == 0
    assert report["outputs"]["strata"] == ["z0", "z1"]
    assert report["outputs"]["weights"] == ["1/2", "1/2"]
    assert report["outputs"]["x1"]["lower"]["exact"] == "3/10"
    assert report["outputs"]["x0"]["upper"]["exact"] == "7/10"
    assert report["outputs"]["x1"]["method"] == "stratified"


def test_bounds_zero_mass_stratum_fails(workdir, capsys):
    from causalprox.fixtures import EDUCATION_COUNTS

    lines = ["Z,X,S,T,count"]
    for (x, s, t), count in sorted(EDUCATION_COUNTS.items()):
        lines.append(f"z0,{x},{s},{t},{count}")
    for (x, s, t), _ in sorted(EDUCATION_COUNTS.items()):
        lines.append(f"z1,{x},{s},{t},0")
    Path("zstratified.csv").write_text("\n".join(lines) + "\n")
    code = main([
        "bounds", "zstratified.csv", "--exposure", "X", "--proxies", "T,S",
        "--stratify", "Z", "--monotone", "--method", "closed",
    ])
    assert code == 3
    assert "zero mass" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_per_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
    code1, rep1 = run_json(
        ["simulate", "--k", "3", "--seed", "11", "--out-prefix", "a/sim"]
    )
    code2, rep2 = run_json(
        ["simulate", "--k", "3", "--seed", "11", "--out-prefix", "b/sim"]
    )
    assert code1 == code2 == 0
    assert (tmp_path / "a/sim.csv").read_bytes() == (
        tmp_path / "b/sim.csv"
    ).read_bytes()
    assert (tmp_path / "a/sim.truth.json").read_bytes() == (
        tmp_path / "b/sim.truth.json"
    ).read_bytes()
    assert rep1["outputs"]["digests"] == rep2["outputs"]["digests"]
    got = hashlib.sha256((tmp_path / "a/sim.csv").read_bytes()).hexdigest()
    assert rep1["outputs"]["digests"]["csv"] == got
    code3, rep3 = run_json(
        ["simulate", "--k", "3", "--seed", "12", "--out-prefix", "a/sim2"]
    )
    assert code3 == 0
    assert rep3["outputs"]["digests"]["csv"] != rep1["outputs"]["digests"]["csv"]


def test_simulate_range_validation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--k", "9", "--seed", "1",
                 "--out-prefix", "sim"]) == 4
    assert main(["simulate", "--k", "1", "--seed", "1",
                 "--out-prefix", "sim"]) == 4
    assert main(["simulate", "--k", "2", "--seed", "1", "--strata", "9",
                 "--out-prefix", "sim"]) == 4


@pytest.mark.parametrize("k", [3, 8])
def test_simulate_identify_round_trip(tmp_path, monkeypatch, k):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--k", str(k), "--seed", "5", "--out-prefix", "sim"])
    assert code == 0
    sidecar = json.loads(Path("sim.truth.json").read_text())
    design = ProxyDesign.from_json(sidecar["design"])
    assert design.latent_name == "U"
    Path("design.json").write_text(dump_json(sidecar["design"]))
    graph = build_diagram(
        ["X", "U", "S", "T"],
        directed=[("X", "U"), ("U", "S"), ("U", "T")],
    )
    Path("model.json").write_text(dump_json(diagram_to_json(graph)))
    code, report = run_json(["identify", "sim.csv", "design.json", "model.json"])
    assert code == 0
    truth = JointTable.from_json(sidecar["latent_joint"])
    effects = report["outputs"]["effects"]
    for x_cat in truth.categories("X"):
        arm = truth.condition({"X": x_cat})
        got = effects[x_cat]["distribution"]
        tv = sum(
            abs(got[u] - float(arm.prob({"U": u})))
            for u in truth.categories("U")
        ) / 2
        assert tv <= 1e-8
    for residual in report["outputs"]["replay_residuals"].values():
        assert residual <= 1e-8


# ---------------------------------------------------------------------------
# report plumbing


def test_out_file_plus_summary_and_json_modes(workdir, capsys):
    code = main([
        "check", "model.json", "--pair", "X,Y", "--out", "r.json", "--json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "backdoor(X -> Y | []): holds\n"  # summary, file got the JSON
    report = json.loads(Path("r.json").read_text())
    assert report["command"] == "check"
    assert report["exit_status"] == 0
    digest = report["inputs"]["model"]
    assert digest["path"] == "model.json"
    expected = hashlib.sha256(Path("model.json").read_bytes()).hexdigest()
    assert digest["sha256"] == expected
