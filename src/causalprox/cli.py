"""Command-line front end.

Four subcommands: `check` evaluates graphical criteria on a diagram,
`identify` runs the latent-recovery pipeline on data plus a design,
`bounds` computes counterfactual bounds from proxy data, and `simulate`
writes synthetic datasets with a ground-truth sidecar.

Exit codes are uniform across commands: 0 success, 2 a queried criterion
does not hold, 3 identification or feasibility failure, 4 input/usage
error.  Reports are deterministic JSON (sorted keys, content digests
instead of timestamps); human summaries go to stdout, JSON to --out or to
stdout with --json, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import errors as err
from .eigenid import (
    DEFAULT_TOLERANCES,
    ProxyDesign,
    _effects_from_joint,
    identify_joint,
)
from .graph import (
    diagram_from_json,
    find_open_path,
    satisfies_backdoor,
    satisfies_frontdoor,
)
from .ratio import decimal_string, rational_json
from .synth import generate_latent_model, random_latent_spec, spec_design, spec_margins
from .table import JointTable, load_counts

EXIT_OK = 0
EXIT_CRITERION = 2
EXIT_IDENT = 3
EXIT_USAGE = 4

#: errors that exit 3; every other CausalProxError and OSError exits 4
_IDENT_ERRORS = (
    err.IdentificationError,
    err.ZeroMassError,
    err.ZeroConditionalError,
    err.PositivityError,
    err.InfeasibleError,
    err.NoCriterionError,
)

#: semantic names for identification failure conditions, keyed by error code
_CONDITION_NAMES = {
    "E_SINGULAR": "cross-moment-invertibility",
    "E_COMPLEX_EIGS": "real-spectrum",
    "E_EIG_GAP": "eigenvalue-separation",
    "E_EIG_SIGN": "positive-spectrum",
    "E_PIVOT": "eigenvector-normalization",
    "E_RANGE": "probability-range",
    "E_NONDIAGONAL": "prior-diagonalization",
    "E_ORDER_AMBIGUOUS": "increasing-prior-order",
}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    criterion-not-satisfied, so usage errors must become 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _report(
    args, inputs, parameters, outputs, diagnostics=(), status=EXIT_OK, lines=()
) -> int:
    """Emit the subcommand's report and return its exit status.

    inputs maps names to input paths, which the report digests.  The JSON
    goes to --out, or to stdout under --json; otherwise the summary lines
    are printed.
    """
    report = {
        "command": args.subcommand,
        "inputs": {
            name: {
                "path": str(path),
                "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest(),
            }
            for name, path in sorted(inputs.items())
        },
        "parameters": parameters,
        "outputs": outputs,
        "diagnostics": diagnostics,
        "exit_status": status,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    if args.json and not args.out:
        sys.stdout.write(text)
    else:
        for line in lines:
            print(line)
    return status


def _split_csv_arg(raw: str, what: str, expect: int = 0):
    parts = tuple(p.strip() for p in raw.split(",")) if raw else ()
    if any(not p for p in parts):
        raise err.FormatError(f"empty name in {what} argument {raw!r}")
    if expect and len(parts) != expect:
        raise err.FormatError(
            f"{what} needs exactly {expect} comma-separated names, got {raw!r}"
        )
    return parts


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise err.FormatError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    graph = diagram_from_json(_load_json(args.model))
    x, y = _split_csv_arg(args.pair, "--pair", expect=2)
    given = _split_csv_arg(args.set or "", "--set")
    if args.criterion == "dsep":
        failing = find_open_path(graph, x, y, given)
        outputs = {
            "criterion": "dsep",
            "x": x,
            "y": y,
            "given": sorted(given),
            "holds": failing is None,
            "failing_path": list(failing) if failing else None,
        }
    else:
        fn = satisfies_backdoor if args.criterion == "backdoor" else satisfies_frontdoor
        report = fn(graph, x, y, given)
        outputs = {
            "criterion": report.criterion,
            "x": report.x,
            "y": report.y,
            "given": sorted(report.given),
            "holds": report.holds,
            "failing_clause": report.failing_clause,
            "failing_path": list(report.failing_path)
            if report.failing_path
            else None,
            "detail": report.detail,
        }
    holds = outputs["holds"]
    verdict = "holds" if holds else "does not hold"
    lines = [f"{args.criterion}({x} -> {y} | {sorted(given)}): {verdict}"]
    if not holds and outputs["failing_path"]:
        lines.append(f"  open path: {' - '.join(outputs['failing_path'])}")
    if outputs.get("detail"):
        lines.append(f"  {outputs['detail']}")
    return _report(
        args,
        {"model": args.model},
        {"pair": [x, y], "set": sorted(given), "criterion": args.criterion},
        outputs,
        status=EXIT_OK if holds else EXIT_CRITERION,
        lines=lines,
    )


# ---------------------------------------------------------------------------
# identify


def _factors_json(factors) -> dict:
    return {
        "stratum": {var: val for var, val in factors.stratum},
        "anchor_conditionals": list(factors.anchor),
        "prior": list(factors.prior),
        "t_rows": [list(map(float, row)) for row in factors.t_rows],
        "s_rows": [list(map(float, row)) for row in factors.s_rows],
        "t_normalizer": list(factors.t_normalizer),
        "s_normalizer": list(factors.s_normalizer),
        "residuals": {
            "eigen": factors.eigen_residual,
            "prior_diag": factors.diag_residual,
        },
    }


def cmd_identify(args) -> int:
    table = load_counts(Path(args.data))
    design = ProxyDesign.from_json(_load_json(args.design))
    graph = diagram_from_json(_load_json(args.model))
    inputs = {"data": args.data, "design": args.design, "model": args.model}
    parameters = {"pair": args.pair}
    try:
        recon = identify_joint(table, design, DEFAULT_TOLERANCES)
    except _IDENT_ERRORS as exc:
        code = getattr(exc, "code", None) or type(exc).__name__
        condition = _CONDITION_NAMES.get(code, "data-consistency")
        error = {"code": code, "failed_condition": condition, "message": str(exc)}
        return _report(
            args,
            inputs,
            parameters,
            {"error": error},
            status=EXIT_IDENT,
            lines=[f"identification failed [{condition}]: {exc}"],
        )

    diagnostics = []
    effects = {}
    exposure = None
    outcome = design.latent_name
    if args.pair:
        exposure, outcome = _split_csv_arg(args.pair, "--pair", expect=2)
    elif len(design.w_vars) == 1:
        exposure = design.w_vars[0]
    if exposure is None:
        diagnostics.append(
            {
                "code": "W_NO_DEFAULT_PAIR",
                "message": "multiple anchor variables; pass --pair to get effects",
            }
        )
    else:
        categories = table.categories(exposure) if exposure in table.variables \
            else recon.table.categories(exposure)
        try:
            results = _effects_from_joint(recon, graph, exposure, categories, outcome)
        except err.NoCriterionError as exc:
            diagnostics.append({"code": "W_NO_CRITERION", "message": str(exc)})
            results = {}
        for category, result in results.items():
            effects[category] = {
                "criterion": result.criterion,
                "adjustment": list(result.adjustment),
                "distribution": {
                    cat: float(result.distribution.prob({outcome: cat}))
                    for cat in result.distribution.categories(outcome)
                },
            }

    outputs = {
        "strata": [_factors_json(f) for f in recon.factors],
        "joint": recon.table.to_float().to_json(),
        "replay_residuals": dict(recon.replay),
        "effects": effects or None,
        "exposure": exposure,
        "outcome": outcome if exposure else None,
    }
    lines = []
    for f in recon.factors:
        stratum = dict(f.stratum)
        label = f" {stratum}" if stratum else ""
        lines.append(
            f"stratum{label}: anchor conditionals "
            f"{[round(v, 6) for v in f.anchor]}, prior "
            f"{[round(v, 6) for v in f.prior]}"
        )
    for category, payload in effects.items():
        dist = {c: round(p, 6) for c, p in payload["distribution"].items()}
        lines.append(
            f"f({outcome} | set({exposure}={category})) = {dist} "
            f"[{payload['criterion']}, adjustment {payload['adjustment']}]"
        )
    return _report(args, inputs, parameters, outputs, diagnostics, lines=lines)


# ---------------------------------------------------------------------------
# bounds


def _bounds_result_json(res: bounds_mod.BoundsResult) -> dict:
    payload = {
        "target": res.target,
        "lower": rational_json(res.lower),
        "upper": rational_json(res.upper),
        "method": res.method,
        "applicable": res.applicable,
    }
    if res.terms is not None:
        payload["terms"] = [rational_json(t) for t in res.terms]
    if res.convention is not None:
        payload["convention"] = res.convention
    if res.witnesses is not None:
        payload["witnesses"] = {
            side: {
                ",".join(map(str, idx)): str(mass)
                for idx, mass in sorted(wit.items())
            }
            for side, wit in res.witnesses.items()
        }
    return payload


def _certification_json(cert: bounds_mod.CertificationReport) -> dict:
    return {
        "monotone": cert.monotone,
        "lp_status": cert.lp_status,
        "authoritative": cert.authoritative,
        "lp": {
            target: _bounds_result_json(res) if res else None
            for target, res in cert.lp.items()
        },
        "closed_form": {
            target: _bounds_result_json(res) for target, res in cert.closed.items()
        },
        "deltas": {
            target: (
                {
                    "lower": rational_json(d[0]),
                    "upper": rational_json(d[1]),
                }
                if d is not None
                else None
            )
            for target, d in cert.deltas.items()
        },
    }


def cmd_bounds(args) -> int:
    table = load_counts(Path(args.data))
    t_var, s_var = _split_csv_arg(args.proxies, "--proxies", expect=2)
    diagnostics = []
    params = {
        "exposure": args.exposure,
        "proxies": [t_var, s_var],
        "stratify": args.stratify,
        "monotone": args.monotone,
        "convention": args.convention,
        "method": args.method,
    }
    if args.stratify and args.method != "closed":
        raise err.FormatError(
            "--stratify is supported with --method closed only; the "
            "certification and plain LP paths are unstratified"
        )
    if args.stratify in (args.exposure, t_var, s_var):
        raise err.FormatError(
            f"--stratify {args.stratify} names the exposure or a proxy; the "
            "stratum variable must differ from the exposure and both proxies"
        )
    if args.method != "closed" and args.convention != "conditional":
        message = "--convention affects closed forms only"
        if args.method == "both":
            message += "; certification uses the conditional reading"
        diagnostics.append({"code": "W_CONVENTION_IGNORED", "message": message})

    status = EXIT_OK
    lines = []
    outputs = {}
    pair = ()  # the (x0, x1) results the closed and LP methods report

    def cells_of(source):
        return bounds_mod.cells_from_table(source, args.exposure, t_var, s_var)

    cells = None if args.stratify else cells_of(table)
    if args.method == "closed":
        if args.stratify:
            outputs["strata"] = list(table.categories(args.stratify))
            strata = []
            weights = []
            for cat in outputs["strata"]:
                weight = table.mass({args.stratify: cat})
                if weight == 0:
                    raise err.ZeroMassError(f"stratum {cat!r} has zero mass")
                strata.append(cells_of(table.condition({args.stratify: cat})))
                weights.append(weight)
            pair = bounds_mod.stratified_bounds(
                strata, weights, monotone=args.monotone, convention=args.convention
            )
            outputs["weights"] = [str(w) for w in weights]
            label = "stratified closed form"
        else:
            pair = bounds_mod.closed_form_bounds(cells, convention=args.convention)
            label = f"closed form, {args.convention}"
            if not args.monotone:
                pair = [replace(res, applicable=False) for res in pair]
                label += ", not applicable without --monotone"
                diagnostics.append(
                    {
                        "code": "W_CLOSED_ASSUMES_MONOTONE",
                        "message": "closed forms assume the monotone model; "
                        "reported values are not valid bounds without it",
                    }
                )
    elif args.method == "lp":
        label = "sharp LP"
        try:
            pair = bounds_mod.sharp_bounds(cells, monotone=args.monotone)
        except err.InfeasibleError as exc:
            outputs["error"] = {
                "code": "E_INFEASIBLE",
                "message": str(exc),
                "down_set": [list(value) for value in exc.down_set],
                "measured": rational_json(exc.measured),
                "threshold": rational_json(exc.threshold),
            }
            lines.append(f"bounds infeasible: {exc}")
            status = EXIT_IDENT
    else:  # both
        cert = bounds_mod.certify_against_lp(cells, monotone=args.monotone)
        outputs["certification"] = _certification_json(cert)
        if cert.lp_status == "infeasible":
            status = EXIT_IDENT
            lines.append(
                "LP infeasible: observed cells contradict the "
                + ("monotone " if args.monotone else "")
                + "response-type model; closed forms reported for reference"
            )
        else:
            for target in bounds_mod.TARGETS:
                lp_res = cert.lp[target]
                lines.append(
                    f"{target}: LP [{float(lp_res.lower):.6g}, "
                    f"{float(lp_res.upper):.6g}] (authoritative)"
                )
                if cert.deltas[target] is not None:
                    dl, du = cert.deltas[target]
                    lines.append(
                        f"  closed-form delta: lower {float(dl):+.6g}, "
                        f"upper {float(du):+.6g}"
                    )
    for res in pair:
        outputs[res.target] = _bounds_result_json(res)
        lines.append(
            f"{res.target}: [{float(res.lower):.6g}, "
            f"{float(res.upper):.6g}] ({label})"
        )

    return _report(
        args, {"data": args.data}, params, outputs, diagnostics, status, lines
    )


# ---------------------------------------------------------------------------
# simulate


def _spec_json(spec) -> dict:
    def dist(row):
        return [str(Fraction(p)) for p in row]

    payload = {
        "latent": {"name": spec.latent_name, "categories": list(spec.latent_categories)},
        "variables": {
            spec.s_name: list(spec.s_categories),
            spec.t_name: list(spec.t_categories),
            spec.w_name: list(spec.w_categories),
        },
        "prior": [dist(row) for row in spec.prior],
        "s_emission": [[dist(r) for r in block] for block in spec.s_emission],
        "t_emission": [[dist(r) for r in block] for block in spec.t_emission],
        "w_emission": [[dist(r) for r in block] for block in spec.w_emission],
        "order_identifiable": spec.order_identifiable,
    }
    if spec.z_name:
        payload["variables"][spec.z_name] = list(spec.z_categories)
        payload["strata"] = {"name": spec.z_name, "dist": dist(spec.z_dist)}
    return payload


def _observable_csv(observable: JointTable) -> str:
    lines = [",".join(observable.variables + ("prob",))]
    combos = itertools.product(*(cats for _, cats in observable.schema))
    for combo, mass in zip(combos, observable.probs.flat):  # both row-major
        lines.append(",".join(combo + (decimal_string(mass),)))
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    if not 2 <= args.k <= 8:
        raise err.FormatError(f"--k must be between 2 and 8, got {args.k}")
    if args.strata is not None and not 2 <= args.strata <= 8:
        raise err.FormatError(
            f"--strata must be between 2 and 8 when given, got {args.strata}"
        )
    rng = random.Random(args.seed)
    spec = random_latent_spec(rng, k=args.k, n_strata=args.strata)
    truth, observable = generate_latent_model(spec)
    design = spec_design(spec)
    latent_vars = [spec.latent_name, spec.w_name] + (
        [spec.z_name] if spec.z_name else []
    )
    truth_joint = truth.marginal(latent_vars)

    csv_path = Path(f"{args.out_prefix}.csv")
    truth_path = Path(f"{args.out_prefix}.truth.json")
    csv_text = _observable_csv(observable)
    margins = spec_margins(spec)
    sidecar = {
        "design": design.to_json(),
        "margins": margins,
        "parameters": _spec_json(spec),
        "latent_joint": truth_joint.to_json(),
        "seed": args.seed,
        "k": args.k,
        "strata": args.strata,
    }
    truth_text = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    csv_path.write_text(csv_text)
    truth_path.write_text(truth_text)

    digest = {
        "csv": hashlib.sha256(csv_text.encode()).hexdigest(),
        "truth": hashlib.sha256(truth_text.encode()).hexdigest(),
    }
    outputs = {
        "csv": str(csv_path),
        "truth": str(truth_path),
        "digests": digest,
        "margins": margins,
    }
    return _report(
        args,
        {},
        {"k": args.k, "seed": args.seed, "strata": args.strata},
        outputs,
        lines=[
            f"wrote {csv_path} and {truth_path}",
            f"margins: prior gap >= {margins['prior_gap']:.4f}, anchor gap >= "
            f"{margins['anchor_gap']:.4f}, pencil sigma >= "
            f"{margins['pencil_sigma']:.2e}",
        ],
    )


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="causalprox", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument(
            "--json",
            action="store_true",
            help="print the JSON report to stdout instead of a summary",
        )

    p_check = sub.add_parser("check", help="evaluate a graphical criterion")
    p_check.add_argument("model", help="diagram JSON file")
    p_check.add_argument("--pair", required=True, help="exposure,outcome")
    p_check.add_argument("--set", default="", help="comma-separated given set")
    p_check.add_argument(
        "--criterion",
        choices=["backdoor", "frontdoor", "dsep"],
        default="backdoor",
    )
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_id = sub.add_parser("identify", help="recover the latent joint from data")
    p_id.add_argument("data", help="observable CSV (count or prob column)")
    p_id.add_argument("design", help="design JSON file")
    p_id.add_argument("model", help="diagram JSON file")
    p_id.add_argument(
        "--pair",
        help="exposure,outcome for the effect query (default: sole anchor "
        "variable and the latent variable)",
    )
    common(p_id)
    p_id.set_defaults(func=cmd_identify)

    p_b = sub.add_parser("bounds", help="counterfactual bounds from proxy data")
    p_b.add_argument("data", help="observable CSV over the proxies and exposure")
    p_b.add_argument("--exposure", required=True, help="treatment variable")
    p_b.add_argument(
        "--proxies", required=True, help="T,S proxy variables (in that order)"
    )
    p_b.add_argument("--stratify", help="covariate variable for stratified bounds")
    p_b.add_argument("--monotone", action="store_true")
    p_b.add_argument(
        "--convention",
        choices=["conditional", "joint-compat"],
        default="conditional",
    )
    p_b.add_argument("--method", choices=["lp", "closed", "both"], default="lp")
    common(p_b)
    p_b.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset")
    p_sim.add_argument("--k", type=int, required=True, help="latent categories (2-8)")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--strata", type=int, default=None, help="stratum count (2-8)")
    p_sim.add_argument("--out-prefix", required=True)
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (err.CausalProxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IDENT if isinstance(exc, _IDENT_ERRORS) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
