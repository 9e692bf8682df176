"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
error (singular optimality system, negative MSE). Diagnostics go to stderr;
reports written with ``--output`` ending in ``.json`` are valid JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import io, montecarlo, theory
from .config import T3_TABLE_VARIANTS, T3Config, TableConfig
from .errors import DataError, NumericalError, ParseError
from .estimators import EstimatorConfig, evaluate
from .montecarlo import SyntheticSpec, generate_population, run_experiment
from .population import Design, compute_population_params, sample_stats


class CliUsageError(Exception):
    """Bad flags or arguments (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _table_config(args) -> TableConfig:
    kwargs = _subconfigs(args)
    if "t3" in kwargs:
        t3 = kwargs.pop("t3")
        default = vars(T3Config(gamma=t3.gamma))
        fixed = [name for name, value in vars(t3).items() if value != default[name]]
        if fixed:
            raise CliUsageError(f"--t3 sets only gamma here; the table fixes {', '.join(fixed)}")
        kwargs["t3_gamma"] = t3.gamma
    return TableConfig(**kwargs)


def _subconfigs(args, kind: str | None = None) -> dict:
    """The family configurations given as ``--tc``/``--t3``/... flags, parsed
    in ``theory.FAMILIES`` order into each kind's parameter class; with
    ``kind``, a flag of any other family is a usage error."""
    given = {}
    for slot, family in theory.FAMILIES.items():
        text = getattr(args, slot, None)
        if text:
            if kind is not None and slot != kind:
                raise CliUsageError(f"--{slot} does not apply to estimator {kind!r}")
            try:
                given[slot] = family.params.from_kv(text)
            except ValueError as exc:
                raise CliUsageError(str(exc)) from None
    return given


def _parse_indices(spec: str) -> list[int]:
    path = Path(spec)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        text = spec
    parts = text.replace(",", " ").split()
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ParseError(f"cannot parse sample indices from {spec!r}") from None


def _table_configurations(config: TableConfig, **leading) -> dict:
    """The ``configurations`` of a report on an efficiency table."""
    return {**leading, "tc": vars(config.tc), "t3_gamma": config.t3_gamma,
            "t3_variants": list(T3_TABLE_VARIANTS)}


def _write_report(args, input_path: str, configurations: dict, sections: dict) -> None:
    """Write the report envelope around ``sections`` to ``--output``."""
    document = io.build_report_document(input_digest=io.file_digest(input_path),
                                        configurations=configurations, sections=sections)
    io.write_report_json(args.output, document)


def _census_dash(value) -> str:
    return "—" if value is None else f"{value:.2f}"


# --- commands -------------------------------------------------------------------


def _cmd_params(args) -> int:
    frame = io.read_population_csv(args.input)
    params = compute_population_params(frame)
    n = args.n if args.n is not None else frame.size
    doc = io.ParamsDocument(params=params, design=Design(n=n, N=frame.size),
                            provenance=io.PROVENANCE_FRAME)
    io.write_params_json(args.output, doc)
    return 0


def _cmd_theory(args) -> int:
    doc = io.read_params_json(args.params)
    config = _table_config(args)
    report = theory.theory_report(doc.params, doc.design, config)
    conditions = None
    if doc.design.f > 0.0:
        conditions = io.conditions_dict(
            theory.comparison_conditions(doc.params, doc.design.f, config))
    _write_report(args, args.params, _table_configurations(config),
                  {"theory": io.theory_report_dict(report),
                   "comparison_conditions": conditions})
    return 0


def _cmd_pre(args) -> int:
    doc = io.read_params_json(args.params)
    config = _table_config(args)
    report = theory.theory_report(doc.params, doc.design, config)
    names = [entry.name for entry in report.entries]
    values = [entry.pre for entry in report.entries]
    if args.format == "json":
        payload = {name: value for name, value in zip(names, values)}
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(names)
        writer.writerow([_census_dash(value) for value in values])
    else:
        cells = [_census_dash(value) for value in values]
        widths = [max(len(n), len(c)) for n, c in zip(names, cells)]
        print("  ".join(n.rjust(w) for n, w in zip(names, widths)))
        print("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return 0


def _cmd_estimate(args) -> int:
    frame = io.read_population_csv(args.input)
    pop = compute_population_params(frame)
    stats = sample_stats(frame, _parse_indices(args.indices))
    cfg = EstimatorConfig(kind=args.estimator,
                          params=_subconfigs(args, args.estimator).get(args.estimator))
    estimate = evaluate(stats, pop, cfg)
    payload = {
        "estimator": estimate.config_used.name,
        "value": estimate.value,
        "sample": {"n": stats.n, "p": stats.p, "xbar_s": stats.xbar_s,
                   "sx2_s": stats.sx2_s},
        "config_used": _config_dict(estimate.config_used),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _config_dict(cfg: EstimatorConfig) -> dict:
    if cfg.params is None:
        return {"kind": cfg.kind}
    return {"kind": cfg.kind, cfg.kind: vars(cfg.params)}


def _cmd_simulate(args) -> int:
    frame = io.read_population_csv(args.input)
    given = _subconfigs(args)
    configs = [EstimatorConfig(kind=cfg.kind, params=given[cfg.kind])
               if cfg.kind in given else cfg for cfg in montecarlo.DEFAULT_CONFIGS]
    report = run_experiment(frame, args.n, configs, reps=args.reps, seed=args.seed)
    _write_report(args, args.input,
                  {"n": args.n, "reps": args.reps, "seed": args.seed,
                   "estimators": [_config_dict(cfg) for cfg in configs]},
                  {"simulation": io.simulation_report_dict(report)})
    return 0


def _cmd_generate(args) -> int:
    if args.spec:
        raw = io.read_json(args.spec)
        if not isinstance(raw, dict):
            raise ParseError(f"{args.spec}: expected a JSON object")
        if "size" in raw:
            raise ParseError(f"{args.spec}: the population size is set by --size, "
                             "not by a 'size' key")
        try:
            spec = SyntheticSpec(size=args.size, **raw)
        except TypeError as exc:
            raise ParseError(f"{args.spec}: {exc}") from None
    else:
        spec = SyntheticSpec(size=args.size)
    frame = generate_population(spec, seed=args.seed)
    io.write_population_csv(args.output, frame)
    return 0


def _cmd_sensitivity(args) -> int:
    doc = io.read_params_json(args.params)
    config = _table_config(args)
    report = theory.sensitivity(doc.params, doc.design.f, config, digits=args.digits)
    _write_report(args, args.params, _table_configurations(config, digits=args.digits),
                  {"sensitivity": io.sensitivity_report_dict(report)})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="propaux",
                     description="Proportion estimation with auxiliary information")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="compute a parameter document from a frame")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="intended sample size (defaults to a census)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("theory", help="biases, MSEs, optimal constants")
    p.add_argument("--params", required=True)
    p.add_argument("--tc", default=None, metavar="a=1,b=0,alpha=1,beta=0")
    p.add_argument("--t3", default=None, metavar="gamma=1,g=1,delta=1")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("pre", help="percent-relative-efficiency table")
    p.add_argument("--params", required=True)
    p.add_argument("--tc", default=None, metavar="a=1,b=0,alpha=1,beta=0")
    p.add_argument("--t3", default=None, metavar="gamma=1,g=1,delta=1")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.set_defaults(func=_cmd_pre)

    p = sub.add_parser("estimate", help="single-sample point estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--indices", required=True,
                   help="file of indices, or inline like '0,3,5'")
    p.add_argument("--estimator", required=True,
                   choices=tuple(theory.FAMILIES))
    p.add_argument("--tc", default=None)
    p.add_argument("--t1", default=None)
    p.add_argument("--t2", default=None)
    p.add_argument("--t3", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="seeded Monte Carlo experiment")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tc", default=None)
    p.add_argument("--t3", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("generate", help="synthetic population")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spec", default=None, help="JSON file of generator settings")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sensitivity", help="efficiency intervals under input rounding")
    p.add_argument("--params", required=True)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--tc", default=None)
    p.add_argument("--t3", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
