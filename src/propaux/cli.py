"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 numerical
error (singular optimality system, negative MSE). Diagnostics go to stderr;
reports written with ``--output`` ending in ``.json`` are strict JSON.

The table commands (``theory``, ``pre``, ``sensitivity``) need no numpy; the
commands that read or make a population import its modules when they run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import io, theory
from .config import T3_TABLE_VARIANTS, T3Config, TableConfig, integer
from .errors import DataError, IndexOutOfRange, NumericalError, ParseError, overflow_message

if TYPE_CHECKING:
    from .estimators import EstimatorConfig


class CliUsageError(Exception):
    """Bad flags or arguments (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


#: The kinds of each command's ``--<kind>`` flags: every kind with a parameter
#: class on ``estimate``. On the table commands ``--t3`` sets only ``gamma``.
_TABLE_COMMANDS = ("theory", "pre", "sensitivity")
_FAMILY_FLAGS = {"estimate": tuple(kind for kind, fam in theory.FAMILIES.items() if fam.params),
                 **dict.fromkeys((*_TABLE_COMMANDS, "simulate"), ("tc", "t3"))}


def _family_help(command: str, kind: str) -> str:
    """The help of ``command``'s ``--<kind>``: the keys it may set, each with
    its default, read from the kind's parameter class."""
    defaults = theory.FAMILIES[kind].params._field_defaults
    only = command in _TABLE_COMMANDS and kind == "t3"
    text = ", ".join(f"{name}={'optimal' if default is None else f'{default:g}'}"
                     for name, default in defaults.items() if not only or name == "gamma")
    return f"keys and defaults: {text}" + (" (only gamma can be set here)" if only else "")


def _table_config(args) -> TableConfig:
    kwargs = _subconfigs(args)
    if "t3" in kwargs:
        t3 = kwargs.pop("t3")
        fixed = [name for name, value, default in zip(t3._fields, t3, T3Config(gamma=t3.gamma))
                 if value != default]
        if fixed:
            raise CliUsageError(f"--t3 sets only gamma here; the table fixes {', '.join(fixed)}")
        kwargs["t3_gamma"] = t3.gamma
    return TableConfig(**kwargs)


def _subconfigs(args, kind: str | None = None) -> dict:
    """The family configurations given as the command's ``_FAMILY_FLAGS``,
    parsed in ``theory.FAMILIES`` order into each kind's parameter class;
    with ``kind``, a flag of any other family is a usage error."""
    given = {}
    for slot in _FAMILY_FLAGS[args.command]:
        text = getattr(args, slot)
        if text:
            if kind is not None and slot != kind:
                raise CliUsageError(f"--{slot} does not apply to estimator {kind!r}")
            try:
                given[slot] = theory.FAMILIES[slot].params.from_kv(text)
            except ValueError as exc:
                raise CliUsageError(str(exc)) from None
    return given


def _parse_indices(spec: str, size: int) -> list[int]:
    """The indices in a file or inline text, each in [0, size). A spec that
    names a directory (``''`` is ``.``) is text, not a file."""
    path = Path(spec)
    is_file = path.exists() and not path.is_dir()  # a FIFO or /dev/stdin is read too
    text = io.decode_utf8(path.read_bytes(), spec) if is_file else spec
    parts = text.replace(",", " ").split()
    try:
        indices = [integer(part) for part in parts]
    except ValueError:
        raise ParseError(f"cannot parse sample indices from {spec!r}") from None
    if indices and not 0 <= min(indices) <= max(indices) < size:
        # checked here: numpy holds an index past int64 only as an object
        raise IndexOutOfRange(f"indices must lie in [0, {size - 1}], got range "
                              f"[{min(indices)}, {max(indices)}]")
    return indices


def _table_configurations(config: TableConfig, **leading) -> dict:
    """The ``configurations`` of a report on an efficiency table."""
    return {**leading, "tc": config.tc._asdict(), "t3_gamma": config.t3_gamma,
            "t3_variants": list(T3_TABLE_VARIANTS)}


def _read_input(path: str, read) -> tuple:
    """``read(path, data)`` of the bytes ``data`` at ``path``, and their
    sha256, the report's ``input_digest``: one read, since a pipe such as
    ``/dev/stdin`` gives its bytes only once."""
    data = [Path(path).read_bytes()]
    digest = io._sha256(data[0])
    # handed over, not shared: the CSV parser frees its copy before it splits the rows
    return read(path, data.pop()), digest


def _write_report(args, digest: str, configurations: dict, sections: dict) -> None:
    """Write the report envelope around ``sections`` to ``--output``."""
    document = io.build_report_document(input_digest=digest, configurations=configurations,
                                        sections=sections)
    io.write_report_json(args.output, document)


def _census_dash(value) -> str:
    return "—" if value is None else f"{value:.2f}"


# --- commands -------------------------------------------------------------------


def _cmd_params(args) -> int:
    from .population import compute_population_params

    frame = io.read_population_csv(args.input)
    params = compute_population_params(frame)
    n = args.n if args.n is not None else frame.size
    doc = io.ParamsDocument(params=params, design=theory.Design(n=n, N=frame.size),
                            provenance=io.PROVENANCE_FRAME)
    io.write_params_json(args.output, doc)
    return 0


def _cmd_theory(args) -> int:
    doc, digest = _read_input(args.params, io.read_params_json)
    config = _table_config(args)
    report = theory.theory_report(doc.params, doc.design, config)
    conditions = None
    if doc.design.f > 0.0:
        conditions = io.conditions_dict(
            theory.comparison_conditions(doc.params, doc.design.f, config))
    _write_report(args, digest, _table_configurations(config),
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
    from .estimators import EstimatorConfig, evaluate
    from .population import compute_population_params, sample_stats

    frame = io.read_population_csv(args.input)
    pop = compute_population_params(frame)
    stats = sample_stats(frame, _parse_indices(args.indices, frame.size))
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
    return {"kind": cfg.kind, cfg.kind: cfg.params._asdict()}


def _cmd_simulate(args) -> int:
    from .estimators import EstimatorConfig
    from .montecarlo import DEFAULT_CONFIGS, run_experiment

    frame, digest = _read_input(args.input, io.read_population_csv)
    given = _subconfigs(args)
    configs = [EstimatorConfig(kind=cfg.kind, params=given[cfg.kind])
               if cfg.kind in given else cfg for cfg in DEFAULT_CONFIGS]
    report = run_experiment(frame, args.n, configs, reps=args.reps, seed=args.seed)
    _write_report(args, digest,
                  {"n": args.n, "reps": args.reps, "seed": args.seed,
                   "estimators": [_config_dict(cfg) for cfg in configs]},
                  {"simulation": io.simulation_report_dict(report)})
    return 0


def _cmd_generate(args) -> int:
    from .montecarlo import SyntheticSpec, generate_population

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
    doc, digest = _read_input(args.params, io.read_params_json)
    config = _table_config(args)
    report = theory.sensitivity(doc.params, doc.design.f, config, digits=args.digits)
    _write_report(args, digest, _table_configurations(config, digits=args.digits),
                  {"sensitivity": io.sensitivity_report_dict(report)})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="propaux",
                     description="Proportion estimation with auxiliary information")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, reads, *options, output=True):
        """Add command ``name``: ``--<reads>``, the ``(flag, keywords)`` pairs
        ``options``, its ``_FAMILY_FLAGS`` and ``--output``, in that order."""
        p = sub.add_parser(name, help=help)
        # Python 3.13's rule: in ``--indices -1,0,1``, older ones see an unknown option
        p._negative_number_matcher = re.compile(r"-\.?\d")
        if reads:
            p.add_argument(f"--{reads}", required=True)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        for kind in _FAMILY_FLAGS.get(name, ()):
            p.add_argument(f"--{kind}", metavar="KEY=VALUE,...", help=_family_help(name, kind))
        if output:
            p.add_argument("--output", required=True)
        p.set_defaults(func=func)

    required = {"type": integer, "required": True}
    command("params", _cmd_params, "compute a parameter document from a frame", "input",
            ("--n", {"type": integer, "help": "intended sample size (defaults to a census)"}))
    command("theory", _cmd_theory, "biases, MSEs, optimal constants", "params")
    command("pre", _cmd_pre, "percent-relative-efficiency table", "params",
            ("--format", {"choices": ("table", "csv", "json"), "default": "table"}),
            output=False)
    command("estimate", _cmd_estimate, "single-sample point estimate", "input",
            ("--indices", {"required": True, "help": "file of indices, or inline like '0,3,5'"}),
            ("--estimator", {"required": True, "choices": tuple(theory.FAMILIES)}),
            output=False)
    command("simulate", _cmd_simulate, "seeded Monte Carlo experiment", "input",
            ("--n", required), ("--reps", required), ("--seed", required))
    command("generate", _cmd_generate, "synthetic population", None,
            ("--size", required), ("--seed", required),
            ("--spec", {"help": "JSON file of generator settings"}))
    command("sensitivity", _cmd_sensitivity, "efficiency intervals under input rounding",
            "params", ("--digits", required))
    return parser


@functools.cache
def _parser() -> _Parser:
    """``main``'s parser, built on its first call and kept for the process:
    building one takes longer than the work of a table command."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:  # float ``**`` raises where ``*`` gives inf
        print(f"numerical error: {overflow_message(exc)}", file=sys.stderr)
        return 3
    except (DataError, OSError, MemoryError) as exc:  # numpy's MemoryError names the array
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
