"""Command-line front end.

Experiments are described either by flags or by a flat INI config
(sections [experiment] and [params]); flags override the file. Every run
prints a one-line summary and can write a JSON/CSV report atomically.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Dict, List, Optional

from . import __version__
from .comparator import compare_models
from .model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    FreemiumModel,
    MarketplaceModel,
    PayPerTokenModel,
    PlatformParams,
    RevenueTechnology,
    RsiModel,
    SubscriptionModel,
)
from .montecarlo import (
    MAX_POPULATION,
    PopulationSpec,
    generate_population,
    risk_pooling_report,
    sweep_to_csv,
)
from .optimizer import MIN_GRID_STEP, max_rates, optimize_alpha
from .participation import MAX_POOL_CELLS, rate_grid, sweep
from .settlement import (
    KIND_SALE,
    KIND_SUBSCRIPTION,
    Ledger,
    format_cents,
    read_ledger,
    settle_freemium,
)

OUTDIR_ENV = "REVSHARE_OUTDIR"

FMAX = sys.float_info.max  # bounds an unbounded number: rejects inf and NaN

# the flags that describe the one developer of compare and of solve without
# --size; at their defaults it is the canonical developer: R = e, phi = e^2/2,
# no outside option
DEVELOPER = {
    "scale": ("float", 1.0, 1e-6, 1e6),   # keeps A/k and A*e far from overflow
    "cost_scale": ("float", 1.0, 1e-6, 1e6),
    "reservation": ("float", 0.0, 0, FMAX),
}

# per-command parameter schema: name -> (type tag, default, lo, hi); every
# int or float parameter must lie in [lo, hi]
SCHEMAS: Dict[str, Dict[str, tuple]] = {
    "solve": {
        "canonical": ("bool", False, None, None),
        "cost": ("float", 0.2, 0, 1e6),  # cost x usage over all cells stays finite
        "grid_step": ("float", 1e-3, MIN_GRID_STEP, 1),
        **DEVELOPER,
        "size": ("int", 0, 0, MAX_POPULATION),  # >0: generated population
        "seed": ("int", 0, 0, FMAX),
    },
    "sweep": {
        "canonical": ("bool", False, None, None),
        "cost": ("float", 0.2, 0, 1e6),  # cost x usage over all cells stays finite
        "grid_step": ("float", 1e-3, MIN_GRID_STEP, 1),
        "alpha_min": ("float", 0.0, 0, 1),
        "alpha_max": ("float", 1.0, 0, 1),
        "size": ("int", 0, 0, MAX_POPULATION),
        "seed": ("int", 0, 0, FMAX),
        "no_timestamp": ("bool", False, None, None),  # CSV without its header
    },
    "compare": {
        "rate": ("float", 0.25, 0, 1),
        "cost": ("float", 0.0, 0, FMAX),
        "token_price": ("float", 0.2, 0, FMAX),
        "subscription_fee": ("float", 0.1, 0, FMAX),
        "free_quota": ("float", 0.5, 0, FMAX),
        "overage_price": ("float", 0.2, 0, FMAX),
        "marketplace_commission": ("float", 0.15, 0, 1),
        "capital": ("float", math.inf, 0, math.inf),  # default: unlimited
        **DEVELOPER,
    },
    "scenario": {
        "number": ("int", 1, 1, 3),
        "rate": ("float", 0.25, 0, 1),
    },
    "settle": {
        "ledger": ("str", "", None, None),
        "rate": ("float", 0.25, 0, 1),
        "ad_share": ("float", 0.0, 0, 1),
        "degressive": ("str", "", None, None),  # "0:0.30,1000:0.20" in currency
        "freemium": ("bool", False, None, None),
    },
    "pool": {
        "size": ("int", 100, 0, MAX_POPULATION),
        "seed": ("int", 0, 0, FMAX),
        "alpha": ("float", 0.6, 0, 1),
        "cost": ("float", 0.2, 0, 1e6),  # cost x usage over all cells stays finite
        "success_prob": ("float", 0.5, 0, 1),
        "draws": ("int", 10000, 1, MAX_POOL_CELLS),
    },
}


@dataclass
class ExperimentConfig:
    command: str
    params: Dict[str, object] = field(default_factory=dict)
    output: Optional[str] = None
    fmt: Optional[str] = None  # only checked: sweep writes csv, the rest json

    def resolved(self, name: str):
        return self.params.get(name, SCHEMAS[self.command][name][1])


TYPES = {"int": int, "float": float, "str": str}  # bool flags take no value
EXPERIMENT_KEYS = ("command", "output", "format")


def _coerce(kind: str, raw: str):
    if kind == "bool":  # 1/yes/true/on or 0/no/false/off, any case
        value = configparser.ConfigParser.BOOLEAN_STATES.get(str(raw).strip().lower())
        if value is None:
            raise ValueError(raw)
        return value
    return TYPES[kind](raw)


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise DomainError(f"{path}: not an INI config: {exc}")
    if not read:
        raise DomainError(f"config file not found: {path}")
    if "experiment" not in parser:
        raise DomainError(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    unknown = [key for key in exp  # [DEFAULT] keys also fill [params]
               if key not in EXPERIMENT_KEYS and key not in parser.defaults()]
    if unknown:
        raise DomainError(f"{path}: unknown [experiment] keys {unknown}")
    command = exp.get("command", "")
    cfg = ExperimentConfig(command=command, output=exp.get("output") or None,
                           fmt=exp.get("format"))
    if command in SCHEMAS and "params" in parser:
        schema = SCHEMAS[command]
        for key, raw in parser["params"].items():
            kind = schema[key][0] if key in schema else "str"  # unknown: validate()
            try:
                cfg.params[key] = _coerce(kind, raw)
            except ValueError:
                raise DomainError(f"{path}: {key} = {raw!r} is not a valid {kind}")
    return cfg


def dump_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser["experiment"] = {"command": cfg.command}
    for key, value in (("format", cfg.fmt), ("output", cfg.output)):
        if value:
            parser["experiment"][key] = value
    schema = SCHEMAS.get(cfg.command, {})
    parser["params"] = {}
    for name in schema:
        parser["params"][name] = repr(cfg.resolved(name)) \
            if not isinstance(cfg.resolved(name), str) else cfg.resolved(name)
    import io
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _range_text(lo, hi) -> str:
    return f"must be >= {lo:g}" if hi >= FMAX else f"must be in [{lo:g}, {hi:g}]"


def validate(cfg: ExperimentConfig) -> List[str]:
    """All violations that would make run() reject the experiment: a value
    outside its SCHEMAS range, then the rules that span several values."""
    if cfg.command not in SCHEMAS:
        return [f"unknown command {cfg.command!r}"]
    schema = SCHEMAS[cfg.command]
    issues = [f"unknown parameter {key!r} for {cfg.command}"
              for key in cfg.params if key not in schema]
    writes = "csv" if cfg.command == "sweep" else "json"
    if cfg.fmt is not None and cfg.fmt != writes:
        issues.append(f"{cfg.command} writes {writes}, not {cfg.fmt!r}")
    for name, (kind, default, lo, hi) in schema.items():
        v = cfg.params.get(name, default)
        if lo is not None and not lo <= v <= hi:
            rule = "out of [0,1]" if (lo, hi) == (0, 1) else _range_text(lo, hi)
            issues.append(f"{name} {rule}: {v}")
    if issues:  # the rules below assume every value is in range
        return issues
    val = cfg.resolved
    if cfg.command in ("solve", "sweep"):
        span = val("alpha_max") - val("alpha_min") if cfg.command == "sweep" else 1
        n = round(span / val("grid_step"))  # rate_grid's n; n + 1 rates
        if n < 1:
            issues.append("empty sweep grid: alpha_max - alpha_min is below "
                          "one grid step")
        rates = n + 1 if cfg.command == "sweep" else max_rates(val("grid_step"))
        cells = max(val("size"), 1) * rates
        if cells > MAX_POOL_CELLS:
            issues.append(f"size x rates must be <= {MAX_POOL_CELLS}: {cells}")
    if cfg.command == "sweep" and not val("canonical") and val("size") == 0:
        issues.append("sweep needs a population: give --size or --canonical")
    # a flag counts as given when it differs from its default, so a config
    # written by --dump-config, which lists every value, still passes
    given = [name for name in schema if val(name) != schema[name][1]]
    if cfg.command in ("solve", "sweep"):
        if val("canonical") and val("size") > 0:
            issues.append("--canonical and --size pick different populations")
        if val("size") == 0 and "seed" in given:
            issues.append("--seed draws a population: it needs --size")
        if val("canonical") or val("size") > 0:
            issues += [f"--{name.replace('_', '-')} describes the single "
                       "developer, not a --canonical or --size population"
                       for name in DEVELOPER if name in given]
    if cfg.command == "settle" and val("degressive") and "rate" in given:
        issues.append("--rate is a flat rate: --degressive replaces it")
    if cfg.command == "pool":
        if val("size") < 1:
            issues.append("pool needs size >= 1")
        if val("size") * val("draws") > MAX_POOL_CELLS:
            issues.append(f"draws x size must be <= {MAX_POOL_CELLS}")
    if cfg.command == "settle":
        if not os.path.isfile(val("ledger")):
            issues.append(f"ledger file not found: {val('ledger')!r}")
        try:
            _settle_policy(cfg)
        except DomainError as exc:
            issues.append(str(exc))
    if cfg.output:
        issues += _output_issues(cfg.output)
    return issues


def _settle_policy(cfg: ExperimentConfig) -> CommissionPolicy:
    """The --degressive bands, else the one band (0, --rate), with --ad-share."""
    bands = [(0.0, cfg.resolved("rate"))]
    if cfg.resolved("degressive"):
        bands = []
        for part in cfg.resolved("degressive").split(","):
            try:
                threshold, rate = part.split(":")
                bands.append((float(threshold), float(rate)))
            except ValueError:
                raise DomainError(f"bad degressive band {part!r}, expected t:rate")
    return CommissionPolicy(tuple(bands), cfg.resolved("ad_share"))


def _resolve_output(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTDIR_ENV, "")
    return os.path.join(base, path) if base else path


def _output_issues(path: str) -> List[str]:
    path = _resolve_output(path)
    if os.path.isdir(path):
        return [f"output path is a directory: {path}"]
    if os.path.exists(path) and not os.path.isfile(path):  # a FIFO, a device
        return [f"output path is not a regular file: {path}"]
    outdir = os.path.dirname(os.path.realpath(path))  # where _write_atomic writes
    return [] if os.path.isdir(outdir) else \
        [f"output directory does not exist: {outdir}"]


def _write_atomic(path: str, text: str) -> None:
    """Write text to a temp file beside the path a link resolves to, then
    replace that path: a link is written through and stays a link. The temp
    file gets open()'s mode, 0666 less the umask, which the kernel applies."""
    real = os.path.realpath(_resolve_output(path))
    tmp = os.path.join(os.path.dirname(real), f".revshare-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, real)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _json_text(payload) -> str:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:  # NaN or infinity
        raise DomainError("the report has a value that JSON cannot carry")
    return text + "\n"


def _single_profile(cfg: ExperimentConfig) -> DeveloperProfile:
    """The developer the DEVELOPER flags describe. Sweep has none of them,
    and validate() rejects them next to --canonical, so --canonical always
    gets the canonical developer."""
    scale, k, reservation = (cfg.params.get(name, default)
                             for name, (_, default, _, _) in DEVELOPER.items())
    return DeveloperProfile(
        id="dev-00000", tech=RevenueTechnology(family="linear", scale=scale),
        cost=EffortCost(k=k), reservation_profit=reservation)


def _population(cfg: ExperimentConfig):
    if cfg.resolved("size") == 0:  # --canonical, or solve's single developer
        return [_single_profile(cfg)]
    spec = PopulationSpec(size=cfg.resolved("size"), seed=cfg.resolved("seed"))
    return generate_population(spec)


# --- command implementations: each returns (summary line, report), the
# report a JSON-able dict or the exact text of the output file ---

def _run_solve(cfg: ExperimentConfig):
    population = _population(cfg)
    params = PlatformParams(marginal_cost=cfg.resolved("cost"),
                            population=population)
    report = optimize_alpha(params, grid_step=cfg.resolved("grid_step"))
    summary = (f"alpha*={report.alpha_star:.6f} "
               f"profit={report.platform_profit:.6f} N={report.n_entrants}")
    return summary, {**vars(report), "per_developer": [
        {"id": i, **vars(br)} for i, br in report.per_developer]}


def _run_sweep(cfg: ExperimentConfig):
    population = _population(cfg)
    grid = rate_grid(cfg.resolved("alpha_min"), cfg.resolved("alpha_max"),
                     cfg.resolved("grid_step"))
    result = sweep(population, grid, cfg.resolved("cost"))
    stamp = None if cfg.resolved("no_timestamp") else \
        datetime.now(timezone.utc).isoformat()
    best_n = result.entrant_counts[result.alphas.index(result.argmax_alpha)]
    summary = (f"alpha*={result.argmax_alpha:.6f} "
               f"profit={max(result.platform_profits):.6f} N={best_n}")
    return summary, sweep_to_csv(result, timestamp=stamp)


def _run_compare(cfg: ExperimentConfig):
    profile = _single_profile(cfg)
    models = [
        RsiModel(policy=CommissionPolicy.flat(cfg.resolved("rate"))),
        PayPerTokenModel(token_price=cfg.resolved("token_price")),
        SubscriptionModel(fee=cfg.resolved("subscription_fee")),
        FreemiumModel(free_quota=cfg.resolved("free_quota"),
                      overage_price=cfg.resolved("overage_price")),
        MarketplaceModel(commission=cfg.resolved("marketplace_commission"),
                         token_price=cfg.resolved("token_price")),
    ]
    table = compare_models(profile, models, cfg.resolved("cost"),
                           capital=cfg.resolved("capital"))
    summary = (f"developer_prefers={table.preferred_by_developer} "
               f"platform_prefers={table.preferred_by_platform}")
    return summary, {
        "preferred_by_developer": table.preferred_by_developer,
        "preferred_by_platform": table.preferred_by_platform,
        "rows": [
            {"model": r.model, "developer_profit": r.developer_profit,
             "platform_profit": r.platform_profit, "effort": r.effort,
             "upfront_cost": r.upfront_cost, "entered": r.entered}
            for r in table.rows
        ],
    }


# the worked scenarios' ledgers, as (app, kind, cents, premium count, free count)
SCENARIOS = {
    1: [("legal-advisor", KIND_SUBSCRIPTION, 2000, 1000, 0)],  # $20 a month
    2: [("image-studio", KIND_SALE, 50, 10000, 0)],  # images at $0.50
    3: [("freemium-app", KIND_SUBSCRIPTION, 1000, 100, 0),  # $10 premium tier
        ("freemium-app", KIND_SALE, 0, 0, 900)],  # free-tier users
}


def _statement_outcome(stmt):
    summary = (f"gross={format_cents(stmt.gross_cents)} "
               f"commission={format_cents(stmt.commission_cents)} "
               f"payout={format_cents(stmt.payout_cents)}")
    return summary, stmt.to_json() + "\n"


def _run_scenario(cfg: ExperimentConfig):
    columns, flags = ([], [], [], []), []
    for app, kind, cents, premium, free in SCENARIOS[cfg.resolved("number")]:
        for column, value in zip(columns, (app, "2025-01", kind, cents)):
            column += [value] * (premium + free)
        flags += [True] * premium + [False] * free
    policy = CommissionPolicy.flat(cfg.resolved("rate"))
    return _statement_outcome(settle_freemium(Ledger(*columns), policy, flags))


def _run_settle(cfg: ExperimentConfig):
    txs, flags = read_ledger(cfg.resolved("ledger"))
    return _statement_outcome(settle_freemium(
        txs, _settle_policy(cfg), flags if cfg.resolved("freemium") else None))


def _run_pool(cfg: ExperimentConfig):
    population = generate_population(
        PopulationSpec(size=cfg.resolved("size"), seed=cfg.resolved("seed")))
    report = risk_pooling_report(
        population, cfg.resolved("alpha"), cfg.resolved("cost"),
        cfg.resolved("success_prob"), draws=cfg.resolved("draws"),
        seed=cfg.resolved("seed"))
    cv = report.coefficient_of_variation
    summary = (f"mean={report.mean_profit:.6f} p5={report.p5_profit:.6f} "
               f"cv={'none' if cv is None else f'{cv:.6f}'}")
    return summary, vars(report)


RUNNERS = {
    "solve": _run_solve,
    "sweep": _run_sweep,
    "compare": _run_compare,
    "scenario": _run_scenario,
    "settle": _run_settle,
    "pool": _run_pool,
}


def _usage_error(issues: List[str]) -> int:
    for issue in issues:
        print(f"error: {issue}", file=sys.stderr)
    return 2


def run(cfg: ExperimentConfig) -> int:
    """Execute an experiment that validate() accepts; returns a process exit
    status. A DomainError propagates: main() prints it as a JSON record."""
    issues = validate(cfg)
    if issues:
        return _usage_error(issues)
    summary, report = RUNNERS[cfg.command](cfg)
    if cfg.output:
        _write_atomic(cfg.output, report if isinstance(report, str)
                      else _json_text(report))
    print(summary)
    return 0


class _Parser(argparse.ArgumentParser):  # subparsers inherit the class
    def error(self, message):  # argparse's own rejections, as error: lines
        sys.exit(_usage_error([message]))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revshare",
        description="Revenue-sharing platform solver, comparator and "
                    "settlement calculator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="INI experiment config; flags override it")
        p.add_argument("--dump-config", default=None, metavar="PATH",
                       help="write the resolved config and exit")
        p.add_argument("--out", default=None, help="report output path")
        p.add_argument("--format", dest="fmt", default=None,
                       choices=("json", "csv"),
                       help="checked only: sweep writes csv, the rest json")
        for name, (kind, default, lo, hi) in schema.items():
            flag = "--" + name.replace("_", "-")
            if kind == "bool":
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=TYPES[kind], default=None, help=None
                               if lo is None else f"{_range_text(lo, hi)}, "
                                                  f"default {default:g}")

    v = sub.add_parser("validate")
    v.add_argument("config", help="experiment config to check")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else \
        ExperimentConfig(command=args.command)
    if cfg.command != args.command and args.config:
        raise DomainError(
            f"config declares command {cfg.command!r} but {args.command!r} "
            "was invoked")
    cfg.command = args.command
    for name in SCHEMAS[args.command]:
        value = getattr(args, name, None)
        if value is not None:
            cfg.params[name] = value
    if args.out is not None:
        cfg.output = args.out
    if args.fmt is not None:
        cfg.fmt = args.fmt
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except DomainError as exc:
            return _usage_error([str(exc)])
        issues = validate(cfg)
        for issue in issues:
            print(issue)
        return 0 if not issues else 1
    try:
        cfg = config_from_args(args)
    except DomainError as exc:
        return _usage_error([str(exc)])
    try:
        if args.dump_config:  # only a config that validate() accepts
            issues = validate(cfg) + _output_issues(args.dump_config)
            if issues:
                return _usage_error(issues)
            _write_atomic(args.dump_config, dump_config(cfg))
            print(f"wrote {args.dump_config}")
            return 0
        return run(cfg)
    except DomainError as exc:
        print(json.dumps({"error": str(exc), "module": cfg.command}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
