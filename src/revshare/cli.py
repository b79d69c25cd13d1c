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
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
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
    MAX_POOL_CELLS,
    MAX_POPULATION,
    PopulationSpec,
    generate_population,
    risk_pooling_report,
    sweep_to_csv,
)
from .optimizer import MIN_GRID_STEP, optimize_alpha
from .participation import rate_grid, sweep
from .settlement import (
    KIND_SALE,
    KIND_SUBSCRIPTION,
    Transaction,
    format_cents,
    read_ledger,
    settle,
    settle_freemium,
)

OUTDIR_ENV = "REVSHARE_OUTDIR"

COMMANDS = ("solve", "sweep", "compare", "scenario", "settle", "pool")

# per-command parameter schema: name -> (type tag, default)
SCHEMAS: Dict[str, Dict[str, tuple]] = {
    "solve": {
        "canonical": ("bool", False),
        "cost": ("float", 0.2),
        "grid_step": ("float", 1e-3),
        "scale": ("float", 1.0),
        "cost_scale": ("float", 1.0),
        "reservation": ("float", 0.0),
        "size": ("int", 0),       # >0: generated population instead of single dev
        "seed": ("int", 0),
    },
    "sweep": {
        "canonical": ("bool", False),
        "cost": ("float", 0.2),
        "grid_step": ("float", 1e-3),
        "alpha_min": ("float", 0.0),
        "alpha_max": ("float", 1.0),
        "size": ("int", 0),
        "seed": ("int", 0),
    },
    "compare": {
        "rate": ("float", 0.25),
        "cost": ("float", 0.0),
        "token_price": ("float", 0.2),
        "subscription_fee": ("float", 0.1),
        "free_quota": ("float", 0.5),
        "overage_price": ("float", 0.2),
        "marketplace_commission": ("float", 0.15),
        "capital": ("float", math.inf),
        "scale": ("float", 1.0),
        "cost_scale": ("float", 1.0),
        "reservation": ("float", 0.0),
    },
    "scenario": {
        "number": ("int", 1),
        "rate": ("float", 0.25),
    },
    "settle": {
        "ledger": ("str", ""),
        "rate": ("float", 0.25),
        "ad_share": ("float", -1.0),   # <0 means absent
        "degressive": ("str", ""),     # "0:0.30,1000:0.20" thresholds in currency
        "freemium": ("bool", False),
    },
    "pool": {
        "size": ("int", 100),
        "seed": ("int", 0),
        "alpha": ("float", 0.6),
        "cost": ("float", 0.2),
        "success_prob": ("float", 0.5),
        "draws": ("int", 10000),
    },
}


@dataclass
class ExperimentConfig:
    command: str
    params: Dict[str, object] = field(default_factory=dict)
    output: Optional[str] = None
    fmt: str = "json"
    no_timestamp: bool = False

    def resolved(self, name: str):
        kind, default = SCHEMAS[self.command][name]
        return self.params.get(name, default)


def parse_currency(text: str) -> int:
    """Decimal currency string to integer cents; rejects >2 decimals."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise DomainError(f"not a currency amount: {text!r}")
    cents = d * 100
    if cents != cents.to_integral_value():
        raise DomainError(f"more than 2 decimal places: {text!r}")
    return int(cents)


def _coerce(kind: str, raw: str):
    if kind == "bool":
        return str(raw).strip().lower() in ("1", "true", "yes", "on")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return str(raw)


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise DomainError(f"config file not found: {path}")
    if "experiment" not in parser:
        raise DomainError(f"{path}: missing [experiment] section")
    exp = parser["experiment"]
    command = exp.get("command", "")
    cfg = ExperimentConfig(
        command=command,
        output=exp.get("output", None) or None,
        fmt=exp.get("format", "json"),
        no_timestamp=_coerce("bool", exp.get("no_timestamp", "false")),
    )
    if command in SCHEMAS and "params" in parser:
        schema = SCHEMAS[command]
        for key, raw in parser["params"].items():
            kind = schema[key][0] if key in schema else "str"  # unknown: validate()
            try:
                cfg.params[key] = _coerce(kind, raw)
            except ValueError:
                raise DomainError(f"{path}: {key} = {raw!r} is not a valid {kind}")
    elif "params" in parser:
        cfg.params = dict(parser["params"])
    return cfg


def dump_config(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    parser["experiment"] = {"command": cfg.command, "format": cfg.fmt,
                            "no_timestamp": str(cfg.no_timestamp).lower()}
    if cfg.output:
        parser["experiment"]["output"] = cfg.output
    schema = SCHEMAS.get(cfg.command, {})
    parser["params"] = {}
    for name in schema:
        parser["params"][name] = repr(cfg.resolved(name)) \
            if not isinstance(cfg.resolved(name), str) else cfg.resolved(name)
    import io
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def validate(cfg: ExperimentConfig) -> List[str]:
    """All violations that would make run() reject the experiment."""
    issues: List[str] = []
    if cfg.command not in COMMANDS:
        issues.append(f"unknown command {cfg.command!r}")
        return issues
    schema = SCHEMAS[cfg.command]
    for key in cfg.params:
        if key not in schema:
            issues.append(f"unknown parameter {key!r} for {cfg.command}")
    if cfg.fmt not in ("json", "csv"):
        issues.append(f"unknown format {cfg.fmt!r}")

    def val(name):
        return cfg.resolved(name)

    for rate_key in ("rate", "alpha", "alpha_min", "alpha_max", "success_prob",
                     "marketplace_commission"):
        if rate_key in schema and not (0 <= val(rate_key) <= 1):
            issues.append(f"{rate_key} out of [0,1]: {val(rate_key)}")
    if "ad_share" in schema and val("ad_share") >= 0 and val("ad_share") > 1:
        issues.append(f"ad_share out of [0,1]: {val('ad_share')}")
    for nonneg in ("cost", "token_price", "subscription_fee", "free_quota",
                   "overage_price", "reservation"):
        if nonneg in schema and val(nonneg) < 0:
            issues.append(f"{nonneg} must be >= 0")
    for pos in ("scale", "cost_scale"):
        if pos in schema and val(pos) <= 0:
            issues.append(f"{pos} must be positive")
    if "grid_step" in schema and not val("grid_step") >= MIN_GRID_STEP:
        issues.append(f"grid_step must be >= {MIN_GRID_STEP:g}")
    if "size" in schema and not 0 <= val("size") <= MAX_POPULATION:
        issues.append(f"size must be in [0, {MAX_POPULATION}]")
    if "seed" in schema and val("seed") < 0:
        issues.append("seed must be >= 0")
    if cfg.command == "sweep" and not val("canonical") and val("size") == 0:
        issues.append("sweep needs a population: give --size or --canonical")
    if "draws" in schema and val("draws") < 1:
        issues.append("draws must be >= 1")
    if cfg.command == "pool":
        if val("size") < 1:
            issues.append("pool needs size >= 1")
        if val("size") * val("draws") > MAX_POOL_CELLS:
            issues.append(f"draws x size must be <= {MAX_POOL_CELLS}")
    if cfg.command == "sweep" and val("alpha_min") >= val("alpha_max"):
        issues.append("empty sweep grid: alpha_min >= alpha_max")
    if cfg.command == "scenario" and val("number") not in (1, 2, 3):
        issues.append("scenario number must be 1, 2 or 3")
    if cfg.command == "settle":
        if not val("ledger"):
            issues.append("settle requires a ledger path")
        elif not os.path.exists(val("ledger")):
            issues.append(f"ledger file not found: {val('ledger')}")
        if val("degressive"):
            try:
                CommissionPolicy.degressive(_parse_degressive(val("degressive")))
            except DomainError as exc:
                issues.append(str(exc))
    if cfg.output:
        outdir = os.path.dirname(_resolve_output(cfg.output)) or "."
        if not os.path.isdir(outdir):
            issues.append(f"output directory does not exist: {outdir}")
    return issues


def _parse_degressive(spec: str):
    bands = []
    for part in spec.split(","):
        try:
            threshold, rate = part.split(":")
            bands.append((float(threshold), float(rate)))
        except ValueError:
            raise DomainError(f"bad degressive band {part!r}, expected t:rate")
    return bands


def _resolve_output(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUTDIR_ENV, "")
    return os.path.join(base, path) if base else path


def _write_atomic(path: str, text: str) -> None:
    path = _resolve_output(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".revshare-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _single_profile(cfg: ExperimentConfig) -> DeveloperProfile:
    return DeveloperProfile(
        id="dev-00000",
        tech=RevenueTechnology(family="linear", scale=cfg.resolved("scale")),
        cost=EffortCost(k=cfg.resolved("cost_scale")),
        reservation_profit=cfg.resolved("reservation"),
    )


def _population(cfg: ExperimentConfig):
    if cfg.resolved("canonical"):
        return [DeveloperProfile(
            id="dev-00000", tech=RevenueTechnology(family="linear", scale=1.0),
            cost=EffortCost(k=1.0))]
    if cfg.resolved("size") == 0:  # solve only: validate() rejects it for sweep
        return [_single_profile(cfg)]
    spec = PopulationSpec(size=cfg.resolved("size"), seed=cfg.resolved("seed"))
    return generate_population(spec)


# --- command implementations ---

def _run_solve(cfg: ExperimentConfig) -> str:
    population = _population(cfg)
    params = PlatformParams(marginal_cost=cfg.resolved("cost"),
                            population=population)
    report = optimize_alpha(params, grid_step=cfg.resolved("grid_step"))
    summary = (f"alpha*={report.alpha_star:.6f} "
               f"profit={report.platform_profit:.6f} N={report.n_entrants}")
    if cfg.output:
        payload = {
            "alpha_star": report.alpha_star,
            "platform_profit": report.platform_profit,
            "n_entrants": report.n_entrants,
            "analytic_alpha": report.analytic_alpha,
            "degenerate": report.degenerate,
            "per_developer": [
                {"id": dev_id, "effort": br.effort, "price": br.price,
                 "gross_revenue": br.gross_revenue, "usage": br.usage,
                 "net_profit": br.net_profit, "foc_residual": br.foc_residual,
                 "method": br.method}
                for dev_id, br in report.per_developer
            ],
            "diagnostics": {
                "grid_size": report.diagnostics["grid_size"],
                "refine_iterations": report.diagnostics["refine_iterations"],
            },
        }
        _write_atomic(cfg.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return summary


def _run_sweep(cfg: ExperimentConfig) -> str:
    population = _population(cfg)
    grid = rate_grid(cfg.resolved("alpha_min"), cfg.resolved("alpha_max"),
                     cfg.resolved("grid_step"))
    result = sweep(population, grid, cfg.resolved("cost"))
    stamp = None if cfg.no_timestamp else \
        datetime.now(timezone.utc).isoformat()
    if cfg.output:
        _write_atomic(cfg.output, sweep_to_csv(result, timestamp=stamp))
    best_n = result.entrant_counts[result.alphas.index(result.argmax_alpha)]
    return (f"alpha*={result.argmax_alpha:.6f} "
            f"profit={max(result.platform_profits):.6f} N={best_n}")


def _run_compare(cfg: ExperimentConfig) -> str:
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
    if cfg.output:
        payload = {
            "preferred_by_developer": table.preferred_by_developer,
            "preferred_by_platform": table.preferred_by_platform,
            "rows": [
                {"model": r.model, "developer_profit": r.developer_profit,
                 "platform_profit": r.platform_profit, "effort": r.effort,
                 "upfront_cost": r.upfront_cost, "entered": r.entered}
                for r in table.rows
            ],
        }
        _write_atomic(cfg.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return (f"developer_prefers={table.preferred_by_developer} "
            f"platform_prefers={table.preferred_by_platform}")


def _scenario_ledger(number: int):
    if number == 1:  # 1000 monthly $20 subscriptions
        txs = [Transaction("legal-advisor", "2025-01", KIND_SUBSCRIPTION, 2000)
               for _ in range(1000)]
        return txs, [True] * len(txs)
    if number == 2:  # 10,000 images at $0.50
        txs = [Transaction("image-studio", "2025-01", KIND_SALE, 50)
               for _ in range(10000)]
        return txs, [True] * len(txs)
    # freemium: 100 premium $10 subscriptions plus 900 free-tier users
    txs = [Transaction("freemium-app", "2025-01", KIND_SUBSCRIPTION, 1000)
           for _ in range(100)]
    flags = [True] * len(txs)
    txs += [Transaction("freemium-app", "2025-01", KIND_SALE, 0)
            for _ in range(900)]
    flags += [False] * 900
    return txs, flags


def _statement_summary(stmt) -> str:
    return (f"gross={format_cents(stmt.gross_cents)} "
            f"commission={format_cents(stmt.commission_cents)} "
            f"payout={format_cents(stmt.payout_cents)}")


def _run_scenario(cfg: ExperimentConfig) -> str:
    number = cfg.resolved("number")
    policy = CommissionPolicy.flat(cfg.resolved("rate"))
    txs, flags = _scenario_ledger(number)
    stmt = settle_freemium(txs, policy, flags) if number == 3 \
        else settle(txs, policy)
    if cfg.output:
        _write_atomic(cfg.output, stmt.to_json() + "\n")
    return _statement_summary(stmt)


def _run_settle(cfg: ExperimentConfig) -> str:
    txs, flags = read_ledger(cfg.resolved("ledger"))
    ad_share = cfg.resolved("ad_share")
    kwargs = {"ad_share": ad_share if ad_share >= 0 else None}
    if cfg.resolved("degressive"):
        policy = CommissionPolicy.degressive(
            _parse_degressive(cfg.resolved("degressive")), **kwargs)
    else:
        policy = CommissionPolicy.flat(cfg.resolved("rate"), **kwargs)
    stmt = settle_freemium(txs, policy, flags) if cfg.resolved("freemium") \
        else settle(txs, policy)
    if cfg.output:
        _write_atomic(cfg.output, stmt.to_json() + "\n")
    return _statement_summary(stmt)


def _run_pool(cfg: ExperimentConfig) -> str:
    population = generate_population(
        PopulationSpec(size=cfg.resolved("size"), seed=cfg.resolved("seed")))
    report = risk_pooling_report(
        population, cfg.resolved("alpha"), cfg.resolved("cost"),
        cfg.resolved("success_prob"), draws=cfg.resolved("draws"),
        seed=cfg.resolved("seed"))
    if cfg.output:
        payload = {
            "mean_profit": report.mean_profit,
            "std_profit": report.std_profit,
            "p5_profit": report.p5_profit,
            "coefficient_of_variation": report.coefficient_of_variation,
            "deterministic_profit": report.deterministic_profit,
            "draws": report.draws,
            "population_size": report.population_size,
        }
        _write_atomic(cfg.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    cv = report.coefficient_of_variation
    return (f"mean={report.mean_profit:.6f} p5={report.p5_profit:.6f} "
            f"cv={'none' if cv is None else f'{cv:.6f}'}")


RUNNERS = {
    "solve": _run_solve,
    "sweep": _run_sweep,
    "compare": _run_compare,
    "scenario": _run_scenario,
    "settle": _run_settle,
    "pool": _run_pool,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated experiment; returns a process exit status."""
    issues = validate(cfg)
    if issues:
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        return 2
    try:
        print(RUNNERS[cfg.command](cfg))
    except DomainError as exc:
        print(json.dumps({"error": str(exc), "module": cfg.command}),
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                       choices=("json", "csv"))
        p.add_argument("--no-timestamp", action="store_true", default=None)
        for name, (kind, default) in schema.items():
            flag = "--" + name.replace("_", "-")
            if kind == "bool":
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type={"int": int, "float": float,
                                           "str": str}[kind], default=None)

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
    if args.no_timestamp is not None:
        cfg.no_timestamp = args.no_timestamp
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            cfg = load_config(args.config)
        except DomainError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        issues = validate(cfg)
        for issue in issues:
            print(issue)
        return 0 if not issues else 1
    try:
        cfg = config_from_args(args)
    except DomainError as exc:
        print(json.dumps({"error": str(exc), "module": "cli"}), file=sys.stderr)
        return 2
    if args.dump_config:
        _write_atomic(args.dump_config, dump_config(cfg))
        print(f"wrote {args.dump_config}")
        return 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
