"""Exact integer-cent revenue-split settlement.

All arithmetic is on integer cents with Decimal for the single rounding
point: commission is rounded half-up on the period aggregate (never per
transaction), and the remainder goes to the developer, so
commission + payout == gross holds exactly for every statement. A ``Ledger``
is a ``model.Columns`` table of transactions, and ``settle`` is
``settle_freemium`` with every row premium.

A policy's ``activity_threshold`` counts the period's premium transactions
here: with fewer of them the whole commission is waived, and a count equal
to the threshold is charged. The solver reads the same field as one
developer's request volume (``participation.entrant_profit``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from decimal import Decimal, ROUND_HALF_UP
from itertools import repeat, takewhile
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .model import Columns, CommissionPolicy, DomainError

KIND_SALE = "sale"
KIND_SUBSCRIPTION = "subscription"
KIND_AD = "ad"
KINDS = (KIND_SALE, KIND_SUBSCRIPTION, KIND_AD)


@dataclass(frozen=True, slots=True)
class Transaction:
    app_id: str
    period: str
    kind: str
    amount_cents: int

    def __post_init__(self):
        _check_transaction(self.kind, self.amount_cents)


def _check_transaction(kind: str, amount_cents: int) -> None:
    """A transaction's rules, checked by Transaction and on each parsed row."""
    if kind not in KINDS:
        raise DomainError(f"unknown transaction kind {kind!r}")
    if not isinstance(amount_cents, int):
        raise DomainError("amount_cents must be an integer")
    if amount_cents < 0:
        raise DomainError("amount_cents must be >= 0")


class Ledger(Columns):
    """Transactions as four columns: app ids, periods, kinds, integer cents."""

    __slots__ = ()
    row = Transaction


@dataclass(frozen=True)
class SettlementStatement:
    app_id: str
    period: str
    gross_cents: int
    commission_cents: int
    payout_cents: int
    effective_rate: float
    per_kind_cents: Dict[str, int] = field(default_factory=dict)
    free_count: int = 0

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["per_kind_cents"] = dict(sorted(self.per_kind_cents.items()))
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _round_half_up(x: Decimal) -> int:
    return int(x.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


def _schedule_commission_cents(policy: CommissionPolicy, gross_cents: int) -> int:
    """Commission on app revenue, rounded half-up once on the period total."""
    bps = policy.breakpoints
    # a band starting at or above the gross is empty, as is every later one;
    # its edge is never quantized, since a huge one overflows the Decimal context
    scaled = (Decimal(repr(threshold)) * 100 for threshold, _ in bps)
    edges = [_round_half_up(e) for e in takewhile(lambda e: e < gross_cents, scaled)]
    total = Decimal(0)
    for (_, rate), lo, hi in zip(bps, edges, edges[1:] + [gross_cents]):
        band = min(gross_cents, hi) - lo
        if band > 0:  # thresholds under a cent apart leave an empty band
            total += Decimal(repr(rate)) * band
    return _round_half_up(total)


def settle(transactions: Iterable[Transaction],
           policy: CommissionPolicy) -> SettlementStatement:
    """Settle one app's period ledger under a commission policy: every
    transaction is premium, i.e. commission-bearing."""
    return settle_freemium(transactions, policy, None)


def settle_freemium(transactions: Iterable[Transaction],
                    policy: CommissionPolicy,
                    premium_flags: Optional[Sequence[bool]]) -> SettlementStatement:
    """Settle with commission charged on premium-flagged transactions only;
    free-tier entries are served but counted at zero commission, and None
    flags every transaction premium. One pass over (kind, cents, premium
    flag), read from a Ledger's columns or else from each transaction."""
    if isinstance(transactions, Ledger):
        app_ids, period_ids, kinds, amounts = transactions.columns
    else:
        txs = transactions if isinstance(transactions, Sequence) else list(transactions)
        app_ids, period_ids = {t.app_id for t in txs}, {t.period for t in txs}
        kinds, amounts = [t.kind for t in txs], [t.amount_cents for t in txs]
    if premium_flags is not None and len(amounts) != len(premium_flags):
        raise DomainError("premium_flags must align with transactions")
    apps, periods = set(app_ids), set(period_ids)
    flags = repeat(True) if premium_flags is None else premium_flags
    per_kind = {}
    app_gross = ad_gross = premium = 0
    for kind, cents, flag in zip(kinds, amounts, flags):
        per_kind[kind] = per_kind.get(kind, 0) + cents
        if flag:
            premium += 1
            if kind == KIND_AD:
                ad_gross += cents
            else:
                app_gross += cents
    if len(apps) > 1:
        raise DomainError(f"mixed app ids in one settlement: {sorted(apps)}")
    if len(periods) > 1:
        raise DomainError(f"mixed periods in one settlement: {sorted(periods)}")
    if premium < policy.activity_threshold:
        commission = 0
    else:
        commission = _schedule_commission_cents(policy, app_gross)
        if ad_gross:
            ad_rate = Decimal(repr(policy.ad_share))
            commission += _round_half_up(ad_rate * ad_gross)
    gross = sum(per_kind.values())
    free_count = 0 if premium_flags is None else len(premium_flags) - premium
    return SettlementStatement(
        app_id=apps.pop() if apps else "", period=periods.pop() if periods else "",
        gross_cents=gross, commission_cents=commission, payout_cents=gross - commission,
        effective_rate=commission / gross if gross else 0.0,
        per_kind_cents=per_kind, free_count=free_count)


def format_cents(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}${cents // 100:,}.{cents % 100:02d}"


# --- ledger I/O: delimited text with a header row ---

LEDGER_FIELDS = ("app_id", "period", "kind", "amount_cents")


def parse_ledger(lines: Iterable[str]) -> Tuple[Ledger, List[bool]]:
    """Parse a CSV ledger (app_id,period,kind,amount_cents[,premium]).
    Returns the rows in file order as a Ledger, plus per-row premium flags
    (default True). Columns may come in any order and blank lines are
    skipped; a column named twice is rejected, as is a row whose cell count
    differs from the header's and a cell over csv's field size limit. Errors
    name the physical line. Equal app ids, periods and kinds share one string."""
    import csv
    rows = csv.reader(lines)
    try:
        return _parse_rows(rows)
    except csv.Error as exc:
        raise DomainError(f"line {rows.line_num}: {exc}") from None


def _parse_rows(rows) -> Tuple[Ledger, List[bool]]:
    header = next(rows, [])
    repeated = [f for f in LEDGER_FIELDS + ("premium",) if header.count(f) > 1]
    if repeated:
        raise DomainError(f"ledger repeats columns: {repeated}")
    column = {name: i for i, name in enumerate(header)}
    missing = [f for f in LEDGER_FIELDS if f not in column]
    if missing:
        raise DomainError(f"ledger missing columns: {missing}")
    app, period, kind, amount = (column[f] for f in LEDGER_FIELDS)
    premium = column.get("premium")
    shared: Dict[str, str] = {}
    app_ids, periods, kinds, amounts, flags = [], [], [], [], []
    for row in filter(None, rows):
        if len(row) != len(header):
            raise DomainError(f"line {rows.line_num}: {len(row)} cells, "
                              f"the header has {len(header)}")
        a, p, k = row[app], row[period], row[kind]
        try:
            cents = int(row[amount])
            _check_transaction(k, cents)
        except DomainError as exc:
            raise DomainError(f"line {rows.line_num}: {exc}") from None
        except ValueError:  # from int()
            raise DomainError(f"line {rows.line_num}: amount_cents "
                              f"{row[amount]!r} is not an integer") from None
        app_ids.append(shared.setdefault(a, a))
        periods.append(shared.setdefault(p, p))
        kinds.append(shared.setdefault(k, k))
        amounts.append(cents)
        flags.append(premium is None
                     or row[premium].strip().lower() not in ("0", "false", "no"))
    return Ledger(app_ids, periods, kinds, amounts), flags


def read_ledger(path) -> Tuple[Ledger, List[bool]]:
    """Parse a UTF-8 ledger file (a leading BOM is skipped); an unreadable
    file or a line that is not UTF-8 is a DomainError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return parse_ledger(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:  # raised per chunk: find the line
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DomainError(
                        f"line {number}: not UTF-8 ({exc.reason})") from None
        raise
