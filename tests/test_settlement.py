import csv
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from revshare.model import CommissionPolicy, DomainError
from revshare.settlement import (
    Transaction,
    _round_half_up,
    _schedule_commission_cents,
    format_cents,
    parse_ledger,
    read_ledger,
    settle,
    settle_freemium,
)

FLAT25 = CommissionPolicy.flat(0.25)


def tx(amount, kind="sale", app="app-1", period="2025-01"):
    return Transaction(app_id=app, period=period, kind=kind,
                       amount_cents=amount)


class TestScenarios:
    def test_subscription_scenario(self):
        # 1000 monthly $20 subscriptions at 25%
        txs = [tx(2000, kind="subscription") for _ in range(1000)]
        stmt = settle(txs, FLAT25)
        assert stmt.commission_cents == 500_000
        assert stmt.payout_cents == 1_500_000
        assert format_cents(stmt.payout_cents) == "$15,000.00"

    def test_per_image_scenario(self):
        # 10,000 images at $0.50 each
        txs = [tx(50) for _ in range(10000)]
        stmt = settle(txs, FLAT25)
        assert stmt.commission_cents == 125_000
        assert stmt.payout_cents == 375_000

    def test_freemium_scenario(self):
        txs = [tx(1000, kind="subscription") for _ in range(100)]
        flags = [True] * 100
        txs += [tx(0) for _ in range(250)]
        flags += [False] * 250
        stmt = settle_freemium(txs, FLAT25, flags)
        assert stmt.commission_cents == 25_000
        assert stmt.free_count == 250


class TestRounding:
    def test_zero_rate(self):
        stmt = settle([tx(12345), tx(67)], CommissionPolicy.flat(0.0))
        assert stmt.commission_cents == 0
        assert stmt.payout_cents == stmt.gross_cents

    def test_half_up_on_aggregate(self):
        # $99.99 at 30%: 2999.7 cents rounds half-up to $30.00
        stmt = settle([tx(9999)], CommissionPolicy.flat(0.30))
        assert stmt.commission_cents == 3000
        assert stmt.payout_cents == 6999

    def test_aggregate_not_per_transaction(self):
        # 3 x $0.01 at 30%: 0.9 cents rounds to 1 once, not 3 x round(0.3)
        stmt = settle([tx(1), tx(1), tx(1)], CommissionPolicy.flat(0.30))
        assert stmt.commission_cents == 1

    def test_exact_half_rounds_up(self):
        stmt = settle([tx(2)], CommissionPolicy.flat(0.25))  # 0.5 cents
        assert stmt.commission_cents == 1

    @given(r=st.floats(0.0, 1.0), cents=st.integers(0, 10**18))
    @example(r=0.1, cents=10**18)
    @example(r=5e-324, cents=10**18)
    @settings(max_examples=500)
    def test_one_band_rounds_the_flat_product_once(self, r, cents):
        # a flat rate's cents are the one band's: r * cents rounded half-up
        assert _schedule_commission_cents(CommissionPolicy.flat(r), cents) \
            == _round_half_up(Decimal(repr(r)) * cents)


class TestDegressive:
    POLICY = CommissionPolicy.degressive([(0.0, 0.30), (100.0, 0.20)])

    def test_band_split(self):
        # $150 gross: 30% of $100 + 20% of $50 = $40.00
        stmt = settle([tx(15000)], self.POLICY)
        assert stmt.commission_cents == 4000

    def test_sub_cent_band_does_not_stop_later_bands(self):
        # 1.001 and 1.004 both round to a 100-cent edge: the empty band
        # between them is skipped, not taken as the end of the schedule
        policy = CommissionPolicy.degressive(
            [(0.0, 0.30), (1.001, 0.20), (1.004, 0.10)])
        stmt = settle([tx(1000)], policy)
        assert stmt.commission_cents == 30 + 90

    @pytest.mark.parametrize("threshold", [1e25, 1e26, 1e30, 1e300])
    def test_threshold_above_gross_settles_as_flat(self, threshold):
        # the second band is empty; its edge is never quantized, so a
        # threshold beyond the Decimal context's 28 digits cannot overflow
        policy = CommissionPolicy.degressive([(0.0, 0.30), (threshold, 0.20)])
        txs = [tx(4175), tx(9999), tx(1)]
        flat = settle(txs, CommissionPolicy.flat(0.30))
        assert settle(txs, policy).to_json() == flat.to_json()

    def test_infinite_threshold_rejected(self):
        with pytest.raises(DomainError, match="threshold must be finite"):
            CommissionPolicy.degressive([(0.0, 0.30), (math.inf, 0.20)])

    def test_period_reset_not_additive(self):
        # settling a doubled ledger is NOT double the commission: the second
        # half rides the cheaper band
        one = settle([tx(15000)], self.POLICY)
        both = settle([tx(15000), tx(15000)], self.POLICY)
        assert both.commission_cents < 2 * one.commission_cents

    def test_flat_periods_are_additive(self):
        # exact when no rounding occurs (amounts divisible by 4 at 25%)
        a = settle([tx(776)], FLAT25)
        b = settle([tx(12004)], FLAT25)
        merged = settle([tx(776), tx(12004)], FLAT25)
        assert merged.commission_cents == a.commission_cents + b.commission_cents

    def test_flat_periods_additive_within_rounding(self):
        # with fractional cents in play, merging can shift one rounding unit
        a = settle([tx(777)], FLAT25)
        b = settle([tx(12005)], FLAT25)
        merged = settle([tx(777), tx(12005)], FLAT25)
        assert abs(merged.commission_cents
                   - (a.commission_cents + b.commission_cents)) <= 1


class TestValidation:
    def test_mixed_apps_rejected(self):
        with pytest.raises(DomainError):
            settle([tx(100, app="a"), tx(100, app="b")], FLAT25)

    def test_negative_amount_rejected(self):
        with pytest.raises(DomainError):
            tx(-1)

    def test_non_integer_amount_rejected(self):
        with pytest.raises(DomainError):
            Transaction(app_id="a", period="p", kind="sale",
                        amount_cents=10.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            Transaction(app_id="a", period="p", kind="tip", amount_cents=1)


class TestActivityThreshold:
    """The threshold counts premium transactions in the period."""

    POLICY = CommissionPolicy.flat(0.25, activity_threshold=3)

    def test_count_equal_to_threshold_is_charged(self):
        txs = [tx(400) for _ in range(4)]
        stmt = settle_freemium(txs, self.POLICY, [True, True, True, False])
        assert stmt.commission_cents == 300  # 25% of the premium 1200
        assert settle(txs[:3], self.POLICY).commission_cents == 300

    def test_one_fewer_is_waived(self):
        txs = [tx(400) for _ in range(4)]
        stmt = settle_freemium(txs, self.POLICY, [True, True, False, False])
        assert stmt.commission_cents == 0
        assert stmt.payout_cents == stmt.gross_cents == 1600
        assert settle(txs[:2], self.POLICY).commission_cents == 0


class TestAdRevenue:
    def test_ad_share_applied_separately(self):
        policy = CommissionPolicy.flat(0.25, ad_share=0.10)
        stmt = settle([tx(10000), tx(5000, kind="ad")], policy)
        assert stmt.commission_cents == 2500 + 500
        assert stmt.per_kind_cents == {"sale": 10000, "ad": 5000}

    def test_ad_without_share_earns_nothing(self):
        stmt = settle([tx(5000, kind="ad")], FLAT25)
        assert stmt.commission_cents == 0


class TestConservationAndRoundTrip:
    @given(amounts=st.lists(st.integers(0, 10_000_000), min_size=0,
                            max_size=30),
           rate_bp=st.integers(0, 10000))
    @settings(max_examples=300)
    def test_conservation(self, amounts, rate_bp):
        policy = CommissionPolicy.flat(rate_bp / 10000)
        stmt = settle([tx(a) for a in amounts], policy)
        assert stmt.commission_cents + stmt.payout_cents == stmt.gross_cents

    def test_conservation_randomized_ledgers(self):
        rng = random.Random(12345)
        for _ in range(1000):
            n = rng.randrange(0, 20)
            amounts = [rng.randrange(0, 10_000_000) for _ in range(n)]
            if rng.random() < 0.5:
                policy = CommissionPolicy.flat(rng.randrange(0, 10001) / 10000)
            else:
                policy = CommissionPolicy.degressive(
                    [(0.0, 0.30), (rng.uniform(1, 1000), 0.15)])
            stmt = settle([tx(a) for a in amounts], policy)
            assert stmt.commission_cents + stmt.payout_cents == stmt.gross_cents
            assert 0 <= stmt.commission_cents <= stmt.gross_cents

    @given(g1=st.integers(0, 10_000_000), g2=st.integers(0, 10_000_000))
    @settings(max_examples=200)
    def test_commission_monotone_in_gross(self, g1, g2):
        lo, hi = sorted((g1, g2))
        policy = CommissionPolicy.degressive([(0.0, 0.30), (50.0, 0.20)])
        assert settle([tx(lo)], policy).commission_cents <= \
            settle([tx(hi)], policy).commission_cents

    def test_effective_rate_within_policy_band(self):
        policy = CommissionPolicy.degressive([(0.0, 0.30), (100.0, 0.10)])
        rates = [rate for _, rate in policy.breakpoints]
        for gross in (100, 5000, 10_000, 123_456):
            stmt = settle([tx(gross)], policy)
            slack = 0.5 / max(stmt.gross_cents, 1)  # aggregate rounding
            assert min(rates) - slack <= stmt.effective_rate \
                <= max(rates) + slack


class TestLedgerParsing:
    def test_parse_and_settle(self):
        lines = [
            "app_id,period,kind,amount_cents,premium",
            "app-1,2025-01,sale,50,1",
            "app-1,2025-01,sale,0,0",
        ]
        txs, flags = parse_ledger(lines)
        assert len(txs) == 2
        assert flags == [True, False]
        stmt = settle_freemium(txs, FLAT25, flags)
        assert stmt.free_count == 1

    def test_rows_equal_by_value(self):
        lines = ["app_id,period,kind,amount_cents", "a,p,sale,5", "a,q,ad,7"]
        rows, _ = parse_ledger(lines)
        want = [Transaction("a", "p", "sale", 5), Transaction("a", "q", "ad", 7)]
        assert rows == want and want == rows
        assert rows[:] == rows == parse_ledger(lines)[0]
        assert rows != want[::-1] and rows != want[:1] and rows[1:] != rows

    def test_missing_column(self):
        with pytest.raises(DomainError):
            parse_ledger(["app_id,period,kind", "a,p,sale"])

    @pytest.mark.parametrize("row,cells", [("a,p,sale", 3), ("a,p,sale,5,1", 5)])
    def test_row_width_differs_from_header(self, row, cells):
        with pytest.raises(DomainError) as err:
            parse_ledger(["app_id,period,kind,amount_cents",
                          "a,p,sale,7", "", row])
        assert str(err.value) == f"line 4: {cells} cells, the header has 4"

    def test_bad_amount(self):
        with pytest.raises(DomainError) as err:
            parse_ledger(["app_id,period,kind,amount_cents",
                          "a,p,sale,12.5"])
        assert "line 2" in str(err.value)


    def test_blank_line_counts_toward_line_number(self):
        with pytest.raises(DomainError) as err:
            parse_ledger(["app_id,period,kind,amount_cents", "",
                          "a,p,sale,100", "a,p,sale,12.5"])
        assert str(err.value) == "line 4: amount_cents '12.5' is not an integer"

    @pytest.mark.parametrize("row,message", [
        ("a,p,tip,5", "line 4: unknown transaction kind 'tip'"),
        ("a,p,sale,-5", "line 4: amount_cents must be >= 0")])
    def test_transaction_error_names_the_line(self, row, message):
        with pytest.raises(DomainError) as err:
            parse_ledger(["app_id,period,kind,amount_cents", "a,p,sale,1", "",
                          row, "a,p,sale,2"])
        assert str(err.value) == message

    @pytest.mark.parametrize("name,cell", [
        ("app_id", "b"), ("period", "q"), ("kind", "ad"), ("amount_cents", "999"),
        ("premium", "0")])
    def test_column_named_twice(self, name, cell):
        with pytest.raises(DomainError) as err:
            parse_ledger([f"app_id,period,kind,amount_cents,premium,{name}",
                          f"a,p,sale,100,1,{cell}"])
        assert str(err.value) == f"ledger repeats columns: [{name!r}]"

    @pytest.mark.parametrize("rows,message", [
        (["a,p,sale,1.5", "x" * (csv.field_size_limit() + 1) + ",p,sale,1"],
         "line 2: amount_cents '1.5' is not an integer"),
        (["a,p,sale,-5", "a,p,tip,5"], "line 2: amount_cents must be >= 0"),
        (["a,p,tip,1.5"], "line 2: amount_cents '1.5' is not an integer"),
        (["a,p,tip,-5"], "line 2: unknown transaction kind 'tip'")])
    def test_first_error_in_file_order_is_reported(self, rows, message):
        # each row is checked for width, then its integer amount, then its
        # kind, then its sign, before the next row is read
        with pytest.raises(DomainError) as err:
            parse_ledger(["app_id,period,kind,amount_cents"] + rows)
        assert str(err.value) == message

    def test_file_is_read_as_utf8(self, tmp_path):
        path = tmp_path / "ledger.csv"
        path.write_bytes("app_id,period,kind,amount_cents\n"
                         "caf\u00e9,2025-01,sale,5\n".encode("utf-8"))
        txs, _ = read_ledger(path)
        assert txs[0].app_id == "caf\u00e9"

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheet CSV exports often start with a UTF-8 byte-order mark
        text = ("app_id,period,kind,amount_cents,premium\n"
                "a,2025-01,sale,9999,1\na,2025-01,ad,250,0\n")
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        statements = []
        for path in (plain, marked):
            txs, flags = read_ledger(path)
            statements.append(settle_freemium(txs, FLAT25, flags).to_dict())
        assert statements[0] == statements[1]
        assert statements[0]["commission_cents"] == 2500

    def test_non_utf8_byte_names_the_line(self, tmp_path):
        # past the first 8 KiB, so the decoder fails on a later chunk
        path = tmp_path / "ledger.csv"
        path.write_bytes(b"app_id,period,kind,amount_cents\n"
                         + b"a,p,sale,1\n" * 5000 + b"a\xff,p,sale,1\n")
        with pytest.raises(DomainError) as err:
            read_ledger(path)
        assert str(err.value) == "line 5002: not UTF-8 (invalid start byte)"

    def test_cell_over_field_limit_names_the_line(self, tmp_path):
        path = tmp_path / "ledger.csv"
        limit = csv.field_size_limit()
        path.write_text("app_id,period,kind,amount_cents\na,p,sale,1\n"
                        + "x" * (limit + 1) + ",p,sale,1\n")
        with pytest.raises(DomainError) as err:
            read_ledger(path)
        assert str(err.value) == \
            f"line 3: field larger than field limit ({limit})"


def _half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def reference_statement(rows, policy):
    """Plain integer sums over (kind, cents, premium) rows, commission
    rounded half-up once per total with exact fractions."""
    premium = [(kind, cents) for kind, cents, flag in rows if flag]
    app_gross = sum(cents for kind, cents in premium if kind != "ad")
    ad_gross = sum(cents for kind, cents in premium if kind == "ad")
    if len(premium) < policy.activity_threshold:
        commission = 0
    elif policy.is_flat:
        commission = _half_up(Fraction(repr(policy.rate)) * app_gross)
    else:
        edges = [_half_up(Fraction(repr(t)) * 100) for t, _ in policy.breakpoints]
        commission = _half_up(sum(
            (Fraction(repr(rate)) * max(0, min(app_gross, hi) - lo)
             for (_, rate), lo, hi in zip(policy.breakpoints, edges,
                                          edges[1:] + [math.inf])),
            Fraction(0)))
    if len(premium) >= policy.activity_threshold:
        commission += _half_up(Fraction(repr(policy.ad_share or 0.0)) * ad_gross)
    per_kind = {}
    for kind, cents, _ in rows:
        per_kind[kind] = per_kind.get(kind, 0) + cents
    gross = sum(per_kind.values())
    return {"app_id": "app-1" if rows else "", "period": "2025-01" if rows else "",
            "gross_cents": gross, "commission_cents": commission,
            "payout_cents": gross - commission,
            "effective_rate": commission / gross if gross else 0.0,
            "per_kind_cents": dict(sorted(per_kind.items())),
            "free_count": len(rows) - len(premium)}


RATE = st.floats(0.0, 1.0)
POLICIES = st.one_of(
    st.builds(CommissionPolicy.flat, RATE,
              ad_share=st.none() | RATE,
              activity_threshold=st.integers(0, 30)),
    st.builds(lambda thresholds, rates, ad_share, threshold:
              CommissionPolicy.degressive(
                  zip([0.0] + sorted(thresholds), rates),
                  ad_share=ad_share, activity_threshold=threshold),
              st.lists(st.floats(0.001, 1e6), unique=True, max_size=3),
              st.lists(RATE, min_size=4, max_size=4),
              st.none() | RATE, st.integers(0, 30)))
TRUE_CELLS = ("1", "yes", "true", "x", " Y ")
FALSE_CELLS = ("0", "no", "false", " FALSE ", "No")


@st.composite
def ledgers(draw):
    """(lines, rows): a one-app CSV ledger in a random column order, with or
    without a premium column and with blank lines, plus its
    (kind, cents, premium) rows."""
    rows = draw(st.lists(st.tuples(st.sampled_from(["sale", "subscription", "ad"]),
                                   st.integers(0, 10**9), st.booleans()),
                         max_size=40))
    with_premium = draw(st.booleans())
    if not with_premium:
        rows = [(kind, cents, True) for kind, cents, _ in rows]
    columns = draw(st.permutations(
        ["app_id", "period", "kind", "amount_cents"]
        + (["premium"] if with_premium else [])))
    lines = [",".join(columns)]
    for kind, cents, flag in rows:
        cells = {"app_id": "app-1", "period": "2025-01", "kind": kind,
                 "amount_cents": str(cents)}
        if with_premium:
            cells["premium"] = draw(st.sampled_from(TRUE_CELLS if flag
                                                    else FALSE_CELLS))
        lines += [""] * draw(st.integers(0, 2))
        lines.append(",".join(cells[c] for c in columns))
    return lines, rows


class TestLedgerProperty:
    @given(ledger=ledgers(), policy=POLICIES)
    @settings(max_examples=300, deadline=None)
    def test_parsed_ledger_matches_integer_reference(self, ledger, policy):
        lines, rows = ledger
        txs, flags = parse_ledger(lines)
        stmt = settle_freemium(txs, policy, flags)
        assert stmt.to_dict() == reference_statement(rows, policy)
        assert stmt.commission_cents + stmt.payout_cents == stmt.gross_cents

    @given(ledger=ledgers(), policy=POLICIES)
    @settings(max_examples=200, deadline=None)
    def test_parsed_rows_are_the_reference_transactions(self, ledger, policy):
        lines, rows = ledger
        txs, flags = parse_ledger(lines)
        want = [Transaction("app-1", "2025-01", kind, cents) for kind, cents, _ in rows]
        assert len(txs) == len(want)
        assert list(txs) == [txs[i] for i in range(len(txs))] == want
        assert list(txs[1::2]) == want[1::2]
        assert flags == [flag for _, _, flag in rows]
        for statement, args in ((settle, ()), (settle_freemium, (flags,))):
            got = {statement(source, policy, *args).to_json()
                   for source in (txs, want, iter(want))}
            assert len(got) == 1


@pytest.mark.parametrize("make,message", [
    (lambda: settle_freemium([tx(100), tx(200)], FLAT25, [True]),
     "premium_flags must align with transactions"),
    (lambda: settle([tx(100, period="2025-01"), tx(100, period="2025-02")], FLAT25),
     "mixed periods in one settlement: ['2025-01', '2025-02']"),
], ids=["premium-flags", "mixed-periods"])
def test_rejection_message(make, message):
    with pytest.raises(DomainError) as err:
        make()
    assert str(err.value) == message
