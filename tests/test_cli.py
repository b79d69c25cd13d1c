import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import revshare
from revshare.cli import (
    SCHEMAS,
    ExperimentConfig,
    _json_text,
    build_parser,
    config_from_args,
    dump_config,
    load_config,
    main,
    validate,
)
from revshare.model import DomainError
from revshare.montecarlo import RiskPoolingReport

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_commands_without_numpy_never_load_it():
    """Importing the CLI and running settle, scenario, compare and validate
    leaves numpy unloaded, so those commands do not pay for its import."""
    code = f"""if True:
        import contextlib, io, sys
        from revshare.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["settle", "--ledger", {str(CONFIGS / "sample_ledger.csv")!r}],
                         ["scenario", "--number", "3"], ["compare"],
                         ["validate", {str(CONFIGS / "sweep.ini")!r}]):
                assert main(argv) == 0, argv
        assert "numpy" not in sys.modules, "numpy was imported"
    """
    src = os.path.dirname(os.path.dirname(revshare.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestSolveCommand:
    def test_canonical_summary(self, capsys):
        status, out, _ = run_cli(capsys, "solve", "--canonical", "--cost", "0.2")
        assert status == 0
        assert "alpha*=0.600000" in out
        assert "N=1" in out

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        status, _, _ = run_cli(capsys, "solve", "--canonical", "--cost", "0.4",
                               "--out", str(out_path))
        assert status == 0
        payload = json.loads(out_path.read_text())
        assert payload["alpha_star"] == pytest.approx(0.7, abs=1e-6)
        assert payload["analytic_alpha"] == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    @pytest.mark.parametrize("flag", ["--out", "--dump-config"])
    def test_output_file_mode_follows_umask(self, capsys, tmp_path, umask,
                                            flag):
        out_path, plain = tmp_path / "out", tmp_path / "plain"
        out_path.write_text("an older file is replaced\n")
        old = os.umask(umask)
        try:
            status, _, _ = run_cli(capsys, "solve", "--canonical", flag,
                                   str(out_path))
            plain.write_text("")  # the mode a plain open(path, "w") gives
        finally:
            os.umask(old)
        assert status == 0
        assert stat.S_IMODE(out_path.stat().st_mode) == \
            stat.S_IMODE(plain.stat().st_mode) == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "plain"]

    def test_output_write_leaves_the_umask_alone(self, capsys, tmp_path,
                                                 monkeypatch):
        # setting the umask, even to read it, would give a file another
        # thread creates meanwhile mode 0666
        def no_umask(mask):
            raise AssertionError("os.umask called")

        out_path = tmp_path / "out.json"
        old = os.umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", no_umask)
            status, _, _ = run_cli(capsys, "solve", "--canonical", "--out",
                                   str(out_path))
        finally:
            monkeypatch.undo()
            os.umask(old)
        assert status == 0
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~0o027
        assert list(tmp_path.iterdir()) == [out_path]

    @pytest.mark.parametrize("flag", ["--out", "--dump-config"])
    @pytest.mark.parametrize("existing", [True, False], ids=["target", "dangling"])
    def test_output_through_a_link(self, capsys, tmp_path, flag, existing):
        link, target = tmp_path / "link.json", tmp_path / "target.json"
        if existing:
            target.write_text("an older file is replaced\n")
        link.symlink_to(target.name)
        plain = tmp_path / "plain.json"
        for path in (link, plain):
            assert run_cli(capsys, "solve", "--canonical", flag, str(path))[0] == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == plain.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "link.json", "plain.json", "target.json"]

    def test_output_through_a_link_into_a_missing_directory(self, capsys, tmp_path):
        link = tmp_path / "link.json"
        link.symlink_to(tmp_path / "missing" / "target.json")
        status, out, err = run_cli(capsys, "solve", "--canonical", "--out", str(link))
        assert (status, out) == (2, "")
        missing = os.path.realpath(tmp_path / "missing")
        assert err == f"error: output directory does not exist: {missing}\n"
        assert link.is_symlink() and list(tmp_path.iterdir()) == [link]

    @pytest.mark.parametrize("flag", ["--out", "--dump-config"])
    def test_output_onto_a_fifo_usage_error(self, capsys, tmp_path, flag):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        status, out, err = run_cli(capsys, "solve", "--canonical", flag, str(fifo))
        assert (status, out) == (2, "")
        assert err == f"error: output path is not a regular file: {fifo}\n"
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert list(tmp_path.iterdir()) == [fifo]


class TestSettleCommand:
    def test_scenario_one_ledger(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.csv"
        rows = ["app_id,period,kind,amount_cents"]
        rows += ["legal-advisor,2025-01,subscription,2000"] * 1000
        ledger.write_text("\n".join(rows) + "\n")
        status, out, _ = run_cli(capsys, "settle", "--ledger", str(ledger),
                                 "--rate", "0.25")
        assert status == 0
        assert "payout=$15,000.00" in out
        assert "commission=$5,000.00" in out

    def test_statement_json(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.csv"
        ledger.write_text("app_id,period,kind,amount_cents\n"
                          "a,2025-01,sale,9999\n")
        out_path = tmp_path / "stmt.json"
        status, _, _ = run_cli(capsys, "settle", "--ledger", str(ledger),
                               "--rate", "0.3", "--out", str(out_path))
        assert status == 0
        stmt = json.loads(out_path.read_text())
        assert stmt["commission_cents"] == 3000
        assert stmt["payout_cents"] == 6999

    def test_short_row_domain_error(self, capsys, tmp_path):
        ledger = tmp_path / "short.csv"
        ledger.write_text("app_id,period,kind,amount_cents\na,p,sale\n")
        status, out, err = run_cli(capsys, "settle", "--ledger", str(ledger))
        assert status == 1 and out == ""
        assert json.loads(err) == {
            "error": "line 2: 3 cells, the header has 4", "module": "settle"}

    def test_huge_degressive_threshold_settles_as_flat(self, capsys, tmp_path):
        ledger = str(CONFIGS / "sample_ledger.csv")
        outputs = []
        for policy in (["--degressive", "0:0.3,1e26:0.2"],
                       ["--degressive", "0:0.3,1e30:0.2"], ["--rate", "0.3"]):
            out = tmp_path / f"stmt-{len(outputs)}.json"
            status, _, _ = run_cli(capsys, "settle", "--ledger", ledger,
                                   *policy, "--out", str(out))
            assert status == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("body,error", [
        (b"a\xff,p,sale,1\n", "line 3: not UTF-8 (invalid start byte)"),
        (b"x" * 131_073 + b",p,sale,1\n",
         "line 3: field larger than field limit (131072)")])
    def test_malformed_ledger_bytes_domain_error(self, capsys, tmp_path,
                                                 body, error):
        ledger = tmp_path / "bad.csv"
        ledger.write_bytes(b"app_id,period,kind,amount_cents\na,p,sale,1\n"
                           + body)
        status, out, err = run_cli(capsys, "settle", "--ledger", str(ledger))
        assert status == 1 and out == ""
        assert json.loads(err) == {"error": error, "module": "settle"}

    def test_infinite_degressive_threshold_usage_error(self, capsys, tmp_path):
        ledger = str(CONFIGS / "sample_ledger.csv")
        status, _, err = run_cli(capsys, "settle", "--ledger", ledger,
                                 "--degressive", "0:0.3,inf:0.2")
        assert status == 2
        assert "degressive threshold must be finite" in err

    def test_missing_ledger_is_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "settle", "--ledger", "/nope.csv")
        assert status == 2
        assert "not found" in err


class TestScenarioCommand:
    @pytest.mark.parametrize("number,payout", [
        (1, "$15,000.00"), (2, "$3,750.00"), (3, "$750.00")])
    def test_worked_scenarios(self, capsys, number, payout):
        status, out, _ = run_cli(capsys, "scenario", "--number", str(number))
        assert status == 0
        assert f"payout={payout}" in out

    @pytest.mark.parametrize("number,app,per_kind,free", [
        (2, "image-studio", {"sale": 500000}, 0),
        (3, "freemium-app", {"sale": 0, "subscription": 100000}, 900)])
    def test_scenario_statement(self, capsys, tmp_path, number, app, per_kind,
                                free):
        # scenario 1's statement is the shipped-config golden
        out = tmp_path / "s.json"
        assert run_cli(capsys, "scenario", "--number", str(number),
                       "--out", str(out))[0] == 0
        stmt = json.loads(out.read_text())
        assert (stmt["app_id"], stmt["period"]) == (app, "2025-01")
        assert (stmt["per_kind_cents"], stmt["free_count"]) == (per_kind, free)
        assert stmt["commission_cents"] * 4 == stmt["gross_cents"]

    def test_bad_number(self, capsys):
        status, _, err = run_cli(capsys, "scenario", "--number", "4")
        assert status == 2


class TestSweepCommand:
    def test_byte_identical_runs(self, capsys, tmp_path):
        args = ["sweep", "--size", "20", "--seed", "7", "--cost", "0.1",
                "--grid-step", "0.01", "--no-timestamp"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_header_optional(self, capsys, tmp_path):
        out = tmp_path / "sw.csv"
        run_cli(capsys, "sweep", "--canonical", "--grid-step", "0.1",
                "--out", str(out))
        assert out.read_text().startswith("# generated ")
        run_cli(capsys, "sweep", "--canonical", "--grid-step", "0.1",
                "--no-timestamp", "--out", str(out))
        assert out.read_text().startswith("alpha,")

    def test_shipped_config_golden(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(CONFIGS.parent)  # settle.ini's ledger path is relative
        golden = {
            "sweep": "9a1bda4159248a8019c97ef15d8a0630f73bdf97de9b82ac9d2f62238e342c35",
            "compare": "81fba893f345c22732fdad649ad645d18e0850b7871ec3df874698816f7ad19a",
            "pool": "47e107ac90597aecf5dea5cbb353be2867f191d4e6a70d0ef8dbfbcdb5f930ad",
            "solve": "40cccfd5b2611bd0ebcc8b6cafae8345f54a95c2625af6b5ba95562c20a8591a",
            "settle": "de4600fb1e2c0b636ecb5943750b81b03632622dd6324d8ee9192bd2d0cd7c94",
            "scenario": "a5d471660a003bced1fc5d2e1600b33d92f99db06917869ec9bdfceccdc5bf68",
        }
        for command, digest in golden.items():
            out = tmp_path / f"{command}.out"
            status, _, _ = run_cli(capsys, command, "--config",
                                   str(CONFIGS / f"{command}.ini"),
                                   "--out", str(out))
            assert status == 0, command
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command

    @pytest.mark.parametrize("argv,digest", [
        (["sweep", "--size", "1000", "--seed", "1", "--cost", "0.1",
          "--grid-step", "0.001", "--no-timestamp"],
         "d1cd083f93e00a23605f3f288672f4cfd742d932e04f7b44fd5744c4d1210c20"),
        (["solve", "--size", "200", "--seed", "3", "--cost", "0.1"],
         "99ff4e8dcaad0a72e98020257d176055adf3bacbf187b2c34eb09a0403844ed9"),
        (["settle", "--ledger", str(CONFIGS / "sample_ledger.csv"),
          "--degressive", "0:0.30,10:0.20,20:0.10", "--ad-share", "0.3",
          "--freemium"],
         "5c1499e5bc8ff76e00ec69e61974a21ae24265e7cd861ca39503343b4b59c5aa"),
        (["settle", "--ledger", str(CONFIGS / "sample_ledger.csv"),
          "--rate", "0.25", "--ad-share", "0.3", "--freemium"],
         "a25510aa589d01a63f808b470a6213be37b6412da595b31439d68dd91080df49")])
    def test_seeded_golden(self, capsys, tmp_path, argv, digest):
        out = tmp_path / "report.out"
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_no_population_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "sweep", "--cost", "0.1")
        assert status == 2
        assert "--size or --canonical" in err

    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_grid_step_floor_usage_error(self, capsys, command):
        status, _, err = run_cli(capsys, command, "--canonical",
                                 "--grid-step", "1e-9")
        assert status == 2
        assert "grid_step must be in [1e-06, 1]" in err

    def test_nan_cost_domain_error(self, capsys):
        status, _, err = run_cli(capsys, "sweep", "--canonical", "--cost", "nan")
        assert status == 2
        assert err == "error: cost must be in [0, 1e+06]: nan\n"

    def test_empty_grid_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "sweep", "--canonical",
                                 "--alpha-min", "0.5", "--alpha-max", "0.5")
        assert status == 2
        assert "empty sweep grid" in err


class TestPopulationBounds:
    @pytest.mark.parametrize("argv", [
        ["solve", "--size", "3"], ["pool", "--size", "3"],
        ["sweep", "--size", "3", "--grid-step", "0.5"]])
    def test_negative_seed_usage_error(self, capsys, argv):
        status, _, err = run_cli(capsys, *argv, "--seed", "-1")
        assert status == 2
        assert "seed must be >= 0" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "--size", "100000", "--grid-step", "0.001"],
        ["sweep", "--size", "10000", "--grid-step", "0.001"]])
    def test_rate_cell_budget_checked_before_allocating(self, capsys,
                                                        monkeypatch, argv):
        # 1e5 developers x 1,001 rates would be about 1e8 best responses
        def no_population(spec):
            raise AssertionError("population generated")

        monkeypatch.setattr("revshare.cli.generate_population", no_population)
        status, _, err = run_cli(capsys, *argv)
        assert status == 2
        assert "size x rates must be <= 10000000" in err

    def test_solve_budget_counts_refinement_rates(self, capsys, monkeypatch):
        # 2 coarse rates + 9 rounds x 17 = 155 rates a developer at step 1
        def no_population(spec):
            raise AssertionError("population generated")

        monkeypatch.setattr("revshare.cli.generate_population", no_population)
        status, _, err = run_cli(capsys, "solve", "--size", "100000",
                                 "--grid-step", "1")
        assert status == 2
        assert err == "error: size x rates must be <= 10000000: 15500000\n"

    @pytest.mark.parametrize("argv", [
        ["solve"], ["sweep"], ["pool", "--draws", "1"]])
    def test_size_bound_checked_before_allocating(self, capsys, monkeypatch,
                                                  argv):
        # 1e8 developers would be about 130 GB; rejected before any draw
        def no_population(spec):
            raise AssertionError("population generated")

        monkeypatch.setattr("revshare.cli.generate_population", no_population)
        status, _, err = run_cli(capsys, *argv, "--size", "100000000")
        assert status == 2
        assert "size must be in [0, 100000]" in err

    def test_sweep_bounds_outside_unit_interval_rejected(self):
        # alpha_max = 1e9 at the finest step would be a 1e15-rate grid
        cfg = ExperimentConfig(command="sweep", params={
            "canonical": True, "alpha_max": 1e9, "grid_step": 1e-6})
        assert validate(cfg) == ["alpha_max out of [0,1]: 1000000000.0"]
        cfg.params.update(alpha_min=-0.5, alpha_max=1.0)
        assert validate(cfg) == ["alpha_min out of [0,1]: -0.5"]


class TestDeclaredBounds:
    @pytest.mark.parametrize("command", ["sweep", "solve"])
    def test_grid_step_above_one_usage_error(self, capsys, command):
        status, _, err = run_cli(capsys, command, "--canonical",
                                 "--grid-step", "2")
        assert status == 2
        assert err == "error: grid_step must be in [1e-06, 1]: 2.0\n"

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_overflowing_cost_usage_error(self, capsys, command):
        # cost x usage summed over the population would overflow to -inf
        status, out, err = run_cli(capsys, command, "--size", "3", "--cost",
                                   "1.7e308", "--grid-step", "0.5")
        assert (status, out) == (2, "")
        assert err == "error: cost must be in [0, 1e+06]: 1.7e+308\n"

    def test_nan_ad_share_usage_error(self, capsys):
        status, _, err = run_cli(capsys, "settle", "--ledger",
                                 str(CONFIGS / "sample_ledger.csv"),
                                 "--ad-share", "nan")
        assert status == 2
        assert err == "error: ad_share out of [0,1]: nan\n"

    def test_negative_ad_share_usage_error(self, capsys):
        # an absent ad share is 0: no negative value stands for it
        status, out, err = run_cli(capsys, "settle", "--ledger",
                                   str(CONFIGS / "sample_ledger.csv"),
                                   "--ad-share", "-0.5")
        assert (status, out) == (2, "")
        assert err == "error: ad_share out of [0,1]: -0.5\n"

    @pytest.mark.parametrize("scale,cost_scale", [("1e150", "1e-150"),
                                                  ("1e200", "1e-200")])
    def test_overflowing_scale_usage_error(self, capsys, scale, cost_scale):
        # A/k overflows the effort: a traceback, or every developer dropped
        status, _, err = run_cli(capsys, "solve", "--scale", scale,
                                 "--cost-scale", cost_scale)
        assert status == 2
        assert f"scale must be in [1e-06, 1e+06]: {float(scale)}" in err
        assert f"cost_scale must be in [1e-06, 1e+06]: {float(cost_scale)}" in err

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--format", "csv"], "solve writes json, not 'csv'"),
        (["sweep", "--canonical", "--format", "json"],
         "sweep writes csv, not 'json'")])
    def test_format_the_command_does_not_write(self, capsys, argv, message):
        status, _, err = run_cli(capsys, *argv)
        assert status == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--canonical", "--out", "{dir}"],
        ["settle", "--ledger", "{dir}"],
        ["solve", "--canonical", "--dump-config", "{dir}"],
        ["solve", "--dump-config", "{dir}/missing/x.ini"]])
    def test_directory_or_missing_parent_path_usage_error(self, capsys,
                                                          tmp_path, argv):
        argv = [a.format(dir=tmp_path) for a in argv]
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_report_is_domain_error(self, capsys, tmp_path,
                                               monkeypatch):
        def overflowing_report(*args, **kwargs):
            return RiskPoolingReport(-math.inf, math.nan, math.nan, math.nan,
                                     -math.inf, 10, 5)

        monkeypatch.setattr("revshare.cli.risk_pooling_report",
                            overflowing_report)
        out_path = tmp_path / "p.json"
        status, out, err = run_cli(capsys, "pool", "--size", "5", "--draws",
                                   "10", "--out", str(out_path))
        assert status == 1 and out == ""
        assert json.loads(err) == {
            "error": "the report has a value that JSON cannot carry",
            "module": "pool"}
        assert not out_path.exists()
        with pytest.raises(DomainError):
            _json_text({"x": math.inf})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", [
        "garbage\n[experiment]\ncommand = solve\n",
        "[experiment]\ncommand = solve\ncommand = solve\n"])
    def test_malformed_ini_usage_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        for argv in (["validate", str(path)], ["solve", "--config", str(path)]):
            status, _, err = run_cli(capsys, *argv)
            assert status == 2
            assert "not an INI config" in err

    def test_declared_bounds_are_inclusive(self):
        # the costly ends (1e5 developers, 1e7 draws, a 1e-6 step) are
        # checked here without running; cross-field rules may still apply
        for command, schema in SCHEMAS.items():
            for name, (kind, default, lo, hi) in schema.items():
                for v in (lo, hi):
                    if lo is None:
                        continue
                    cfg = ExperimentConfig(command=command, params={name: v})
                    assert not any(i.startswith((f"{name} must", f"{name} out"))
                                   for i in validate(cfg)), (command, name, v)

    @pytest.mark.parametrize("argv,error", [
        (["solve", "--size", "nan"],
         "error: argument --size: invalid int value: 'nan'"),
        (["solve", "--format", "xml"], "error: argument --format: invalid choice"),
        ([], "error: the following arguments are required: command")] + [
        ([command, "--no-timestamp"],
         "error: unrecognized arguments: --no-timestamp")  # a sweep flag
        for command in ("solve", "compare", "scenario", "settle", "pool")])
    def test_argparse_rejection_is_one_error_line(self, argv, error):
        status, out, err = run_in_process(argv)
        assert (status, out) == (2, "")
        assert err.startswith(error) and err.count("\n") == 1, err

    def test_help_states_the_declared_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["pool", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "--cost COST must be in [0, 1e+06], default 0.2" in out
        assert "--seed SEED must be >= 0, default 0" in out
        assert "--draws DRAWS must be in [1, 1e+07], default 10000" in out


# In-process runs stay small: in-range draws of these are capped.
CAPS = {"size": (0, 20), "draws": (1, 200), "grid_step": (0.01, 1)}
# a population, a cheap grid and a ledger, each overridden by a drawn flag
BASE_ARGS = {"solve": ["--grid-step=0.01"],
             "sweep": ["--size=3", "--grid-step=0.01"],
             "pool": ["--size=5", "--draws=50"],
             "settle": ["--ledger=" + str(CONFIGS / "sample_ledger.csv")]}


def flag_values(name, kind, lo, hi):
    """Values inside, at and just outside [lo, hi], and NaN and +-inf."""
    bottom, top = CAPS.get(name, (lo, hi))
    if kind == "int":
        inside = st.integers(bottom, int(top))
        edges = [lo - 1, bottom, int(top), int(hi) + 1]
    else:
        inside = st.floats(bottom, top)
        edges = [math.nextafter(lo, -math.inf), bottom, top,
                 math.nextafter(hi, math.inf)]
    edges += [math.nan, math.inf, -math.inf]
    return st.one_of(inside, st.sampled_from(edges)).map(repr)


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse: a value that is not an int
            status = exc.code
    return status, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-property")
    return {"file": str(root / "report.out"), "dir": str(root),
            "missing": str(root / "missing" / "x.out")}


def reject_constant(name):
    raise ValueError(f"not JSON: {name}")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_flag_value_exits_cleanly(data, paths):
    command = data.draw(st.sampled_from(sorted(SCHEMAS)))
    argv = [command] + BASE_ARGS.get(command, [])
    schema = SCHEMAS[command]
    for name in data.draw(st.lists(st.sampled_from(sorted(schema)),
                                   unique=True, max_size=4)):
        kind, default, lo, hi = schema[name]
        flag = "--" + name.replace("_", "-")
        if kind == "bool":
            argv.append(flag)
            continue
        if name == "ledger":
            value = data.draw(st.sampled_from(["", paths["dir"],
                                               paths["missing"]]))
        elif name == "degressive":
            value = data.draw(st.sampled_from(
                ["0:0.3,100:0.2", "0:0.3,inf:0.2", "0:nan", "10:0.2", "x"]))
        else:
            value = data.draw(flag_values(name, kind, lo, hi))
        argv.append(f"{flag}={value}")
    out_kind = data.draw(st.sampled_from([None, "file", "dir", "missing"]))
    if out_kind:
        argv.append("--out=" + paths[out_kind])
    fmt = data.draw(st.sampled_from([None, "json", "csv"]))
    if fmt:
        argv.append("--format=" + fmt)
    report = Path(paths["file"])
    if report.exists():
        report.unlink()

    status, out, err = run_in_process(argv)

    assert status in (0, 1, 2), (argv, status)
    if status == 1:
        assert out == ""
        record = json.loads(err)
        assert set(record) == {"error", "module"} and err.count("\n") == 1
    if status == 2:
        assert out == ""
        assert all(line.startswith("error: ")
                   for line in err.splitlines()), err
    assert report.exists() == (status == 0 and out_kind == "file"), argv
    if report.exists() and command != "sweep":
        json.loads(report.read_text(), parse_constant=reject_constant)


class TestOneDeveloperDescription:
    """A flag the run would ignore is a usage error, not a silent no-op."""

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--canonical", "--reservation", "1e308"],
         "--reservation describes the single developer"),
        (["solve", "--size", "5", "--scale", "3"],
         "--scale describes the single developer"),
        (["solve", "--canonical", "--cost-scale", "2"],
         "--cost-scale describes the single developer"),
        (["solve", "--canonical", "--size", "5"],
         "--canonical and --size pick different populations"),
        (["sweep", "--canonical", "--size", "5"],
         "--canonical and --size pick different populations"),
        (["solve", "--seed", "3"], "--seed draws a population"),
        (["sweep", "--canonical", "--seed", "3"], "--seed draws a population"),
        (["settle", "--ledger", str(CONFIGS / "sample_ledger.csv"),
          "--degressive", "0:0.3", "--rate", "0.9"],
         "--rate is a flat rate: --degressive replaces it")])
    def test_ignored_flag_usage_error(self, capsys, tmp_path, argv, message):
        status, out, err = run_cli(capsys, *argv)
        assert (status, out) == (2, "")
        assert f"error: {message}" in err
        path = tmp_path / "run.ini"
        status, out, err = run_cli(capsys, *argv, "--dump-config", str(path))
        assert (status, out) == (2, "")
        assert f"error: {message}" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--canonical", "--scale", "1", "--seed", "0"],
        ["settle", "--ledger", str(CONFIGS / "sample_ledger.csv"),
         "--degressive", "0:0.3", "--rate", "0.25"]])
    def test_flag_at_its_default_is_not_given(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("source", sorted(p.name for p in CONFIGS.glob("*.ini"))
                             + ["solve --canonical"])
    def test_dumped_config_validates(self, capsys, tmp_path, monkeypatch, source):
        """dump_config writes every resolved value, defaults included."""
        monkeypatch.chdir(CONFIGS.parent)  # settle.ini's ledger path is relative
        if source.endswith(".ini"):
            cfg = load_config(str(CONFIGS / source))
        else:
            cfg = config_from_args(build_parser().parse_args(source.split()))
        path = tmp_path / "dumped.ini"
        path.write_text(dump_config(cfg))
        assert validate(load_config(str(path))) == []


class TestCompareAndPool:
    def test_fee_rows_search_past_a_million(self, capsys, tmp_path):
        """Efforts up to A/k = 1e12: marketplace earns the platform 1.275e17,
        more than rsi's 9e16 at a 90% rate."""
        out = tmp_path / "c.json"
        status, summary, _ = run_cli(
            capsys, "compare", "--scale", "1e6", "--cost-scale", "1e-6",
            "--rate", "0.9", "--token-price", "0.2", "--out", str(out))
        assert status == 0 and "platform_prefers=marketplace" in summary
        rows = {r["model"]: r for r in json.loads(out.read_text())["rows"]}
        assert rows["marketplace"]["platform_profit"] == pytest.approx(1.275e17, rel=1e-5)
        assert rows["rsi"]["platform_profit"] == pytest.approx(9e16)

    def test_compare_zero_capital(self, capsys):
        status, out, _ = run_cli(capsys, "compare", "--capital", "0",
                                 "--rate", "0.3")
        assert status == 0
        assert "developer_prefers=rsi" in out

    @pytest.mark.parametrize("flag,value", [
        ("--cost", "nan"), ("--token-price", "nan"),
        ("--subscription-fee", "inf"), ("--capital", "nan")])
    def test_compare_non_finite_fee_domain_error(self, capsys, flag, value):
        status, _, err = run_cli(capsys, "compare", flag, value)
        assert status == 2
        assert err == f"error: {flag[2:].replace('-', '_')} must be >= 0: {value}\n"

    def test_compare_negative_capital_domain_error(self, capsys):
        status, out, err = run_cli(capsys, "compare", "--capital", "-1")
        assert status == 2 and out == ""
        assert err == "error: capital must be >= 0: -1.0\n"

    def test_pool_without_entrants_writes_strict_json(self, capsys, tmp_path):
        out_path = tmp_path / "p.json"
        status, out, _ = run_cli(capsys, "pool", "--alpha", "1.0", "--size", "10",
                                 "--draws", "100", "--out", str(out_path))
        assert status == 0
        assert "cv=none" in out

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(out_path.read_text(), parse_constant=reject)
        assert payload["mean_profit"] == 0.0
        assert payload["coefficient_of_variation"] is None

    def test_pool_nan_cost_domain_error(self, capsys):
        status, out, err = run_cli(capsys, "pool", "--size", "10", "--draws",
                                   "200", "--cost", "nan")
        assert status == 2 and out == ""
        assert err == "error: cost must be in [0, 1e+06]: nan\n"

    @pytest.mark.parametrize("argv,message", [
        (["--size", "0"], "pool needs size >= 1"),
        (["--size", "10000", "--draws", "1000000"],
         "draws x size must be <= 10000000")])
    def test_pool_size_usage_error(self, capsys, argv, message):
        status, _, err = run_cli(capsys, "pool", *argv)
        assert status == 2
        assert message in err

    def test_pool_summary(self, capsys):
        status, out, _ = run_cli(capsys, "pool", "--size", "10", "--draws",
                                 "200", "--seed", "1")
        assert status == 0
        assert out.startswith("mean=")


class TestConfigHandling:
    def test_validate_catches_bad_rate(self):
        cfg = ExperimentConfig(command="settle",
                               params={"rate": 1.3, "ledger": "x.csv"})
        issues = validate(cfg)
        assert any("out of [0,1]" in i for i in issues)

    def test_validate_degressive_order(self, capsys, tmp_path):
        ledger = tmp_path / "l.csv"
        ledger.write_text("app_id,period,kind,amount_cents\na,p,sale,1\n")
        cfg = ExperimentConfig(
            command="settle",
            params={"ledger": str(ledger), "degressive": "0:0.3,100:0.2,50:0.1"})
        issues = validate(cfg)
        assert any("out of order" in i and "100" in i for i in issues)
        cfg.params["degressive"] = "10:0.3,100:0.2"
        assert validate(cfg) == ["degressive schedule must start at threshold 0"]
        path = tmp_path / "settle.ini"
        path.write_text("[experiment]\ncommand = settle\n[params]\n"
                        f"ledger = {ledger}\ndegressive = 10:0.3,100:0.2\n")
        status, _, err = run_cli(capsys, "settle", "--config", str(path))
        assert status == 2
        assert "must start at threshold 0" in err

    def test_valid_config_no_diagnostics(self):
        cfg = ExperimentConfig(command="solve",
                               params={"canonical": True, "cost": 0.2})
        assert validate(cfg) == []

    def test_config_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(command="solve",
                               params={"canonical": True, "cost": 0.35,
                                       "grid_step": 0.001},
                               fmt="json")
        path = tmp_path / "exp.ini"
        path.write_text(dump_config(cfg))
        loaded = load_config(str(path))
        assert loaded.command == "solve"
        assert loaded.params["cost"] == 0.35
        assert loaded.params["canonical"] is True
        # dumping again is a fixed point
        assert dump_config(loaded) == dump_config(cfg)

    def test_validate_subcommand(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\ncommand = solve\n"
                        "[params]\ncost = -1\n")
        status, out, _ = run_cli(capsys, "validate", str(path))
        assert status == 1
        assert "cost must be in [0, 1e+06]: -1.0" in out

    def test_percent_in_config_value_read_verbatim(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "pct.ini"
        path.write_text("[experiment]\ncommand = settle\n"
                        "[params]\nledger = a%b.csv\n")
        status, out, err = run_cli(capsys, "validate", str(path))
        assert status == 1
        assert out.strip() == "ledger file not found: 'a%b.csv'"
        assert err == ""

    def test_percent_in_dumped_config_round_trips(self, capsys, tmp_path):
        ledger = tmp_path / "l%1.csv"
        ledger.write_text("app_id,period,kind,amount_cents\na,p,sale,100\n")
        path = tmp_path / "dumped.ini"
        status, _, _ = run_cli(capsys, "settle", "--ledger", str(ledger),
                               "--dump-config", str(path))
        assert status == 0
        assert f"ledger = {ledger}\n" in path.read_text()
        assert load_config(str(path)).params["ledger"] == str(ledger)
        assert run_cli(capsys, "validate", str(path))[0] == 0

    def test_non_numeric_ini_value_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\ncommand = solve\n"
                        "[params]\ncanonical = true\ncost = abc\n")
        for argv in (["validate", str(path)], ["solve", "--config", str(path)]):
            status, _, err = run_cli(capsys, *argv)
            assert status == 2
            assert "cost = 'abc' is not a valid float" in err

    def test_misspelt_bool_usage_error(self, capsys, tmp_path):
        # 'ture' used to read as False: settled without the free tier,
        # $5.00 commission where freemium = true charges $2.50
        ledger = tmp_path / "l.csv"
        ledger.write_text("app_id,period,kind,amount_cents,premium\n"
                          "a,p,sale,1000,1\na,p,sale,1000,0\n")
        path = tmp_path / "settle.ini"
        for value, commission in (("true", "$2.50"), ("Off", "$5.00"),
                                  ("0", "$5.00"), ("ture", None), ("", None)):
            path.write_text("[experiment]\ncommand = settle\n[params]\n"
                            f"ledger = {ledger}\nfreemium = {value}\n")
            for argv in (["validate", str(path)], ["settle", "--config", str(path)]):
                status, out, err = run_cli(capsys, *argv)
                if commission is None:
                    assert status == 2
                    assert f"freemium = {value!r} is not a valid bool" in err
                else:
                    assert status == 0
                    assert argv[0] == "validate" or f"commission={commission}" in out

    def test_unknown_experiment_key_usage_error(self, capsys, tmp_path):
        path = tmp_path / "typo.ini"
        path.write_text("[experiment]\ncommand = solve\noutptu = eq.json\n"
                        "[params]\ncanonical = true\n")
        for argv in (["validate", str(path)], ["solve", "--config", str(path)]):
            status, out, err = run_cli(capsys, *argv)
            assert (status, out) == (2, "")
            assert err == f"error: {path}: unknown [experiment] keys ['outptu']\n"

    def test_config_for_another_command_usage_error(self, capsys):
        status, out, err = run_cli(capsys, "solve", "--config",
                                   str(CONFIGS / "sweep.ini"))
        assert status == 2 and out == ""
        assert err == ("error: config declares command 'sweep' but 'solve' "
                       "was invoked\n")

    def test_cli_flags_override_config(self, capsys, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\ncommand = solve\n"
                        "[params]\ncanonical = true\ncost = 0.2\n")
        status, out, _ = run_cli(capsys, "solve", "--config", str(path),
                                 "--cost", "0.4")
        assert status == 0
        assert "alpha*=0.700000" in out

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REVSHARE_OUTDIR", str(tmp_path))
        status, _, _ = run_cli(capsys, "solve", "--canonical",
                               "--out", "r.json")
        assert status == 0
        assert (tmp_path / "r.json").exists()


class TestRejectionMessages:
    def test_config_file_not_found(self, tmp_path):
        path = str(tmp_path / "missing.ini")
        with pytest.raises(DomainError) as err:
            load_config(path)
        assert str(err.value) == f"config file not found: {path}"

    def test_config_without_experiment_section(self, tmp_path):
        path = tmp_path / "params.ini"
        path.write_text("[params]\nsize = 3\n")
        with pytest.raises(DomainError) as err:
            load_config(str(path))
        assert str(err.value) == f"{path}: missing [experiment] section"

    def test_unknown_command(self):
        assert validate(ExperimentConfig(command="nope")) == [
            "unknown command 'nope'"]

    def test_bad_degressive_band(self, tmp_path):
        ledger = tmp_path / "l.csv"
        ledger.write_text("app_id,period,kind,amount_cents\na,p,sale,1\n")
        cfg = ExperimentConfig(command="settle", params={
            "ledger": str(ledger), "degressive": "0:0.3,100-0.2"})
        assert validate(cfg) == [
            "bad degressive band '100-0.2', expected t:rate"]
