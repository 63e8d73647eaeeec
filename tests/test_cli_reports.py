"""Report serialization and the command-line surface (exit codes)."""

import json
import os
import subprocess
import sys

import mpmath as mp
import pytest

import periodlab.cli as cli
from periodlab import RelationReport, cusp_form, l_completed, reports_to_csv, reports_to_json
from periodlab.cli import EXIT_CONVERGENCE, EXIT_DOMAIN, EXIT_IDENTITY_FAILURE, EXIT_OK, SuiteConfig, main


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "periodlab.cli", *args],
        capture_output=True,
        text=True,
    )


def sample_report(passes=True):
    res = "1e-30" if passes else "1e-3"
    return RelationReport.from_residuals(
        "sample", [mp.mpc(0, 1), mp.mpc(1, 1)], [mp.mpf(res), mp.mpf("1e-31")], mp.mpf("1e-20")
    )


def test_report_roundtrip_and_keys():
    rep = sample_report()
    d = rep.to_dict()
    assert list(d.keys()) == ["identity", "points", "residuals", "max_residual", "tolerance", "headroom_digits", "pass"]
    assert d["pass"] is True
    assert d["headroom_digits"] == "10.0"
    assert "headroom 10.0 digits" in rep.summary_line()
    assert json.loads(reports_to_json([rep]))["reports"][0]["identity"] == "sample"


def test_report_fail_flag():
    assert not sample_report(passes=False).passed


def test_nan_residual_fails_wherever_it_sits():
    # max() skips a NaN that is not first; a NaN anywhere must fail the report
    for residuals in ([0, mp.nan], [mp.nan, 0], [1, mp.nan, 0]):
        rep = RelationReport.from_residuals("x", [0] * len(residuals), residuals, mp.mpf("1e-20"))
        assert mp.isnan(rep.max_residual) and not rep.passed, residuals
        assert rep.to_dict()["max_residual"] == "nan" and rep.to_dict()["pass"] is False


def test_reports_json_deterministic():
    a = reports_to_json([sample_report()], config={"digits": 50})
    b = reports_to_json([sample_report()], config={"digits": 50})
    assert a == b  # byte-reproducible


def test_reports_json_generator_input():
    # a generator is consumed once: all_pass must still see the failing report
    payload = json.loads(reports_to_json(r for r in [sample_report(passes=False)]))
    assert len(payload["reports"]) == 1
    assert payload["all_pass"] is False


def test_reports_csv(tmp_path):
    path = str(tmp_path / "resid.csv")
    reports_to_csv([sample_report()], path)
    rows = open(path).read().strip().splitlines()
    assert rows[0].startswith("identity,label,re,im,residual")
    assert len(rows) == 3


def test_suite_config_rejects_bad_schema(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "nope", "digits": 40}))
    with pytest.raises(ValueError):
        SuiteConfig.from_file(str(p))


def test_suite_config_ignores_unknown_keys(tmp_path):
    # "points", "suites" and "series_len" were once config keys; files that
    # still carry them load as before (the positional suite picks what runs,
    # and every window is derived from the digits)
    p = tmp_path / "cfg.json"
    former = {"points": "generic10", "suites": ["special"], "series_len": 64}
    p.write_text(json.dumps({"schema": "periodlab-config-1", "digits": 40, **former}))
    cfg = SuiteConfig.from_file(str(p))
    assert cfg.digits == 40
    assert not set(former) & set(cfg.to_dict())


@pytest.mark.parametrize("forms", [[], "delta", None, ["delta", "delta"], ["delta", "cusp12"]])
def test_suite_config_needs_a_nonempty_list_of_known_forms(tmp_path, capsys, forms):
    # an empty list once passed vacuously, a string was read letter by letter,
    # and a repeated label, or delta under its alias cusp12, ran its suites twice
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "periodlab-config-1", "forms": forms}))
    with pytest.raises(ValueError, match="non-empty list"):
        SuiteConfig.from_file(str(p))
    out = tmp_path / "rep.json"
    assert main(["verify", "superm", "--config", str(p), "--out", str(out)]) == EXIT_DOMAIN
    assert json.loads(capsys.readouterr().out)["kind"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("value", [[50], True, 50.0])
def test_suite_config_needs_integer_digits(tmp_path, capsys, value):
    # these once reached int() in context() and ended in a TypeError traceback
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "periodlab-config-1", "digits": value}))
    with pytest.raises(ValueError, match="digits must be an integer"):
        SuiteConfig.from_file(str(p))
    out = tmp_path / "rep.json"
    assert main(["verify", "special", "--config", str(p), "--out", str(out)]) == EXIT_DOMAIN
    assert json.loads(capsys.readouterr().out)["kind"] == "config"
    assert not out.exists()


@pytest.mark.parametrize("field", ["tol_tight", "tol_fd"])
@pytest.mark.parametrize("value", [[1], {}, True, "inf", "-1", "nan"], ids=["list", "dict", "true", "inf", "-1", "nan"])
def test_suite_config_needs_finite_positive_tolerances(tmp_path, capsys, field, value):
    # a list or dict once ended in a TypeError traceback in context(), and
    # true, "inf" and "-1" were accepted ("inf" passes every identity)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"schema": "periodlab-config-1", field: value}))
    with pytest.raises(ValueError, match=f"{field} must be a string holding a finite positive number"):
        SuiteConfig.from_file(str(p))
    out = tmp_path / "rep.json"
    assert main(["verify", "special", "--config", str(p), "--out", str(out)]) == EXIT_DOMAIN
    assert json.loads(capsys.readouterr().out)["kind"] == "config"
    assert not out.exists()


def test_suite_config_round_trips_its_tolerances(tmp_path):
    # to_dict writes the tolerances back as given, null when unset
    for tols in ({"tol_tight": "1e-25", "tol_fd": "1e-7"}, {"tol_tight": None, "tol_fd": None}):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schema": "periodlab-config-1", **tols}))
        cfg = SuiteConfig.from_file(str(p))
        assert {k: cfg.to_dict()[k] for k in tols} == tols


def test_cli_lvalue_dirichlet():
    proc = run_cli(["lvalue", "--form", "delta", "--s", "12", "--method", "dirichlet"])
    assert proc.returncode == EXIT_OK
    payload = json.loads(proc.stdout)
    assert abs(float(payload["value"][0]) - 0.994543692918) < 1e-9


def test_cli_lvalue_completed_real():
    proc = run_cli(["lvalue", "--form", "delta", "--s", "6", "--method", "completed"])
    assert proc.returncode == EXIT_OK
    payload = json.loads(proc.stdout)
    assert abs(float(payload["value"][1])) < 1e-15


def test_cli_lvalue_out_of_region():
    proc = run_cli(["lvalue", "--form", "delta", "--s", "3", "--method", "dirichlet"])
    assert proc.returncode == EXIT_DOMAIN
    assert json.loads(proc.stdout)["kind"] == "domain"


@pytest.mark.parametrize("s", ["6.0000000000000000001", "0"])
def test_cli_lvalue_near_and_at_integers(capsys, s):
    # s within a float ulp of 6 once ended in "math domain error", and s = 0
    # in "gamma function pole"; L(0) is a trivial zero
    assert main(["lvalue", "--form", "delta", "--s", s]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    if s == "0":
        assert out["value"] == ["0.0", "0.0"]


@pytest.mark.parametrize("method", ["completed", "dirichlet"])
@pytest.mark.parametrize("s", ["inf", "nan", "1e400"])
def test_cli_lvalue_needs_finite_s(capsys, s, method):
    # inf and 1e400 once ended in an OverflowError traceback (completed) or a
    # "tail 0.0" convergence error (dirichlet), and nan in a message about
    # converting NaN to an integer
    assert main(["lvalue", "--form", "delta", "--s", s, "--method", method]) == EXIT_DOMAIN
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "domain" and "finite" in out["error"]


@pytest.mark.parametrize("s", ["9", "10"])
def test_cli_lvalue_dirichlet_fails_before_building(capsys, monkeypatch, s):
    # Re s = 9 needs about 10^6 terms; the window was once capped without a
    # word and built on 20000 terms, O(N^2) convolutions, before l_dirichlet
    # raised.  Re s = 10 needs 8737 terms, over the cap of 4000
    def short_only(label, N):
        assert N <= 1000, f"built {label} on {N} terms"
        return cli.cusp_form(12, N)

    monkeypatch.setattr(cli, "cached_form", short_only)
    assert main(["lvalue", "--form", "delta", "--s", s, "--method", "dirichlet"]) == EXIT_CONVERGENCE
    assert json.loads(capsys.readouterr().out)["kind"] == "convergence"


def test_cli_periodpoly_delta():
    proc = run_cli(["periodpoly", "--form", "delta"])
    assert proc.returncode == EXIT_OK
    payload = json.loads(proc.stdout)
    assert payload["weight"] == 12
    assert len(payload["coefficients"]) == 11
    assert len(payload["critical_values"]) == 11


def test_cli_periodpoly_check_at_working_precision(capsys):
    # the quadrature oracle agrees to about 1e-46 at digits 50; evaluated at
    # 15 digits the deviation would read about 1e-11
    assert main(["periodpoly", "--form", "cusp26", "--digits", "50", "--check"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert mp.mpf(payload["quadrature_max_deviation"]) <= mp.mpf("1e-40")


def test_cli_lvalue_parses_s_at_working_precision(capsys, monkeypatch):
    # 6.1 rounded to a double is 6.0999999999999996447..., which moves L(s)
    # by 4e-17, far beyond the claimed est_error
    seen = []

    def spy(f, s, ctx):
        seen.append((f, ctx, l_completed(f, s, ctx)))
        return seen[-1][2]

    monkeypatch.setattr(cli, "l_completed", spy)
    assert main(["lvalue", "--form", "delta", "--s", "6.1", "--digits", "50"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["s"] == ["6.1", "0.0"]
    f, ctx, got = seen[0]
    with mp.workdps(ctx.work_dps):
        want = l_completed(f, mp.mpf("6.1"), ctx)
        assert abs(got.value - want.value) <= want.est_error
    assert out["value"][0] == mp.nstr(mp.re(want.value), ctx.digits)


@pytest.mark.parametrize("form", ["delta", "cusp16"])
def test_cli_lvalue_window_follows_s(capsys, monkeypatch, form):
    # max(sigma, k - sigma) >= 342.5 puts Lambda's term bound past the window
    # digits 50 certify (50 terms for delta), so `lvalue` once exited 3 here;
    # the window now adds ceil(max(sigma, k - sigma) / 2 pi) terms
    seen = []

    def spy(f, s, ctx):
        seen.append((ctx, l_completed(f, s, ctx)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "l_completed", spy)
    assert main(["lvalue", "--form", form, "--s=-330.5"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    ctx, got = seen[0]
    want = l_completed(cusp_form(cli._form_weight(form), 200), mp.mpf("-330.5"), ctx)
    with mp.workdps(ctx.work_dps):
        assert abs(got.value - want.value) <= got.est_error
        assert got.est_error <= mp.mpf("1e-50") * abs(got.value)
    assert out["value"][0] == mp.nstr(mp.re(got.value), ctx.digits)


def test_cli_lvalue_prints_the_working_digits(capsys, monkeypatch):
    # L(s) is printed to --digits significant digits: within est_error plus
    # half a unit in the 80th digit of the value; printed to 30 digits it
    # was off by about 3e-31
    seen = []

    def spy(f, s, ctx):
        seen.append((ctx, l_completed(f, s, ctx)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "l_completed", spy)
    assert main(["lvalue", "--form", "delta", "--s", "6", "--digits", "80"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    ctx, got = seen[0]
    assert ctx.digits == 80 and out["s"] == ["6.0", "0.0"]
    with mp.workdps(ctx.work_dps):
        printed = mp.mpc(*out["value"])
        half_unit = mp.mpf(10) ** (1 - ctx.digits) / 2 * abs(got.value)
        assert abs(printed - got.value) <= mp.mpf(out["est_error"]) + half_unit


@pytest.mark.parametrize("form, s", [("delta", "300"), ("cusp16", "400")])
def test_cli_lvalue_far_right_of_the_strip(capsys, monkeypatch, form, s):
    # Lambda(s) there takes Gamma(k - s, 2 pi n) at orders near -288 and -384,
    # where E1 with its finite sum once cancelled beyond recovery (exit 3);
    # the completed series now answers, and agrees with the Dirichlet series
    seen = {}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]

        return wrapped

    monkeypatch.setattr(cli, "l_completed", spy("completed", l_completed))
    monkeypatch.setattr(cli, "l_dirichlet", spy("dirichlet", cli.l_dirichlet))
    for method in ("completed", "dirichlet"):
        assert main(["lvalue", "--form", form, "--s", s, "--method", method]) == EXIT_OK
    capsys.readouterr()
    got, want = seen["completed"], seen["dirichlet"]
    with mp.workdps(60):
        assert abs(got.value - want.value) <= got.est_error + want.est_error


def test_cli_lvalue_completed_cap_before_building(capsys, monkeypatch):
    # Re s = 1e20 needs about 1.6e19 terms of the completed series, and the
    # window is checked against cli.MAX_WINDOW_TERMS before a form is built
    def refuse(label, N):
        raise AssertionError(f"built {label} on {N} terms")

    monkeypatch.setattr(cli, "cached_form", refuse)
    assert main(["lvalue", "--form", "delta", "--s", "1e20"]) == EXIT_CONVERGENCE
    assert json.loads(capsys.readouterr().out)["kind"] == "convergence"


def test_cli_periodpoly_zero_space():
    # dim S_14 = 0: zero polynomial, success
    proc = run_cli(["periodpoly", "--weight", "14"])
    assert proc.returncode == EXIT_OK
    payload = json.loads(proc.stdout)
    assert all(c == ["0", "0"] for c in payload["coefficients"])


@pytest.mark.parametrize("weight, form", [(20, "cusp20"), (12, "delta"), (14, None)])
def test_cli_periodpoly_names_the_emitted_form(capsys, weight, form):
    # "form" names the form whose period polynomial is printed, not --form's default
    assert main(["periodpoly", "--weight", str(weight)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["form"] == form and payload["weight"] == weight


def test_cli_periodpoly_form_and_weight_conflict(capsys):
    # --weight once overrode an explicit --form and printed delta's polynomial
    assert main(["periodpoly", "--form", "cusp16", "--weight", "12"]) == EXIT_DOMAIN
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "domain" and "coefficients" not in out


def test_cli_periodpoly_weight_zero(capsys):
    # 0 is a weight with a zero cusp space, not "--weight not given"
    assert main(["periodpoly", "--weight", "0"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["weight"] == 0 and payload["form"] is None and payload["coefficients"] == []


@pytest.mark.parametrize(
    "args",
    [["lvalue", "--form", "delta", "--s", "6", "--digits", "10"], ["periodpoly", "--digits", "10"]],
    ids=["lvalue", "periodpoly"],
)
def test_cli_low_digits_is_a_domain_error(capsys, args):
    # digits below 30 are refused with exit 2 and a JSON error, not a traceback
    assert main(args) == EXIT_DOMAIN
    assert json.loads(capsys.readouterr().out)["kind"] == "domain"


def test_cli_verify_digits_zero_is_a_domain_error(capsys):
    # --digits 0 is a (refused) precision, not "--digits not given"
    assert main(["verify", "special", "--digits", "0"]) == EXIT_DOMAIN
    assert "digits" in json.loads(capsys.readouterr().out)["error"]


def test_cli_periodpoly_unsupported_weight():
    proc = run_cli(["periodpoly", "--weight", "24"])
    assert proc.returncode == EXIT_DOMAIN


def test_cli_verify_special_suite(tmp_path):
    out = str(tmp_path / "report.json")
    csvp = str(tmp_path / "resid.csv")
    proc = run_cli(["verify", "special", "--out", out, "--csv", csvp])
    assert proc.returncode == EXIT_OK
    payload = json.load(open(out))
    assert payload["schema"] == "periodlab-report-2"
    assert payload["all_pass"] is True
    assert payload["config"]["schema"] == "periodlab-config-1"
    identities = [r["identity"] for r in payload["reports"]]
    assert len(identities) == 8 and len(set(identities)) == 8
    assert os.path.exists(csvp)
    # byte reproducibility for fixed config/version
    out2 = str(tmp_path / "report2.json")
    proc2 = run_cli(["verify", "special", "--out", out2])
    assert open(out).read() == open(out2).read()


def test_cli_verify_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    proc = run_cli(["verify", "special", "--config", str(cfg)])
    assert proc.returncode == EXIT_DOMAIN


def test_main_entrypoint_inprocess(capsys):
    code = main(["periodpoly", "--weight", "14"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["note"].startswith("cusp space is zero")


def test_cli_verify_identity_failure_exits_one(tmp_path):
    # an absurdly tight tolerance forces a residual failure: the report is
    # still written and the exit code flags it
    cfg = tmp_path / "tight.json"
    cfg.write_text(
        json.dumps({"schema": "periodlab-config-1", "tol_fd": "1e-40", "suites": ["special"]})
    )
    out = str(tmp_path / "rep.json")
    proc = run_cli(["verify", "special", "--config", str(cfg), "--out", out])
    assert proc.returncode == EXIT_IDENTITY_FAILURE
    payload = json.load(open(out))
    assert payload["all_pass"] is False


VERIFY_ALL_IDENTITIES = [
    "superm[delta]",
    "superm[cusp16]",
    "wk2_slash_S[delta]",
    "wk2_slash_U[delta]",
    "wk2_xi_image[delta]",
    "wk2_slash_S[cusp16]",
    "wk2_slash_U[cusp16]",
    "wk2_xi_image[cusp16]",
    "mockes_1S[delta]",
    "mockes_UU[delta]",
    "mockes_1S[cusp16]",
    "mockes_UU[cusp16]",
    "perstar_eq[e4sq_e6_over_delta_sq]",
    "perstar_slash_S[e4sq_e6_over_delta_sq]",
    "perstar_slash_U[e4sq_e6_over_delta_sq]",
    "perstar_xi_holomorphy[e4sq_e6_over_delta_sq]",
    "xi_descent_termwise[k=12,m=1]",
    "xi_descent_matched[k=12,m=1,C=10]",
    "bol_descent_termwise[k=12,m=1]",
    "bol_descent_matched[k=12,m=1,C=10]",
    "laplace_eigenvalue[w=-10,m=1,s=6.0]",
    "bol_xi_avatar_fd[delta]",
    "bol_xi_avatar_chain[delta]",
    *(f"whittaker_derivative_identity[k={k},y={y}]" for k in (4, 12) for y in ("0.5", "1.0", "2.0", "5.0")),
]


def test_cli_verify_all_identity_names_and_order(tmp_path):
    # consumers read report entries by position: the names and their order are fixed
    out = tmp_path / "all.json"
    assert main(["verify", "all", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert [r["identity"] for r in payload["reports"]] == VERIFY_ALL_IDENTITIES
    assert payload["all_pass"] is True
