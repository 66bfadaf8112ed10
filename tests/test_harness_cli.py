import json
import math
import re
import subprocess
import sys

import pytest

from ellrook import harness, rook, special
from ellrook.errors import BadBoardSpec, PoleEncountered, ResamplesExhausted, UnknownIdentity
from ellrook.harness import (
    CheckReport,
    SamplerConfig,
    identity_names,
    parse_board_spec,
    run_check,
)
from ellrook.weights import FrakPQ


def test_reports_are_reproducible():
    first = run_check("product-rook", "0,1,2,3", trials=5, seed=123)
    second = run_check("product-rook", "0,1,2,3", trials=5, seed=123)
    assert first == second
    assert first.passed and first.max_rel_err < 1e-8


def test_report_schema():
    report = run_check("addition-formula", trials=20, seed=1)
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "identity_name",
        "board",
        "family",
        "trials",
        "max_rel_err",
        "resamples",
        "seed",
        "passed",
    }
    assert payload["passed"] is True


def test_report_is_slotted_and_keeps_its_key_order():
    report = run_check("addition-formula", trials=20, seed=1)
    assert not hasattr(report, "__dict__")
    keys = ["identity_name", "board", "family", "trials", "max_rel_err", "resamples", "seed"]
    keys.append("passed")
    assert list(report.to_dict()) == keys
    assert list(json.loads(report.to_json())) == keys
    assert report.to_dict()["max_rel_err"] == report.max_rel_err


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        run_check("no-such-identity")


def test_bad_board_spec():
    with pytest.raises(BadBoardSpec):
        parse_board_spec("0,x,2")
    with pytest.raises(BadBoardSpec):
        run_check("product-rook", board=None, trials=1)


def test_every_identity_is_runnable():
    # one cheap pass over the whole registry at small sizes
    kwargs = {
        "product-rook": dict(board="0,1,2"),
        "product-file": dict(board="2,1,2"),
        "product-file-above": dict(board="1,2,2"),
        "product-jump": dict(board="1,3,5", jump=2),
        "max-identity": dict(board="1,2", z=1),
        "recursion-rook": dict(board="0,1,2"),
        "recursion-file": dict(board="2,0,3"),
        "recursion-binomial": dict(board="n=3"),
        "recursion-stirling2": dict(board="n=3"),
        "recursion-stirling2-r": dict(board="n=4,r=2"),
        "recursion-lah": dict(board="n=3"),
        "recursion-lah-r": dict(board="n=4,r=2"),
        "recursion-stirling1": dict(board="n=3"),
        "recursion-stirling1-r": dict(board="n=4,r=2"),
        "recursion-gen-stirling2": dict(board="n=3,I=1,J=2"),
        "recursion-gen-stirling1": dict(board="n=3,I=1,J=2"),
        "closed-form-rect-aq": dict(board="2,2,2"),
        "closed-form-lah-aq": dict(board="n=3"),
        "closed-form-lah-r-aq": dict(board="n=4,r=2"),
        "closed-form-lah-r-q": dict(board="n=4,r=2"),
        "closed-form-abel": dict(board="n=3"),
        "closed-form-abel-r": dict(board="n=3,r=2"),
        "closed-form-abel-general": dict(board="n=3,m=4"),
        "closed-form-stirling2-small-k": dict(board="n=4"),
        "degeneration-q": dict(board="0,1,2"),
        "bijection-partition": dict(board="n=4"),
        "bijection-cycles": dict(board="n=4,r=2"),
        "bijection-tubes": dict(board="n=4,r=2"),
        "bijection-abel": dict(board="n=4"),
        "bijection-rg": dict(board="n=3,I=1,J=2"),
        "bijection-rg-weight": dict(board="n=3,I=1,J=2"),
        "matrix-inverse": dict(board="n=3"),
    }
    few_trials = {
        "degeneration-chain": 5,
        "degeneration-pq": 5,
        "ellipticity": 10,
        "theta-inversion": 10,
        "theta-quasiperiodicity": 10,
        "addition-formula": 10,
    }
    for name in identity_names():
        extra = kwargs.get(name, {})
        trials = few_trials.get(name, 2)
        report = run_check(name, trials=trials, seed=7, **extra)
        assert isinstance(report, CheckReport)
        assert report.passed, (name, report.max_rel_err)


def test_nan_trials_are_resampled():
    # at z = 2+60i most draws give nan+nanj on both sides; those points are
    # redrawn, never judged, so every trial the report rests on is finite
    report = run_check("product-rook", "0,2,3,5,5", z=complex(2, 60))
    assert report.resamples > 0
    assert math.isfinite(report.max_rel_err)
    assert report.passed is True


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ellrook.cli", *args],
        capture_output=True,
        text=True,
    )


def test_cli_check_pass_and_json():
    result = _cli(
        "check",
        "product-rook",
        "--board",
        "0,2,3",
        "--trials",
        "3",
        "--seed",
        "42",
        "--json",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["passed"] is True


def test_cli_check_failure_exit_code():
    result = _cli(
        "check",
        "product-rook",
        "--board",
        "0,1",
        "--trials",
        "1",
        "--tol",
        "1e-30",
    )
    assert result.returncode == 1
    assert result.stdout.startswith("FAIL")


def test_cli_bad_board_is_an_error():
    # unparsable, out of range (no board), and in range but nothing to compare
    for identity, board in (
        ("product-rook", "0,x"),
        ("bijection-cycles", "n=3,r=5"),
        ("bijection-tubes", "n=3,r=5"),
        ("bijection-abel", "n=3,r=5"),
        ("recursion-lah-r", "n=3,r=0"),
        ("bijection-rg", "n=3,I=4,J=2"),
        ("recursion-stirling2-r", "n=5,r=9"),
        ("closed-form-lah-r-aq", "n=3,r=5"),
        ("closed-form-abel-r", "n=3,r=5"),
        ("closed-form-abel-general", "n=3,m=2,r=5"),
    ):
        result = _cli("check", identity, "--board", board)
        assert result.returncode == 2, (identity, board, result.stdout, result.stderr)
        assert "error:" in result.stderr


def test_cli_demo_cycles():
    result = _cli(
        "demo", "cycles", "--input", "n=8|(4,1),(5,2),(6,4),(7,4),(8,3)"
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "(6 7 4 1)(5 2)(8 3)"


def test_cli_demo_tubes():
    result = _cli("demo", "tubes", "--input", "n=8,r=2|(9,6),(3,5),(6,3),(8,1)")
    assert result.returncode == 0
    assert result.stdout.strip() == "{(8,1),(3,2,4),(5),(7,6)}"


def test_cli_table(tmp_path):
    out = tmp_path / "table.csv"
    result = _cli(
        "table",
        "stirling2",
        "--nmax",
        "4",
        "--family",
        "trivial",
        "--out",
        str(out),
        "--format",
        "csv",
    )
    assert result.returncode == 0
    text = out.read_text()
    assert "stirling2,4,2,7" in text


def test_cli_nan_trials_exit_code():
    result = _cli("check", "product-rook", "--board", "0,2,3,5,5", "--z", "2,60")
    assert result.returncode == 0
    assert result.stdout.startswith("PASS") and "max_rel_err=nan" not in result.stdout
    assert int(re.search(r"resamples=(\d+)", result.stdout).group(1)) > 0


def test_overflow_and_zero_argument_are_resampled():
    # at z = 2+300i, q^z overflows at most draws; at 2-300i it underflows to 0,
    # a zero theta argument.  Those draws are redrawn, and so are the draws
    # whose sides come out NaN, until the budget is spent: no NaN is judged
    for z in (complex(2, 300), complex(2, -300)):
        with pytest.raises(ResamplesExhausted, match="after 50 resamples.*IllConditioned"):
            run_check("product-rook", "0,2,3,5,5", z=z)


def test_spent_resample_budget_names_the_failure():
    with pytest.raises(ResamplesExhausted, match="after 50 resamples.*OverflowError"):
        run_check("product-rook", "0,2,3,5,5", z=complex(2, -3000))


@pytest.mark.parametrize("z", ["2,300", "2,-300"])
def test_cli_out_of_range_z_is_resampled(z):
    result = _cli("check", "product-rook", "--board", "0,2,3,5,5", "--z", z)
    assert "Traceback" not in result.stderr
    assert result.returncode == 2 and not result.stdout
    assert result.stderr.startswith("error: no usable parameter point")
    assert "IllConditioned: non-finite evaluation" in result.stderr
    # a NaN term scale is reported as such, not outvoted by the 0.0 it starts from
    assert "term scale nan" in result.stderr and "term scale 0.0" not in result.stderr


@pytest.mark.parametrize("z, failure", [("2,3000", "ZeroArgument"), ("2,-3000", "OverflowError")])
def test_cli_spent_resample_budget_is_an_error(z, failure):
    # every draw over- or underflows at these z
    result = _cli("check", "product-rook", "--board", "0,2,3,5,5", "--z", z)
    assert "Traceback" not in result.stderr
    assert result.returncode == 2
    assert result.stderr.startswith("error: no usable parameter point") and failure in result.stderr


@pytest.mark.parametrize("family", ["q", "aq", "0bq", "trivial"])
def test_degeneration_pq_rejects_families_without_a_and_b(family):
    with pytest.raises(BadBoardSpec, match="degeneration-pq needs"):
        run_check("degeneration-pq", family=family)


def test_cli_degeneration_pq_bad_family_is_an_error():
    result = _cli("check", "degeneration-pq", "--family", "q")
    assert result.returncode == 2
    assert result.stderr.startswith("error: degeneration-pq needs")


def test_degeneration_pq_passes_on_the_pq_family():
    # with arg(q) - arg(fp) outside (-pi, pi], FrakPQ.number(z) and
    # ABq(a, b, q/fp).number(z) took principal powers on different sheets
    for seed in range(10):
        report = run_check("degeneration-pq", family="pq", seed=seed)
        assert report.passed, (seed, report.max_rel_err)


def test_degeneration_pq_catches_a_planted_defect(monkeypatch):
    number = FrakPQ.number
    monkeypatch.setattr(FrakPQ, "number", lambda self, z: number(self, z) * self.q)
    report = run_check("degeneration-pq", family="pq")
    assert not report.passed and report.max_rel_err > 1e-3


# (identity, board, module and name of the closed form it checks); each
# closed form takes q as its last argument
CLOSED_FORMS = [
    ("closed-form-rect-aq", "3,3,3", rook, "rect_rook_number_aq"),
    ("closed-form-lah-aq", None, special, "lah_aq_closed"),
    ("closed-form-lah-r-aq", None, special, "lah_r_aq_closed"),
    ("closed-form-lah-r-q", None, special, "lah_r_q_closed"),
]
CLOSED_FORM_IDS = [identity for identity, *_ in CLOSED_FORMS]


@pytest.mark.parametrize("identity, board, module, name", CLOSED_FORMS, ids=CLOSED_FORM_IDS)
def test_closed_forms_draw_q_from_the_sampler_config(monkeypatch, identity, board, module, name):
    closed = getattr(module, name)
    seen = []

    def spy(*args):
        seen.append(abs(args[-1]))
        return closed(*args)

    monkeypatch.setattr(module, name, spy)
    report = run_check(identity, board, trials=3, config=SamplerConfig(q_modulus=(0.7, 0.701)))
    assert report.passed and seen
    assert all(0.7 - 1e-12 <= modulus <= 0.701 + 1e-12 for modulus in seen)


@pytest.mark.parametrize("identity, board, module, name", CLOSED_FORMS, ids=CLOSED_FORM_IDS)
def test_closed_form_pole_is_resampled(monkeypatch, identity, board, module, name):
    closed = getattr(module, name)
    calls = []

    def first_call_hits_a_pole(*args):
        calls.append(args)
        if len(calls) == 1:
            raise PoleEncountered("planted pole")
        return closed(*args)

    monkeypatch.setattr(module, name, first_call_hits_a_pole)
    report = run_check(identity, board, trials=3)
    assert report.resamples == 1 and report.passed


def test_theta_checks_draw_p_from_the_sampler_config(monkeypatch):
    theta = harness.theta
    seen = []

    def spy(x, p):
        seen.append(abs(getattr(p, "p", p)))  # one side of two checks takes a Nome
        return theta(x, p)

    monkeypatch.setattr(harness, "theta", spy)
    config = SamplerConfig(p_modulus=(0.2, 0.201))
    for identity in ("theta-inversion", "theta-quasiperiodicity", "addition-formula"):
        assert run_check(identity, trials=5, config=config).passed
    assert len(seen) == 5 * (2 + 2 + 12)
    assert all(0.2 - 1e-12 <= modulus <= 0.201 + 1e-12 for modulus in seen)


def test_degeneration_chain_pole_is_resampled(monkeypatch):
    small_weight = harness.ABq.small_weight
    calls = []

    def first_call_hits_a_pole(self, k):
        calls.append(k)
        if len(calls) == 1:
            raise PoleEncountered("planted pole")
        return small_weight(self, k)

    monkeypatch.setattr(harness.ABq, "small_weight", first_call_hits_a_pole)
    report = run_check("degeneration-chain", trials=3)
    assert report.resamples == 1 and report.passed
