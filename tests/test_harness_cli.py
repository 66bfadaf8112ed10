import json
import math
import re
import subprocess
import sys

import pytest

from ellrook import biject, harness, jattack, rook, special
from ellrook.cli import main
from ellrook.errors import BadBoardSpec, PoleEncountered, ResamplesExhausted, UnknownIdentity
from ellrook.harness import (
    CheckReport,
    SamplerConfig,
    identity_names,
    parse_board_spec,
    run_check,
)
from ellrook.numeric import cpow
from ellrook.weights import FAMILY_TAGS, Aq, FrakPQ, PlainQ, ZeroBq


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


FERRERS_ONLY = ["product-rook", "recursion-rook", "degeneration-q", "max-identity"]

# requests that leave no evidence for their verdict: a board or key the
# identity does not take, a key given twice, a negative size, no trials,
# a board the identity is not stated for, a tolerance no error is below
MISUSES = [
    ("closed-form-abel", dict(board="0,2,3")),
    ("closed-form-abel", dict(board="n=4,r=3")),
    ("matrix-inverse", dict(board="n=3,q=7")),
    ("closed-form-abel", dict(z=3)),
    ("theta-inversion", dict(jump=2)),
    ("degeneration-chain", dict(board="1,2")),
    ("product-rook", dict(board="0,2,3,5,5", trials=0)),
    ("product-rook", dict(board="0,2,3,5,5", trials=-3)),
    ("product-rook", dict(board="board=3")),
    ("bijection-partition", dict(board="n=-1")),
    ("bijection-partition", dict(board="n=5,n=0")),
    ("bijection-rg-weight", dict(board="n=3,I=1,J=2", jump=2)),
    ("closed-form-abel-general", dict(board="n=3,m=-1")),
    ("bijection-rg", dict(board="n=3,I=-1,J=2")),
    ("product-jump", dict(board="1,3", jump=-1)),
    *((name, dict(board="3,2,1")) for name in FERRERS_ONLY),
    ("product-rook", dict(board="0,2,3", tol=math.nan)),
    ("product-rook", dict(board="0,2,3", tol=0.0)),
    ("product-rook", dict(board="0,2,3", tol=-1.0)),
]


@pytest.mark.parametrize(
    "identity, request_",
    MISUSES,
    ids=[" ".join([name, *(f"{k}={v}" for k, v in request.items())]) for name, request in MISUSES],
)
def test_a_request_without_evidence_is_a_bad_board_spec(identity, request_):
    with pytest.raises(BadBoardSpec):
        run_check(identity, **request_)


def test_a_negative_z_is_taken():
    assert run_check("product-rook", "0,1,2", z=-0.5, trials=2).passed


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
        **dict.fromkeys(BIJECTIONS, 1),  # a counting check enumerates once
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
        ("bijection-abel", "n=4,r=0"),  # an Abel board, but no forest bijection
    ):
        result = _cli("check", identity, "--board", board)
        assert result.returncode == 2, (identity, board, result.stdout, result.stderr)
        assert "error:" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("closed-form-abel", "--board", "0,2,3"),
        ("product-rook", "--board", "0,2,3,5,5", "--trials", "0"),
        *((name, "--board", "3,2,1") for name in FERRERS_ONLY),
        ("product-rook", "--board", "0,2,3", "--tol", "nan"),
        ("product-rook", "--board", "0,2,3", "--tol", "-1"),
        ("bijection-partition", "--board", "n=3", "--trials", "7"),
    ],
)
def test_cli_request_without_evidence_is_an_error(args):
    result = _cli("check", *args)
    assert result.returncode == 2 and not result.stdout
    assert result.stderr.startswith("error:")


def test_cli_check_takes_sizes_only_in_the_spec():
    result = _cli("check", "--help")
    assert result.returncode == 0
    assert not {"--I", "--r", "--m"} & set(re.findall(r"--\w+", result.stdout))


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


@pytest.mark.parametrize(
    "bijection, text",
    [
        ("partition", "n=4|(1)"),  # a malformed cell
        ("partition", "n=x|(1,1)"),  # a malformed size
        ("partition", "4|(1,1)"),  # no n=
        ("partition", "n=4|(9,9)"),  # outside the staircase
        ("cycles", "n=4|(1,1)"),  # column 1 of the staircase has height 0
        ("tubes", "n=4,r=7|"),  # no restricted Lah board
        ("partition", "n=3|(2,1),(3,1)"),  # two rooks in one row
        ("cycles", "n=4|(3,1),(3,2)"),  # two rooks in one column
        ("forest", "n=3,m=4|(2,5)"),  # above the height m
        ("forest", "n=3,r=0|(1,2),(2,1)"),  # r = 0: its image would be a cycle
    ],
)
def test_cli_demo_bad_input_is_an_error(bijection, text):
    result = _cli("demo", bijection, "--input", text)
    assert result.returncode == 2, (result.stdout, result.stderr)
    assert "error:" in result.stderr and "Traceback" not in result.stderr


def test_cli_demo_forest_prints_roots_edges_and_colors(capsys):
    assert main(["demo", "forest", "--input", "n=3,m=4|(2,4)"]) == 0
    assert capsys.readouterr().out == "roots {1, 3}; edges {2<-1}; colors {2:2}\n"


@pytest.mark.parametrize(
    "field, modulus",
    [("q_modulus", (0.0, 0.5)), ("q_modulus", (0.5, 1.0)), ("q_modulus", (0.6, 0.5))]
    + [("p_modulus", (-0.1, 0.5)), ("p_modulus", (0.5, 1.0)), ("p_modulus", (0.6, 0.5))],
)
def test_sampler_config_rejects_a_modulus_range_out_of_bounds(field, modulus):
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        SamplerConfig(**{field: modulus})
    SamplerConfig(p_modulus=(0.0, 0.0))  # p = 0 is a nome


def test_cli_demo_file_placements_share_rows():
    # a file placement may hold two rooks in one row; a rook placement may not
    assert _cli("demo", "cycles", "--input", "n=3|(2,1),(3,1)").stdout.strip() == "(2 3 1)"
    assert _cli("demo", "forest", "--input", "n=3,m=4|(2,4)").returncode == 0


def test_table_takes_r_and_m_of_zero(tmp_path):
    # r = 0 has Abel boards and no Stirling boards; a given 0 is never read as 1
    fam = harness.PlainQ(1)
    at_zero = special.SpecialNumberTable.build("abelgenr", 3, fam, r=0, m=3)
    assert at_zero.values != special.SpecialNumberTable.build("abelgenr", 3, fam, r=1, m=3).values
    assert at_zero.values[(1, 0)] == 3
    with pytest.raises(BadBoardSpec):
        special.SpecialNumberTable.build("stirling1r", 3, fam, r=0)
    out = tmp_path / "t.csv"
    result = _cli("table", "abelgenr", "--nmax", "3", "--r", "0", "--m", "3", "--out", str(out))
    assert result.returncode == 0 and "abelgenr,1,0,3" in out.read_text()
    result = _cli("table", "stirling1r", "--r", "0", "--nmax", "3", "--out", str(out))
    assert result.returncode == 2 and "error:" in result.stderr


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


PRODUCTS = ["product-rook", "product-file", "product-file-above", "product-jump"]


@pytest.mark.parametrize("identity", PRODUCTS + ["max-identity"])
@pytest.mark.parametrize(
    "z", [math.nan, math.inf, -math.inf, complex(math.nan, 1), complex(2, math.inf)]
)
def test_non_finite_z_is_a_bad_board_spec(identity, z):
    with pytest.raises(BadBoardSpec, match="needs a finite z"):
        run_check(identity, "0,2,3", z=z)


def test_an_exponent_beyond_the_doubles_is_an_overflow():
    # w log(z) overflows to an infinite imaginary part, where cmath.exp
    # raises ValueError, which the harness would not resample
    for w in (complex(1e308, 1e308), complex(-1e308, 1e308), complex(math.nan, 0)):
        with pytest.raises(OverflowError):
            cpow(complex(3.0, 2.0), w)
    assert cpow(complex(0.3, 0.2), complex(1e308, 1e308)) == 0


@pytest.mark.parametrize("identity", PRODUCTS)
def test_cli_huge_or_non_finite_z_exits_2(identity):
    # at 1e308,1e308 every draw over- or underflows; nan is no z at all
    for z, message in (("1e308,1e308", "no usable parameter point"), ("nan", "a finite z")):
        result = _cli("check", identity, "--board", "0,2,3", "--z", z)
        assert "Traceback" not in result.stderr, (z, result.stderr)
        assert result.returncode == 2 and not result.stdout, z
        assert result.stderr.startswith("error: ") and message in result.stderr, z


@pytest.mark.parametrize("z", [-1, complex(1, 1), complex(-3, 0.5), 2.9, 2.5])
def test_max_identity_depth_is_a_nonnegative_integer(z):
    with pytest.raises(BadBoardSpec, match="depth z that is an integer >= 0"):
        run_check("max-identity", "0,2,3", z=z, trials=3)


def test_cli_max_identity_bad_depth_exits_2():
    assert run_check("max-identity", "0,2,3", z=2, trials=3).passed
    for z in ("-1", "1,1", "-3,0.5", "2.9"):
        result = _cli("check", "max-identity", "--board", "0,2,3", f"--z={z}", "--trials", "3")
        assert "Traceback" not in result.stderr, (z, result.stderr)
        assert result.returncode == 2 and not result.stdout, z
        assert result.stderr.startswith("error: max-identity needs a depth"), z


def test_cli_z_with_a_negative_real_part_is_taken_after_a_space():
    args = ("check", "product-rook", "--board", "0,2,3", "--trials", "3")
    joined = _cli(*args, "--z=-2,1")
    spaced = _cli(*args, "--z", "-2,1")
    assert spaced.returncode == 0 and spaced.stdout.startswith("PASS")
    assert spaced.stdout == joined.stdout
    # -1e3 reaches the check, which finds no usable point, not argparse
    result = _cli(*args, "--z", "-1e3")
    assert result.returncode == 2 and "expected one argument" not in result.stderr
    assert result.stderr.startswith("error: no usable parameter point")


@pytest.mark.parametrize(
    "family, option", [("stirling2", "--r"), ("stirling1", "--m"), ("abelr", "--m")]
)
def test_table_rejects_a_parameter_its_family_does_not_take(tmp_path, family, option):
    out = tmp_path / "t.csv"
    result = _cli("table", family, "--nmax", "3", option, "3", "--out", str(out))
    assert result.returncode == 2 and "does not take" in result.stderr and not out.exists()
    with pytest.raises(BadBoardSpec, match="does not take"):
        special.SpecialNumberTable.build(family, 3, harness.PlainQ(1), **{option[2:]: 3})


@pytest.mark.parametrize("family", FAMILY_TAGS)
@pytest.mark.parametrize("identity", ["product-rook", "product-file-above", "max-identity"])
def test_product_checks_pass_at_every_family_tag(identity, family):
    # every branch of random_family, and the scaled and shifted families of
    # ZeroBq and FrakPQ, which the sides take
    assert run_check(identity, "0,2,3,5,5", family=family, trials=3).passed


@pytest.mark.parametrize("family", FAMILY_TAGS)
def test_jump_cross_check_passes_at_every_family_tag(family, capsys):
    # the 35-digit cross-check over each family: ABq's p is the int 0, pq
    # is FrakPQ, and trivial's exact PlainQ passes through unconverted
    args = ["check", "product-jump", "--board", "2,5,8", "--J", "3", "--z", "9"]
    assert main([*args, "--family", family]) == 0
    assert capsys.readouterr().out.startswith(f"PASS product-jump board=2,5,8 family={family} ")


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
    seen = []

    def spy(function):
        def spied(x, p):
            seen.append(abs(p))
            return function(x, p)

        return spied

    # one side of two checks is theta_product
    for name in ("theta", "theta_product"):
        monkeypatch.setattr(harness, name, spy(getattr(harness, name)))
    config = SamplerConfig(p_modulus=(0.2, 0.201))
    for identity in ("theta-inversion", "theta-quasiperiodicity", "addition-formula"):
        assert run_check(identity, trials=5, config=config).passed
    assert len(seen) == 5 * (2 + 2 + 12)
    assert all(0.2 - 1e-12 <= modulus <= 0.201 + 1e-12 for modulus in seen)


# the runners that return their own error rather than sides to judge: the
# counts and the two residuals that the harness docstring names
OWN_ERROR = {"degeneration-q", "addition-formula", "matrix-inverse", *harness._BIJECTIONS}


def test_every_sides_runner_goes_through_the_judge(monkeypatch):
    from test_golden_reports import BOARDS  # the README sizes

    judge = harness._judge
    judged = {}  # identity -> the precision in bits of each side judged

    def precision(side):
        """A Wide type's precision, or a double's 53 bits, at the side's values."""
        return max(getattr(type(value), "prec", 53) for value in tuple(side)[:2])

    def recorder(sides):
        seen = judged.setdefault(name, [])

        def recorded():
            for side in sides:
                seen.append(precision(side))
                yield side

        return judge(recorded())

    monkeypatch.setattr(harness, "_judge", recorder)
    for name in identity_names():
        extra = {"jump": 3, "z": 9} if name == "product-jump" else {}
        run_check(name, BOARDS.get(name), trials=1, **extra)
    assert set(judged) == set(identity_names()) - OWN_ERROR
    assert all(judged.values())
    # the double side, then the two 35-digit cross-check sides, at the
    # precision mpmath gives 35 digits
    assert judged["product-jump"] == [53, 120, 120]


def test_an_ill_conditioned_side_is_resampled(monkeypatch):
    check = rook.product_formula_check
    calls = []

    def first_side_is_ill_conditioned(board, fam, z):
        entry = check(board, fam, z)
        calls.append(z)
        if len(calls) == 1:
            cancelled = max(abs(entry.lhs), abs(entry.rhs))
            return entry._replace(scale=2 * harness.MAX_CONDITION * cancelled)
        return entry

    runner = harness._product(first_side_is_ill_conditioned)
    monkeypatch.setitem(harness._IDENTITIES, "product-rook", (runner, 25, 1e-8, harness._BOARD_Z))
    report = run_check("product-rook", "0,2,3,5,5", trials=3)
    assert report.resamples == 1 and report.passed and len(calls) == 4


WEIGHT_METHODS = ("small_weight", "big_weight", "number", "binomial")


def test_degeneration_chain_pole_is_resampled(monkeypatch):
    # the first call of an ABq method, whichever the first trial draws, hits
    # a pole; each trial calls the drawn method on three ABq families
    calls = []

    def first_call_hits_a_pole(method):
        def patched(self, *args):
            calls.append(args)
            if len(calls) == 1:
                raise PoleEncountered("planted pole")
            return method(self, *args)

        return patched

    for name in WEIGHT_METHODS:
        monkeypatch.setattr(harness.ABq, name, first_call_hits_a_pole(getattr(harness.ABq, name)))
    report = run_check("degeneration-chain", trials=3)
    assert report.resamples == 1 and report.passed and len(calls) == 1 + 3 * 3


@pytest.mark.parametrize("method", WEIGHT_METHODS)
@pytest.mark.parametrize("family", [Aq, ZeroBq, PlainQ], ids=lambda cls: cls.__name__)
def test_degeneration_chain_catches_a_planted_defect(monkeypatch, family, method):
    # each limit family is checked against its parent at a vanishing
    # parameter, not against a copy of its own formula
    original = getattr(family, method)
    monkeypatch.setattr(family, method, lambda self, *args: original(self, *args) * (1 + 1e-9))
    report = run_check("degeneration-chain", seed=0)
    assert not report.passed and report.max_rel_err > 5e-10


# each counting bijection-* check at a size where it passes unpatched (see
# test_every_identity_is_runnable): the module its maps live on, the names
# of its forward map, inverse map, codomain and count oracle (module and
# name, if any), the position of the forward map's cells argument, and one
# placement of one rook
BIJECTIONS = {
    "bijection-partition": dict(
        board="n=4",
        module=biject,
        forward="rooks_to_partition",
        inverse="partition_to_rooks",
        codomain="set_partitions",
        rook=(2, 1),
    ),
    "bijection-cycles": dict(
        board="n=4,r=2",
        module=biject,
        forward="file_to_cycles",
        inverse="cycles_to_file",
        codomain="restricted_cycle_structures",
        rook=(3, 1),
    ),
    "bijection-tubes": dict(
        board="n=4,r=2",
        module=biject,
        forward="rooks_to_tubes",
        inverse="tubes_to_rooks",
        codomain="tube_placements",
        count=(special, "classical_lah_r"),
        rook=(1, 1),
    ),
    "bijection-abel": dict(
        board="n=4",
        module=biject,
        forward="file_to_forest",
        inverse="forest_to_file",
        codomain="rooted_forests",
        count=(biject, "abel_count_general"),
        rook=(2, 1),
    ),
    "bijection-rg": dict(
        board="n=3,I=1,J=2",
        module=jattack,
        forward="phi_inverse",
        cells_at=3,
        inverse="phi",
        codomain="enumerate_rg_words",
        rook=(1, 1),
    ),
}


@pytest.mark.parametrize("board", ["n=0,I=0,J=0", "n=1,I=0,J=0", "n=3,I=0,J=0", "n=4,I=1,J=2"])
@pytest.mark.parametrize("identity", ["bijection-rg", "bijection-rg-weight"])
def test_rg_bijections_pass_at_offset_and_jump_zero(identity, board):
    # at I = J = 0 a block-opening letter targets row 0: an empty column
    assert run_check(identity, board).passed


@pytest.mark.parametrize("identity", BIJECTIONS)
def test_counting_check_takes_one_trial(identity):
    board = BIJECTIONS[identity]["board"]
    for trials in (2, 7):
        with pytest.raises(BadBoardSpec, match="trials must be 1"):
            run_check(identity, board, trials=trials)
    assert run_check(identity, board).trials == 1


@pytest.mark.parametrize("identity", BIJECTIONS)
def test_bijection_catches_an_inverse_that_drops_a_cell(monkeypatch, identity):
    entry = BIJECTIONS[identity]
    original = getattr(entry["module"], entry["inverse"])
    monkeypatch.setattr(entry["module"], entry["inverse"], lambda *args: original(*args)[1:])
    assert not run_check(identity, entry["board"]).passed


@pytest.mark.parametrize("identity", BIJECTIONS)
def test_bijection_catches_a_forward_map_with_the_wrong_block_count(monkeypatch, identity):
    # the forward map sends the empty placement to the image of a one-rook
    # placement and back, and the inverse map undoes the swap: the round
    # trip, the images and the counts still hold, and only the block counts
    # of those two placements are wrong
    entry = BIJECTIONS[identity]
    module, at = entry["module"], entry.get("cells_at", 0)
    swap = {(): (entry["rook"],), (entry["rook"],): ()}
    forward, inverse = getattr(module, entry["forward"]), getattr(module, entry["inverse"])

    def swapped_forward(*args):
        args = list(args)
        args[at] = swap.get(tuple(args[at]), args[at])
        return forward(*args)

    def swapped_inverse(*args):
        cells = inverse(*args)
        return swap.get(cells, cells)

    monkeypatch.setattr(module, entry["forward"], swapped_forward)
    monkeypatch.setattr(module, entry["inverse"], swapped_inverse)
    report = run_check(identity, entry["board"])
    assert not report.passed and report.max_rel_err == 2


@pytest.mark.parametrize("identity", BIJECTIONS)
def test_bijection_catches_a_codomain_missing_one_object(monkeypatch, identity):
    entry = BIJECTIONS[identity]
    original = getattr(entry["module"], entry["codomain"])
    dropped = []

    def missing_one(*args):
        objects = list(original(*args))
        if objects and not dropped:
            dropped.append(objects.pop())
        return objects

    monkeypatch.setattr(entry["module"], entry["codomain"], missing_one)
    report = run_check(identity, entry["board"])
    # only the comparison with the codomain fails
    assert not report.passed and report.max_rel_err == 1 and len(dropped) == 1


@pytest.mark.parametrize("identity", [name for name in BIJECTIONS if "count" in BIJECTIONS[name]])
def test_bijection_catches_a_count_oracle_off_by_one(monkeypatch, identity):
    entry = BIJECTIONS[identity]
    module, name = entry["count"]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: original(*args) + 1)
    report = run_check(identity, entry["board"])
    # only the counts fail, once for each k = 0, ..., 4
    assert not report.passed and report.max_rel_err == 5
