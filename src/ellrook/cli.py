"""Command-line interface.

    ellrook check <identity> --board <heights|key=val,...> --family <tag>
                  --trials N --tol T --seed S [--z re[,im]] [--J j] [--json]
    ellrook table <family> --nmax N --family <tag> --out PATH --format csv|json
                  [--r r] [--m m] [--seed S]
    ellrook demo <bijection> --input "<board part>|<cells part>"

A check's sizes go in --board: a heights board, or the identity's
parameters such as n=5,r=2 (n, r, m, I and J); --z and --J set z and J.
--z takes the word after it whatever its sign, so --z -2,1 is z = -2 + i;
for max-identity z is the depth, an integer >= 0.  Exit status is 0 when
the check passed, 1 when it failed (a non-finite error fails), and 2 on an
ellrook error such as a bad board spec: a key the identity does not take,
a key given twice, a negative size, a non-finite --z or fewer than one
trial; or a table family given an --r or --m it does not take.
"""

from __future__ import annotations

import argparse
import sys

from . import biject, special
from .errors import BadBoardSpec, EllrookError
from .harness import identity_names, parse_board_spec, run_check
from .weights import FAMILY_TAGS, PlainQ, random_family
import random


def _parse_z(text: str):
    parts = text.split(",")
    try:
        if len(parts) == 1:
            value = float(parts[0])
            return int(value) if value.is_integer() else value
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise BadBoardSpec(f"bad --z value {text!r}; expected re or re,im")


def _parse_cells(text: str):
    text = text.strip()
    if not text:
        return ()
    cells = []
    try:
        for chunk in text.replace("),(", ");(").split(";"):
            col, row = chunk.strip().strip("()").split(",")
            cells.append((int(col), int(row)))
    except ValueError as exc:
        raise BadBoardSpec(f"bad demo cells {text!r}; expected '(col,row),...'") from exc
    return tuple(cells)


def _parse_demo_input(text: str):
    if "|" not in text:
        raise BadBoardSpec("demo input must look like '<board part>|<cells part>'")
    board_part, cells_part = text.split("|", 1)
    params = parse_board_spec(board_part)
    if not isinstance(params, dict) or "n" not in params:
        raise BadBoardSpec(f"demo board part {board_part!r} needs n=<size>")
    return params, _parse_cells(cells_part)


def _require_placement(board, cells, jump: int) -> None:
    """Reject cells that are not a placement of board: a cell outside it,
    two rooks in one column, or at jump 1 two rooks in one row."""
    for col, row in cells:
        if not (1 <= col <= board.n and 1 <= row <= board.height(col)):
            raise BadBoardSpec(f"cell {(col, row)} lies outside the board {board}")
    if len({col for col, _ in cells}) != len(cells):
        raise BadBoardSpec("two rooks share a column")
    if jump == 1 and len({row for _, row in cells}) != len(cells):
        raise BadBoardSpec("two rooks share a row")


def _cmd_check(args) -> int:
    report = run_check(
        args.identity,
        board=args.board,
        family=args.family,
        trials=args.trials,
        tol=args.tol,
        seed=args.seed,
        z=_parse_z(args.z) if args.z is not None else None,
        jump=args.J,
    )
    if args.json:
        print(report.to_json())
    else:
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} {report.identity_name} board={report.board or '-'} "
            f"family={report.family} trials={report.trials} "
            f"max_rel_err={report.max_rel_err:.3e} resamples={report.resamples} "
            f"seed={report.seed}"
        )
    return 0 if report.passed else 1


def _cmd_table(args) -> int:
    if args.family == "trivial":
        fam = PlainQ(1)
    else:
        fam = random_family(random.Random(args.seed), args.family)
    table = special.SpecialNumberTable.build(args.table_family, args.nmax, fam, r=args.r, m=args.m)
    if args.format == "csv":
        table.write_csv(args.out)
    else:
        table.write_json(args.out)
    print(f"wrote {args.table_family} table (n <= {args.nmax}) to {args.out}")
    return 0


def _cmd_demo(args) -> int:
    params, cells = _parse_demo_input(args.input)
    n, r, m = params["n"], params.get("r", 1), params.get("m")
    # each board is the one its bijection-* check enumerates
    if args.bijection == "partition":
        _require_placement(special.staircase(n), cells, jump=1)
        part = biject.rooks_to_partition(cells, n)
        print("{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in part) + "}")
    elif args.bijection == "cycles":
        _require_placement(special.staircase(n, r), cells, jump=0)
        print(biject.file_to_cycles(cells, n).render())
    elif args.bijection == "tubes":
        _require_placement(special.lah_board(n, r), cells, jump=1)
        print(biject.rooks_to_tubes(cells, n, r).render())
    else:
        _require_placement(special.abel_board(n, r, m), cells, jump=0)
        print(biject.file_to_forest(cells, n, m, r).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ellrook", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify one identity at random points")
    check.add_argument("identity", choices=identity_names())
    check.add_argument("--board", help="heights '0,2,3,5,5' or params 'n=5,r=2'")
    check.add_argument("--family", default="elliptic", choices=FAMILY_TAGS)
    check.add_argument("--trials", type=int)
    check.add_argument("--tol", type=float)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--z", help="evaluation argument: re or re,im")
    check.add_argument("--J", type=int, help="jump parameter")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=_cmd_check)

    table = sub.add_parser("table", help="emit a special-number table")
    table.add_argument("table_family", choices=special.TABLE_FAMILIES)
    table.add_argument("--nmax", type=int, required=True)
    table.add_argument("--family", default="trivial", choices=FAMILY_TAGS)
    table.add_argument("--out", required=True)
    table.add_argument("--format", default="csv", choices=("csv", "json"))
    table.add_argument("--r", type=int)
    table.add_argument("--m", type=int)
    table.add_argument("--seed", type=int, default=0)
    table.set_defaults(func=_cmd_table)

    demo = sub.add_parser("demo", help="run one bijection on a placement")
    demo.add_argument("bijection", choices=("partition", "cycles", "tubes", "forest"))
    demo.add_argument("--input", required=True, help="'n=8,r=3|(4,1),(5,2),...'")
    demo.set_defaults(func=_cmd_demo)
    return parser


def _join_z(argv) -> list[str]:
    """argv with each '--z value' as '--z=value', since argparse reads a
    value such as -2,1 or -1e3 as an option."""
    out, words = [], iter(argv)
    for word in words:
        out.append(f"--z={next(words, '')}" if word == "--z" else word)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_z(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except EllrookError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
