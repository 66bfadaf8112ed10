"""Golden CheckReports: every identity on a pinned seed matrix, compared byte
for byte with the JSON recorded in golden_reports.json.

A refactor of the harness must reproduce every report exactly.  To record
the file anew after a deliberate change of reports, run

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

from ellrook.harness import identity_names, run_check

GOLDEN = Path(__file__).with_name("golden_reports.json")

# the boards of the README's `ellrook check` examples; registry defaults
# for every other identity
README_BOARD = "0,2,3,5,5"
BOARDS = {
    "product-rook": README_BOARD,
    "product-file": README_BOARD,
    "product-file-above": README_BOARD,
    "product-jump": "2,5,8",
    "max-identity": README_BOARD,
    "recursion-rook": README_BOARD,
    "recursion-file": README_BOARD,
    "closed-form-rect-aq": "3,3,3",
    "degeneration-q": README_BOARD,
    "bijection-abel": "n=5",
}
SEEDS = (0, 1, 2)
FAMILIES = ("elliptic", "q")
# the recursion identities again at sizes other than their defaults: r = 1
# starts the restricted second- and first-kind checks at k = 0
SIZED_BOARDS = {
    "recursion-stirling2-r": ("n=5,r=1", "n=5,r=3"),
    "recursion-lah-r": ("n=5,r=1", "n=5,r=3"),
    "recursion-stirling1-r": ("n=5,r=1", "n=5,r=3"),
    "recursion-gen-stirling2": ("n=4,I=1,J=2", "n=4,I=2,J=3"),
    "recursion-gen-stirling1": ("n=4,I=1,J=2", "n=4,I=2,J=3"),
}


def golden_requests() -> list[dict]:
    requests = []
    for identity in identity_names():
        for family in FAMILIES:
            for seed in SEEDS:
                request = {"identity": identity, "board": BOARDS.get(identity)}
                request.update(family=family, seed=seed)
                if identity == "product-jump":
                    request["jump"] = 3
                requests.append(request)
    # an integer z at least jump * n takes the extended-precision path
    requests.append(
        {"identity": "product-jump", "board": "1,3", "jump": 2, "z": 4, "seed": 0, "trials": 3}
    )
    for identity, boards in SIZED_BOARDS.items():
        for board in boards:
            for family in FAMILIES:
                for seed in SEEDS:
                    requests.append(
                        {"identity": identity, "board": board, "family": family, "seed": seed}
                    )
    return requests


def request_key(request: dict) -> str:
    return " ".join(f"{name}={value}" for name, value in request.items())


def report_text(request: dict) -> str:
    """The report's JSON, or the class name of the exception it raised."""
    try:
        return run_check(**request).to_json()
    except Exception as exc:  # noqa: BLE001 - a raise is part of the record
        return type(exc).__name__


def record() -> dict:
    return {request_key(request): report_text(request) for request in golden_requests()}


def test_reports_match_golden_file():
    golden = json.loads(GOLDEN.read_text())
    requests = golden_requests()
    assert sorted(golden) == sorted(request_key(request) for request in requests)
    mismatches = []
    for request in requests:
        key, got = request_key(request), report_text(request)
        if got != golden[key]:
            mismatches.append(f"{key}\n  golden: {golden[key]}\n  now:    {got}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
