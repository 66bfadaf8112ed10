"""How steady is this machine?  Times one fixed pure-Python loop in slices.

    python3 bench/drift.py [--seconds 40]

Prints the time of each slice's loop, then the fastest, median and slowest
slice, and the process's CPU time against its wall time.  The same
instructions take longer when the machine runs slower, so the spread
between slices bounds what any single timing can resolve.
"""

import argparse
import statistics
import time


def fixed_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    slices = []
    wall, cpu = time.perf_counter(), time.process_time()
    end = wall + args.seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        fixed_loop()
        slices.append((time.perf_counter() - start) * 1e3)
    print(" ".join(f"{ms:.1f}" for ms in slices))
    print(
        f"{len(slices)} slices: fastest {min(slices):.1f} ms, "
        f"median {statistics.median(slices):.1f} ms, slowest {max(slices):.1f} ms; "
        f"CPU time {time.process_time() - cpu:.2f} s in {time.perf_counter() - wall:.2f} s"
    )


if __name__ == "__main__":
    main()
