"""Record the reference quality values the correctness gate compares against.

Run from the root of a checkout, on the commit whose numbers become the
reference:

    python3 perfbench/record_reference.py --seeds 0-11

Each workload runs once per seed at paper size with a zero-length window; a
run whose own checks fail is not recorded. The values land in
perfbench/reference.json, replacing the seeds named.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="range such as 0-11")
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args(argv)
    run._import_program()
    import gate
    import workloads

    data = {"workloads": {}}
    if gate.REFERENCE_PATH.exists():
        data = json.loads(gate.REFERENCE_PATH.read_text(encoding="utf-8"))
    for name in args.workload or list(workloads.WORKLOADS):
        for seed in args.seeds:
            _, details = run.run(name, seed, 0.0, False, "paper", check_references=False)
            if details["problems"]:
                print(f"{name} seed {seed}: not recorded: {details['problems']}", file=sys.stderr)
                return 1
            data["workloads"].setdefault(name, {})[str(seed)] = details["quality"]
            print(f"{name} seed {seed}: {details['quality']}")
            gate.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
