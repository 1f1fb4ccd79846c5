"""Compare two checkouts on perfbench workloads in alternating pairs of runs.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, and the
order alternates from pair to pair (base first, then new first), so drift of
the host's load falls on both sides alike. The last line of each run's output
is its JSON result. Each ``--workload`` runs its own pairs, one workload after
another, and prints its own block, whose first line starts with the
workload's name. For every end-to-end metric the block gives the median
and quartiles of each side, the ratio of the medians (new / base), the ratio
within each pair, and in how many pairs the new checkout was better, in the
direction the base checkout's BENCHMARK.json gives. Where that file gives the
metric a ``bound``, the line also says whether the new median is worse than
the base median by more than that share of it. It exits with 1 when some run
of any workload did not read ``"correct": true``. Every run inherits this
process's environment, so a prefix such as ``MALLOC_MMAP_THRESHOLD_=131072``
reads ``peak_rss_mb`` on both sides under a fixed glibc mmap threshold.

Usage: python3 tools/bench_pairs.py BASE NEW --workload NAME [--workload NAME ...]
           [--seed 7] [--pairs 5] [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict:
    """The JSON result of a run: the last non-empty line of its output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed no result line")
    return json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``, as its parsed result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited with {done.returncode}\n{done.stderr}")
    return parse_result(done.stdout)


def end_to_end(checkout: Path) -> list[dict]:
    """The end-to-end metrics of the checkout's BENCHMARK.json (none without one)."""
    path = Path(checkout) / "BENCHMARK.json"
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="utf-8")).get("end_to_end", [])


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from the checkout's BENCHMARK.json."""
    return {metric["name"]: metric["better"] for metric in end_to_end(checkout)}


def bounds(checkout: Path) -> dict[str, float]:
    """Metric name -> the largest allowed relative worsening, from the
    checkout's BENCHMARK.json, for the metrics that give one."""
    return {metric["name"]: metric["bound"] for metric in end_to_end(checkout) if "bound" in metric}


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive method; the value itself when alone)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(
    base: list[dict], new: list[dict], better: dict[str, str], bound: dict[str, float] | None = None
) -> list[str]:
    """Report lines for paired results: ``base[i]`` and ``new[i]`` form pair i.

    A metric with a known direction reads "gain" when the new checkout was
    better in at least nine tenths of the pairs and its median moved by more
    than the distance between the base runs' quartiles. With a ``bound`` too,
    it reads "worse than bound B" when the new median is worse than the base
    median by more than B times the base median's magnitude, and "within
    bound B" otherwise."""
    lines = [f"correct: base {sum(r.get('correct') is True for r in base)}/{len(base)}, "
             f"new {sum(r.get('correct') is True for r in new)}/{len(new)}"]
    for name in base[0]["metrics"]:
        old = [r["metrics"][name]["value"] for r in base]
        cur = [r["metrics"][name]["value"] for r in new]
        (lo, hi), (new_lo, new_hi) = quartiles(old), quartiles(cur)
        ratios = [c / o if o else float("nan") for o, c in zip(old, cur)]
        line = (f"{name}: base {statistics.median(old):.6g} [{lo:.6g}, {hi:.6g}] "
                f"new {statistics.median(cur):.6g} [{new_lo:.6g}, {new_hi:.6g}] "
                f"ratio {statistics.median(cur) / statistics.median(old):.4f} "
                f"pairs [{' '.join(f'{r:.3f}' for r in ratios)}]")
        if name in better:
            wins = sum((c < o) if better[name] == "lower" else (c > o) for o, c in zip(old, cur))
            moved = abs(statistics.median(cur) - statistics.median(old)) > hi - lo
            gain = wins >= 0.9 * len(ratios) and moved
            line += f" better in {wins}/{len(ratios)}{' gain' if gain else ''}"
            if name in (bound or {}):
                worsening = statistics.median(cur) - statistics.median(old)
                if better[name] == "higher":
                    worsening = -worsening
                beyond = worsening > bound[name] * abs(statistics.median(old))
                line += f" {'worse than' if beyond else 'within'} bound {bound[name]:g}"
        lines.append(line)
    return lines


def main(argv: list[str], run=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", required=True, action="append",
                        help="a perfbench workload; give it again for more")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.base.resolve() == args.new.resolve():
        parser.error("BASE and NEW must be different checkouts")
    correct = True
    for workload in args.workload:
        results = {args.base: [], args.new: []}
        for pair in range(args.pairs):
            for checkout in (args.base, args.new) if pair % 2 == 0 else (args.new, args.base):
                results[checkout].append(run(checkout, workload, args.seed, args.seconds))
        base, new = results[args.base], results[args.new]
        lines = summarize(base, new, directions(args.base), bounds(args.base))
        lines[0] = f"{workload}: {lines[0]}"
        print("\n".join(lines), flush=True)
        correct = correct and all(r.get("correct") is True for r in base + new)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
