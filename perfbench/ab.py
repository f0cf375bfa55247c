#!/usr/bin/env python3
"""Same-machine A/B of the request-path benchmark against a base revision.

Usage, from the root of a git checkout:

    python3 perfbench/ab.py BASE [--workloads wire_mixed,wire_single,inproc_mixed,paper_apps]
        [--pairs 10] [--seconds S] [--seed 1] [--trace 0|1] [--workdir DIR]

Checks BASE out in a git worktree outside the repository, copies this
checkout's perfbench/ over the worktree's so both sides run identical
benchmark code, builds both, then runs PAIRS pairs per workload. Each pair
uses one seed for both sides and alternates which side runs first. For
every metric it prints each side's median and quartiles, the change of the
medians, and the share of pairs the working tree won (ties count for
neither). It calls a gain only when the working tree wins at least 9 in 10
pairs and the medians differ by more than the base's own quartile spread,
and a regression when the working tree's median is worse than the base's
by more than the metric's bound in BENCHMARK.json. A metric whose base
spread is wider than its bound is reported as unresolved, not unchanged.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(tree, build_dir, workload, seed, seconds, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    result = subprocess.run(
        ["python3", os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    try:
        parsed = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("ab: %s produced no result (exit %d):\n%s" %
                 (tree, result.returncode, result.stderr[-2000:]))
    if result.returncode != 0 or not parsed["correct"]:
        print("ab: %s run of %s seed %d failed its output checks" % (tree, workload, seed))
    return {name: m["value"] for name, m in parsed["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("--workloads", default="wire_mixed,wire_single,inproc_mixed,paper_apps")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload; a gain needs at least 10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", default=None,
                        help="work directory outside the repository (default: a new temporary one)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    workdir = args.workdir or tempfile.mkdtemp(prefix="perfbench-ab-")
    if os.path.commonpath([os.path.abspath(workdir), ROOT]) == ROOT:
        sys.exit("ab: --workdir must be outside the repository")
    base_tree = os.path.join(workdir, "base")
    git("worktree", "add", "--detach", base_tree, base_rev)
    try:
        shutil.rmtree(os.path.join(base_tree, "perfbench"), ignore_errors=True)
        shutil.copytree(HERE, os.path.join(base_tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        sides = {"base": (base_tree, os.path.join(workdir, "build-base")),
                 "head": (ROOT, os.path.join(workdir, "build-head"))}
        print("ab: base %s in %s; working tree %s" % (base_rev[:12], base_tree, ROOT))
        for workload in args.workloads.split(","):
            values = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                for side in order:
                    tree, build = sides[side]
                    values[side].append(run_side(tree, build, workload, args.seed + i,
                                                 seconds, args.trace))
            report(workload, values, metrics)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree], cwd=ROOT)
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)


def report(workload, values, metrics):
    print("\n== %s (%d pairs) ==" % (workload, len(values["base"])))
    print("%-40s %-28s %-28s %8s %6s  %s" %
          ("metric", "base median [q1, q3]", "head median [q1, q3]", "change", "won", "verdict"))
    names = [n for n in values["base"][0] if all(n in run for run in values["head"])]
    for name in names:
        base = [run[name] for run in values["base"] if name in run]
        head = [run[name] for run in values["head"] if name in run]
        spec = metrics.get(name, {})
        lower = spec.get("better", "lower") == "lower"
        b1, bm, b3 = quartiles(base)
        h1, hm, h3 = quartiles(head)
        wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        won = wins / len(base)
        change = (hm - bm) / bm if bm else float("nan")
        worse = change if lower else -change
        spread = (b3 - b1) / bm if bm else float("inf")
        if len(base) >= 10 and won >= 0.9 and abs(hm - bm) > (b3 - b1):
            verdict = "gain"
        elif "bound" not in spec:
            verdict = "-"
        elif worse > spec["bound"]:
            verdict = "REGRESSION"
        elif spread > spec["bound"]:
            verdict = "unresolved (spread above bound)"
        else:
            verdict = "not worse"
        print("%-40s %-28s %-28s %+7.1f%% %5.0f%%  %s" % (
            name, "%.4g [%.4g, %.4g]" % (bm, b1, b3), "%.4g [%.4g, %.4g]" % (hm, h1, h3),
            100 * change, 100 * won, verdict))


if __name__ == "__main__":
    main()
