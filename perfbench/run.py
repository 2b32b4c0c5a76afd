#!/usr/bin/env python3
"""Eden egress benchmark: build, run one workload, or compare two result sets.

Run one workload (from the repository root):

    python3 perfbench/run.py --workload managed_churn --seed 1 --seconds 10 --trace 0

builds perfbench/ (a CMake package over ../src) into $CARGO_TARGET_DIR or
.bench_build/, runs the egress_bench binary and relays its output, whose last
line is the result object. Every result, with the machine fingerprint, is also
saved under .bench_results/.

Compare a parent and a change result set:

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

prints, per workload and end-to-end metric, the median and quartiles of both
sides, the fraction of seed-paired runs the change wins, and a verdict, using
the bounds in BENCHMARK.json.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "egress_bench",
                  "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "egress_bench")


def source_id():
    """The git commit if the checkout has one, else a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run(args):
    binary = build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", source_id()]
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    result = detail = None
    for line in lines:
        if line.startswith("DETAIL "):
            detail = json.loads(line[len("DETAIL "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if result is None:
        sys.stdout.write(proc.stdout)
        print(f"benchmark exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 4
    with open(stem + ".json", "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def load_results(directory):
    """workload -> list of (seed, metrics) from untraced result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path) as f:
            r = json.load(f)
        detail = r.get("detail") or {}
        if detail.get("trace") != 0:
            continue
        seed = detail.get("fingerprint", {}).get("seed")
        metrics = {k: v["value"] for k, v in r["result"]["metrics"].items()}
        out.setdefault(detail["workload"], []).append((seed, metrics))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound, wins, pairs):
    """better / worse / unchanged / unresolved, with the guide's rules."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm) / pm  # > 0: the change is worse
    spread = max((p3 - p1) / pm, (c3 - c1) / cm if cm else 0.0)
    if better == "lower":
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    else:
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    if pairs and wins / pairs >= 0.9 and worse_by < 0 and abs(cm - pm) > p3 - p1:
        return "better"
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "unchanged"


def compare(parent_dir, change_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parent, change = load_results(parent_dir), load_results(change_dir)
    rows = []
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        for m in bench["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            p = [x[name] for _, x in parent[workload] if name in x]
            c = [x[name] for _, x in change[workload] if name in x]
            if not p or not c:
                continue
            ps = {s: x[name] for s, x in parent[workload] if name in x}
            cs = {s: x[name] for s, x in change[workload] if name in x}
            seeds = sorted(set(ps) & set(cs), key=str)
            if seeds:
                pairs = [(ps[s], cs[s]) for s in seeds]
            else:
                pairs = list(zip(p, c))
            wins = sum(1 for a, b in pairs
                       if (b < a if better == "lower" else b > a))
            v = verdict(p, c, better, bound, wins, len(pairs))
            regressions += v == "worse"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            rows.append((workload, name, f"{pm:.6g} [{p1:.6g}, {p3:.6g}]",
                         f"{cm:.6g} [{c1:.6g}, {c3:.6g}]",
                         f"{wins}/{len(pairs)}", v))
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "wins", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(6)]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    return 1 if regressions else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        a = ap.parse_args(sys.argv[2:])
        return compare(a.parent, a.change)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
