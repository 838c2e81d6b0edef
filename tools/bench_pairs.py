#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark, summarized.

Run from the root of a checkout; the working tree is the change:

    python3 tools/bench_pairs.py --parent HEAD~1 --workload serve_images \\
        --seed 8128 --pairs 10 --seconds 20 --out-dir .bench_build/pairs

exports the parent revision with `git archive` into OUT_DIR/parent-src,
builds perfbench/ for each side in its own CARGO_TARGET_DIR
(OUT_DIR/target-parent, OUT_DIR/target-change), and runs
`perfbench/run.py --trace 0` once per side per pair, the parent first in
even pairs and the change first in odd ones. Each record is saved with
--out as OUT_DIR/<side>-<pair>.json. Then, per end-to-end metric of
BENCHMARK.json, it prints each side's median [q1, q3], the pairs the change
won (ties count for neither), and whether the gain rule holds: at least
ten pairs, the change winning at least nine tenths of them, and the
medians differing in the better direction by more than the parent's
quartile distance. Under a metric the ledger scales to a reference host
speed, a `raw.<name>` row gives the same figures as measured, and flags
`disagree` when the scaled and raw metrics each have a majority winner
(a side that won more than half the pairs) and they differ. The raw row
decides nothing: the gain rule reads the scaled metric only. Last it runs
`perfbench/run.py compare` on the records.

    python3 tools/bench_pairs.py summarize --out-dir OUT_DIR

prints the same summary and compare for records saved earlier.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def pair_order(pairs):
    """The run order of each pair: the parent first in even pairs."""
    return [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]


def quartiles(values):
    """(median, q1, q3), with the quartiles perfbench/run.py compare uses."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[0], q[2]


def compare_sides(name, unit, sign, p, c):
    """Each side's (median, q1, q3) of one metric and the pairs each won.

    `sign` is 1 when higher is better and -1 when lower is; ties count for
    neither side.
    """
    return {"name": name, "unit": unit, "parent": quartiles(p), "change": quartiles(c),
            "won": sum(1 for a, b in zip(p, c) if sign * (b - a) > 0),
            "lost": sum(1 for a, b in zip(p, c) if sign * (a - b) > 0), "pairs": len(p)}


def majority(row):
    """The side that won more than half of `row`'s pairs, or None."""
    for side, won in (("change", row["won"]), ("parent", row["lost"])):
        if 2 * won > row["pairs"]:
            return side
    return None


def summarize(metrics, parent, change):
    """Rows for the end-to-end metrics of `metrics` (BENCHMARK.json's list).

    `parent` and `change` are records in pair order. A row holds each
    side's (median, q1, q3), the pairs the change won, the pairs compared,
    and whether the gain rule holds. A metric whose records also carry
    `raw.<name>` is followed by a row for it, whose `holds` is None and
    whose `disagree` says whether its majority winner and the scaled
    metric's are both set and differ.
    """
    pairs = min(len(parent), len(change))
    parent, change = parent[:pairs], change[:pairs]

    def values(records, name):
        return [r["end_to_end"][name]["value"] for r in records]

    rows = []
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        row = compare_sides(m["name"], m["unit"], sign, values(parent, m["name"]),
                            values(change, m["name"]))
        pq, cq = row["parent"], row["change"]
        gain = sign * (cq[0] - pq[0])
        row["holds"] = pairs >= 10 and row["won"] >= 0.9 * pairs and gain > pq[2] - pq[1]
        rows.append(row)
        raw = "raw." + m["name"]
        if all(raw in r["end_to_end"] for r in parent + change):
            raw_row = compare_sides(raw, m["unit"], sign, values(parent, raw),
                                    values(change, raw))
            raw_row["holds"] = None
            winners = (majority(row), majority(raw_row))
            raw_row["disagree"] = None not in winners and winners[0] != winners[1]
            rows.append(raw_row)
    return rows


def print_summary(rows):
    print(f"{'metric':24s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'won':>7s}  gain rule")
    for row in rows:
        sides = ["{:.6g} [{:.6g}, {:.6g}]".format(*row[s]) for s in SIDES]
        if row["holds"] is None:
            verdict = "disagree" if row["disagree"] else "-"
        else:
            verdict = "holds" if row["holds"] else "no"
        print(f"{row['name']:24s} {sides[0]:>34s} {sides[1]:>34s} "
              f"{row['won']:>3d}/{row['pairs']:<3d}  {verdict}")


def records(out_dir, side):
    paths = glob.glob(os.path.join(out_dir, f"{side}-*.json"))
    paths.sort(key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0]))
    return paths


def report(out_dir):
    parent, change = records(out_dir, "parent"), records(out_dir, "change")
    if not parent or not change:
        print(f"bench_pairs: no records in {out_dir}", file=sys.stderr)
        return 2
    metrics = load_json(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    print_summary(summarize(metrics, [load_json(p) for p in parent],
                            [load_json(p) for p in change]))
    compare = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "compare",
               "--base", *parent, "--new", *change]
    result = subprocess.run(compare, stdout=subprocess.PIPE, text=True)
    print(result.stdout, end="")
    return result.returncode


def export_parent(rev, dest):
    """Writes `rev`'s tree to `dest` with git archive; returns the commit."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    stamp = os.path.join(dest, ".bench_pairs_rev")
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return sha
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {sha} failed")
    with open(stamp, "w") as f:
        f.write(sha)
    return sha


def run_side(root, target, args, out):
    """One perfbench run of the checkout at `root`; returns its exit code."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    if out is not None:
        cmd += ["--out", out]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL).returncode


def run_pairs(args):
    out_dir = os.path.abspath(args.out_dir)
    roots = {"parent": os.path.join(out_dir, "parent-src"), "change": ROOT}
    targets = {side: os.path.join(out_dir, f"target-{side}") for side in SIDES}
    sha = export_parent(args.parent, roots["parent"])
    print(f"bench_pairs: parent {sha}, change {ROOT}, {args.workload} seed {args.seed}, "
          f"{args.pairs} pairs of {args.seconds} s")
    for path in records(out_dir, "parent") + records(out_dir, "change"):
        os.remove(path)
    # An untimed warm-up run per side builds its ledger, so no build
    # lands between the timed runs.
    for side in SIDES:
        args_warm = argparse.Namespace(**dict(vars(args), seconds=1))
        if run_side(roots[side], targets[side], args_warm, None) != 0:
            print(f"bench_pairs: {side} did not build or run", file=sys.stderr)
            return 2
    for i, order in enumerate(pair_order(args.pairs)):
        for side in order:
            out = os.path.join(out_dir, f"{side}-{i}.json")
            code = run_side(roots[side], targets[side], args, out)
            value = ""
            if os.path.exists(out):
                e2e = load_json(out)["end_to_end"]
                value = " ".join(f"{k}={v['value']:.6g}" for k, v in e2e.items())
            print(f"pair {i} {side}: exit {code} {value}", flush=True)
    return report(out_dir)


def main(argv):
    if argv[:1] == ["summarize"]:
        parser = argparse.ArgumentParser(prog="bench_pairs.py summarize")
        parser.add_argument("--out-dir", required=True)
        return report(parser.parse_args(argv[1:]).out_dir)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out-dir", default=os.path.join(".bench_build", "pairs"))
    return run_pairs(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
