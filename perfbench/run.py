#!/usr/bin/env python3
"""The repository benchmark: build the ledger program, run one workload, check it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_short --seed 1 --seconds 30 --trace 0

builds perfbench/ (CMake) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in its own process, prints a
human report, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace and a self-time table).
The exit code is 0 only when every operation matched its reference and,
on the default seed, the fingerprint fold and input digest match
perfbench/expected.json.

    python3 perfbench/run.py compare --base A1.json A2.json ... --new B1.json ...

compares records saved with --out: it refuses when the workload, seed or
host context differs or a record has a failed operation, and otherwise prints each end-to-end metric's medians against its
bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_short", "serve_images", "long_run")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def benchmark_spec():
    return load_json(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))


def build():
    """Configures (once) and builds the ledger; returns its path or None."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "ledger")


def run_ledger(binary, args, trace_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        # Set-up and reference runs take a few seconds; a traced run adds a
        # replay of its traced pass.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(170, 60 + 3 * args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: ledger timed out", file=sys.stderr)
        return None
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            record = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or record is None:
        print(f"perfbench: ledger exited {proc.returncode}", file=sys.stderr)
        return None
    return record


def check_expected(record, args):
    """Pins the default seed's simulation and inputs; returns error strings."""
    expected = load_json(os.path.join(HERE, "expected.json"))
    want = {}
    if args.scale == "full" and args.seed == expected["default_seed"]:
        want = expected["workloads"][args.workload]
    return [f"{key} {record[key]} != expected {value}"
            for key, value in want.items() if record[key] != value]


def report(record, names, errors):
    ctx = record["context"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"scale={record['scale']}")
    print(f"  host: nproc={ctx['nproc']} effective_parallelism={ctx['effective_parallelism']:.2f} "
          f"compiler='{ctx['compiler']}' build={ctx['build_type']} workers={ctx['workers']}")
    print(f"  fingerprint_fold={record['fingerprint_fold']} input_digest={record['input_digest']}")
    section = "per_layer" if record["trace"] else "end_to_end"
    label = "base" if record["trace"] else "samples"
    for name, m in record[section].items():
        gated = "" if name in names else "  (reported, not in BENCHMARK.json)"
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:12s} {label}={m['base']}{gated}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  fail_share {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for error in errors:
        print(f"  MISMATCH: {error}")


def run_workload(args):
    spec = benchmark_spec()
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[section]]
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    trace_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench-traces")
    record = run_ledger(binary, args, trace_dir)
    if record is None:
        return 2
    missing = [n for n in names if n not in record[section]]
    if missing:
        print(f"perfbench: ledger did not report {missing}", file=sys.stderr)
        return 2
    errors = check_expected(record, args)
    attempted = record["attempted"]
    failed = attempted if errors else record["failed"]
    report(record, names, errors)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(dict(record, mismatches=errors), f, indent=1)
    correct = failed == 0
    metrics = {n: {"value": record[section][n]["value"], "unit": record[section][n]["unit"]}
               for n in names}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def context_key(record):
    ctx = record["context"]
    return (record["workload"], record["seed"], record["scale"], record["trace"], ctx["nproc"],
            ctx["compiler"], ctx["build_type"], ctx["workers"])


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(args):
    base = [load_json(p) for p in args.base]
    new = [load_json(p) for p in args.new]
    invalid = [p for p, r in zip(args.base + args.new, base + new)
               if r["failed"] or r["mismatches"]]
    if invalid:
        print(f"perfbench compare: refusing, records with failed operations: {invalid}")
        return 2
    keys = {context_key(r) for r in base + new}
    if len(keys) != 1:
        print(f"perfbench compare: refusing, contexts differ: {sorted(keys)}")
        return 2
    if base[0]["trace"]:
        print("perfbench compare: compares untraced (--trace 0) records only")
        return 2
    par = [statistics.median(r["context"]["effective_parallelism"] for r in side)
           for side in (base, new)]
    if max(par) > 1.25 * min(par):
        print(f"perfbench compare: refusing, effective parallelism differs: {par[0]:.2f} vs "
              f"{par[1]:.2f}")
        return 2
    if len(base) < 4 or len(new) < 4:
        print("perfbench compare: needs at least 4 records a side")
        return 2
    spec = benchmark_spec()
    regressed = False
    # `worse` is the new median's change in the metric's bad direction, as a
    # share of the base median; `spread` is the base runs' quartile distance.
    print(f"{'metric':22s} {'base':>12s} {'new':>12s} {'worse':>8s} {'bound':>6s} "
          f"{'spread':>7s}  verdict")
    for m in spec["end_to_end"]:
        b = [r["end_to_end"][m["name"]]["value"] for r in base]
        n = [r["end_to_end"][m["name"]]["value"] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        worse = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
        s = spread(b)
        if worse > m["bound"]:
            verdict, regressed = "regressed beyond bound", True
        elif s > m["bound"]:
            verdict = "unresolved (spread > bound)"
        else:
            verdict = "within bound"
        print(f"{m['name']:22s} {mb:12.6g} {mn:12.6g} {worse:+8.1%} {m['bound']:6.2f} "
              f"{s:7.1%}  {verdict}")
    return 1 if regressed else 0


def main(argv):
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("--base", nargs="+", required=True)
        parser.add_argument("--new", nargs="+", required=True)
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", help="also write the full record (context, sample counts)")
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
