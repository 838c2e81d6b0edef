#!/usr/bin/env python3
"""Simulated-cost gate for the ring-hardware simulator's benchmarks.

The gate compares *simulated* per-operation costs — benchmark counters
prefixed ``sim_`` (e.g. ``sim_cycles_per_call`` from bench_fig8_call,
``sim_cycles_per_return`` from bench_fig9_return, ``sim_cycles`` /
``sim_page_walks`` from the paged workloads in
bench_paging and bench_filesearch, and the aggregate counters and
fingerprint folds of bench_fleet and bench_serve). These are deterministic
properties of the simulated machine's cycle model, so they must match the
committed baseline exactly (up to float formatting); any drift means the
change altered the cost of a ring crossing or a paged reference and must
either be fixed or acknowledged by regenerating the baseline. Host time is
not gated here.

Two invariances are checked across every loaded result, independent of
the baseline, so they cover rows the baseline does not list:

* Engine rows. Every gated benchmark runs once per host engine tier
  (src/cpu/cpu.h's kEngineTiers, the one list of tiers), named with the
  tier's suffix (bench/bench_util.h's BenchSuffix): ``_No`` and the layer
  it turns off (e.g. ``_NoBlockEngine``) right before the first ``/``, none for
  the default tier.
  Names that differ only in that suffix must report identical ``sim_*``
  counters: no host-side layer may change simulated cost. No row, the
  reference row included, is exempt from any counter.
* Thread counts. Names that differ only in a ``threads:N`` argument (the
  fleet and serving benchmarks) must report identical ``sim_*``
  counters: thread count may change host throughput but never a
  simulated result.

Usage:

  # The gate: the bench_sim_gate ctest runs the six gated binaries once
  # each and checks their results against the committed baseline.
  ctest --test-dir build -R bench_sim_gate --output-on-failure

  # Regenerate the baseline after an *intentional* cycle-model change.
  # The gate leaves one result file per binary in
  # build/tools/bench_sim_gate/, pass or fail:
  tools/bench_check.py update --baseline BENCH_baseline.json \\
      build/tools/bench_sim_gate/*.json

``update`` baselines every result that has ``sim_*`` counters: every
engine row and thread count of every gated benchmark. The committed
baseline lists a hand-picked subset of those names (the invariance checks
above hold the remaining rows to the same values), so a regeneration
grows it to the full set; both shapes gate the same values. ``update``
refuses (exit 1) when a benchmark in the current baseline is missing from
the results, so a partial run cannot shrink the gate.

Exit status: 0 on pass, 1 on drift, missing benchmarks or a refused
update, 2 on bad input.
"""

import argparse
import json
import os
import re
import sys

# Relative tolerance for comparing simulated costs. The values are
# deterministic; the tolerance only absorbs double formatting round trips
# through JSON.
REL_TOLERANCE = 1e-9

# A non-default engine tier's benchmark-name suffix, matched on the part of
# the name before its first "/". src/cpu/cpu.h's kEngineTiers is the one
# list of tiers; this only knows their naming rule.
ENGINE_SUFFIX = re.compile(r"_No[A-Za-z]+$")


def bad_input(message):
    print(f"bench_check: {message}", file=sys.stderr)
    sys.exit(2)


def load_results(paths):
    """Merge google-benchmark JSON files into {name: {sim counter: value}}.

    Also returns {name: {"source": json_path, "executable": binary}} so a
    failing gate can print the exact command that reruns just that
    benchmark ("executable" comes from the google-benchmark context block;
    it is None for hand-written JSON).
    """
    merged = {}
    origins = {}
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, ValueError) as e:
            bad_input(f"cannot read {path}: {e}")
        context = data.get("context", {})
        executable = context.get("executable") if isinstance(context, dict) else None
        benches = data.get("benchmarks", [])
        if not isinstance(benches, list):
            bad_input(f'{path}: "benchmarks" is not a list')
        for i, bench in enumerate(benches):
            if not isinstance(bench, dict):
                bad_input(f"{path}: benchmark entry #{i} is not an object")
            # Skip mean/median/stddev rows from --benchmark_repetitions.
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            if not isinstance(name, str):
                bad_input(f'{path}: benchmark entry #{i} has no "name" key')
            merged[name] = {k: v for k, v in bench.items() if k.startswith("sim_")}
            origins[name] = {"source": path, "executable": executable}
    return merged, origins


def load_baseline(path):
    try:
        with open(path) as f:
            baseline = json.load(f)["benchmarks"]
    except (OSError, ValueError, KeyError) as e:
        bad_input(f"cannot read baseline {path}: {e}")
    if not isinstance(baseline, dict):
        bad_input(f'baseline {path}: "benchmarks" must map benchmark names to counter objects')
    for name, expected in sorted(baseline.items()):
        if not isinstance(expected, dict):
            bad_input(
                f'baseline {path}: entry "{name}" must be an object of counters'
                " (regenerate with tools/bench_check.py update)"
            )
        for counter, value in sorted(expected.items()):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                bad_input(f'baseline {path}: "{name}" counter "{counter}" is not a number'
                          f" (got {value!r})")
    return baseline


def rerun_commands(failing_names, origins, baseline_path):
    """Build the copy-pasteable rerun lines for a set of failing gates."""
    lines = []
    by_exe = {}
    for name in sorted(failing_names):
        origin = origins.get(name)
        if origin is None:
            lines.append(
                f"  (no result file produced {name}; rerun the full suite —"
                " see tools/bench_check.py --help)"
            )
            continue
        exe = origin["executable"] or f"<the benchmark binary behind {origin['source']}>"
        by_exe.setdefault(exe, []).append(name)
    for exe, names in sorted(by_exe.items()):
        pattern = "|".join(re.escape(n) for n in names)
        lines.append(f"  {exe} --benchmark_filter='^({pattern})$'")
    lines.append(
        f"  python3 tools/bench_check.py check --baseline {baseline_path}"
        " <result.json ...>   # full gate"
    )
    return lines


def drifted(baseline_value, pr_value):
    scale = max(abs(baseline_value), abs(pr_value), 1.0)
    return abs(baseline_value - pr_value) > REL_TOLERANCE * scale


def engine_suffix(name):
    match = ENGINE_SUFFIX.search(name.partition("/")[0])
    return match.group(0) if match else ""


def engine_group(name):
    """The name with its engine-row suffix removed (every name has a row)."""
    base, sep, rest = name.partition("/")
    return base[: len(base) - len(engine_suffix(name))] + sep + rest


def thread_group(name):
    """The name with threads:N wildcarded, or None if it has no thread count."""
    key = re.sub(r"threads:\d+", "threads:*", name)
    return key if key != name else None


def check_invariance(results, group_of, varies_with):
    """sim_* counters must be identical within each group of benchmarks.

    `group_of` maps a benchmark name to its group key (None: no group).
    Returns the failure lines (empty when the invariant holds)
    and the set of benchmark names involved in a failure.
    """
    groups = {}
    for name, sim in sorted(results.items()):
        key = group_of(name)
        if key is not None:
            groups.setdefault(key, []).append((name, sim))
    failures = []
    failing_names = set()
    for key, members in sorted(groups.items()):
        if len(members) < 2:
            continue
        counters = set().union(*(sim for _, sim in members))
        group_failures = []
        for counter in sorted(counters):
            values = {n: sim.get(counter) for n, sim in members}
            if len(set(values.values())) <= 1:
                continue
            detail = ", ".join(f"{n}={v!r}" for n, v in sorted(values.items()))
            group_failures.append(f"  {key}: {counter} varies with {varies_with} ({detail})")
            failing_names.update(values)
        if group_failures:
            failures += group_failures
        else:
            print(
                f"ok: {key}: {len(counters)} sim counter(s) invariant across"
                f" {len(members)} {varies_with} variant(s)"
            )
    return failures, failing_names


def cmd_check(args):
    baseline = load_baseline(args.baseline)
    results, origins = load_results(args.results)

    failures, failing_names = check_invariance(results, thread_group, "thread count")
    engine_failures, engine_failing = check_invariance(results, engine_group, "engine row")
    failures += engine_failures
    failing_names |= engine_failing
    for name, expected in sorted(baseline.items()):
        got = results.get(name)
        if got is None:
            failures.append(f"  {name}: benchmark missing from results")
            failing_names.add(name)
            continue
        for counter, expected_value in sorted(expected.items()):
            actual = got.get(counter)
            if actual is None:
                failures.append(f"  {name}: counter {counter} missing")
                failing_names.add(name)
            elif drifted(expected_value, actual):
                failures.append(
                    f"  {name}: {counter} drifted: baseline {expected_value!r}"
                    f" vs result {actual!r}"
                )
                failing_names.add(name)
            else:
                print(f"ok: {name}: {counter} = {actual}")

    if failures:
        print("\nbench_check: simulated-cost drift detected:", file=sys.stderr)
        for line in failures:
            print(line, file=sys.stderr)
        print("\nTo rerun just the failing gate(s) locally:", file=sys.stderr)
        for line in rerun_commands(failing_names, origins, args.baseline):
            print(line, file=sys.stderr)
        print(
            "\nIf the drift is an intentional cycle-model change, regenerate the\n"
            "baseline (see tools/bench_check.py --help) and commit it with the\n"
            "change that explains it.",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench_check: {len(baseline)} baselined benchmark(s) match; every engine row"
        f" and thread count of {len(results)} result(s) agrees"
    )
    return 0


def cmd_update(args):
    results, _ = load_results(args.results)
    current = load_baseline(args.baseline) if os.path.exists(args.baseline) else {}
    missing = sorted(set(current) - set(results))
    if missing:
        print(
            f"bench_check: refusing to update {args.baseline}: these baselined"
            " benchmark(s) are missing from the results (run the whole gate, see"
            " --help):",
            file=sys.stderr,
        )
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        return 1
    benchmarks = {name: sim for name, sim in sorted(results.items()) if sim}
    if not benchmarks:
        bad_input("no sim_* counters found; nothing to baseline")
    payload = {
        "comment": (
            "Deterministic simulated-cost baseline for the bench_sim_gate ctest. "
            "Values are simulated cycles, instructions and counters; benchmarks "
            "whose names differ only in the engine-row suffix or in threads:N must "
            "report the same values, which tools/bench_check.py checks for every "
            "row, baselined or not. "
            "Regenerate with tools/bench_check.py update (see its --help)."
        ),
        "benchmarks": benchmarks,
    }
    with open(args.baseline, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_check: wrote {args.baseline} with {len(benchmarks)} benchmark(s)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="compare results against the baseline")
    check.add_argument("--baseline", required=True)
    check.add_argument("results", nargs="+", help="google-benchmark JSON files")
    check.set_defaults(func=cmd_check)

    update = sub.add_parser("update", help="regenerate the baseline")
    update.add_argument("--baseline", required=True)
    update.add_argument("results", nargs="+", help="google-benchmark JSON files")
    update.set_defaults(func=cmd_update)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
