#!/usr/bin/env python3
"""Audit ctest labels against test names.

CI runs several suites by label (``ctest -L fuzz``, ``-L fleet``,
``-L fault``, ``-L snapshot``, ``-L serve``, ``-L security``), and ``ctest -L bench`` runs
the benchmark gate. A test that belongs to one of those families but was
registered without the label silently drops out of its suite — the suite stays green while covering less. This audit
walks the full test list (``ctest --show-only=json-v1``) and enforces:

  1. every test whose name or binary mentions fuzz/fleet/fault/soak/
     snapshot/serve/ringsimd/bench/security carries the corresponding
     label, and
  2. none of the labeled suites is empty.

Run by ctest itself as ``ctest_label_audit``; prints ``label audit: OK``
on success, one line per violation otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys

# token prefix -> required label
REQUIRED = {
    "fuzz": "fuzz",
    "fleet": "fleet",
    "fault": "fault",
    "soak": "fault",
    "snapshot": "snapshot",
    "serve": "serve",
    "ringsimd": "serve",  # daemon smoke tests belong to the serve suite
    "bench": "bench",
    "security": "security",
}


def tokens_of(text):
    return [t.lower() for t in re.split(r"[_.\-/]", text) if t]


def required_labels(test):
    toks = set(tokens_of(test["name"]))
    for part in test.get("command", []):
        base = os.path.basename(part)
        # Only the executable and script operands, not flag values.
        if not part.startswith("-"):
            toks.update(tokens_of(base))
    needed = set()
    for tok in toks:
        for prefix, label in REQUIRED.items():
            if tok.startswith(prefix):
                needed.add(label)
    return needed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ctest", default="ctest", help="ctest executable")
    parser.add_argument("--build-dir", required=True, help="CMake build directory")
    args = parser.parse_args()

    out = subprocess.run(
        [args.ctest, "--show-only=json-v1"],
        cwd=args.build_dir,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    tests = json.loads(out).get("tests", [])
    if not tests:
        print("label audit: no tests found in", args.build_dir)
        return 1

    suite_sizes = {label: 0 for label in set(REQUIRED.values())}
    violations = []
    for test in tests:
        labels = set()
        for prop in test.get("properties", []):
            if prop.get("name") == "LABELS":
                labels.update(prop.get("value", []))
        for label in labels:
            if label in suite_sizes:
                suite_sizes[label] += 1
        for label in sorted(required_labels(test)):
            if label not in labels:
                violations.append(
                    "test '%s' should carry label '%s' (has: %s)"
                    % (test["name"], label, sorted(labels) or "none")
                )

    for label, size in sorted(suite_sizes.items()):
        if size == 0:
            violations.append("label suite '%s' is empty" % label)

    if violations:
        for v in violations:
            print("label audit:", v)
        print("label audit: %d violation(s) in %d test(s)" % (len(violations), len(tests)))
        return 1

    print(
        "label audit: OK (%d tests; %s)"
        % (
            len(tests),
            ", ".join("%s=%d" % (label, n) for label, n in sorted(suite_sizes.items())),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
