#!/usr/bin/env python3
"""Checks the worst audit divergence an itree-served exit report attests.

usage: check_audit.py SERVED_LOG BOUND

The exit report is the log's last line (one JSON object); its
"worst_audit_divergence" is printed exactly (shortest round-trip form).
Exits 0 when it is below BOUND, 1 otherwise.
"""
import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as log:
        report = json.loads(log.read().splitlines()[-1])
    worst = report["worst_audit_divergence"]
    bound = float(sys.argv[2])
    if not worst < bound:
        print(f"worst audit divergence {worst!r} is not below {bound!r}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
