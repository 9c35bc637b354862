#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json artifacts (standard library only).

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--report FILE]
                   [--allow-incomparable]

Compares a freshly produced bench artifact (BENCH_perf.json or the
extracted BENCH_detect.json) against a baseline and fails on regressions:

  * booleans        — a correctness flag must not go true -> false
                      (parallel_identical_to_serial, roundtrip_identical,
                      out_of_core_matches, ...).
  * precision /     — must not drop more than 0.05 below the baseline
    recall            (needs a matching "scale" guard).
  * median_latency_days — must not grow more than 7 days past the baseline.
  * *_ms scalars    — must stay under baseline * 1.6 + 50 ms
                      (needs matching "scale" and hardware guards).
  * events_per_sec  — must stay above baseline / 1.6 (same guards).
  * everything else — informational only (counts, speedups, arrays).

A gated leaf (one of the rules above) that the baseline has and the
current file lacks is a regression: a deleted block must not pass the gate
by checking fewer rules.

Guards: each JSON object level may carry "scale", "hardware_concurrency"
and "single_core_warning"; nested values override inherited ones. When a
guard differs between the two files, the rules that depend on it are
skipped as incomparable rather than failing — timing on a different
machine is noise, not a regression. A top-level guard mismatch aborts with
exit 2 unless --allow-incomparable is given (then only guard-free rules,
like correctness booleans and detection quality at matching scale, run).

--report FILE writes a markdown table of every compared metric.

Exit status: 0 all rules pass, 1 at least one regression, 2 top-level
guard mismatch without --allow-incomparable.
"""

import argparse
import json
import sys

GUARD_KEYS = ("scale", "hardware_concurrency", "single_core_warning")

# Tolerances. Wall-clock on shared CI runners is noisy; 1.6x + 50 ms slack
# catches order-of-magnitude regressions without flaking on scheduler jitter.
TIME_RATIO = 1.6
TIME_SLACK_MS = 50.0
QUALITY_DROP = 0.05
LATENCY_SLACK_DAYS = 7.0

OK, REGRESSION, SKIPPED, INFO = "ok", "REGRESSION", "skipped", "info"


def walk(node, guards, path, out):
    """Flattens `node` into (path, value, effective-guards) leaf rows."""
    if isinstance(node, dict):
        level = dict(guards)
        for key in GUARD_KEYS:
            if key in node:
                level[key] = node[key]
        for key, value in node.items():
            walk(value, level, f"{path}.{key}" if path else key, out)
    else:
        out[path] = (node, guards)


def fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, list):
        return "[...]"
    return str(value)


class Row:
    def __init__(self, path, base, cur, rule, status, note=""):
        self.path, self.base, self.cur = path, base, cur
        self.rule, self.status, self.note = rule, status, note


def guards_match(base_guards, cur_guards, keys):
    return all(base_guards.get(k) == cur_guards.get(k) for k in keys)


def compare_leaf(path, base, cur, base_guards, cur_guards):
    """Applies the rule for one leaf; returns a Row."""
    key = path.rsplit(".", 1)[-1]

    if isinstance(base, bool) or isinstance(cur, bool):
        if base is True and cur is False:
            return Row(path, base, cur, "must stay true", REGRESSION)
        return Row(path, base, cur, "must stay true", OK)

    if isinstance(base, str) or isinstance(cur, str):
        status = OK if base == cur else INFO
        return Row(path, base, cur, "informational", status)

    if isinstance(base, list) or isinstance(cur, list):
        return Row(path, base, cur, "informational", INFO)

    if key in ("precision", "recall"):
        rule = f">= baseline - {QUALITY_DROP}"
        if not guards_match(base_guards, cur_guards, ("scale",)):
            return Row(path, base, cur, rule, SKIPPED, "scale differs")
        status = OK if cur >= base - QUALITY_DROP else REGRESSION
        return Row(path, base, cur, rule, status)

    if key == "median_latency_days":
        rule = f"<= baseline + {LATENCY_SLACK_DAYS:g}d"
        if not guards_match(base_guards, cur_guards, ("scale",)):
            return Row(path, base, cur, rule, SKIPPED, "scale differs")
        status = OK if cur <= base + LATENCY_SLACK_DAYS else REGRESSION
        return Row(path, base, cur, rule, status)

    if key.endswith("_ms") or key == "events_per_sec":
        faster = key == "events_per_sec"
        rule = (f">= baseline / {TIME_RATIO}" if faster
                else f"<= baseline * {TIME_RATIO} + {TIME_SLACK_MS:g}ms")
        if not guards_match(base_guards, cur_guards, GUARD_KEYS):
            return Row(path, base, cur, rule, SKIPPED, "host/scale differs")
        if faster:
            status = OK if cur >= base / TIME_RATIO else REGRESSION
        else:
            status = OK if cur <= base * TIME_RATIO + TIME_SLACK_MS \
                else REGRESSION
        return Row(path, base, cur, rule, status)

    return Row(path, base, cur, "informational", INFO)


def compare(baseline, current, allow_incomparable):
    """Returns (rows, exit_code)."""
    top_base = {k: baseline[k] for k in GUARD_KEYS if k in baseline}
    top_cur = {k: current[k] for k in GUARD_KEYS if k in current}
    shared = set(top_base) & set(top_cur)
    mismatched = sorted(k for k in shared if top_base[k] != top_cur[k])
    if mismatched and not allow_incomparable:
        for k in mismatched:
            sys.stderr.write(f"incomparable: top-level {k} differs "
                             f"({top_base[k]!r} vs {top_cur[k]!r}); "
                             "re-run with --allow-incomparable to compare "
                             "only host-independent rules\n")
        return [], 2

    base_leaves, cur_leaves = {}, {}
    walk(baseline, {}, "", base_leaves)
    walk(current, {}, "", cur_leaves)

    rows = []
    for path in sorted(set(base_leaves) | set(cur_leaves)):
        if path.rsplit(".", 1)[-1] in GUARD_KEYS:
            continue  # guards are context, not metrics
        if path not in cur_leaves:
            base, guards = base_leaves[path]
            # A leaf is gated when its rule, applied to itself, is not
            # informational.
            if compare_leaf(path, base, base, guards, guards).rule \
                    != "informational":
                rows.append(Row(path, base, None, "must be present",
                                REGRESSION, "missing in current"))
            else:
                rows.append(Row(path, base, None, "informational", INFO,
                                "missing in current"))
            continue
        if path not in base_leaves:
            rows.append(Row(path, None, cur_leaves[path][0],
                            "informational", INFO, "new metric"))
            continue
        base, base_guards = base_leaves[path]
        cur, cur_guards = cur_leaves[path]
        rows.append(compare_leaf(path, base, cur, base_guards, cur_guards))

    code = 1 if any(r.status == REGRESSION for r in rows) else 0
    return rows, code


def markdown_report(rows, baseline_path, current_path):
    lines = ["# Bench comparison", "",
             f"baseline: `{baseline_path}`  ", f"current: `{current_path}`",
             "", "| metric | baseline | current | delta | rule | status |",
             "|---|---|---|---|---|---|"]
    for r in rows:
        delta = ""
        if isinstance(r.base, (int, float)) and \
                isinstance(r.cur, (int, float)) and \
                not isinstance(r.base, bool) and not isinstance(r.cur, bool):
            delta = f"{r.cur - r.base:+g}"
        status = r.status if not r.note else f"{r.status} ({r.note})"
        lines.append(f"| {r.path} | {fmt(r.base)} | {fmt(r.cur)} | {delta} "
                     f"| {r.rule} | {status} |")
    regressions = sum(r.status == REGRESSION for r in rows)
    checked = sum(r.status in (OK, REGRESSION) and r.rule != "informational"
                  for r in rows)
    lines += ["", f"{checked} rules checked, {regressions} regression(s)."]
    return "\n".join(lines) + "\n"


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"{path}: {e}\n")
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--report", metavar="FILE",
                        help="write a markdown comparison table to FILE")
    parser.add_argument("--allow-incomparable", action="store_true",
                        help="do not abort on a top-level guard mismatch; "
                             "skip host-dependent rules instead")
    args = parser.parse_args()

    rows, code = compare(load(args.baseline), load(args.current),
                         args.allow_incomparable)
    if code == 2:
        return 2

    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(markdown_report(rows, args.baseline, args.current))

    for r in rows:
        if r.status == REGRESSION:
            sys.stderr.write(f"REGRESSION {r.path}: baseline {fmt(r.base)} "
                             f"-> current {fmt(r.cur)} (rule: {r.rule})\n")
    skipped = sum(r.status == SKIPPED for r in rows)
    checked = sum(r.status in (OK, REGRESSION) and r.rule != "informational"
                  for r in rows)
    regressions = sum(r.status == REGRESSION for r in rows)
    print(f"bench_compare: {checked} rules checked, {skipped} skipped, "
          f"{regressions} regression(s)")
    return code


if __name__ == "__main__":
    sys.exit(main())
