#!/usr/bin/env python3
"""Fails when a number README.md quotes from a benchmark file disagrees with
that file after rounding as README prints it.

usage: python3 tools/check_readme_numbers.py README.md BENCH_perf.json \
           BENCH_stream.json

Checks the "Performance at a glance" table against BENCH_perf.json (scale,
CSV and .fac bytes, save and load times, both speed-ups, the ISA and the
kernel speed-up range) and the scale-8 load peak against BENCH_stream.json.
A figure README no longer quotes in the expected wording counts as a
mismatch too, so rewording the text means updating this check. Exit 0 when
every figure matches, 1 otherwise (each mismatch on stderr), 2 on bad usage.
"""
import json
import re
import sys

# One pattern per README passage; each named group is one quoted figure.
PASSAGES = [
    r"At scale (?P<scale>[\d.]+) \(`perf_toolkit --scale",
    r"\| trace save \((?P<csv_mb>[\d.]+) MB CSV, (?P<fac_mb>[\d.]+) MB "
    r"`\.fac`\) \| CSV (?P<csv_save_ms>[\d.]+) ms \| columnar `\.fac` "
    r"(?P<fac_save_ms>[\d.]+) ms \| (?P<save_speedup>[\d.]+)× \|",
    r"\| trace load \| CSV (?P<csv_load_ms>[\d.]+) ms \| columnar `\.fac` "
    r"(?P<fac_load_ms>[\d.]+) ms \| (?P<load_speedup>[\d.]+)× \|",
    r"\| stats kernels \(per kernel\) \| scalar \| (?P<isa>\w+) \| "
    r"(?P<kernel_min>[\d.]+)–(?P<kernel_max>[\d.]+)× \|",
    r"peaks at (?P<load_peak_kb>[\d,]+) KB of\s+RSS \(`BENCH_stream\.json`",
]


def file_values(perf, stream):
    """The value behind each figure, as the benchmark files hold it."""
    io = perf["io"]
    speedups = [k["speedup"] for k in perf["simd"]["kernels"]]
    return {
        "scale": perf["scale"],
        "csv_mb": io["csv_bytes"] / 1e6,
        "fac_mb": io["columnar_bytes"] / 1e6,
        "csv_save_ms": io["csv_save_ms"],
        "fac_save_ms": io["columnar_save_ms"],
        "save_speedup": io["csv_save_ms"] / io["columnar_save_ms"],
        "csv_load_ms": io["csv_load_ms"],
        "fac_load_ms": io["columnar_load_ms"],
        "load_speedup": io["load_speedup"],
        "isa": perf["simd"]["dispatch"].upper(),
        "kernel_min": min(speedups),
        "kernel_max": max(speedups),
        "load_peak_kb": stream["rss_after_load_kb"],
    }


def as_printed(value, printed):
    """`value` rounded to the decimals of `printed`, in its digit style."""
    if isinstance(value, str):
        return value
    digits = printed.replace(",", "")
    decimals = len(digits.split(".")[1]) if "." in digits else 0
    text = f"{value:.{decimals}f}"
    return f"{float(text):,.{decimals}f}" if "," in printed else text


def figures(readme):
    """(name, printed text, start offset) of every figure README quotes."""
    found = []
    for passage in PASSAGES:
        match = re.search(passage, readme)
        if match is None:
            found.append((passage, None, None))
            continue
        for name, text in match.groupdict().items():
            found.append((name, text, match.start(name)))
    return found


def mismatches(readme, perf, stream):
    values = file_values(perf, stream)
    problems = []
    for name, printed, _ in figures(readme):
        if printed is None:
            problems.append(f"README no longer matches /{name}/")
            continue
        want = as_printed(values[name], printed)
        if printed != want:
            problems.append(f"{name}: README says {printed}, the benchmark "
                            f"file gives {want} ({values[name]!r})")
    return problems


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        readme = f.read()
    with open(argv[2], encoding="utf-8") as f:
        perf = json.load(f)
    with open(argv[3], encoding="utf-8") as f:
        stream = json.load(f)
    problems = mismatches(readme, perf, stream)
    for p in problems:
        print(f"{argv[1]}: {p}", file=sys.stderr)
    if not problems:
        print(f"{argv[1]}: {len(figures(readme))} benchmark figures match "
              f"{argv[2]} and {argv[3]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
