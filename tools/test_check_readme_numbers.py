#!/usr/bin/env python3
"""Shows that check_readme_numbers.py fails on a doctored README: each
figure it checks is altered in turn (its last digit bumped, the ISA
renamed), and each alteration must be reported under that figure's name; a
deleted passage must be reported too. The undoctored README must pass.

usage: python3 tools/test_check_readme_numbers.py README.md BENCH_perf.json \
           BENCH_stream.json
"""
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_readme_numbers as check  # noqa: E402

PATHS = {}


def doctor(text):
    """`text` with its last digit bumped, or a different ISA name."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    return "NEON" if text != "NEON" else "AVX2"


class DoctoredReadme(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.readme = Path(PATHS["readme"]).read_text(encoding="utf-8")
        cls.perf = json.loads(Path(PATHS["perf"]).read_text())
        cls.stream = json.loads(Path(PATHS["stream"]).read_text())

    def test_readme_as_committed_passes(self):
        self.assertEqual(check.mismatches(self.readme, self.perf, self.stream),
                         [])

    def test_every_doctored_figure_is_reported(self):
        found = check.figures(self.readme)
        self.assertGreaterEqual(len(found), 13)
        for name, printed, start in found:
            with self.subTest(figure=name):
                altered = doctor(printed)
                readme = (self.readme[:start] + altered +
                          self.readme[start + len(printed):])
                problems = check.mismatches(readme, self.perf, self.stream)
                self.assertEqual(len(problems), 1, problems)
                self.assertTrue(problems[0].startswith(name + ":"), problems)

    def test_a_deleted_passage_is_reported(self):
        readme = self.readme.replace("| stats kernels (per kernel)", "| kernels")
        problems = check.mismatches(readme, self.perf, self.stream)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("no longer matches", problems[0])


if __name__ == "__main__":
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    PATHS.update(readme=sys.argv[1], perf=sys.argv[2], stream=sys.argv[3])
    unittest.main(argv=sys.argv[:1])
