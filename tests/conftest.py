from __future__ import annotations

import os
import sys

from hypothesis import Phase, settings

# Every run draws the same examples, and a slow phase of the machine cannot
# fail a test on Hypothesis' per-example deadline. The explain phase, which
# only annotates a failing example, is skipped: it made a failure take
# minutes to report.
settings.register_profile(
    "eklc",
    derandomize=True,
    deadline=None,
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("eklc")

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
CORPUS_DIR = os.path.join(REPO_ROOT, "corpus")

if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)


def corpus_path(*parts: str) -> str:
    return os.path.join(CORPUS_DIR, *parts)


def corpus_source(*parts: str) -> str:
    with open(corpus_path(*parts)) as f:
        return f.read()
