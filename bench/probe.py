"""Set-up probe: a fresh interpreter imports eklc.cli and runs the warm-up job.

    python3 bench/probe.py JOB.json

JOB.json holds a list of eklc argument lists. `run.py` times this whole
process for its `setup_s` metric.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import eklc.cli  # noqa: E402,F401  (the import is what is being timed)
from workloads import call_cli  # noqa: E402

with open(sys.argv[1]) as f:
    for argv in json.load(f):
        call_cli(argv)
