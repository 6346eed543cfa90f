"""Set-up probe: runs lpgrad's command line up to its first estimate.

Run from the repository root with the arguments a user would type:

    python3 perfbench/probe.py table --name t4 --reps 2 --seed 1 --out probe.csv

Puts ./src first on the import path, replaces
``lpgrad.bench.estimate_gradient`` with a stub that prints
``time.monotonic()`` and exits at once, and calls ``lpgrad.cli.main``.
It imports nothing else, so a parent that notes ``time.monotonic()``
before spawning it measures lpgrad's own set-up: interpreter start,
imports, argument parsing, spec, metric, expression and reference
gradient. Exits 1 if no estimate is reached.
"""
import os
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import lpgrad.bench  # noqa: E402
import lpgrad.cli  # noqa: E402


def first_estimate(*args, **kwargs):
    sys.stdout.write(f"{time.monotonic()!r}\n")
    sys.stdout.flush()
    os._exit(0)


lpgrad.bench.estimate_gradient = first_estimate
lpgrad.cli.main(sys.argv[1:])
sys.exit("probe: the command finished without reaching an estimate")
