#!/usr/bin/env python3
"""Count the ``repro`` modules that ``import repro`` loads.

Imports ``repro`` from this checkout's ``src`` in a fresh interpreter
(``-B``: no bytecode is written) and counts the ``repro`` modules it
leaves in ``sys.modules``. The count depends only on the code, never on
timing, so CI can bound it: a module that a fuzzing session never runs
should not be imported by ``import repro`` (see ``repro._lazy``). It
also prints how long the import took, median of three fresh
interpreters, scaled to the reference host speed as the benchmark's
``setup_s`` is (``pmbench/hostspeed.py``).

    python tools/import_budget.py [--max-modules N]

``--max-modules`` exits 1, listing the modules, when the count is
above ``N``.
"""

import argparse
import os
import statistics
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
HOSTSPEED = os.path.join(ROOT, "pmbench", "hostspeed.py")

#: Run in the fresh interpreter: import repro from SRC, print its
#: modules one a line.
PROBE = """\
import sys
sys.path.insert(0, %r)
import repro
assert repro.__file__.startswith(%r), repro.__file__
print("\\n".join(sorted(name for name in sys.modules
                        if name == "repro" or name.startswith("repro."))))
""" % (SRC, SRC + os.sep)

SAMPLES = 3


def loaded_modules():
    """The ``repro`` modules ``import repro`` loads, sorted."""
    out = subprocess.run([sys.executable, "-B", "-c", PROBE], check=True,
                         capture_output=True, text=True)
    return out.stdout.split()


def scaled_import_s():
    """Median scaled seconds of ``import repro`` in fresh interpreters."""
    samples = [float(subprocess.run(
        [sys.executable, "-B", HOSTSPEED, SRC], check=True,
        capture_output=True, text=True).stdout) for _ in range(SAMPLES)]
    return statistics.median(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-modules", type=int, default=None,
                        help="fail when import repro loads more repro "
                             "modules than this")
    args = parser.parse_args(argv)
    modules = loaded_modules()
    print("import repro: %d repro modules, %.3f s (scaled, median of %d)"
          % (len(modules), scaled_import_s(), SAMPLES))
    if args.max_modules is not None and len(modules) > args.max_modules:
        print("above the bound of %d modules:" % args.max_modules)
        for name in modules:
            print("  " + name)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
