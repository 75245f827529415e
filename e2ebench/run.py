"""Benchmark entry point: ``python3 e2ebench/run.py --workload NAME ...``.

Run from the repository root; see ``e2ebench/harness.py``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    os.chdir(ROOT)
    # Temporary files of the run (the native kernel's compiler included)
    # stay inside the checkout.
    os.makedirs(os.path.join(".e2ebench", "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(ROOT, ".e2ebench", "tmp")
    from e2ebench.harness import main

    sys.exit(main())
