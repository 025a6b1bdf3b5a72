"""Run the end-to-end benchmark from the root of a checkout.

    python3 benchmarks/e2e/run.py --workload fleet_burst --seed 0 --seconds 8 --trace 0
    python3 benchmarks/e2e/run.py compare RESULTS_A RESULTS_B

Without a subcommand the arguments are those of ``run``.  The same CLI is
``python -m benchmarks.e2e``.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Import the package from the checkout root, not this directory.
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    from benchmarks.e2e.cli import main

    sys.exit(main())
