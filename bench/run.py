"""Entry point of the exactframes benchmark; see bench/README.md.

    python3 bench/run.py --workload eval-inversion --seed 1 --seconds 30 --trace 0
"""

import sys

from harness import main

if __name__ == "__main__":
    sys.exit(main())
