"""Entry point: ``python3 -m ledger --workload NAME --seed N --seconds S --trace 0|1``."""

import sys

from ledger.run import main

sys.exit(main())
