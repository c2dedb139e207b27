"""Print the seconds of one cold benchmark set-up and the factor that scales
them to nominal host speed (see hostref.py). Set-up imports the package
from src/, loads the dataset, and builds the extension cache and catalog."""

import sys
from pathlib import Path
from time import perf_counter

from hostref import HostClock

clock = HostClock(samples=3)
t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

workloads.setup()
elapsed = perf_counter() - t0
print(elapsed, clock.factor())
