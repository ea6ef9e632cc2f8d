"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_child.py WORKLOAD

Prints the CPU seconds from `import opptypes` to the workload's starting
state built through the public API (for example its declared
hypotheses), then the same time scaled to the host's speed as run.py
scales item times (hostspeed.py).  The benchmark's own modules are
imported before the clock starts.
"""

import importlib
import os
import sys
from time import process_time


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(1, os.path.join(os.path.dirname(here), "src"))
    workload = importlib.import_module(sys.argv[1])
    from hostspeed import HostSpeed
    t0 = process_time()
    import opptypes
    workload.build_state(opptypes)
    setup_s = process_time() - t0
    print(setup_s, setup_s * HostSpeed().scale(setup_s))


if __name__ == "__main__":
    main()
