"""Time one cold set-up of a workload in this fresh interpreter.

    python3 perfbench/coldsetup.py <workload> <seed> <size> <workdir>

Imports ``revshare.cli`` first, before any harness module, so the package's
whole import (numpy and the standard-library modules it pulls in) is
counted. Then imports the harness's workload module and builds the seeded
inputs. Prints the seconds from before the import to after the inputs.
``run.py`` starts this once per set-up sample.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))


def import_revshare():
    """Import revshare and its CLI from src/ of this checkout."""
    import revshare
    import revshare.cli  # noqa: F401
    if Path(revshare.__file__).resolve().parent != SRC / "revshare":
        raise ImportError(f"revshare imported from {revshare.__file__}, not from {SRC}")
    return revshare


if __name__ == "__main__":
    name, seed, size, workdir = sys.argv[1:]
    rs = import_revshare()
    from workloads import WORKLOADS
    WORKLOADS[name](size).setup(rs, int(seed), Path(workdir))
    print(repr(time.perf_counter() - t0))
