"""Start ``repro worker`` / ``repro serve`` the way the CLI does, with
the benchmark's span wrappers installed first when the run is traced.

    python perfbench/launch.py worker --listen 127.0.0.1:0
    python perfbench/launch.py serve --listen 127.0.0.1:0

The untraced run goes through this same launcher, so both runs have the
same process topology.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    # a frame crossing the worker wire is counted once, at the parent
    skip = ("sim.distributed.send", "sim.distributed.recv")
    spans.start_from_env(argv[0] if argv else "launch", skip)
    from repro.__main__ import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
