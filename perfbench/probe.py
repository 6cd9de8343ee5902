"""Set-up probe, run in a fresh process: import the CLI, build its parser and
the field tables a workload uses, then print the CLOCK_MONOTONIC reading at
which the program is ready.  The parent started its clock just before
starting this process, so the difference is the set-up time.

    python3 perfbench/probe.py <src dir> <q> [<q> ...]
"""

import sys
import time


def main() -> int:
    src, qs = sys.argv[1], [int(q) for q in sys.argv[2:]]
    sys.path.insert(0, src)
    import endotriv.cli
    from endotriv.gf import field_spec

    endotriv.cli._build_parser()
    for q in qs:
        field_spec(q)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    return 0


if __name__ == "__main__":
    sys.exit(main())
