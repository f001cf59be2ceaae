"""Fresh-interpreter entry point that stamps when derc's imports are done.

    python3 entry.py STAMP_FILE MODULE[,MODULE...] [derc CLI arguments...]

Imports the modules, writes time.monotonic() to STAMP_FILE, then, when CLI
arguments follow, runs them through derc.cli.main exactly as the installed
`derc` console script does. Without CLI arguments it is a set-up probe.
CLOCK_MONOTONIC is system-wide, so the parent subtracts its own spawn time.
"""

import importlib
import sys
import time


def main() -> int:
    stamp_file, modules, *cli_args = sys.argv[1:]
    for name in modules.split(","):
        importlib.import_module(name)
    stamp = time.monotonic()
    with open(stamp_file, "w", encoding="utf-8") as fh:
        fh.write(repr(stamp))
    if not cli_args:
        return 0
    from derc.cli import main as derc_main

    return derc_main(cli_args)


if __name__ == "__main__":
    sys.exit(main())
