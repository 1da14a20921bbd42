"""Run the pairtrace CLI after recording when its import finished.

Usage: python3 perfbench/cli_child.py STAMP_FILE CLI_ARGS...

Writes time.monotonic() to STAMP_FILE once `pairtrace.cli` is imported,
then runs the CLI on the remaining arguments. The traced cli_mix run
launches ops through this file to measure interpreter start plus import.
"""

import sys
import time

import pairtrace.cli

with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(repr(time.monotonic()))
sys.argv = ["pairtrace", *sys.argv[2:]]
pairtrace.cli.main()
