#!/usr/bin/env python3
"""Compare where two perfbench binaries place the yardstick's code.

perfbench divides every time it reports by a yardstick pass timed inside
Workload::Calibrate() (perfbench/workloads.cc). The library's cold code
(.text.unlikely) is linked in front of perfbench's own .text, so a change
in the library's cold-code size moves Calibrate() and, when the move is
not a multiple of 64 bytes, changes the yardstick's speed and with it
every normalized figure. Build both trees with perfbench/run.py, then:

    scripts/perfbench_layout.py PARENT_BIN CHANGE_BIN

where each BIN is .bench_build/perfbench/perfbench of one checkout. It
prints both addresses of Calibrate() (the hot symbol, not its .cold
clone), their delta, and the delta mod 64. The exit code is 1 when the
delta is not 0 mod 64, 2 when a binary or the symbol is missing.
"""

import argparse
import subprocess
import sys

SYMBOL = "Workload::Calibrate()"
LINE = 64


def calibrate_address(binary):
    """Address of the hot Workload::Calibrate() symbol in `binary`."""
    try:
        out = subprocess.run(["nm", "-C", binary], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench_layout: cannot read symbols of {binary}: {e}")
    found = [line.split()[0] for line in out.splitlines()
             if line.endswith(SYMBOL)]
    if len(found) != 1:
        print(f"perfbench_layout: {binary}: expected one {SYMBOL}, "
              f"found {len(found)}", file=sys.stderr)
        sys.exit(2)
    return int(found[0], 16)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    args = parser.parse_args()

    parent = calibrate_address(args.parent_bin)
    change = calibrate_address(args.change_bin)
    delta = change - parent
    print(f"parent Calibrate() 0x{parent:x}")
    print(f"change Calibrate() 0x{change:x}")
    print(f"delta {delta:+d} bytes, mod {LINE} = {delta % LINE}")
    return 0 if delta % LINE == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
