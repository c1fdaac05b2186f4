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

It then reports, without affecting the exit code, the same delta for the
library's hot kernels (HOT_KERNELS): a shift of those that is not 0 mod
64 has read a few percent on ingest throughput while Calibrate() stood
still. A kernel missing from one binary is reported as absent.
"""

import argparse
import subprocess
import sys

SYMBOL = "Workload::Calibrate()"
LINE = 64
# Function names (the demangled name before its parameter list) of the
# library's hot kernels: the AVX2 clones of the tridiagonal eigensolver's
# two stages (accumulated transform; kept vectors by inverse iteration and
# back-transform) and of the B B^T Gram, the FD shrink and FD's n-way
# merge.
HOT_KERNELS = ["TridiagonalizeAndIterateAvx2", "KeptVectorsAvx2",
               "GramOuterAvx2", "FrequentDirections::Rebuild",
               "FrequentDirections::MergeAll"]


def symbols(binary):
    """`nm -C` lines of `binary`."""
    try:
        out = subprocess.run(["nm", "-C", binary], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench_layout: cannot read symbols of {binary}: {e}")
    return out.splitlines()


def kernel_address(lines, name):
    """Address of the hot (not .cold) code symbol whose function name ends
    with `name`, or None when there is not exactly one."""
    found = []
    for line in lines:
        parts = line.split(maxsplit=2)
        if len(parts) != 3 or parts[1] not in "tT" or "[clone" in parts[2]:
            continue
        function = parts[2].replace("(anonymous namespace)", "")
        if function.split("(", 1)[0].endswith(name):
            found.append(int(parts[0], 16))
    return found[0] if len(found) == 1 else None


def calibrate_address(binary, lines):
    """Address of the hot Workload::Calibrate() symbol in `binary`."""
    found = [line.split()[0] for line in lines if line.endswith(SYMBOL)]
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

    parent_lines = symbols(args.parent_bin)
    change_lines = symbols(args.change_bin)
    parent = calibrate_address(args.parent_bin, parent_lines)
    change = calibrate_address(args.change_bin, change_lines)
    delta = change - parent
    print(f"parent Calibrate() 0x{parent:x}")
    print(f"change Calibrate() 0x{change:x}")
    print(f"delta {delta:+d} bytes, mod {LINE} = {delta % LINE}")
    print("hot kernels (reported only):")
    for name in HOT_KERNELS:
        old = kernel_address(parent_lines, name)
        new = kernel_address(change_lines, name)
        if old is None or new is None:
            where = " and ".join(side for side, addr in
                                 (("parent", old), ("change", new))
                                 if addr is None)
            print(f"  {name}: absent in {where}")
            continue
        shift = new - old
        print(f"  {name}: 0x{old:x} -> 0x{new:x}, delta {shift:+d} bytes, "
              f"mod {LINE} = {shift % LINE}")
    return 0 if delta % LINE == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
