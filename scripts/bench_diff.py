#!/usr/bin/env python3
"""Diff BENCH_<slug>.json files between two revisions of the repo.

Each figure binary writes one BENCH_<slug>.json per run (see
bench/bench_util.cc). To track the perf/accuracy trajectory across PRs,
check out or stash the old JSONs in one directory, the new ones in
another, and run:

    scripts/bench_diff.py OLD_DIR NEW_DIR [--threshold 0.10]

Both arguments may also be single files. Cells are keyed by
(figure, algorithm, ell); the report shows the relative change per metric
for every key present on both sides, and lists keys that appear on only
one side. The exit code is nonzero when any update_ns cell regresses by
more than --threshold (default 10%), so CI or a pre-merge hook can gate
on it. Error metrics are reported but do not gate: accuracy cells move
when sketch parameters change and are judged by the paper's bounds, not
by drift.

With --manifest, the perf gate runs every gate a manifest declares (see
bench/baselines/gate.json): each gate diffs one fresh BENCH file from
--fresh (default: the working directory) against its committed baseline,
both restricted to the cells the gate's regex selects, at the gate's own
threshold or --threshold. --update-baselines instead writes each fresh
file, restricted the same way, over its baseline:

    scripts/bench_diff.py --manifest bench/baselines/gate.json [--fresh DIR]
"""

import argparse
import json
import os
import re
import sys

METRICS = ("update_ns", "avg_err", "max_err", "max_rows_stored")


def load_cells(path, pattern=None):
    """Returns {(figure, algorithm, ell): cell_dict} from a file or dir,
    keeping only the cells whose algorithm matches `pattern` if given."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if f.startswith("BENCH_") and f.endswith(".json")
        )
    else:
        files = [path]
    cells = {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        for cell in doc.get("cells", []):
            if pattern is not None and not re.search(pattern, cell["algorithm"]):
                continue
            key = (doc.get("figure", "?"), cell["algorithm"], cell["ell"])
            cells[key] = cell
    return cells


def rel_change(old, new):
    if old == 0:
        return float("inf") if new != 0 else 0.0
    return (new - old) / old


def diff(old_cells, new_cells, old_label, new_label, threshold):
    """Prints the per-cell report; returns 1 on an update_ns regression."""
    common = sorted(set(old_cells) & set(new_cells))
    regressions = []

    header = f"{'figure':<28} {'algorithm':<10} {'ell':>4}"
    header += "".join(f" {m:>16}" for m in METRICS)
    print(header)
    print("-" * len(header))
    for key in common:
        figure, algorithm, ell = key
        old, new = old_cells[key], new_cells[key]
        row = f"{figure[:28]:<28} {algorithm:<10} {ell:>4}"
        for metric in METRICS:
            if metric not in old or metric not in new:
                row += f" {'-':>16}"
                continue
            change = rel_change(old[metric], new[metric])
            row += f" {change:>+15.1%} "
            if metric == "update_ns" and change > threshold:
                regressions.append((key, old[metric], new[metric], change))
        print(row)

    for key in sorted(set(old_cells) - set(new_cells)):
        print(f"only in {old_label}: {key}")
    for key in sorted(set(new_cells) - set(old_cells)):
        print(f"only in {new_label}: {key}")

    if regressions:
        print(
            f"\nFAIL: {len(regressions)} update_ns regression(s) over "
            f"{threshold:.0%}:"
        )
        for (figure, algorithm, ell), old_ns, new_ns, change in regressions:
            print(
                f"  {figure} / {algorithm} / ell={ell}: "
                f"{old_ns:.0f} ns -> {new_ns:.0f} ns ({change:+.1%})"
            )
        return 1
    print(f"\nOK: no update_ns regression over {threshold:.0%} "
          f"across {len(common)} cells")
    return 0


def run_manifest(manifest, fresh_dir, threshold, update):
    """Diffs (or, with `update`, refreshes) every gate of `manifest`."""
    with open(manifest) as fh:
        gates = json.load(fh)["gates"]
    base_dir = os.path.dirname(os.path.abspath(manifest))
    status = 0
    for gate in gates:
        baseline = os.path.join(base_dir, gate["baseline"])
        fresh = os.path.join(fresh_dir, gate["fresh"])
        pattern = gate.get("cells")
        if update:
            with open(fresh) as fh:
                doc = json.load(fh)
            if pattern is not None:
                doc["cells"] = [c for c in doc["cells"]
                                if re.search(pattern, c["algorithm"])]
            with open(baseline, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            print(f"baseline refreshed: {baseline}")
            continue
        print(f"\n== {gate['fresh']} (cells {pattern or 'all'})")
        old_cells = load_cells(baseline, pattern)
        new_cells = load_cells(fresh, pattern)
        if not old_cells or not new_cells:
            print(f"FAIL: no gated cells in {baseline if not old_cells else fresh}")
            status = 1
            continue
        status |= diff(old_cells, new_cells, baseline, fresh,
                       gate.get("threshold", threshold))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?",
                        help="baseline BENCH json file or directory")
    parser.add_argument("new", nargs="?",
                        help="candidate BENCH json file or directory")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="update_ns regression fraction that fails the diff "
        "(default 0.10 = 10%%)",
    )
    parser.add_argument("--manifest",
                        help="gate manifest (replaces OLD and NEW)")
    parser.add_argument("--fresh", default=".",
                        help="directory of the fresh BENCH files a "
                        "manifest names (default: .)")
    parser.add_argument("--update-baselines", action="store_true",
                        help="with --manifest: overwrite the baselines")
    args = parser.parse_args()

    if args.manifest:
        if args.old or args.new:
            parser.error("--manifest takes no OLD/NEW arguments")
        return run_manifest(args.manifest, args.fresh, args.threshold,
                            args.update_baselines)
    if not args.old or not args.new or args.update_baselines:
        parser.error("give OLD and NEW, or --manifest")

    old_cells = load_cells(args.old)
    new_cells = load_cells(args.new)
    if not old_cells:
        sys.exit(f"no BENCH_*.json cells found in {args.old}")
    if not new_cells:
        sys.exit(f"no BENCH_*.json cells found in {args.new}")
    return diff(old_cells, new_cells, args.old, args.new, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
