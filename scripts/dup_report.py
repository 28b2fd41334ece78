#!/usr/bin/env python3
"""Duplo-style size and duplication report for the C++ sources.

For every .cpp/.hpp file under the source root this prints its count of
significant lines (non-blank, non-comment, whitespace-trimmed), then, for
every pair of files that share code, how many significant lines of each
file sit inside a window of WINDOW consecutive significant lines that also
appears verbatim in the other file.

Informational only: the exit status is 0 whatever the numbers are.

Usage: scripts/dup_report.py [--root src] [--window 4] [--min-shared 1]
                             [--pair A B]
"""
import argparse
import itertools
import os
import sys


def significant_lines(path):
    """Trimmed lines that are neither blank nor comments."""
    out = []
    in_block = False
    with open(path, encoding="utf-8", errors="replace") as handle:
        for raw in handle:
            line = raw.strip()
            if in_block:
                if "*/" in line:
                    in_block = False
                    line = line.split("*/", 1)[1].strip()
                else:
                    continue
            if line.startswith("/*"):
                if "*/" not in line:
                    in_block = True
                    continue
                line = line.split("*/", 1)[1].strip()
            if not line or line.startswith("//"):
                continue
            out.append(line)
    return out


def windows(lines, size):
    """Maps each window tuple to the start indices where it occurs."""
    table = {}
    for start in range(len(lines) - size + 1):
        table.setdefault(tuple(lines[start:start + size]), []).append(start)
    return table


def covered(lines, own, other, size):
    """Number of lines of `lines` inside a window that `other` also has."""
    marked = set()
    for window, starts in own.items():
        if window in other:
            for start in starts:
                marked.update(range(start, start + size))
    return len(marked)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    parser.add_argument("--window", type=int, default=4)
    parser.add_argument("--min-shared", type=int, default=1,
                        help="omit pairs sharing fewer lines than this")
    parser.add_argument("--pair", nargs=2, metavar=("A", "B"),
                        help="report only this pair (paths under the root)")
    args = parser.parse_args()

    root = os.path.normpath(args.root)
    files = {}
    for directory, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith((".cpp", ".hpp")):
                path = os.path.join(directory, name)
                files[os.path.relpath(path, root)] = significant_lines(path)
    if args.pair:
        missing = [p for p in args.pair if p not in files]
        if missing:
            sys.exit("no such file under %s: %s" % (root, ", ".join(missing)))
        files = {p: files[p] for p in args.pair}

    print("== significant lines per file (%s) ==" % root)
    for name in sorted(files):
        print("%6d  %s" % (len(files[name]), name))
    print("%6d  total" % sum(len(lines) for lines in files.values()))

    tables = {name: windows(lines, args.window) for name, lines in files.items()}
    rows = []
    for a, b in itertools.combinations(sorted(files), 2):
        in_a = covered(files[a], tables[a], tables[b], args.window)
        if in_a < args.min_shared:
            continue
        in_b = covered(files[b], tables[b], tables[a], args.window)
        rows.append((in_a + in_b, a, in_a, len(files[a]), b, in_b, len(files[b])))
    print("\n== lines in %d-line windows duplicated between file pairs ==" %
          args.window)
    for _, a, in_a, len_a, b, in_b, len_b in sorted(rows, reverse=True):
        print("%5d/%-5d %-32s <-> %5d/%-5d %s" % (in_a, len_a, a, in_b, len_b, b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
