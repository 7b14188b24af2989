"""Count the cells in which two CSV text files differ.

Each line is a row and splits on commas into cells, compared as strings;
OLD's first line names the columns.  Prints the row count of each file,
the number of rows that differ (a row only one file has counts), the
changed cells per column, and the first 5 changed cells as (row, column,
old, new), rows numbered from 1 as lines are and a missing cell shown as
None.  Exits 0 when the files are byte-identical, 1 otherwise.  Run from
the repository root:

    python3 tools/csv_cell_diff.py OLD NEW
"""

import itertools
import pathlib
import sys

SHOWN = 5


def rows(data: bytes) -> list[list[str]]:
    """The lines of data, each split on commas."""
    return [line.split(",") for line in data.decode().splitlines()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: csv_cell_diff.py OLD NEW", file=sys.stderr)
        return 2
    old, new = (pathlib.Path(a).read_bytes() for a in argv)
    old_rows, new_rows = rows(old), rows(new)
    header = old_rows[0] if old_rows else []
    changed = [0] * len(header)
    differing, first = 0, []
    for i, (a, b) in enumerate(
            itertools.zip_longest(old_rows, new_rows, fillvalue=[]), 1):
        if a == b:
            continue
        differing += 1
        for j, (x, y) in enumerate(itertools.zip_longest(a, b)):
            if x != y:
                changed.extend([0] * (j + 1 - len(changed)))
                changed[j] += 1
                if len(first) < SHOWN:
                    first.append((i, j, x, y))

    def column(j: int) -> str:
        return header[j] if j < len(header) else f"#{j + 1}"

    print(f"rows: old {len(old_rows)}, new {len(new_rows)}")
    print(f"differing rows: {differing}")
    print("changed cells per column:")
    for j, count in enumerate(changed):
        print(f"  {column(j)}: {count}")
    print(f"first {len(first)} changed cells (row, column, old, new):")
    for i, j, x, y in first:
        print(f"  ({i}, {column(j)}, {x!r}, {y!r})")
    return 0 if old == new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
