#!/usr/bin/env python3
"""Checks README's metrics table against a live server's exposition.

Every `engine_*`, `service_*`, `vc_*` and `obs_*` name in the table must
be served, and every such name the server serves must be in the table.
Table cells may hold brace lists such as
`engine_pool_{accepted,rejected,completed}_total` (expanded) and a
trailing label set such as `service_requests_total{type}` (dropped).

usage: check_metrics_table.py README.md EXPOSITION.txt
"""
import itertools
import re
import sys

PREFIXES = ("engine_", "service_", "vc_", "obs_")


def expand(cell):
    """All metric names a backticked table cell spells."""
    cell = re.sub(r"\{[^}]*\}$", "", cell)  # trailing label set
    parts = re.split(r"\{([^}]*)\}", cell)  # odd parts are brace lists
    choices = [p.split(",") if i % 2 else [p] for i, p in enumerate(parts)]
    return {"".join(combo) for combo in itertools.product(*choices)}


def table_names(readme):
    names = set()
    for line in open(readme, encoding="utf-8"):
        if not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        for cell in re.findall(r"`([^`]+)`", first_cell):
            if cell.startswith(PREFIXES):
                names |= expand(cell)
    return names


def served_names(exposition):
    names = set()
    for line in open(exposition, encoding="utf-8"):
        fields = line.split()
        if fields[:2] == ["#", "TYPE"] and fields[2].startswith(PREFIXES):
            names.add(fields[2])
    return names


def main():
    readme, exposition = sys.argv[1:3]
    table, served = table_names(readme), served_names(exposition)
    if not table:
        sys.exit(f"no {'/'.join(p + '*' for p in PREFIXES)} rows found in {readme}")
    errors = [f"in {readme} but not served: {n}" for n in sorted(table - served)]
    errors += [f"served but not in {readme}: {n}" for n in sorted(served - table)]
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"metrics table OK: {len(table)} names served")


if __name__ == "__main__":
    main()
