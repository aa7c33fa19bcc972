#!/usr/bin/env python3
"""Fail on public items that nothing names.

Scans every `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub const`
and `pub type` declared in a tracked `.rs` file outside `crates/compat/`
(the vendored stand-ins mirror published APIs) and `perfbench/` (the
benchmark harness is its own package). An item is unreferenced when its
name occurs in no tracked `.rs` file, perfbench included, except on the
line that defines it. The check is name-level: any occurrence of the
identifier counts, in code, a comment or a doc link, so it can miss dead
items with common names but never flags a used one.

usage: check_unreferenced.py   (run from the repository root)
"""
import collections
import re
import subprocess
import sys

EXCLUDED = ("crates/compat/", "perfbench/")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITION = re.compile(
    r"^\s*pub\s+(?:const\s+(?=fn\b)|unsafe\s+)*"
    r"(fn|struct|enum|trait|const|type)\s+([A-Za-z_][A-Za-z0-9_]*)"
)


def main():
    files = subprocess.run(
        ["git", "ls-files", "*.rs"], check=True, capture_output=True, text=True
    ).stdout.split()
    texts = {path: open(path, encoding="utf-8").read() for path in files}
    uses = collections.Counter()
    for text in texts.values():
        uses.update(IDENT.findall(text))
    dead = []
    for path, text in sorted(texts.items()):
        if path.startswith(EXCLUDED):
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            m = DEFINITION.match(line)
            if m is None:
                continue
            kind, name = m.groups()
            if uses[name] == IDENT.findall(line).count(name):
                dead.append(f"{path}:{lineno}: pub {kind} {name}")
    for entry in dead:
        print(f"unreferenced: {entry}")
    if dead:
        print(f"{len(dead)} public item(s) named nowhere but their own definition")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
