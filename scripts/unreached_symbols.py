#!/usr/bin/env python3
"""Lists the library functions that no shipped binary keeps.

A "shipped binary" is every executable under bench/ and examples/ of a
repository build, plus the perfbench binary. Test binaries do not
count: code only a test reaches is what this sweep looks for.

Both trees must be built with one function per section and linked with
section garbage collection, at -O0 without inlining, so that a function
survives in a binary exactly when that binary can call it:

  FLAGS="-O0 -fno-inline -ffunction-sections"
  cmake -S . -B build-sweep -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS_DEBUG="$FLAGS" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-sweep -j
  cmake -S perfbench -B build-sweep-pb -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS_DEBUG="$FLAGS" \\
        -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-sweep-pb -j
  scripts/unreached_symbols.py build-sweep build-sweep-pb

It prints every strong (non-weak) function or data symbol defined by a
member of a library archive (lib*.a) under <sweep-build>/src that none
of those binaries keeps, grouped by source file, and exits 0. The
archives, not the object files beside them, are what the binaries
link: an incremental build re-creates each archive from the current
sources, but leaves the object of a deleted source on disk. Header-inline
code and template instantiations are weak symbols and are not covered.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

# nm type letters of strong definitions: text, initialized and
# zero-initialized data, read-only data.
STRONG = {"T", "D", "B", "R"}


def defined_symbols(path: Path) -> list[tuple[str, str, str]]:
    """(archive member, type letter, mangled name) of every global
    definition in `path`; the member is "" unless `path` is an archive."""
    out = subprocess.run(["nm", "--defined-only", "--extern-only",
                          "--print-file-name", str(path)],
                         check=True, capture_output=True, text=True).stdout
    symbols = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            # <path>[:<member>]:<address>
            origin = parts[0].removeprefix(f"{path}:").split(":")
            member = origin[0] if len(origin) == 2 else ""
            symbols.append((member, parts[1], parts[2]))
    return symbols


def demangle(names: list[str]) -> dict[str, str]:
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out))


def executables(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir()
                  if p.is_file() and os.access(p, os.X_OK) and p.suffix == "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sweep_build", type=Path,
                        help="repository build tree (see module docstring)")
    parser.add_argument("perfbench_build", type=Path,
                        help="perfbench build tree with the same flags")
    args = parser.parse_args()

    binaries = executables(args.sweep_build / "bench")
    binaries += executables(args.sweep_build / "examples")
    binaries.append(args.perfbench_build / "perfbench")
    archives = sorted((args.sweep_build / "src").rglob("lib*.a"))
    if not archives or any(not b.is_file() for b in binaries):
        print("error: build both trees first (see --help)", file=sys.stderr)
        return 2

    kept: set[str] = set()
    for binary in binaries:
        kept.update(name for _, _, name in defined_symbols(binary))

    unreached: dict[str, list[str]] = defaultdict(list)
    for archive in archives:
        # src/<module>/lib<target>.a; CMake names members <source>.o.
        module = archive.parent.name
        for member, kind, name in defined_symbols(archive):
            if kind in STRONG and name not in kept:
                source = member.removesuffix(".o")
                unreached[f"{module}/{source}"].append(name)

    names = demangle([n for group in unreached.values() for n in group])
    total = 0
    for source in sorted(unreached):
        print(source)
        # A constructor's complete and base-object symbols demangle alike.
        for name in sorted({names[n] for n in unreached[source]}):
            print(f"  {name}")
            total += 1
    print(f"{total} unreached symbols in {len(unreached)} files "
          f"({len(binaries)} binaries checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
