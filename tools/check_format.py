#!/usr/bin/env python3
"""Compiler-free source hygiene lint (complements clang-format in CI).

Checks every C++ source/header plus the CMake/Python/Markdown files for the
violations clang-format cannot fix or that survive it: tab indentation,
trailing whitespace, CRLF line endings, a missing final newline, and C++
lines over the 80-column limit from .clang-format. It also reports every
GTEST_SKIP under tests/ outside SKIP_ALLOW_LIST, so a sweep whose cases
skip instead of asserting cannot come back silently. Exit 1 on any finding.

Usage: check_format.py [ROOT]   (default: the repository root)
"""

from __future__ import annotations

import pathlib
import sys

CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
TEXT_SUFFIXES = CXX_SUFFIXES | {".py", ".txt", ".cmake", ".md", ".yml"}
SOURCE_DIRS = ["src", "bench", "tests", "examples", "tools"]
COLUMN_LIMIT = 80
# Test files (relative to the root) allowed to call GTEST_SKIP, each with
# the reason its skip checks nothing it could check instead.
SKIP_ALLOW_LIST: dict[str, str] = {}


def check_file(
    path: pathlib.Path, root: pathlib.Path, problems: list[str]
) -> None:
    data = path.read_bytes()
    if not data:
        return
    if b"\r" in data:
        problems.append(f"{path}: CRLF line ending")
    if not data.endswith(b"\n"):
        problems.append(f"{path}: missing final newline")
    is_cxx = path.suffix in CXX_SUFFIXES
    relative = path.relative_to(root).as_posix()
    may_skip = (
        not is_cxx
        or not relative.startswith("tests/")
        or relative in SKIP_ALLOW_LIST
    )
    for lineno, line in enumerate(data.decode("utf-8").splitlines(), start=1):
        if not may_skip and "GTEST_SKIP" in line:
            problems.append(f"{path}:{lineno}: GTEST_SKIP not on the allow-list")
        if line.rstrip() != line:
            problems.append(f"{path}:{lineno}: trailing whitespace")
        if is_cxx and line.startswith("\t"):
            problems.append(f"{path}:{lineno}: tab indentation")
        if is_cxx and len(line) > COLUMN_LIMIT:
            problems.append(
                f"{path}:{lineno}: {len(line)} columns (limit {COLUMN_LIMIT})"
            )


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files: list[pathlib.Path] = []
    for directory in SOURCE_DIRS:
        base = root / directory
        if base.is_dir():
            files.extend(
                p
                for p in sorted(base.rglob("*"))
                if p.is_file() and p.suffix in TEXT_SUFFIXES
            )

    problems: list[str] = []
    for path in files:
        check_file(path, root, problems)

    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{len(problems)} problem(s) in {len(files)} files", file=sys.stderr)
        return 1
    print(f"ok: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
