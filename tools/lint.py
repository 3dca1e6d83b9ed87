#!/usr/bin/env python3
"""Repo lint: source rules that need neither a call graph nor clang-tidy.

The heavyweight rules that used to live here (rng, naked-new, the
determinism regex) moved to tools/analyze/rnoc_analyze.py, which checks
them with a real lexer and transitive call-graph reachability instead of
per-line regexes. What remains are the purely textual/structural rules:

Rules
  iostream       no std::cout/std::cerr/printf in src/ library code; the
                 library reports through return values and exceptions
                 (stderr is allowed only in noc/invariants.cpp, whose
                 abort path must print without touching the iostreams).
  pragma-once    every header starts its include guard with #pragma once.
  self-contained every src/noc, src/campaign, src/obs and src/fault
                 header compiles on its own (include-what-you-use
                 at the compile-or-fail level), checked with
                 `c++ -fsyntax-only` unless --no-compile-headers.

`--self-test` exercises each rule against generated fixtures in a temp
tree (one violation per rule plus a clean file) and exits non-zero if any
rule fails to fire or false-positives.

Exit status is non-zero when any rule fires; findings print as
file:line: [rule] message, one per line, so editors and CI annotate them.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

CODE_DIRS = ("src", "tests", "tools", "bench", "examples")
HEADER_EXT = (".hpp", ".h")
SOURCE_EXT = (".cpp", ".cc") + HEADER_EXT
# analyze_fixtures holds deliberate analyzer-rule violations; build trees
# hold generated code. Neither is ours to lint.
EXCLUDE_DIRS = {"analyze_fixtures", "build"}

RE_COUT = re.compile(r"std::c(?:out|err)\b|\bprintf\s*\(")


def strip_code(text):
    """Blanks comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i : i + 2]
        if two == "//":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def iter_files(root):
    for d in CODE_DIRS:
        base = os.path.join(root, d)
        for dirpath, dn, names in os.walk(base):
            dn[:] = sorted(x for x in dn if x not in EXCLUDE_DIRS)
            for name in sorted(names):
                if name.endswith(SOURCE_EXT):
                    yield os.path.join(dirpath, name)


def check_text_rules(root, path, findings):
    rel = os.path.relpath(path, root)
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    code = strip_code(raw)

    in_src = rel.startswith("src" + os.sep)
    cout_exempt = rel == os.path.join("src", "noc", "invariants.cpp")

    for lineno, line in enumerate(code.splitlines(), start=1):
        if in_src and not cout_exempt and RE_COUT.search(line):
            findings.append(
                f"{rel}:{lineno}: [iostream] stdout/stderr output from "
                "library code; return data or throw instead"
            )

    if rel.endswith(HEADER_EXT) and "#pragma once" not in code:
        findings.append(f"{rel}:1: [pragma-once] header without #pragma once")


def check_self_contained(root, findings, compiler):
    """Each covered subsystem header must compile standalone."""
    for subdir in ("noc", "campaign", "obs", "fault"):
        base = os.path.join(root, "src", subdir)
        if not os.path.isdir(base):
            continue
        headers = sorted(
            f for f in os.listdir(base) if f.endswith(HEADER_EXT)
        )
        for name in headers:
            path = os.path.join(base, name)
            cmd = [
                compiler, "-std=c++20", "-fsyntax-only", "-x", "c++",
                "-I", os.path.join(root, "src"), path,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                first = (proc.stderr.strip().splitlines()
                         or ["(no output)"])[0]
                findings.append(
                    f"src/{subdir}/{name}:1: [self-contained] header does "
                    f"not compile standalone: {first}"
                )


def find_compiler():
    return (os.environ.get("CXX") or shutil.which("c++")
            or shutil.which("g++") or shutil.which("clang++"))


def run_lint(root, compile_headers=True):
    findings = []
    for path in iter_files(root):
        check_text_rules(root, path, findings)
    if compile_headers:
        compiler = find_compiler()
        if compiler:
            check_self_contained(root, findings, compiler)
        else:
            print("lint: no C++ compiler found; skipping self-contained "
                  "check", file=sys.stderr)
    return findings


# Fixtures for --self-test: (relative path, contents, rule that must fire
# — None for the clean control file).
_SELFTEST_FIXTURES = [
    ("src/noc/iostream_bad.cpp",
     '#include <iostream>\nnamespace rnoc::noc {\n'
     'void report() { std::cout << "x"; }\n}\n',
     "iostream"),
    ("src/noc/guardless.hpp",
     "namespace rnoc::noc { struct Guardless {}; }\n",
     "pragma-once"),
    ("src/noc/not_self_contained.hpp",
     "#pragma once\nnamespace rnoc::noc {\n"
     "inline int size_of(const std::string& s) "
     "{ return (int)s.size(); }\n}\n",
     "self-contained"),
    ("src/noc/clean.hpp",
     "#pragma once\nnamespace rnoc::noc { inline int two() "
     "{ return 2; } }\n",
     None),
]


def self_test():
    failures = []

    def check(cond, what):
        print(f"  {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="rnoc_lint_st_") as tmp:
        for d in ("noc", "campaign", "obs", "fault"):
            os.makedirs(os.path.join(tmp, "src", d), exist_ok=True)
        for relpath, text, _rule in _SELFTEST_FIXTURES:
            dest = os.path.join(tmp, *relpath.split("/"))
            with open(dest, "w", encoding="utf-8") as f:
                f.write(text)

        print("lint self-test: dirty tree")
        findings = run_lint(tmp, compile_headers=find_compiler() is not None)
        for relpath, _text, rule in _SELFTEST_FIXTURES:
            rel = os.path.join(*relpath.split("/"))
            hits = [f for f in findings
                    if f.startswith(rel + ":") and (rule or "") in f]
            if rule is None:
                stray = [f for f in findings if f.startswith(rel + ":")]
                check(not stray, f"clean fixture stays clean ({relpath})")
            else:
                check(any(f"[{rule}]" in f for f in hits),
                      f"{rule} fires on {relpath}")

        print("lint self-test: clean tree")
        for relpath, _text, rule in _SELFTEST_FIXTURES:
            if rule is not None:
                os.unlink(os.path.join(tmp, *relpath.split("/")))
        findings = run_lint(tmp, compile_headers=find_compiler() is not None)
        check(not findings, f"violation-free tree is clean ({findings})")

    print("lint self-test: " + ("all checks passed" if not failures
                                else f"{len(failures)} check(s) FAILED"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--no-compile-headers", action="store_true",
                    help="skip the noc header self-containment compile check")
    ap.add_argument("--self-test", action="store_true",
                    help="run the lint rules against generated fixtures "
                         "and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = os.path.abspath(args.root)

    findings = run_lint(root, compile_headers=not args.no_compile_headers)
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
