#!/usr/bin/env python3
"""Documentation gate for CI (.github/workflows/ci.yml, docs-check job).

Checks, in order:
  1. every required docs/ page exists;
  2. every relative markdown link (and its #anchor, if any) in README.md
     and docs/*.md resolves to a real file (and a real heading);
  3. every vlsa_tool subcommand named in the docs is one the binary
     actually implements (parsed from the usage string in
     examples/vlsa_tool.cpp);
  4. docs/architecture.md names every src/ subsystem, and
     docs/benchmarks.md names every bench binary;
  5. every admin-plane endpoint `vlsa_tool serve --admin` registers
     (parsed from the handle() calls in examples/vlsa_tool.cpp) is
     documented in docs/observability.md;
  6. every backticked `Suite.Name` test citation in README.md and
     docs/*.md names a TEST, TEST_F or TEST_P under tests/.

Stdlib only; exits non-zero with one line per problem.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

REQUIRED_DOCS = [
    "docs/architecture.md",
    "docs/benchmarks.md",
    "docs/formal_verification.md",
    "docs/hardware.md",
    "docs/integration.md",
    "docs/model_checking.md",
    "docs/networking.md",
    "docs/observability.md",
    "docs/scaling.md",
    "docs/static_analysis.md",
    "docs/theory.md",
]

# [text](target) — good enough for the hand-written markdown here
# (no reference-style links, no angle-bracket targets in this repo).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
# A test citation: `Suite.Name`, both parts capitalized the way gtest
# names are here (file names such as `BENCH_net.json` and member paths
# such as `Completion.sum` do not match).
TEST_CITE_RE = re.compile(r"`([A-Z]\w*)\.([A-Z]\w*)`")
TEST_DEF_RE = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")


def github_anchor(heading: str) -> str:
    """GitHub's heading -> anchor slug: lowercase, drop punctuation,
    spaces to dashes (backticks and markdown emphasis stripped)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: Path) -> set:
    return {github_anchor(h) for h in HEADING_RE.findall(path.read_text())}


def tool_subcommands() -> set:
    """The subcommand list from vlsa_tool's top-level usage string.
    The string literal is split across source lines, so join adjacent
    literals before looking for the a|b|c token."""
    source = (REPO / "examples" / "vlsa_tool.cpp").read_text()
    joined = re.sub(r'"\s*\n\s*"', "", source)
    # Require an actual a|b|c alternation so per-subcommand usage lines
    # (e.g. "usage: vlsa_tool prove <a> <b> ...") don't match first.
    match = re.search(r'usage: vlsa_tool ([a-z]+(?:\|[a-z]+)+)', joined)
    if not match:
        sys.exit("check_docs: cannot find the usage string in "
                 "examples/vlsa_tool.cpp")
    return set(match.group(1).split("|"))


def prove_modes() -> set:
    """The named proof obligations of `vlsa_tool prove` (the
    speculation|recovery|vlsa alternation in its usage string)."""
    source = (REPO / "examples" / "vlsa_tool.cpp").read_text()
    joined = re.sub(r'"\s*\n\s*"', "", source)
    match = re.search(r'vlsa_tool prove ([a-z]+(?:\|[a-z]+)+) <width>',
                      joined)
    if not match:
        sys.exit("check_docs: cannot find the prove usage string in "
                 "examples/vlsa_tool.cpp")
    return set(match.group(1).split("|"))


def admin_endpoints() -> set:
    """Every path `vlsa_tool serve --admin` registers on its admin
    server (the handle("/path", ...) calls; the path literal may sit
    on the line after `handle(` at deeper indents)."""
    source = (REPO / "examples" / "vlsa_tool.cpp").read_text()
    paths = set(re.findall(r'handle\(\s*"(/[a-z]+)"', source))
    if not paths:
        sys.exit("check_docs: cannot find admin handle() registrations "
                 "in examples/vlsa_tool.cpp")
    return paths


def defined_tests() -> set:
    """Every "Suite.Name" a TEST, TEST_F or TEST_P under tests/
    defines."""
    names = set()
    for path in (REPO / "tests").rglob("*"):
        if path.suffix in (".cpp", ".hpp"):
            for suite, name in TEST_DEF_RE.findall(path.read_text()):
                names.add(f"{suite}.{name}")
    return names


def main() -> int:
    problems = []

    for rel in REQUIRED_DOCS:
        if not (REPO / rel).is_file():
            problems.append(f"missing required page: {rel}")

    doc_files = [REPO / "README.md"] + sorted((REPO / "docs").glob("*.md"))
    subcommands = tool_subcommands()
    tests = defined_tests()
    citations = 0

    for doc in doc_files:
        text = doc.read_text()
        rel_doc = doc.relative_to(REPO)

        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = (doc.parent / path_part).resolve() if path_part else doc
            if not dest.exists():
                problems.append(f"{rel_doc}: broken link -> {target}")
                continue
            if anchor and dest.suffix == ".md":
                if github_anchor(anchor) not in anchors_of(dest):
                    problems.append(
                        f"{rel_doc}: broken anchor -> {target}")

        # `vlsa_tool <word>` in prose or code blocks must name a real
        # subcommand (uppercase follow-ons like "vlsa_tool CLI" are
        # prose, not invocations, and don't match).
        for cmd in re.findall(r"vlsa_tool\s+([a-z][a-z0-9_-]*)\b", text):
            if cmd not in subcommands:
                problems.append(
                    f"{rel_doc}: unknown vlsa_tool subcommand '{cmd}' "
                    f"(binary implements: {', '.join(sorted(subcommands))})")

        # A cited test must exist, so a deleted or renamed test cannot
        # leave the docs pointing at coverage that is gone.
        for suite, name in TEST_CITE_RE.findall(text):
            citations += 1
            if f"{suite}.{name}" not in tests:
                problems.append(
                    f"{rel_doc}: cites test {suite}.{name}, which no "
                    "TEST, TEST_F or TEST_P under tests/ defines")

    arch = (REPO / "docs" / "architecture.md")
    if arch.is_file():
        arch_text = arch.read_text()
        for sub in sorted(p.name for p in (REPO / "src").iterdir()
                          if p.is_dir()):
            if f"src/{sub}/" not in arch_text and f"{sub}/" not in arch_text:
                problems.append(
                    f"docs/architecture.md: src/{sub}/ not covered")

    # Every named proof obligation of `vlsa_tool prove` must be
    # documented on the formal-verification page.
    formal = (REPO / "docs" / "formal_verification.md")
    if formal.is_file():
        formal_text = formal.read_text()
        for mode in sorted(prove_modes()):
            if not re.search(rf"\bprove\s+{re.escape(mode)}\b", formal_text):
                problems.append(
                    f"docs/formal_verification.md: prove mode '{mode}' "
                    "not documented")

    # Every live admin endpoint must be documented on the
    # observability page (the admin plane is an operator surface;
    # an undocumented endpoint is an unfindable one).
    observability = (REPO / "docs" / "observability.md")
    if observability.is_file():
        obs_text = observability.read_text()
        for endpoint in sorted(admin_endpoints()):
            if f"`{endpoint}`" not in obs_text:
                problems.append(
                    f"docs/observability.md: admin endpoint '{endpoint}' "
                    "not documented")

    benchmarks = (REPO / "docs" / "benchmarks.md")
    if benchmarks.is_file():
        bench_text = FENCE_RE.sub("", benchmarks.read_text())
        for src in sorted((REPO / "bench").glob("*.cpp")):
            if f"`{src.stem}`" not in bench_text:
                problems.append(
                    f"docs/benchmarks.md: bench/{src.stem} not covered")

    for problem in problems:
        print(f"check_docs: {problem}")
    if not problems:
        checked = len(doc_files)
        print(f"check_docs: OK ({checked} files, "
              f"{len(subcommands)} vlsa_tool subcommands, "
              f"{citations} test citations)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
