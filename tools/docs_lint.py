#!/usr/bin/env python3
"""Docs freshness lint.

Six checks over the repo's markdown:

1. Every intra-repo link resolves: for each ``[text](target)`` in a
   tracked ``.md`` file (repo root + docs/), a relative ``target`` —
   after stripping any ``#fragment`` — must name an existing file or
   directory. External links (``http://``, ``https://``, ``mailto:``)
   and pure in-page anchors (``#section``) are skipped.

2. Fenced shell snippets stay runnable in spirit: inside ``sh``/
   ``bash``/``console`` fences in docs/, README.md, DESIGN.md and
   EXPERIMENTS.md, any command
   whose basename looks like one of our binaries (``plansep*``,
   ``bench_*``) must have a matching source file under examples/ or
   bench/, and every ``--flag`` passed to it must appear somewhere in
   the C++ sources (as the literal ``--flag`` or the quoted flag name) —
   so a renamed binary or flag turns the stale doc into a CI failure.

3. Env names stay real: every ``PLANSEP_*`` name in README.md,
   DESIGN.md, EXPERIMENTS.md or a docs/ markdown file must occur in the
   C++ sources, so a deleted environment variable cannot linger in the
   docs.

4. Cited tests exist: over the same files as check 3, every
   ``CamelCase.CamelCase`` token must name a ``TEST``, ``TEST_F`` or
   ``TEST_P`` (suite, name) in tests/; a trailing ``*`` matches as a
   prefix (``NetworkFaults.Crash*``). A deleted or renamed test cannot
   stay cited as evidence.

5. Named APIs stay real: over the same files as check 3, every
   ``<ns>::<Name>`` token whose ``<ns>`` is a namespace declared in src/
   (``taskgraph``, ``serve``, ``obs``, ``congest``, ...) must name an
   identifier that occurs in src/ code, and every ``<Type>::<member>``
   token whose ``<Type>`` is a class, struct or enum defined in a src/
   header must name an identifier of that header's code (of any such
   header, when several define one name); comments and string literals
   are stripped first. Fenced blocks count. Every backticked bare
   snake_case name (``name`` or ``name()``, with at least one underscore)
   must occur as a word in the repo's C++, Python, CMake, CI or JSON
   files. A deleted class, function, member or free function cannot stay
   named in the docs.

6. Named benches and CI jobs stay real: over the same files as check 3,
   every ``bench_*`` token inside backticks, bare or in a path such as
   ``bench/bench_query.cpp``, must name a file under bench/, and every
   backticked ``*-tier1`` token must name a job of
   .github/workflows/ci.yml (its id or the first word of its name). A
   deleted benchmark or CI job cannot stay named in the docs.

Exit code 0 when clean; 1 with one line per violation otherwise.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")
SHELL_INFO = {"sh", "bash", "console", "shell"}
BINARY_RE = re.compile(r"^(plansep\w*|bench_\w+)$")
FLAG_RE = re.compile(r"^--([a-zA-Z0-9][a-zA-Z0-9-]*)(=.*)?$")
ENV_RE = re.compile(r"\bPLANSEP_[A-Z0-9_]+")
ENV_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SNIPPET_DOCS = ENV_DOCS
TEST_REF_RE = re.compile(
    r"(?<![\w./-])([A-Z][a-z0-9][A-Za-z0-9]*\.[A-Z][a-z0-9][A-Za-z0-9]*)"
    r"(\*?)")
TEST_DEF_RE = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")
# Overlapping, so plansep::serve::X yields both plansep::serve and serve::X.
API_REF_RE = re.compile(r"(?=\b([A-Za-z_]\w*)::([A-Za-z_]\w*))")
NS_DECL_RE = re.compile(r"\bnamespace\s+([A-Za-z_][\w:]*)\s*\{")
# A class, struct or enum definition (a body follows; `class X;` does not).
TYPE_DEF_RE = re.compile(
    r"\b(?:class|struct|enum(?:\s+class|\s+struct)?)\s+([A-Za-z_]\w*)"
    r"(?:\s+final)?\s*(?::[^;{}()]*)?\{")
# Comments, raw and plain string literals, and char literals (not digit
# separators such as 1'000).
CPP_NOISE_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|R"([^(\s]*)\(.*?\)\1"|"(?:\\.|[^"\\\n])*"'
    r"|(?<!\w)'(?:\\.|[^'\\\n]){1,8}'", re.S)
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
BARE_NAME_RE = re.compile(r"^([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\(\))?$")
# Files whose words a bare name may match: code, build and CI files.
WORD_FILE_RE = re.compile(
    r"\.(cpp|hpp|h|py|cmake|json|yml|yaml)$|^CMakeLists\.txt$")
BENCH_NAME_RE = re.compile(r"\b(bench_\w+)")
CI_JOB_NAME_RE = re.compile(r"(?<![\w-])([\w-]+-tier1)(?![\w-])")
CI_YML = os.path.join(".github", "workflows", "ci.yml")
# A job id (two-space key under `jobs:`) or its `name:` (first word).
CI_JOB_RE = re.compile(r"^  ([\w-]+):\s*$|^    name:\s*(\S+)", re.M)


def markdown_files():
    files = sorted(
        f for f in os.listdir(REPO)
        if f.endswith(".md") and os.path.isfile(os.path.join(REPO, f)))
    docs = os.path.join(REPO, "docs")
    files = [os.path.join(REPO, f) for f in files]
    for root, _dirs, names in os.walk(docs):
        for n in sorted(names):
            if n.endswith(".md"):
                files.append(os.path.join(root, n))
    return files


def source_blob():
    """Concatenation of all C++ sources, for flag-literal lookups."""
    chunks = []
    for sub in ("src", "examples", "bench", "tests"):
        for root, _dirs, names in os.walk(os.path.join(REPO, sub)):
            for n in names:
                if n.endswith((".cpp", ".hpp", ".h")):
                    with open(os.path.join(root, n), errors="replace") as f:
                        chunks.append(f.read())
    return "\n".join(chunks)


def test_names():
    """Every Suite.Name defined by TEST/TEST_F/TEST_P under tests/."""
    names = set()
    for root, _dirs, files in os.walk(os.path.join(REPO, "tests")):
        for n in files:
            if n.endswith(".cpp"):
                with open(os.path.join(root, n), errors="replace") as f:
                    for m in TEST_DEF_RE.finditer(f.read()):
                        names.add(f"{m.group(1)}.{m.group(2)}")
    return names


def src_code():
    """The namespaces declared in src/, every identifier of src/ code, and
    for each type defined in a src/ header the identifiers of the headers
    defining it; comments and string literals stripped."""
    namespaces, idents, types = set(), set(), {}
    for root, _dirs, names in os.walk(os.path.join(REPO, "src")):
        for n in names:
            if n.endswith((".cpp", ".hpp", ".h")):
                with open(os.path.join(root, n), errors="replace") as f:
                    code = CPP_NOISE_RE.sub(" ", f.read())
                for m in NS_DECL_RE.finditer(code):
                    namespaces.update(m.group(1).split("::"))
                header = set(IDENT_RE.findall(code))
                idents |= header
                if n.endswith((".hpp", ".h")):
                    for m in TYPE_DEF_RE.finditer(code):
                        types.setdefault(m.group(1), set()).update(header)
    return namespaces, idents, types


def repo_words():
    """Every identifier-like word of the repo's C++, Python, CMake, CI and
    JSON files (build trees and other hidden directories skipped)."""
    words = set()
    for root, dirs, names in os.walk(REPO):
        dirs[:] = [d for d in dirs
                   if d == ".github" or not d.startswith((".", "build"))]
        for n in names:
            if WORD_FILE_RE.search(n):
                with open(os.path.join(root, n), errors="replace") as f:
                    words.update(IDENT_RE.findall(f.read()))
    return words


def bench_names():
    """The file stems under bench/ (bench_query, bench_gate, ...)."""
    return {os.path.splitext(n)[0]
            for n in os.listdir(os.path.join(REPO, "bench"))}


def ci_jobs():
    """Every CI job's id and the first word of its display name."""
    with open(os.path.join(REPO, CI_YML)) as f:
        return {a or b for a, b in CI_JOB_RE.findall(f.read())}


def check_links(path, lines, errors):
    in_fence = False
    for ln, line in enumerate(lines, 1):
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue  # code, not prose: `[i](j)` indexing is not a link
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target))
            if not os.path.exists(resolved):
                errors.append(f"{os.path.relpath(path, REPO)}:{ln}: "
                              f"broken link: {m.group(1)}")


def binary_source(name):
    for sub in ("examples", "bench"):
        if os.path.isfile(os.path.join(REPO, sub, name + ".cpp")):
            return True
    return False


def shell_commands(lines):
    """(line_no, command) pairs from shell fences, prompts stripped and
    backslash continuations joined."""
    in_shell = False
    pending, pending_ln = None, 0
    for ln, raw in enumerate(lines, 1):
        fence = FENCE_RE.match(raw.strip())
        if fence:
            if not in_shell and fence.group(1).lower() in SHELL_INFO:
                in_shell = True
            else:
                in_shell = False
            continue
        if not in_shell:
            continue
        line = raw.strip()
        if line.startswith(("$", ">")):
            line = line[1:].strip()
        if pending is not None:
            line = pending + " " + line
            ln = pending_ln
            pending = None
        if line.endswith("\\"):
            pending, pending_ln = line[:-1].strip(), ln
            continue
        if line and not line.startswith("#"):
            yield ln, line


def check_snippets(path, lines, blob, errors):
    rel = os.path.relpath(path, REPO)
    for ln, cmd in shell_commands(lines):
        tokens = cmd.split()
        if not tokens:
            continue
        # Pipelines and && chains: lint each stage independently.
        stages, stage = [], []
        for t in tokens:
            if t in ("|", "&&", "||", ";"):
                stages.append(stage)
                stage = []
            else:
                stage.append(t)
        stages.append(stage)
        for stage in stages:
            if not stage:
                continue
            base = os.path.basename(stage[0])
            if not BINARY_RE.match(base):
                continue
            if not binary_source(base):
                errors.append(f"{rel}:{ln}: snippet names unknown binary "
                              f"'{base}'")
                continue
            for t in stage[1:]:
                m = FLAG_RE.match(t)
                if not m:
                    continue
                flag, name = "--" + m.group(1), m.group(1)
                if flag not in blob and f'"{name}"' not in blob:
                    errors.append(f"{rel}:{ln}: snippet flag '{flag}' "
                                  f"({base}) not found in any source")


def check_env_names(path, lines, blob, errors):
    rel = os.path.relpath(path, REPO)
    for ln, line in enumerate(lines, 1):
        for m in ENV_RE.finditer(line):
            if m.group(0) not in blob:
                errors.append(f"{rel}:{ln}: env name '{m.group(0)}' not "
                              f"found in any source")


def check_test_refs(path, lines, tests, errors):
    rel = os.path.relpath(path, REPO)
    for ln, line in enumerate(lines, 1):
        for m in TEST_REF_RE.finditer(line):
            ref, prefix = m.group(1), m.group(2) == "*"
            if prefix and any(t.startswith(ref) for t in tests):
                continue
            if not prefix and ref in tests:
                continue
            errors.append(f"{rel}:{ln}: cited test '{m.group(0)}' not "
                          f"defined in tests/")


def check_api_refs(path, lines, namespaces, idents, types, words, errors):
    rel = os.path.relpath(path, REPO)
    for ln, line in enumerate(lines, 1):
        for span in CODE_SPAN_RE.findall(line):
            m = BARE_NAME_RE.match(span.strip())
            if m and m.group(1) not in words:
                errors.append(f"{rel}:{ln}: named '{m.group(1)}' not found "
                              f"in any code, build or CI file")
        for m in API_REF_RE.finditer(line):
            ns, name = m.group(1), m.group(2)
            if ns in namespaces and name not in idents:
                errors.append(f"{rel}:{ln}: named API '{ns}::{name}' not "
                              f"found in src/ code")
            elif ns in types and name not in types[ns]:
                errors.append(f"{rel}:{ln}: named member '{ns}::{name}' "
                              f"not found in the header defining {ns}")


def check_named_tools(path, lines, benches, jobs, errors):
    rel = os.path.relpath(path, REPO)
    for ln, line in enumerate(lines, 1):
        for span in CODE_SPAN_RE.findall(line):
            for name in BENCH_NAME_RE.findall(span):
                if name not in benches:
                    errors.append(f"{rel}:{ln}: named bench '{name}' has "
                                  f"no source in bench/")
            for job in CI_JOB_NAME_RE.findall(span):
                if job not in jobs:
                    errors.append(f"{rel}:{ln}: named CI job '{job}' not "
                                  f"in {CI_YML}")


def main():
    errors = []
    blob = source_blob()
    tests = test_names()
    namespaces, idents, types = src_code()
    words = repo_words()
    benches, jobs = bench_names(), ci_jobs()
    for path in markdown_files():
        with open(path, errors="replace") as f:
            lines = f.read().splitlines()
        check_links(path, lines, errors)
        in_docs = path.startswith(os.path.join(REPO, "docs"))
        if in_docs or os.path.relpath(path, REPO) in SNIPPET_DOCS:
            check_snippets(path, lines, blob, errors)
        if in_docs or os.path.relpath(path, REPO) in ENV_DOCS:
            check_env_names(path, lines, blob, errors)
            check_test_refs(path, lines, tests, errors)
            check_api_refs(path, lines, namespaces, idents, types, words,
                           errors)
            check_named_tools(path, lines, benches, jobs, errors)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"docs-lint: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("docs-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
