#!/usr/bin/env python
"""Docs <-> CLI drift lint.

Walks every ``bigvlittle ...`` command the documentation shows (inline
code spans and fenced code blocks in README.md, EXPERIMENTS.md, and
docs/*.md) and cross-checks it against the live argparse tree
(:func:`repro.experiments.cli.cli_registry`):

* every verb a doc invokes must exist (a named verb, an experiment
  name, or ``all``);
* every ``--flag`` a doc shows must be accepted by that verb's parser,
  including the flags on the bracketed continuation lines of a fenced
  usage synopsis (``           [--flag N] ...``);
* conversely, every named verb must be demonstrated somewhere in the
  docs — a shipped-but-undocumented verb fails the build;
* ``docs/service.md`` must mention every ``bigvlittle serve`` flag and
  every API endpoint in :data:`repro.service.schemas.ENDPOINTS`, and its
  serve flag table may list no flag that ``bigvlittle serve`` lacks;
* every repository path a doc names under ``benchmarks/``, ``tools/``,
  ``perfbench/``, ``tests/`` or ``src/`` must exist;
* every name a fenced ``from repro... import a, b`` (or its parenthesized
  multi-line form) imports must be an attribute or submodule of that
  module.

Tokens containing shell placeholders (``<PATH>``, ``{stats,clear}``,
``$VAR``, globs) are skipped; pipelines are cut at the first shell
operator.  Exit status 0 = docs and CLI agree; 1 = drift, one line per
finding.

Run from the repo root: ``python tools/docs_check.py`` (CI does).
"""

from __future__ import annotations

import importlib
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments.cli import NAMED_VERBS, cli_registry  # noqa: E402
from repro.service.schemas import ENDPOINTS  # noqa: E402

DOC_FILES = ("README.md", "EXPERIMENTS.md")
DOC_GLOB_DIR = "docs"
SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "2>", "<"}
PLACEHOLDER_CHARS = set("<>{}*$")
#: a path into one of the checked top-level directories, at the start of
#: a word or after a doc's ``../``; the match is cut at the first
#: character a path in this repository does not use
REPO_PATH = re.compile(r"(?:(?<=\.\./)|(?<![\w./-]))"
                       r"((?:benchmarks|tools|perfbench|tests|src)/"
                       r"[\w./<>{}*$-]*)")
#: ``from repro... import`` at the start of a line, then the names: the
#: rest of the line, or a parenthesized list over several lines
REPRO_IMPORT = re.compile(r"^[ \t]*from[ \t]+(repro(?:\.\w+)*)[ \t]+import"
                          r"[ \t]+(\([^)]*\)|[^\n]*)", re.M)


def doc_paths(root):
    paths = [os.path.join(root, f) for f in DOC_FILES]
    docs_dir = os.path.join(root, DOC_GLOB_DIR)
    if os.path.isdir(docs_dir):
        paths.extend(os.path.join(docs_dir, f)
                     for f in sorted(os.listdir(docs_dir))
                     if f.endswith(".md"))
    return [p for p in paths if os.path.exists(p)]


def code_lines(text):
    """Yield (line_number, code_text, fenced) for inline spans and the
    lines of fenced blocks."""
    fence = False
    for i, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            fence = not fence
            continue
        if fence:
            yield i, line, True
        else:
            for span in re.findall(r"`([^`]+)`", line):
                yield i, span, False


def _continues(code, following):
    """Whether fenced line ``following`` continues the command on fenced
    line ``code``: a backslash continuation, or an indented line of
    bracketed options under a usage synopsis."""
    return (code.rstrip().endswith("\\")
            or re.match(r"\s+\[", following) is not None)


def commands_in(text):
    """Yield (line_number, [token, ...]) for every bigvlittle invocation."""
    lines = list(code_lines(text))
    for idx, (lineno, code, fenced) in enumerate(lines):
        # join continuation lines within fenced blocks, without comments
        while (fenced and idx + 1 < len(lines) and lines[idx + 1][2]
               and lines[idx + 1][0] == lines[idx][0] + 1
               and _continues(code, lines[idx + 1][1])):
            idx += 1
            code = (re.split(r"\s#", code.rstrip().rstrip("\\"))[0]
                    + " " + re.split(r"\s#", lines[idx][1])[0])
        for m in re.finditer(r"\bbigvlittle\s+(.*)", code):
            tokens = []
            for tok in m.group(1).split():
                if tok in SHELL_OPERATORS:
                    break
                tokens.append(tok.strip("[](),'\""))
            if tokens:
                yield lineno, tokens


def missing_paths(root, text):
    """Yield (line_number, path) for every checked repository path the
    text names that does not exist (placeholders and globs skipped)."""
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in REPO_PATH.finditer(line):
            path = m.group(1).rstrip(".")
            if PLACEHOLDER_CHARS & set(path):
                continue
            if not os.path.exists(os.path.join(root, path)):
                yield lineno, path


def fenced_blocks(text):
    """Yield (first_line_number, block_text) for each fenced code block."""
    block = None
    for i, line in enumerate(text.splitlines(), 1):
        if line.strip().startswith("```"):
            if block is None:
                start, block = i + 1, []
            else:
                yield start, "\n".join(block)
                block = None
        elif block is not None:
            block.append(line)


def doc_imports(text):
    """Yield (line_number, module, name) for every name a fenced
    ``from repro... import ...`` statement imports."""
    for start, block in fenced_blocks(text):
        for m in REPRO_IMPORT.finditer(block):
            lineno = start + block.count("\n", 0, m.start())
            names = re.sub(r"#[^\n]*", "", m.group(2))
            for part in names.strip().strip("()").split(","):
                words = part.split()  # "name" or "name as alias"
                if words and words[0] != "*":
                    yield lineno, m.group(1), words[0]


def importable(module, name):
    """Whether ``from module import name`` succeeds."""
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def stale_imports(text):
    """Yield (line_number, "module.name") for every fenced repro import
    of a name that does not exist."""
    for lineno, module, name in doc_imports(text):
        if not importable(module, name):
            yield lineno, f"{module}.{name}"


def table_flags(text):
    """Yield (line_number, flag) for the first cell of each row of every
    Markdown table whose first column is headed ``flag``."""
    in_table = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.startswith("|"):
            in_table = False
            continue
        first = line.strip("|").split("|")[0].strip()
        if first == "flag":
            in_table = True
        elif in_table and (m := re.fullmatch(r"`(--[\w-]+)`", first)):
            yield lineno, m.group(1)


def parser_flags(parser):
    return {opt for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")}


def experiment_names(registry):
    for action in registry[""]._actions:
        if action.choices:
            return set(action.choices)
    return set()


def check_docs(root):
    registry = cli_registry()
    experiments = experiment_names(registry)
    problems = []
    verbs_seen = set()

    for path in doc_paths(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for lineno, missing in missing_paths(root, text):
            problems.append(f"{rel}:{lineno}: names {missing!r}, which "
                            f"does not exist")
        for lineno, missing in stale_imports(text):
            problems.append(f"{rel}:{lineno}: imports {missing!r}, which "
                            f"does not exist")
        for lineno, tokens in commands_in(text):
            verb = tokens[0]
            if PLACEHOLDER_CHARS & set(verb):
                continue
            if verb in registry and verb:
                parser = registry[verb]
                verbs_seen.add(verb)
            elif verb in experiments:
                parser = registry[""]
            elif verb.startswith("--"):
                parser = registry[""]
                tokens = [None] + tokens  # flags straight after `bigvlittle`
            else:
                problems.append(f"{rel}:{lineno}: unknown bigvlittle verb "
                                f"{verb!r}")
                continue
            allowed = parser_flags(parser)
            for tok in tokens[1:]:
                if tok is None or not tok.startswith("--"):
                    continue
                flag = tok.split("=", 1)[0]
                if PLACEHOLDER_CHARS & set(flag):
                    continue
                if flag not in allowed:
                    problems.append(
                        f"{rel}:{lineno}: 'bigvlittle {verb}' does not "
                        f"accept {flag!r}")

    for verb in NAMED_VERBS:
        if verb not in verbs_seen:
            problems.append(f"verb {verb!r} is implemented but never "
                            f"demonstrated in the docs")

    service_md = os.path.join(root, "docs", "service.md")
    if not os.path.exists(service_md):
        problems.append("docs/service.md is missing")
    else:
        with open(service_md, encoding="utf-8") as f:
            service_text = f.read()
        serve_flags = parser_flags(registry["serve"])
        for flag in sorted(serve_flags - {"--help"}):
            if flag not in service_text:
                problems.append(f"docs/service.md: 'bigvlittle serve' flag "
                                f"{flag!r} is undocumented")
        for lineno, flag in table_flags(service_text):
            if flag not in serve_flags:
                problems.append(f"docs/service.md:{lineno}: the flag table "
                                f"lists {flag!r}, which 'bigvlittle serve' "
                                f"does not accept")
        for method, endpoint, _ in ENDPOINTS:
            if endpoint not in service_text:
                problems.append(f"docs/service.md: endpoint '{method} "
                                f"{endpoint}' is undocumented")
    return problems


def main():
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    problems = check_docs(root)
    for p in problems:
        print(f"docs_check: {p}")
    if problems:
        print(f"docs_check: {len(problems)} problem(s)")
        return 1
    print("docs_check: docs and CLI agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
