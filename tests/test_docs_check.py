"""The docs lint's Python-import check (``tools/docs_check.py``).

The script is a standalone tool, not a package module, so it is loaded
by path.
"""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _docs_check():
    spec = importlib.util.spec_from_file_location(
        "docs_check", os.path.join(ROOT, "tools", "docs_check.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DOC = """\
# Example

`from repro.experiments import not_in_a_fence` is inline code, not checked.

```python
from repro.experiments import (
    run_pair,            # exists
    no_such_function,
)
```
"""


def test_stale_import_reports_exactly_the_missing_name():
    docs_check = _docs_check()
    names = [name for _, _, name in docs_check.doc_imports(DOC)]
    assert names == ["run_pair", "no_such_function"]
    assert list(docs_check.stale_imports(DOC)) == [
        (6, "repro.experiments.no_such_function")]


def test_serve_flags_the_cli_lacks_are_reported(tmp_path):
    """A flag ``bigvlittle serve`` does not accept fails the lint when a
    doc shows it on a bracketed continuation line of a usage synopsis,
    reported at the flag's own line, or in the serve flag table of
    ``docs/service.md``."""
    docs_check = _docs_check()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "service.md").write_text(
        "```\n"
        "bigvlittle serve [--port P] [--workers N]   # usage\n"
        "           [--no-such-flag N] [--host H]    # a comment\n"
        "```\n"
        "\n"
        "| flag | default | meaning |\n"
        "|---|---|---|\n"
        "| `--port` | `8421` | TCP port |\n"
        "| `--gone` | `4` | a flag the CLI dropped |\n")
    problems = docs_check.check_docs(str(tmp_path))
    assert ("docs/service.md:3: 'bigvlittle serve' does not accept "
            "'--no-such-flag'") in problems
    assert ("docs/service.md:9: the flag table lists '--gone', which "
            "'bigvlittle serve' does not accept") in problems
    assert not [p for p in problems
                if "--port" in p or "--workers" in p or "'--host'" in p]
