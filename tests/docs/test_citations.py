"""Every file the code and docs cite exists.

Docstrings, comments and Markdown point readers at tests, docs and
benchmark files by path, and at root-level documents such as
``ROADMAP.md`` by name.  A rename or deletion leaves such a citation
dangling without failing anything else, so this test collects them from
``src/**/*.py``, ``docs/*.md``, ``README.md`` and ``examples/*.py`` and
checks each against the tree.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCES = sorted(
    [
        *ROOT.glob("src/**/*.py"),
        *ROOT.glob("docs/*.md"),
        ROOT / "README.md",
        *ROOT.glob("examples/*.py"),
    ]
)
# A repo-relative path under one of the project's top-level directories,
# e.g. ``tests/nn/test_ops.py`` or ``perfbench/README.md``.
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|docs|examples|perfbench)/[\w./-]*?"
    r"\.(?:py|md|json|yml))(?![\w/-])"
)
# A root-level Markdown document, e.g. ``ROADMAP.md``.
ROOT_DOCUMENT = re.compile(r"(?<![\w./-])([A-Z][A-Z0-9_]*\.md)\b")


def _citations(path: Path) -> set[str]:
    text = path.read_text(encoding="utf-8")
    return {m.group(1) for pattern in (REPO_PATH, ROOT_DOCUMENT) for m in pattern.finditer(text)}


def test_patterns_find_both_kinds_of_citation():
    text = "see tests/nn/test_ops.py, `perfbench/README.md` and ROADMAP.md; not a/tests/x.py"
    assert {m.group(1) for m in REPO_PATH.finditer(text)} == {
        "tests/nn/test_ops.py",
        "perfbench/README.md",
    }
    assert {m.group(1) for m in ROOT_DOCUMENT.finditer(text)} == {"ROADMAP.md"}


def test_cited_files_exist():
    missing = [
        f"{source.relative_to(ROOT)}: {cited}"
        for source in SOURCES
        for cited in sorted(_citations(source))
        if not (ROOT / cited).exists()
    ]
    assert not missing, "dangling citations:\n" + "\n".join(missing)
