"""Documentation link check: every relative link in the Markdown docs must
point at a file (or directory) that exists in the repository, and every
Markdown file the source code names must exist too.

This is the local half of the CI docs check -- it keeps README.md, PAPER.md
and docs/ from silently rotting when files move.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Markdown documents whose links are checked (root docs + everything in docs/).
DOC_FILES = sorted(
    [p for p in REPO_ROOT.glob("*.md")] + [p for p in REPO_ROOT.glob("docs/*.md")]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A Markdown file name, with or without a repo-relative directory.
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")

#: Python sources whose docstrings and comments may cite Markdown files.
SOURCE_FILES = sorted((REPO_ROOT / "src").rglob("*.py"))


def relative_links(path: Path) -> list:
    """All relative (non-URL, non-anchor) link targets in a Markdown file."""
    links = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])
    return [t for t in links if t]


def test_doc_files_present():
    names = {p.name for p in DOC_FILES}
    assert {"README.md", "PAPER.md", "architecture.md", "experiments.md"} <= names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc):
    missing = [target for target in relative_links(doc)
               if not (doc.parent / target).exists()]
    assert not missing, f"{doc.relative_to(REPO_ROOT)} has dead links: {missing}"


def test_source_files_cite_existing_docs():
    """A docstring or comment under ``src/`` that names a ``*.md`` file
    (repo-relative, e.g. ``docs/architecture.md`` or ``PAPER.md``) must
    name one that exists."""
    assert SOURCE_FILES
    missing = sorted(
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for path in SOURCE_FILES
        for name in set(_MD_NAME.findall(path.read_text(encoding="utf-8")))
        if not (REPO_ROOT / name).exists())
    assert not missing, f"source files cite missing docs: {missing}"
