"""Markdown documentation checks: links and paths resolve, the tour exists.

A cheap, deterministic link check over the repo's markdown: every relative
link target must exist on disk (external URLs are not fetched — CI must not
depend on the network), and so must every backticked repository path
(under ``tests/``, ``src/``, ``examples/`` or ``benchmarks/``, or a
``BENCH_N.json``).  Also pins the documentation-overhaul invariants:
``docs/architecture.md`` exists and is reachable from the README.
"""

import glob
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    + list((REPO_ROOT / "docs").glob("*.md"))
)

#: [text](target) — excluding images; targets split off #fragments
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def _relative_targets(markdown_path):
    for match in _LINK.finditer(markdown_path.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc):
    missing = [
        target
        for target in _relative_targets(doc)
        if not (doc.parent / target).exists()
    ]
    assert not missing, f"{doc.name}: broken relative link(s): {missing}"


#: `path` spans naming a repository file or directory, optionally followed
#: by a ``::test`` id or a ``:line`` number
_PATH = re.compile(
    r"`((?:benchmarks|tests|src|examples)/[^`\s:]*|BENCH_\d+\.json)(?:::[^`\s]*|:\d+)?`"
)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_backticked_paths_exist(doc):
    missing = sorted(
        {
            path
            for path in _PATH.findall(doc.read_text())
            if not glob.glob(str(REPO_ROOT / path))
        }
    )
    assert not missing, f"{doc.name}: backticked path(s) that do not exist: {missing}"


def test_architecture_doc_exists_and_is_linked_from_readme():
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/architecture.md" in readme, (
        "README must link the architecture tour (docs/architecture.md)"
    )


def test_readme_documents_the_service_layer():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "RenderService" in readme
    assert "animation" in readme.lower()
