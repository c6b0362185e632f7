"""The documentation site is part of the build: complete and link-clean.

Two layers of guarantees:

* the link checker (``docs/check_links.py``) finds zero broken internal
  links or anchors across the site, README and ROADMAP;
* the site keeps covering the four architecture subsystems plus the
  runbook and store-backend pages (a deleted or renamed page fails here
  even if nothing linked to it).
"""

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"

#: The documentation contract: these pages must exist and be reachable
#: from the index.
REQUIRED_PAGES = (
    "index.md",
    "runbook.md",
    "architecture/granulation-engine.md",
    "architecture/experiment-engine.md",
    "architecture/data-plane.md",
    "architecture/distributed-protocol.md",
    "architecture/store-backends.md",
)


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", DOCS / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_broken_internal_links(capsys):
    checker = load_checker()
    assert checker.main() == 0, capsys.readouterr().out


@pytest.mark.parametrize("page", REQUIRED_PAGES)
def test_required_page_exists_and_is_nonempty(page):
    path = DOCS / page
    assert path.exists(), f"missing documentation page {page}"
    assert len(path.read_text().strip()) > 200, f"{page} is a stub"


def test_index_links_every_required_page():
    index = (DOCS / "index.md").read_text()
    for page in REQUIRED_PAGES[1:]:
        assert page in index, f"docs/index.md does not link {page}"


def test_readme_links_into_the_docs_site():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/index.md" in readme


def test_runbook_covers_the_operator_topics():
    runbook = (DOCS / "runbook.md").read_text().lower()
    for topic in ("lease_ttl", ".claim", ".plan", "stale",
                  "bench_grid.json", "garbage-collect"):
        assert topic in runbook, f"runbook does not cover {topic!r}"


def test_checker_rejects_a_broken_link(tmp_path, monkeypatch):
    """The link checker must actually fail on damage (guards against the
    checker silently matching nothing)."""
    checker = load_checker()
    site = tmp_path / "docs"
    site.mkdir()
    (site / "index.md").write_text("[gone](missing.md)\n# Title\n")
    monkeypatch.setattr(checker, "DOCS_DIR", site)
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    assert checker.main() == 1


def test_checker_validates_anchors(tmp_path, monkeypatch):
    checker = load_checker()
    site = tmp_path / "docs"
    site.mkdir()
    (site / "a.md").write_text("# Real Heading\n[ok](b.md#real-heading)\n")
    (site / "b.md").write_text("# Real Heading\n[bad](a.md#fake-heading)\n")
    monkeypatch.setattr(checker, "DOCS_DIR", site)
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    assert checker.main() == 1


def test_architecture_pages_name_their_contract_tests():
    """Every architecture page points at the tests pinning its contracts
    (the docs promise verifiability, not just description)."""
    for page in REQUIRED_PAGES:
        if not page.startswith("architecture/"):
            continue
        text = (DOCS / page).read_text()
        referenced = re.findall(r"tests/[\w/]+\.py", text)
        assert referenced, f"{page} names no contract tests"
        for test_file in referenced:
            assert (REPO_ROOT / test_file).exists(), (
                f"{page} references missing {test_file}"
            )


def _defined_flags() -> set[str]:
    """Every ``--flag`` an argparse ``add_argument`` call defines in the
    package, the benchmark scripts or the repo benchmark."""
    flags = set()
    for top in ("src", "benchmarks", "perfbench"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            for names in re.findall(
                r"add_argument\(\s*((?:[\"'][^\"']*[\"']\s*,\s*)+)",
                path.read_text(),
            ):
                flags.update(re.findall(r"[\"'](--[\w-]+)[\"']", names))
    return flags


def test_every_documented_flag_is_defined():
    """A flag the docs or README name must exist: an option that was
    removed from the code may not live on in the docs."""
    defined = _defined_flags()
    assert "--port" in defined and "--store-url" in defined  # scan works
    pages = [*DOCS.rglob("*.md"), REPO_ROOT / "README.md"]
    undefined = sorted(
        f"{page.relative_to(REPO_ROOT)}: {flag}"
        for page in pages
        for flag in set(re.findall(r"(?<![\w-])--[a-z][\w-]*",
                                   page.read_text()))
        if flag not in defined
    )
    assert not undefined, undefined
