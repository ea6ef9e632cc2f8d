"""The CI workflow names only what the repository holds: every path it
names without a glob exists, and every pytest node id of the form
tests/<file>.py::<name> names a top-level class or function of that
file.  Nothing else reads the workflow, so a renamed test or script
would otherwise go unnoticed until the workflow runs."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# a path under one of the repository's top-level directories, with an
# optional ::name; a path inside a longer word or path is not one
_PATH = re.compile(r"(?<![\w$./-])((?:src|tests|scripts|bench|docs)/"
                   r"[\w./*-]*[\w*])(?:::(\w+))?")


def _references():
    """(path, name) for each path the workflow names, name being the
    ::name after it or ""."""
    return _PATH.findall(WORKFLOW.read_text(encoding="utf-8"))


def _top_level_names(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))}


def test_the_workflow_names_existing_paths_and_tests():
    refs = _references()
    found = {path for path, _ in refs}
    # the scan sees what the workflow plainly names
    assert {"scripts/golden.ptt", "tests/golden/golden.txt", "bench/run.py",
            "tests/test_cli.py", "tests/test_acceptance.py"} <= found
    assert ("tests/test_cli.py", "TestPinnedReports") in refs
    for path, name in refs:
        if "*" in path:
            assert list(ROOT.glob(path)), path
            continue
        assert (ROOT / path).exists(), path
        if name:
            assert name in _top_level_names(ROOT / path), f"{path}::{name}"
