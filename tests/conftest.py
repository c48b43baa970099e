"""Pytest configuration: make tests/ importable for shared helpers, and
fail the run when the tests leave the git checkout changed."""

import os
import subprocess
import sys

import pytest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)

sys.path.insert(0, TESTS_DIR)


def _git(*args):
    """Stdout of ``git -C REPO_ROOT args``, or None if git fails."""
    try:
        proc = subprocess.run(
            ["git", "-C", REPO_ROOT, *args],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _checkout_status():
    """``git status --porcelain`` of the repo, or None when the repo is
    not the top of a git checkout (or git is missing)."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top.strip()) != os.path.realpath(
        REPO_ROOT
    ):
        return None
    return _git("status", "--porcelain")


@pytest.fixture(scope="session", autouse=True)
def hermetic_checkout():
    """Tests write only to temp dirs: the tree's git status at the end of
    the session must equal its status at the start."""
    before = _checkout_status()
    yield
    if before is None:
        return
    after = _checkout_status() or ""
    changed = sorted(set(before.splitlines()) ^ set(after.splitlines()))
    assert not changed, (
        "the test session changed the checkout (git status --porcelain, "
        "before vs after):\n" + "\n".join(changed)
    )
