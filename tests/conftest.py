"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def child_bytecode_cache(tmp_path_factory):
    """One bytecode cache for every child interpreter of the session.

    ``run_process`` in test_cli.py and ``fresh`` in test_imports.py start
    child interpreters with this process's environment. Without a cache
    each child compiles every module it imports, since a test run may set
    PYTHONDONTWRITEBYTECODE. The children write their bytecode under one
    temporary directory instead, so a module is compiled once a session.
    """
    with pytest.MonkeyPatch.context() as env:
        env.setenv("PYTHONPYCACHEPREFIX", str(tmp_path_factory.mktemp("pycache")))
        env.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        yield
