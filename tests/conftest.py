from pathlib import Path

import pytest

from labelflow import KnowledgeBase, parse_policy, parse_route
from labelflow.policy_compiler import compile_policy

FIXTURES = Path(__file__).parent / "fixtures"


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def sensor_route():
    return parse_route(read_fixture("sensor.route"))


@pytest.fixture
def dont_publish_raw():
    return compile_policy(parse_policy(read_fixture("dont_publish_raw.lucon")))


@pytest.fixture
def chain_route():
    return parse_route(read_fixture("measurement_chain.route"))


@pytest.fixture
def chain_policy():
    return compile_policy(parse_policy(read_fixture("measurement_chain.lucon")))


@pytest.fixture
def kb_builds(monkeypatch) -> list:
    """Clause counts of every ``KnowledgeBase`` constructed in the test."""
    builds = []
    init = KnowledgeBase.__init__

    def counting_init(self, clauses, builtins=None):
        builds.append(len(clauses))
        init(self, clauses, builtins)

    monkeypatch.setattr(KnowledgeBase, "__init__", counting_init)
    return builds
