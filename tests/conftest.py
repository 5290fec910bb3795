import json
import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def oracle():
    with open(FIXTURES / "oracle_values.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def thresholds():
    with open(FIXTURES / "convergence_thresholds.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def two_level_rows():
    with open(FIXTURES / "two_level_rows.json", encoding="utf-8") as fh:
        return json.load(fh)
