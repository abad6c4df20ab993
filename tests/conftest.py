import json

import pytest

from spdc_lab.cli import shipped_config_path
from spdc_lab.config import load_config


@pytest.fixture(scope="session")
def degenerate():
    return load_config(shipped_config_path("degenerate_810"))


@pytest.fixture(scope="session")
def nondegenerate():
    return load_config(shipped_config_path("nondegenerate_850_609"))


@pytest.fixture
def degenerate_with(tmp_path):
    """``degenerate_with(section, key, value)``: the shipped degenerate_810
    configuration with ``section.key`` set to ``value``, loaded from a copy."""

    def load(section, key, value):
        with open(shipped_config_path("degenerate_810")) as fh:
            raw = json.load(fh)
        raw[section][key] = value
        path = tmp_path / "degenerate_with.json"
        path.write_text(json.dumps(raw))
        return load_config(path)

    return load
