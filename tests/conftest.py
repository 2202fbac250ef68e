from pathlib import Path

import pytest

from fdrs.cli import parse_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def fig2a_cfg():
    return parse_config(str(CONFIG_DIR / "fig2a.cfg"))


@pytest.fixture(scope="session")
def fig2b_cfg():
    return parse_config(str(CONFIG_DIR / "fig2b.cfg"))


@pytest.fixture(scope="session")
def fig4_cfg():
    return parse_config(str(CONFIG_DIR / "fig4.cfg"))


@pytest.fixture(scope="session")
def fig3_cfg():
    return parse_config(str(CONFIG_DIR / "fig3.cfg"))
