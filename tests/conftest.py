from pathlib import Path

import pytest

from fbas import Corpus, load_corpus, load_patterns

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def fixture_corpus() -> Corpus:
    return load_corpus(DATA_DIR / "italian_sample.txt")


@pytest.fixture(scope="session")
def fixture_patterns() -> tuple[bytes, ...]:
    return load_patterns(DATA_DIR / "patterns12.txt")
