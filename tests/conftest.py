from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def load_corpus(name):
    """Parse a fixture corpus TSV into (input, field1, field2) tuples."""
    rows = []
    with open(FIXTURES / name, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            assert len(parts) == 3, f"malformed corpus line: {line!r}"
            rows.append(tuple(parts))
    return rows

