import json

import pytest

from qcong import cache
from qcong.mocktheta import MockTables
from qcong.series import EXACT, Ring


@pytest.fixture(scope="session")
def tables_exact():
    """Shared exact f/omega tables; coefficients are twist-independent."""
    return MockTables(EXACT)


@pytest.fixture(scope="session")
def tables_mod23():
    return MockTables(Ring(23))


@pytest.fixture(scope="session")
def tables_mod5():
    return MockTables(Ring(5))


@pytest.fixture
def write_legacy_text():
    """Writes a mod-m cache file the way earlier versions did (a header line
    with encoding "text", then one JSON array line); returns its path."""
    def write(directory, function, values, modulus, prec, delta=None, r=None):
        header = {"format": cache.FORMAT_TAG, "encoding": "text",
                  "function": function, "delta": delta, "r": r,
                  "modulus": modulus, "prec": prec,
                  "created": "2026-01-01T00:00:00+00:00"}
        path = directory / cache._file_name(function, modulus, prec, delta, r)
        path.write_text(json.dumps(header, sort_keys=True) + "\n"
                        + json.dumps(values) + "\n")
        return path
    return write
