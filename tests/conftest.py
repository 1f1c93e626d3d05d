import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from emrings.construct import cyclic, poly_quotient_xn
from emrings.grading import canonical_grading
from emrings.rings import validate_ring

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def z4():
    return validate_ring(cyclic(4))


@pytest.fixture(scope="session")
def z6():
    return validate_ring(cyclic(6))


@pytest.fixture(scope="session")
def e1(z4):
    """Z4[Y]/(Y^2), order 16: the running example ring."""
    return validate_ring(poly_quotient_xn(z4, 2, var="Y"))


@pytest.fixture(scope="session")
def e1_grading(e1):
    return canonical_grading(e1)
