import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=50,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture(scope="session")
def families():
    from orliczkit import make_family
    return {
        name: make_family(name, {}, None)
        for name in ("example_3_2", "example_3_4", "example_3_5",
                     "example_4_6")
    }


@pytest.fixture
def conjugate_rows(monkeypatch):
    """The number of rows handed to each PowerTable._conjugate_sup call."""
    from orliczkit.phi_core import PowerTable
    calls = []
    sup = PowerTable._conjugate_sup

    def counted(self, T, linear):
        calls.append(len(T))
        return sup(self, T, linear)

    monkeypatch.setattr(PowerTable, "_conjugate_sup", counted)
    return calls


@pytest.fixture
def table_builds(monkeypatch):
    """The number of points of each PhiFunction.table call."""
    from orliczkit import PhiFunction
    calls = []
    table = PhiFunction.table

    def counted(self, X):
        calls.append(len(X))
        return table(self, X)

    monkeypatch.setattr(PhiFunction, "table", counted)
    return calls
