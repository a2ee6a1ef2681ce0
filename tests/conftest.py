import pytest

from wasslab import measure_fields, ot_exact, viscosity, wgeom


@pytest.fixture(autouse=True)
def empty_solve_memo():
    """Start and end every test with an empty solve memo, so test order cannot matter."""
    ot_exact._memo.clear()
    yield
    ot_exact._memo.clear()


@pytest.fixture
def solve_calls(monkeypatch) -> list:
    """The (mu, nu) pairs `ot_exact._solve` is called on: the solves the memo did not serve."""
    calls = []
    solve = ot_exact._solve

    def counted(mu, nu, p):
        calls.append((mu, nu))
        return solve(mu, nu, p)
    monkeypatch.setattr(ot_exact, "_solve", counted)
    return calls


@pytest.fixture
def solves(monkeypatch) -> list:
    """The (mu, nu) pairs of every exact solve the verdicts and the sphere sampler make."""
    calls = []

    def counted(mu, nu, p):
        calls.append((mu, nu))
        return ot_exact.wasserstein_exact(mu, nu, p)
    for module in (measure_fields, viscosity, wgeom):
        monkeypatch.setattr(module, "wasserstein_exact", counted)
    return calls
