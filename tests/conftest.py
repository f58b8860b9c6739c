import pytest

from momentlab.stepfn import ModulatedStep


@pytest.fixture
def transforms(monkeypatch):
    """The ``inverse`` flag of every ``ModulatedStep._transform`` call, in call order."""
    calls, real = [], ModulatedStep._transform
    monkeypatch.setattr(ModulatedStep, "_transform", lambda g, inverse: (calls.append(inverse), real(g, inverse))[1])
    return calls
