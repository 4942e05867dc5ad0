"""Each layer module's ``__all__`` lists exactly its public definitions."""

import importlib

import pytest


@pytest.mark.parametrize(
    "name", ["collective_spin", "squeezing", "protocol", "wigner"]
)
def test_all_matches_public_definitions(name):
    module = importlib.import_module(f"spinrsp.{name}")
    defined = [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and callable(value)
        and getattr(value, "__module__", None) == module.__name__
    ]
    assert len(set(module.__all__)) == len(module.__all__)
    assert sorted(module.__all__) == sorted(defined)
