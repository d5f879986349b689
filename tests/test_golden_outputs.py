import json

import numpy as np
import pytest

import golden_outputs as golden

FIXTURE = json.loads(golden.PATH.read_text())

draws_only = pytest.mark.skipif(
    FIXTURE["numpy"] != np.__version__,
    reason=f"draw-dependent keys were recorded under numpy {FIXTURE['numpy']}, and this is "
           f"numpy {np.__version__}, whose distribution methods may draw other values")


def _moved(section: str, computed: dict) -> list[str]:
    """The keys of ``computed`` whose value is not the fixture's."""
    return [key for key, value in computed.items() if FIXTURE[section].get(key) != value]


def test_fixture_has_every_key():
    keys = {key for key, *_ in (*golden.sweep_keys(), *golden.reference_keys())}
    assert FIXTURE["draws"].keys() == keys
    assert FIXTURE["analytic"].keys() == {key for key, _ in golden.alpha_keys()}


def test_alpha_solutions():
    assert _moved("analytic", {key: golden.alpha(m) for key, m in golden.alpha_keys()}) == []


@draws_only
@pytest.mark.parametrize("workers", [1, 2])
def test_sweeps(workers):
    computed = {key: golden.sweep(*args, workers=workers) for key, *args in golden.sweep_keys()}
    assert _moved("draws", computed) == []


@draws_only
def test_reference_rows():
    computed = {key: golden.reference(*args) for key, *args in golden.reference_keys()}
    assert _moved("draws", computed) == []
