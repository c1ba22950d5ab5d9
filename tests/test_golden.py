"""The CLI's outputs on two fixed sets equal the committed golden files
(``make_golden.py`` writes them and says what each holds).

Every field compares byte for byte, as its JSON text, except ``solver_gap``
and the model file's W entries: they are W's last bits, which move with the
BLAS thread count, so they compare to 1e-12 relative (the ``experiment``
module docstring states the contract).
"""

import json

import pytest

from make_golden import DATASETS, GOLDEN, golden_outputs


def assert_same(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif (path.endswith(".solver_gap") or ".W[" in path) and want is not None:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert json.dumps(got) == json.dumps(want), path


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_outputs_match_golden_files(name, tmp_path):
    for suffix, text in golden_outputs(DATASETS[name], tmp_path).items():
        want = (GOLDEN / f"{name}_{suffix}").read_text()
        if suffix.endswith(".json"):
            assert_same(json.loads(text), json.loads(want), f"{name}_{suffix}")
        else:
            assert text == want, f"{name}_{suffix}"
