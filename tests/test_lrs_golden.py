"""Replay of tests/data/lrs_golden.json, lrs results with verify on in
all three modes (see tests/data/make_lrs_golden.py).  Verified orders
are exact, so they must match whatever route the scan takes; the
preprocessing log, the certificate's line included, must match too."""

import json
from pathlib import Path

import pytest

from cyclolrs.lrs import lrs_degeneracy_orders

GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "lrs_golden.json").read_text())


def verified(orders):
    return [k for k, s in orders if s == "verified"]


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["name"] for e in GOLDEN])
def test_lrs_golden_replay(entry):
    for mode, want in entry["runs"].items():
        rep = lrs_degeneracy_orders(entry["f"], rng=entry["seed"], verify=True, mode=mode)
        assert verified(rep.orders) == verified(want["orders"]), mode
        assert list(rep.preprocessing_log) == want["preprocessing_log"], mode
