"""The traced benchmark (perfbench/spans.py) wraps prouhet names in place.

It looks each one up with vars(owner)[name], so a refactor that drops or
renames a hooked name breaks the traced run; this test fails first.
"""

import importlib.util
from pathlib import Path

from prouhet import cli, factorization, lehmer, partition, rings, sequence

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = (
    cli,
    factorization,
    lehmer,
    partition,
    rings,
    sequence,
    factorization.DensePolynomial,
    rings.CyclotomicElement,
    rings.ZeroSumForm,
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_install_wraps_hooked_names_and_undo_restores_them():
    spans = load_spans()
    before = snapshot()
    undo = spans.install(spans.Tracer())
    try:
        during = snapshot()
    finally:
        undo()
    changed = {
        (getattr(owner, "__name__", owner), name)
        for owner, old, new in zip(OWNERS, before, during)
        for name in old
        if new[name] is not old[name]
    }
    assert ("prouhet.cli", "ptm_block") in changed
    assert ("prouhet.partition", "ptm_term") in changed
    assert ("prouhet.lehmer", "lehmer_expand") in changed
    after = snapshot()
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner
        assert all(new[name] is old[name] for name in old), owner
