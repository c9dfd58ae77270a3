"""Shared driver for property tests against brute-force oracles."""

import inspect
import random

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # run the same checks over a seeded loop instead
    given = None

EXAMPLES = 60


def random_cases(test):
    """Run test(..., rng) on EXAMPLES random generators: drawn by
    hypothesis when it imports, else seeded 0..EXAMPLES-1."""
    if given is not None:
        strategy = st.randoms(use_true_random=False)
        configured = settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
        return configured(given(rng=strategy)(test))

    def loop(*args, **kwargs):
        for seed in range(EXAMPLES):
            test(*args, rng=random.Random(seed), **kwargs)

    signature = inspect.signature(test)
    loop.__name__ = test.__name__
    loop.__signature__ = signature.replace(
        parameters=[p for p in signature.parameters.values() if p.name != "rng"]
    )
    return loop
