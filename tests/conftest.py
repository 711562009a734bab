"""Hypothesis profiles for runs larger than Tier-1's.

Tier-1 loads no profile, so ``tests/test_codec_invariants.py`` runs each
property on 100 derandomized examples.  Loading ``invariants-2000`` gives
that module's properties 2000 examples each, still derandomized::

    PYTHONPATH=src python3 -m pytest -q tests/test_codec_invariants.py \\
        --hypothesis-profile invariants-2000

The profile is registered here because pytest loads it before it imports
any test module.
"""

from hypothesis import settings

settings.register_profile("invariants-2000", max_examples=2000)
