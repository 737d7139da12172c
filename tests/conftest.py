"""Hypothesis settings for the whole suite.

No property has a per-example deadline: on a shared host an example's time can
drift by 2x between runs, so a deadline would fail correct code at random.
"""
from hypothesis import settings

settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")
