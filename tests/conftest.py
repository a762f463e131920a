"""Hypothesis settings for the whole suite: a failing property prints its
``@reproduce_failure`` blob, so a failure in a run with a fresh example
database can be replayed."""

from hypothesis import settings

settings.register_profile("ibnsim", print_blob=True)
settings.load_profile("ibnsim")
