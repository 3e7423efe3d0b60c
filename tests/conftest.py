"""Test-wide hypothesis settings: a failing property prints the
``@reproduce_failure`` line that replays its example.  Deadlines and
example counts stay each test's own."""

from hypothesis import settings

settings.register_profile("dunklweyl", print_blob=True)
settings.load_profile("dunklweyl")
