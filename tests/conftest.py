import os

from hypothesis import settings

# Local runs use "brc"; CI sets HYPOTHESIS_PROFILE=ci for more examples per property.
settings.register_profile("brc", deadline=None, max_examples=100)
settings.register_profile("ci", deadline=None, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "brc"))
