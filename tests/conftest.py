from hypothesis import settings

# A larger budget for CI (`pytest --hypothesis-profile=ci`); the default run
# keeps Hypothesis's defaults, and a test's own @settings still win.
settings.register_profile("ci", max_examples=1000, deadline=None)
