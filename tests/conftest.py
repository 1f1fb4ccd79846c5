from hypothesis import settings

# One profile for every property test: enough examples to reach edge shapes,
# no per-example deadline (BLAS timings vary), and a fixed example sequence.
settings.register_profile("mfachest", max_examples=80, deadline=None, derandomize=True)
settings.load_profile("mfachest")
