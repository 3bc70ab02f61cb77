from hypothesis import settings

# Tier-1 draws the same examples on every run and keeps no example database
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
