import sys
from pathlib import Path

from hypothesis import settings

# make the shared oracle helpers importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

# One verdict per commit: every property test draws a fixed set of examples
# (seeded from the test itself) and replays no failures stored by an earlier
# run.  Tests keep their own max_examples.
settings.register_profile("fixed_examples", derandomize=True, database=None)
settings.load_profile("fixed_examples")
