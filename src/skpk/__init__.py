"""Secret-key and private-key generation over a three-terminal source.

Capacity-region computation, random-binning protocol execution at the named
corner points, exact small-blocklength secrecy evaluation, and a Monte Carlo
harness, all behind one CLI. The package exports what the README's library
example and the benchmark use; everything else is imported from its module.
"""

from .binning import MODE_TABLE
from .exact import ExactEvaluator, oracle_codebooks, oracle_secrecy
from .harness import ExperimentConfig, run_trials
from .protocol import STATUS_OK, RunContext, SchemeConfig, Transcript
from .region import rate_region
from .sources import xor_triple
from .typicality import TypicalityParams, is_strongly_typical

__version__ = "0.1.0"

__all__ = [
    "ExactEvaluator", "ExperimentConfig", "MODE_TABLE", "RunContext", "STATUS_OK",
    "SchemeConfig", "Transcript", "TypicalityParams", "is_strongly_typical",
    "oracle_codebooks", "oracle_secrecy", "rate_region", "run_trials", "xor_triple",
]
