"""Pattern-specialized adversarial generation of IPv6 scan targets.

Seeds are classified into address-configuration patterns, one sequence
generator per pattern is trained against a shared multi-class
discriminator with alias-aware policy-gradient rewards, and candidate
targets are sampled under an allocated probe budget.
"""

import os
import sys

# One BLAS thread unless the caller sets another count.  A threaded matrix
# product can sum in another order and so change output bytes; BLAS reads
# these variables once, when NumPy loads, so they are set before that.  If
# NumPy loaded first, a variable set here has no effect, and manifests
# record it as not applied.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_late = "numpy" in sys.modules
BLAS_VARS_NOT_APPLIED = tuple(v for v in BLAS_THREAD_VARS if _late and v not in os.environ)
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var, _late

from .addr import (
    AddressParseError,
    AliasTrie,
    NybblePrefix,
    NybbleSeq,
    format_address,
    parse_address,
    parse_prefix,
)
from .alias import filter_aliased
from .classify import (
    LabeledSeedCorpus,
    PatternLabel,
    classify_entropy,
    classify_ipv62vec,
    classify_rfc,
    classify_rfc_corpus,
)
from .gan import (
    DiscriminatorModel,
    Generators,
    NetConfig,
    RewardConfig,
    TrainSchedule,
    generate_candidates,
    train_6gan,
)
from .metrics import (
    CandidateSet,
    EvaluationReport,
    allocate_budget,
    diversity,
    evaluate,
    novelty,
    pattern_quality,
)
from .nn import DivergenceError, load_checkpoint, save_checkpoint
from .oracle import (
    PatternFamily,
    ProbeStatus,
    UniverseOracle,
    UniverseSpec,
    sample_seeds,
)

__version__ = "0.1.0"

__all__ = [
    "AddressParseError",
    "AliasTrie",
    "CandidateSet",
    "DiscriminatorModel",
    "DivergenceError",
    "EvaluationReport",
    "Generators",
    "LabeledSeedCorpus",
    "NetConfig",
    "NybblePrefix",
    "NybbleSeq",
    "PatternFamily",
    "PatternLabel",
    "ProbeStatus",
    "RewardConfig",
    "TrainSchedule",
    "UniverseOracle",
    "UniverseSpec",
    "allocate_budget",
    "classify_entropy",
    "classify_ipv62vec",
    "classify_rfc",
    "classify_rfc_corpus",
    "diversity",
    "evaluate",
    "filter_aliased",
    "format_address",
    "generate_candidates",
    "load_checkpoint",
    "novelty",
    "parse_address",
    "parse_prefix",
    "pattern_quality",
    "sample_seeds",
    "save_checkpoint",
    "train_6gan",
    "__version__",
]
