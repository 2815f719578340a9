"""podium: exact q-series arithmetic and partition identity verification.

The package computes with truncated formal power series over the
integers, with no rounding anywhere.  It provides:

- :mod:`podium.series`: the exact series ring (Kronecker-substitution
  products, Newton inverses, substitutions, Pochhammer products and the
  sparse eta-quotient kernels);
- :mod:`podium.theta`: the evaluator of theta-type sums;
- :mod:`podium.partitions`: sixteen partition-counting functions, each
  with a product form (identity-language text) and an independent
  enumeration oracle;
- :mod:`podium.dsl`: a small expression language so identities are data,
  and the one path from text to a series (named theta sums included);
- :mod:`podium.manifest`: a bundled manifest of classical identities and
  the runners that verify it;
- :mod:`podium.cli`: the `podium` command.
"""

from .series import Mismatch, Series, constant, equal_upto, pochhammer, q_power
from .theta import (
    Domain,
    DivergenceError,
    QuadExp,
    ceil_half,
    gpent,
    theta_series,
    triangular,
)
from .partitions import (
    DEFAULT_CAPS,
    HARD_CAPS,
    CapExceededError,
    FunctionId,
    count_by_enumeration,
    gf_series,
    table,
)
from .dsl import EvalError, ParseError, check, evaluate, expand, named_theta, parse, pretty
from .manifest import (
    MAX_ORDER,
    IdentityRecord,
    ManifestError,
    SuiteEntry,
    SuiteReport,
    bundled_manifest,
    load_manifest,
    parse_manifest,
    run_oracle_suite,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "DEFAULT_CAPS",
    "DivergenceError",
    "Domain",
    "EvalError",
    "FunctionId",
    "HARD_CAPS",
    "IdentityRecord",
    "MAX_ORDER",
    "ManifestError",
    "Mismatch",
    "ParseError",
    "QuadExp",
    "Series",
    "SuiteEntry",
    "SuiteReport",
    "bundled_manifest",
    "ceil_half",
    "check",
    "constant",
    "count_by_enumeration",
    "equal_upto",
    "evaluate",
    "expand",
    "gf_series",
    "gpent",
    "load_manifest",
    "named_theta",
    "parse",
    "parse_manifest",
    "pochhammer",
    "pretty",
    "q_power",
    "run_oracle_suite",
    "run_suite",
    "table",
    "theta_series",
    "triangular",
]
