"""podium: exact q-series arithmetic and partition identity verification.

The package computes with truncated formal power series over the
integers, with no rounding anywhere.  It provides:

- :mod:`podium.series`: the exact series ring (Kronecker-substitution
  products, Newton inverses, substitutions, Pochhammer products and the
  sparse eta-quotient kernels);
- :mod:`podium.theta`: the evaluator behind every theta{...} sum, which
  is written as identity text;
- :mod:`podium.dsl`: a small expression language so identities are data,
  and the one path from text to a series; it owns the names of the
  sixteen partition-counting functions, their product forms and the
  named theta sums;
- :mod:`podium.partitions`: an independent enumeration oracle for each
  counting function, and its series and table from the product form;
- :mod:`podium.manifest`: a bundled manifest of classical identities and
  the runners that verify it;
- :mod:`podium.cli`: the `podium` command.
"""

from .series import Mismatch, Series, constant, equal_upto, pochhammer, q_power
from .theta import Domain, DivergenceError
from .partitions import (
    DEFAULT_CAPS,
    HARD_CAPS,
    CapExceededError,
    count_by_enumeration,
    gf_series,
    table,
)
from .dsl import EvalError, FunctionId, ParseError, check, evaluate, expand, named_theta, parse, pretty
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
    "Series",
    "SuiteEntry",
    "SuiteReport",
    "bundled_manifest",
    "check",
    "constant",
    "count_by_enumeration",
    "equal_upto",
    "evaluate",
    "expand",
    "gf_series",
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
]
