"""Static PM-misuse analysis (pmlint).

The analyzer never imports or executes target code; it parses modules
with :mod:`ast`, lowers each function to a small CFG, and runs five
ordering/flush rules (PM01–PM05, see ``docs/LINT_RULES.md``).  Findings
address code with the same ``module:function:line`` strings the runtime
uses, so whitelist suppression shares one key space with dynamic
detection.
"""

from .pmlint import (LintReport, RULE_SUMMARIES, lint_builtin_targets,
                     lint_file, lint_source, lint_target,
                     load_builtin_whitelist)
from .rules import Finding

__all__ = [
    "Finding",
    "LintReport",
    "RULE_SUMMARIES",
    "lint_builtin_targets",
    "lint_file",
    "lint_source",
    "lint_target",
    "load_builtin_whitelist",
]
