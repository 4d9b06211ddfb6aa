"""pmlint: the static PM-misuse analyzer's public facade.

``lint_source``/``lint_file`` analyze one module; ``lint_target``
resolves a :class:`~repro.targets.base.Target` (class or instance) to
its defining source file; ``lint_builtin_targets`` sweeps all five
paper targets.  Findings are suppressed through the same substring
format as :mod:`repro.detect.whitelist` — ``builtin.whitelist`` (checked
in next to this module) suppresses the *intentional* Table-2 bugs the
built-in targets carry, so CI can require zero unsuppressed findings
while the bugs stay discoverable by the fuzzer.

CLI: ``python -m repro lint [files...]`` (see README's CLI reference).
"""

import ast
import inspect
import json
import os

from ..detect.whitelist import Whitelist
from .cfg import build_cfgs
from .rules import (collect_registered_names, rule_pm01, rule_pm02,
                    rule_pm04, rule_pm05, rule_pm03)

#: Rule id -> one-line description (rendered in text reports and docs).
RULE_SUMMARIES = {
    "PM01": "cached store may reach exit without flush+fence",
    "PM02": "flush never followed by a fence on some path",
    "PM03": "sync-like PM variable written but never registered",
    "PM04": "flush of a provably clean range",
    "PM05": "transactional write outside a Transaction scope",
}

BUILTIN_WHITELIST_PATH = os.path.join(os.path.dirname(__file__),
                                      "builtin.whitelist")


class LintReport:
    """Findings for one or more modules, plus what suppression removed.

    Attributes:
        findings: Unsuppressed findings, source order.
        suppressed: Findings removed by the whitelist.
    """

    def __init__(self):
        self.findings = []
        self.suppressed = []

    def extend(self, other):
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)

    @property
    def ok(self):
        return not self.findings

    def render_text(self):
        lines = []
        for finding in self.findings:
            lines.append(finding.format())
        lines.append("pmlint: %d finding%s (%d suppressed)"
                     % (len(self.findings),
                        "" if len(self.findings) == 1 else "s",
                        len(self.suppressed)))
        return "\n".join(lines)

    def to_dict(self):
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "counts": self.counts(),
        }

    def counts(self):
        by_rule = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
        return by_rule

    def render_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _run_rules(cfgs, tree, sync_names=()):
    findings = []
    for cfg in cfgs:
        findings.extend(rule_pm01(cfg))
        findings.extend(rule_pm02(cfg))
        findings.extend(rule_pm04(cfg))
        findings.extend(rule_pm05(cfg))
    registered = collect_registered_names(tree) | set(sync_names)
    findings.extend(rule_pm03(cfgs, registered))
    findings.sort(key=lambda f: (f.module, f.line, f.rule))
    return findings


def lint_source(source, module_name, whitelist=None, sync_names=()):
    """Lint python ``source`` text attributed to ``module_name``.

    ``sync_names`` augments PM03's registered-name set — pass a live
    :meth:`~repro.instrument.annotations.AnnotationRegistry.
    declared_names` when the target has been set up, so names registered
    outside the linted module do not false-positive.
    """
    tree = ast.parse(source)
    cfgs, _consts = build_cfgs(tree, module_name)
    report = LintReport()
    for finding in _run_rules(cfgs, tree, sync_names):
        if whitelist is not None and \
                whitelist.matches_location(finding.instr_id):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def lint_file(path, module_name=None, whitelist=None, sync_names=()):
    """Lint one file; ``module_name`` defaults to the basename stem."""
    if module_name is None:
        module_name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r") as handle:
        source = handle.read()
    return lint_source(source, module_name, whitelist=whitelist,
                       sync_names=sync_names)


def lint_target(target, whitelist=None, sync_names=()):
    """Lint the module defining a Target class (or instance)."""
    cls = target if inspect.isclass(target) else type(target)
    module_name = cls.__module__
    path = inspect.getsourcefile(cls)
    return lint_file(path, module_name=module_name, whitelist=whitelist,
                     sync_names=sync_names)


def load_builtin_whitelist(extra_entries=()):
    """The checked-in suppressions for the built-in targets' intentional
    Table-2 bugs (whitelist substring format, ``#`` comments)."""
    entries = []
    if os.path.exists(BUILTIN_WHITELIST_PATH):
        with open(BUILTIN_WHITELIST_PATH, "r") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    entries.append(line)
    entries.extend(extra_entries)
    return Whitelist(entries)


def lint_builtin_targets(whitelist=None, names=None):
    """Lint every built-in target module; returns one merged report.

    With ``whitelist=None`` the checked-in ``builtin.whitelist`` is
    applied — the configuration CI enforces to zero findings.
    """
    from ..targets import registry

    if whitelist is None:
        whitelist = load_builtin_whitelist()
    report = LintReport()
    seen_paths = set()
    if names is None:
        # Every *registered* class, so dynamically loaded plugin targets
        # (--target-module) are linted alongside the built-ins.
        classes = list(registry.registered_classes())
    else:
        classes = [registry.target_class(name) for name in names]
    for cls in classes:
        path = inspect.getsourcefile(cls)
        if path in seen_paths:
            continue
        seen_paths.add(path)
        report.extend(lint_target(cls, whitelist=whitelist))
    report.findings.sort(key=lambda f: (f.module, f.line, f.rule))
    return report
