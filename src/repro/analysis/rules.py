"""The pmlint rules (PM01–PM05) as path searches over function CFGs.

Each rule is a function ``(cfg | module context) -> [Finding]``; the
facade in :mod:`repro.analysis.pmlint` runs all of them and handles
whitelist suppression and rendering.  ``docs/LINT_RULES.md`` documents
every rule with bad/good code pairs and its Table-2 bug-class mapping.

The rules are path-*existential*: a finding means "there exists a
syntactically complete path through this function on which the ordering
property fails".  Paths through ``raise`` sinks are excluded (an
exception abandons the operation — the resulting crash-consistency
question belongs to the caller), and unknown offsets/sizes degrade
toward not reporting, so findings stay actionable.
"""

from .cfg import contains, covers, overlaps

# Persistency states tracked for a watched store (mirrors
# repro.pmem.memory's per-line state machine).
DIRTY, PENDING, CLEAN = 0, 1, 2


class Finding:
    """One lint finding, addressed like a runtime detection record.

    ``instr_id`` is the ``module:function:line`` string the runtime
    :class:`~repro.instrument.callsite.CallSiteTable` would resolve for
    the same call site, so whitelist suppressions use the identical key
    space as dynamic reports.
    """

    __slots__ = ("rule", "instr_id", "module", "function", "line",
                 "message", "event")

    def __init__(self, rule, event, message):
        self.rule = rule
        self.instr_id = event.instr_id
        module, function, line = event.instr_id.rsplit(":", 2)
        self.module = module
        self.function = function
        self.line = int(line)
        self.message = message
        self.event = event

    def to_dict(self):
        return {
            "rule": self.rule,
            "instr_id": self.instr_id,
            "module": self.module,
            "function": self.function,
            "line": self.line,
            "message": self.message,
        }

    def format(self):
        return "%s [%s] %s" % (self.instr_id, self.rule, self.message)

    def __repr__(self):
        return "<Finding %s %s>" % (self.rule, self.instr_id)


# ----------------------------------------------------------------------
# PM01 — store with no reachable flush+fence on some path


def _walk_pm01(cfg, store, block, index, state, memo):
    """Forward search from just after ``store``.  Returns True when some
    path reaches ``exit`` without the store becoming CLEAN."""
    events = block.events[index:]
    for pos, event in enumerate(events):
        if event.kind == "ntstore" and contains(event, store):
            return False                       # rewritten write-through
        if event.kind == "store" and event is not store \
                and contains(event, store):
            # Fully overwritten by a later cached store: that store is
            # analyzed on its own; this path stops being ours.
            return False
        if state == DIRTY and event.kind in ("flush", "persist") \
                and covers(event, store):
            state = PENDING if event.kind == "flush" else CLEAN
        elif state == PENDING and event.kind in ("fence", "persist"):
            state = CLEAN
        if state == CLEAN:
            return False
    if block is cfg.exit:
        return True
    if block is cfg.abort:
        return False                           # exception paths excluded
    key = (block, state)
    if key in memo:
        return memo[key]
    memo[key] = False                          # cycle: assume no escape
    result = any(_walk_pm01(cfg, store, succ, 0, state, memo)
                 for succ in block.succs)
    memo[key] = result
    return result


def rule_pm01(cfg):
    """PM01: cached store (or CAS) with no flush+fence on some path to
    function exit — the crash window behind Table-2's inter-thread
    inconsistencies (e.g. memcached bugs 9/10)."""
    findings = []
    for block in cfg.blocks:
        for index, event in enumerate(block.events):
            if event.kind not in ("store", "cas"):
                continue
            if event.addr is None:
                continue
            memo = {}
            if _walk_pm01(cfg, event, block, index + 1, DIRTY, memo):
                findings.append(Finding(
                    "PM01", event,
                    "%s(%s) may reach function exit unflushed "
                    "(no covering clwb/persist + sfence on some path)"
                    % (event.method, event.addr.text)))
    return findings


# ----------------------------------------------------------------------
# PM02 — flush never followed by a fence (fence-before-flush ordering)


def _walk_pm02(cfg, block, index, memo):
    """True when some path from events[index:] reaches exit with no
    fence/persist."""
    for event in block.events[index:]:
        if event.kind in ("fence", "persist"):
            return False
    if block is cfg.exit:
        return True
    if block is cfg.abort:
        return False
    if block in memo:
        return memo[block]
    memo[block] = False
    result = any(_walk_pm02(cfg, succ, 0, memo) for succ in block.succs)
    memo[block] = result
    return result


def rule_pm02(cfg):
    """PM02: a clwb/flush_range whose paths to exit contain no sfence
    (or persist).  A fence *before* the flush orders nothing — the flush
    is asynchronous until the next fence drains it."""
    findings = []
    fence_seen = False
    for block in cfg.blocks:
        for index, event in enumerate(block.events):
            if event.kind in ("fence", "persist"):
                fence_seen = True
            if event.kind != "flush":
                continue
            memo = {}
            if _walk_pm02(cfg, block, index + 1, memo):
                hint = (" (an earlier sfence does not order this flush — "
                        "fences drain only preceding flushes)"
                        if fence_seen else "")
                findings.append(Finding(
                    "PM02", event,
                    "%s(%s) is never fenced on some path to exit%s"
                    % (event.method, event.addr.text if event.addr else "?",
                       hint)))
    return findings


# ----------------------------------------------------------------------
# PM03 — sync variable written through PM hooks but never registered


_SYNC_TOKENS = ("lock", "mutex", "latch")


def _looks_like_sync(addr):
    if addr is None:
        return False
    for name in addr.names:
        lowered = name.lower()
        if any(token in lowered for token in _SYNC_TOKENS):
            return True
    return False


def rule_pm03(cfgs, registered_names):
    """PM03: stores/CAS to lock-like PM addresses in modules that never
    register them via ``pm_sync_var_hint``/``register_instance`` —
    post-failure validation (§4.4) cannot check unregistered sync vars,
    the class behind P-CLHT's never-re-initialized bucket locks.

    ``registered_names`` holds every identifier/string mentioned in the
    module's annotation-registration calls.
    """
    findings = []
    for cfg in cfgs:
        for event in cfg.events():
            if event.kind not in ("store", "cas", "ntstore"):
                continue
            if not _looks_like_sync(event.addr):
                continue
            names = {n for n in event.addr.names
                     if any(t in n.lower() for t in _SYNC_TOKENS)}
            if names & registered_names:
                continue
            findings.append(Finding(
                "PM03", event,
                "%s(%s) writes a sync-like PM variable never registered "
                "via pm_sync_var_hint/register_instance (unchecked by "
                "post-failure validation)"
                % (event.method, event.addr.text)))
    return findings


def collect_registered_names(tree):
    """Identifiers and string literals passed to annotation-registration
    calls anywhere in a parsed module."""
    import ast

    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else \
            (func.id if isinstance(func, ast.Name) else None)
        if callee not in ("pm_sync_var_hint", "register_instance"):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.Constant) \
                        and isinstance(sub.value, str):
                    names.add(sub.value)
    return names


# ----------------------------------------------------------------------
# PM04 — flush of a provably clean line (wasted write-back)


def _walk_pm04(cfg, flush, block, index, fence_seen, memo):
    """Backward search: True when the line is provably clean on *this*
    incoming path (no overlapping cached store since it last became
    durable)."""
    for event in reversed(block.events[:index]):
        if event.kind in ("store", "cas") and overlaps(event, flush):
            return False                       # could be dirty
        if event.kind == "ntstore" and contains(event, flush):
            return True                        # durably written through
        if event.kind == "persist" and contains(event, flush):
            return True
        if event.kind == "flush" and fence_seen and contains(event, flush):
            return True                        # already flushed + fenced
        if event.kind in ("fence", "persist"):
            fence_seen = True
    if block is cfg.entry:
        return False                           # unknown state at entry
    key = (block, fence_seen)
    if key in memo:
        return memo[key]
    memo[key] = False                          # cycle: not provable
    preds = [b for b in cfg.blocks if block in b.succs]
    if not preds:
        return False
    result = all(_walk_pm04(cfg, flush, pred, len(pred.events),
                            fence_seen, memo) for pred in preds)
    memo[key] = result
    return result


def rule_pm04(cfg):
    """PM04: flushing a line that is provably already durable on every
    incoming path — pure overhead, the paper's redundant-flush
    performance-bug candidates."""
    findings = []
    for block in cfg.blocks:
        for index, event in enumerate(block.events):
            if event.kind not in ("flush", "persist"):
                continue
            if event.addr is None or event.addr.offset is None \
                    or event.size is None:
                continue
            memo = {}
            if _walk_pm04(cfg, event, block, index, False, memo):
                findings.append(Finding(
                    "PM04", event,
                    "%s(%s) flushes a provably clean range on every "
                    "incoming path (redundant write-back)"
                    % (event.method, event.addr.text)))
    return findings


# ----------------------------------------------------------------------
# PM05 — transaction-scoped call outside any transaction


def rule_pm05(cfg):
    """PM05: ``add_range``/``tx_alloc``/``tx_free`` invoked with no
    enclosing ``with Transaction(...)`` scope — the write is not
    undo-logged, so a crash mid-operation cannot roll it back."""
    findings = []
    for event in cfg.events():
        if event.kind != "txcall" or event.tx_depth > 0:
            continue
        if event.receiver in ("self", "cls"):
            continue                 # method definitions on the tx class
        findings.append(Finding(
            "PM05", event,
            "%s.%s(...) outside any 'with Transaction(...)' scope "
            "(write is not undo-logged)"
            % (event.receiver, event.method)))
    return findings
