"""Record types produced by the PM checkers and consumed by validation."""

import enum


class Verdict(enum.Enum):
    """Lifecycle of a detected inconsistency."""

    #: Detected pre-failure, not yet validated.
    PENDING = "pending"
    #: Recovery overwrote the side effect / re-initialized the sync var.
    VALIDATED_FP = "validated_fp"
    #: A whitelist entry matched the stack trace.
    WHITELISTED_FP = "whitelisted_fp"
    #: Survived post-failure validation: reported as a bug.
    BUG = "bug"


class CandidateRecord:
    """A PM Inter/Intra-thread Inconsistency *Candidate* (Definition 1).

    One thread read data with a non-persisted store outstanding.
    """

    __slots__ = ("candidate_id", "addr", "size", "read_instr", "write_instr",
                 "reader_tid", "writer_tid", "stack", "seq")

    def __init__(self, candidate_id, addr, size, read_instr, write_instr,
                 reader_tid, writer_tid, stack, seq):
        self.candidate_id = candidate_id
        self.addr = addr
        self.size = size
        self.read_instr = read_instr
        self.write_instr = write_instr
        self.reader_tid = reader_tid
        self.writer_tid = writer_tid
        self.stack = stack
        self.seq = seq

    @property
    def cross_thread(self):
        return self.reader_tid != self.writer_tid

    @property
    def kind(self):
        return "inter-candidate" if self.cross_thread else "intra-candidate"

    def dedup_key(self):
        return (self.read_instr, self.write_instr, self.cross_thread)

    def __repr__(self):
        return "<Candidate #%d %s write=%s read=%s>" % (
            self.candidate_id, self.kind, self.write_instr, self.read_instr)


class InconsistencyRecord:
    """A confirmed PM Inter/Intra-thread Inconsistency (Definition 2).

    A durable side effect (PM write) consumed data from a candidate read,
    either as content or as part of the address computation.
    """

    __slots__ = ("candidate", "side_effect_instr", "side_effect_addr",
                 "side_effect_size", "address_flow", "stack", "crash_image",
                 "verdict", "note", "bundle")

    def __init__(self, candidate, side_effect_instr, side_effect_addr,
                 side_effect_size, address_flow, stack, crash_image):
        self.candidate = candidate
        self.side_effect_instr = side_effect_instr
        self.side_effect_addr = side_effect_addr
        self.side_effect_size = side_effect_size
        self.address_flow = address_flow
        self.stack = stack
        self.crash_image = crash_image
        self.verdict = Verdict.PENDING
        self.note = ""
        #: :class:`~repro.replay.bundle.ReproBundle` reproducing this
        #: record, attached by the engine when capture is on.
        self.bundle = None

    @property
    def kind(self):
        return "inter" if self.candidate.cross_thread else "intra"

    @property
    def write_instr(self):
        return self.candidate.write_instr

    @property
    def read_instr(self):
        return self.candidate.read_instr

    def dedup_key(self):
        return (self.kind, self.candidate.write_instr,
                self.candidate.read_instr, self.side_effect_instr)

    def __repr__(self):
        return "<Inconsistency %s write=%s read=%s effect=%s verdict=%s>" % (
            self.kind, self.write_instr, self.read_instr,
            self.side_effect_instr, self.verdict.value)


class SyncInconsistencyRecord:
    """A PM Synchronization Inconsistency (Definition 3).

    An annotated persistent synchronization variable was updated; whether
    recovery restores it to its annotated initial value decides benign/bug.
    """

    __slots__ = ("annotation_name", "addr", "size", "init_val", "new_value",
                 "instr_id", "stack", "crash_image", "verdict", "note",
                 "bundle")

    def __init__(self, annotation_name, addr, size, init_val, new_value,
                 instr_id, stack, crash_image):
        self.annotation_name = annotation_name
        self.addr = addr
        self.size = size
        self.init_val = init_val
        self.new_value = new_value
        self.instr_id = instr_id
        self.stack = stack
        self.crash_image = crash_image
        self.verdict = Verdict.PENDING
        self.note = ""
        #: :class:`~repro.replay.bundle.ReproBundle` reproducing this
        #: record, attached by the engine when capture is on.
        self.bundle = None

    @property
    def kind(self):
        return "sync"

    def dedup_key(self):
        return ("sync", self.annotation_name, self.instr_id)

    def __repr__(self):
        return "<SyncInconsistency %s addr=%#x instr=%s verdict=%s>" % (
            self.annotation_name, self.addr, self.instr_id,
            self.verdict.value)


class BugReport:
    """A unique bug: a group of inconsistencies sharing a root cause (§6.2)."""

    def __init__(self, bug_id, target, kind, write_instr, read_instr,
                 description, records, seed=None):
        self.bug_id = bug_id
        self.target = target
        self.kind = kind
        self.write_instr = write_instr
        self.read_instr = read_instr
        self.description = description
        self.records = list(records)
        self.seed = seed

    def format(self):
        lines = [
            "=" * 70,
            "PMRace bug report #%s [%s] in %s" % (self.bug_id, self.kind,
                                                  self.target),
            "  write code: %s" % (self.write_instr or "-"),
            "  read code : %s" % (self.read_instr or "-"),
            "  summary   : %s" % self.description,
            "  instances : %d" % len(self.records),
        ]
        if self.seed is not None:
            lines.append("  seed      : %s" % (self.seed,))
        for record in self.records[:3]:
            stack = getattr(record, "stack", ()) or ()
            if stack:
                lines.append("  stack trace:")
                lines.extend("    at %s" % frame for frame in stack[:8])
        lines.append("=" * 70)
        return "\n".join(lines)

    def __repr__(self):
        return "<BugReport #%s %s %s>" % (self.bug_id, self.kind, self.target)
