"""The target-program contract: what a system under test must provide.

A target bundles

* a persistent layout built in :meth:`Target.setup` (returning a
  :class:`TargetState` that can be checkpointed/restored),
* a per-campaign runtime :meth:`Target.open` (DRAM locks, cached roots),
* an operation executor :meth:`Target.exec_op` driven by fuzz seeds,
* recovery code :meth:`Target.recover` for post-failure validation, and
* an :class:`OperationSpace` describing its input language for the
  mutators.
"""

from ..instrument.annotations import AnnotationRegistry
from ..instrument.context import InstrumentationContext
from ..instrument.hooks import PmView


class TargetState:
    """Everything persistent + annotatable about one pool instance.

    Attributes:
        pool: The :class:`~repro.pmem.pool.PmemPool`.
        annotations: The target's :class:`AnnotationRegistry`.
        allocators: Allocators whose DRAM state must ride along with pool
            checkpoints.
        extras: Target-specific fixed offsets (roots, regions).
    """

    def __init__(self, pool, annotations=None, allocators=(), extras=None):
        self.pool = pool
        self.annotations = annotations or AnnotationRegistry()
        self.allocators = list(allocators)
        self.extras = dict(extras or {})

    # ------------------------------------------------------------------
    # in-memory checkpoints (§5)

    def snapshot(self):
        ann = {a.name: (a.size, a.init_val, set(a.addrs))
               for a in self.annotations.types()}
        return (self.pool.checkpoint(),
                [alloc.snapshot() for alloc in self.allocators],
                ann, dict(self.extras))

    def restore(self, snap):
        pool_snap, alloc_snaps, ann, extras = snap
        self.pool.restore(pool_snap)
        for alloc, alloc_snap in zip(self.allocators, alloc_snaps):
            alloc.restore(alloc_snap)
        registry = AnnotationRegistry()
        for name, (size, init_val, addrs) in ann.items():
            registry.pm_sync_var_hint(name, size, init_val)
            for addr in addrs:
                registry.register_instance(name, addr)
        self.annotations = registry
        self.extras = dict(extras)


def raw_view(pool):
    """An uninstrumented view for setup/recovery phases (no observers)."""
    return PmView(pool, None, InstrumentationContext())


class OperationSpace:
    """The input language of a target, used by both mutators.

    The default implementation models a key-value interface with textual
    serialization (one ``<op> <key> [<value>]`` command per line), which
    fits the index targets; memcached overrides it with its own protocol.
    """

    kinds = ("put", "get", "delete", "update")
    #: The kind used by the populate strategy (§4.5's insert-heavy load).
    insert_kind = "put"
    key_range = 24
    value_range = 10_000

    def random_key(self, rng, near=None):
        """A key, biased toward ``near`` so accesses collide across threads."""
        if near is not None and rng.random() < 0.5:
            return max(0, near + rng.randint(-2, 2)) % self.key_range
        return rng.randrange(self.key_range)

    def op_needs_value(self, kind):
        """Whether ``kind`` carries a value parameter.

        The single source of truth for value attachment: random
        generation, corpus population (:meth:`~repro.core.inputgen.
        OperationMutator.populate_seed`), and parsing all defer to it,
        so a target with a custom ``insert_kind`` cannot end up with
        value-less population ops.
        """
        return kind in (self.insert_kind, "update")

    def random_op(self, rng, near_key=None):
        kind = rng.choice(self.kinds)
        op = {"op": kind, "key": self.random_key(rng, near_key)}
        if self.op_needs_value(kind):
            op["value"] = rng.randrange(self.value_range)
        return op

    def mutate_op(self, op, rng):
        """Update one parameter of ``op`` to another valid value."""
        mutated = dict(op)
        if "value" in mutated and rng.random() < 0.5:
            mutated["value"] = rng.randrange(self.value_range)
        else:
            mutated["key"] = self.random_key(rng, mutated.get("key"))
        return mutated

    # ------------------------------------------------------------------
    # textual serialization (the byte-mutator's substrate)

    def serialize(self, ops):
        lines = []
        for op in ops:
            if "value" in op:
                lines.append("%s %d %d" % (op["op"], op["key"], op["value"]))
            else:
                lines.append("%s %d" % (op["op"], op["key"]))
        return ("\n".join(lines) + "\n").encode()

    def parse_line(self, line):
        """Parse one command line; returns an op dict or None when invalid."""
        parts = line.split()
        if not parts or parts[0] not in self.kinds:
            return None
        kind = parts[0]
        try:
            key = int(parts[1])
        except (IndexError, ValueError):
            return None
        if key < 0:
            return None
        op = {"op": kind, "key": key % self.key_range}
        if self.op_needs_value(kind):
            try:
                op["value"] = int(parts[2])
            except (IndexError, ValueError):
                return None
        return op

    def parse(self, data):
        """Parse serialized bytes; returns (ops, invalid_count)."""
        ops, invalid = [], 0
        try:
            text = data.decode("utf-8", errors="strict")
        except UnicodeDecodeError:
            text = data.decode("utf-8", errors="replace")
        for line in text.splitlines():
            if not line.strip():
                continue
            op = self.parse_line(line.strip())
            if op is None:
                invalid += 1
            else:
                ops.append(op)
        return ops, invalid


class Target:
    """Base class for systems under test. Subclasses are stateless: all
    per-pool state lives in the :class:`TargetState`, all per-campaign
    state in the instance returned by :meth:`open`."""

    NAME = "target"
    VERSION = "-"
    SCOPE = "-"
    CONCURRENCY = "-"
    POOL_SIZE = 1 << 20
    #: libpmem-based targets skip libpmemobj initialization (Figure 10).
    USES_LIBPMEM = False

    def operation_space(self):
        return OperationSpace()

    def setup(self):
        """Create and initialize a fresh pool; returns a TargetState."""
        raise NotImplementedError

    def open(self, state, view, scheduler):
        """Per-campaign runtime instance over an initialized state."""
        raise NotImplementedError

    def exec_op(self, instance, view, op):
        """Execute one fuzz-generated operation."""
        raise NotImplementedError

    def recover(self, pool, view):
        """Run the application's recovery code on a (crash-image) pool."""
        raise NotImplementedError
