"""Lightweight annotations for persistent synchronization variables (§5).

The original tool exposes ``pm_sync_var_hint(size, init_val)`` as a Clang
annotation on variable/field *definitions*. Here a target declares each
synchronization-variable *type* once (name, word size, expected post-
recovery value) and registers the PM addresses of its instances as it lays
out structures. The checker flags stores to registered addresses and the
post-failure validator compares the recovered value against ``init_val``.

Every store asks the registry whether its range holds a registered
address, so :meth:`AnnotationRegistry.lookup` probes an index of start
addresses by word (one probe per touched word, not per byte), and
answers at once when nothing is registered.
"""

from ..pmem.cacheline import WORD_SHIFT


class SyncVarAnnotation:
    """One annotated synchronization-variable type.

    Attributes:
        name: Type name, e.g. ``"bucket_lock"`` — the dedup unit for
            PM Synchronization Inconsistencies ("same synchronization
            variable type", §6.2).
        size: Variable size in bytes.
        init_val: Expected value after a correct recovery.
    """

    __slots__ = ("name", "size", "init_val", "addrs")

    def __init__(self, name, size, init_val):
        self.name = name
        self.size = size
        self.init_val = init_val
        self.addrs = set()

    def __repr__(self):
        return "<SyncVarAnnotation %s size=%d init=%r instances=%d>" % (
            self.name, self.size, self.init_val, len(self.addrs))


class AnnotationRegistry:
    """All sync-var annotations of one target program."""

    def __init__(self):
        self._types = {}
        self._by_addr = {}
        #: word index -> sorted registered start addresses in that word.
        self._by_word = {}

    def pm_sync_var_hint(self, name, size, init_val):
        """Declare a synchronization-variable type; idempotent by name."""
        annotation = self._types.get(name)
        if annotation is None:
            annotation = SyncVarAnnotation(name, size, init_val)
            self._types[name] = annotation
        return annotation

    def register_instance(self, name, addr):
        """Mark ``addr`` as an instance of the annotated type ``name``."""
        annotation = self._types[name]
        annotation.addrs.add(addr)
        if addr not in self._by_addr:
            starts = self._by_word.setdefault(addr >> WORD_SHIFT, [])
            starts.append(addr)
            starts.sort()
        self._by_addr[addr] = annotation

    def unregister_instance(self, addr):
        annotation = self._by_addr.pop(addr, None)
        if annotation is not None:
            annotation.addrs.discard(addr)
            word = addr >> WORD_SHIFT
            starts = self._by_word[word]
            starts.remove(addr)
            if not starts:
                del self._by_word[word]

    def lookup(self, addr, size):
        """The annotation registered at the lowest address in
        ``[addr, addr+size)``, or None."""
        by_word = self._by_word
        if not by_word:
            return None
        end = addr + max(size, 1)
        for word in range(addr >> WORD_SHIFT, ((end - 1) >> WORD_SHIFT) + 1):
            starts = by_word.get(word)
            if starts is not None:
                for start in starts:
                    if addr <= start < end:
                        return self._by_addr[start]
        return None

    def types(self):
        return list(self._types.values())

    @property
    def annotation_count(self):
        """Number of annotated types — the "Annotation" column of Table 3."""
        return len(self._types)
