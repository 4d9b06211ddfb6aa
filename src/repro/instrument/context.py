"""Per-campaign instrumentation context: trace, observer fan-out, shadow
taint.

The context is the glue between the hook layer (:mod:`hooks`) and the
consumers:

* the *trace* (:attr:`InstrumentationContext.trace`): a fuzz campaign's
  context carries one list, and the hooks append one entry per access.
  Coverage and the shared-access profile behind the priority queue
  (:mod:`repro.core`) are folded from it after the run. Recovery views,
  probes and conformance runs keep no trace (it is None).
* observers, through per-callback hook lists: PM checkers
  (:mod:`repro.detect.checkers`) take only the accesses they can act on
  (``on_dirty_load``, ``on_tainted_store``, ``on_annotated_store``);
  generic ``on_load``/``on_store``/``on_flush``/``on_fence`` observers
  see every access. The hooks build an event only when a list for what
  happened is non-empty.
* the sync-point controller.

It also keeps DFSan-style *shadow taint*: labels of values stored to PM
propagate to later loads of the same words, so multi-hop flows (store
tainted → load → store elsewhere) are tracked.
"""

from ..pmem.cacheline import words_of
from .callsite import CallSiteTable
from .events import Observer
from .taint import EMPTY

#: Observer callbacks, one hook list each in the context.
_HOOKS = ("on_load", "on_dirty_load", "on_store", "on_tainted_store",
          "on_flush", "on_fence", "on_annotated_store")

#: ``dispatch_store``'s "annotation not looked up yet" default.
_LOOKUP = object()


class InstrumentationContext:
    """State shared by all hooks of one fuzz campaign.

    Args:
        annotations: Optional :class:`~repro.instrument.annotations.
            AnnotationRegistry` of the target.
        taint_enabled: Disable to measure the taint ablation.
        metrics: Optional :class:`~repro.obs.metrics.Metrics` registry;
            hooks bind their counters from it once at construction, so
            the disabled path costs one None-check per access.
        callsites: Optional :class:`~repro.instrument.callsite.
            CallSiteTable`. The engine passes one table per fuzzing run
            (interned ids must stay comparable across campaigns); a
            standalone context creates its own.
        trace: Optional list the hooks append one ``(tid, site, addr,
            size, how)`` entry per access to (see
            :mod:`repro.instrument.events`); a campaign passes a fresh
            one and folds it once the run is over.
    """

    def __init__(self, annotations=None, taint_enabled=True, metrics=None,
                 callsites=None, trace=None):
        self.annotations = annotations
        self.taint_enabled = taint_enabled
        self.metrics = metrics
        self.callsites = callsites if callsites is not None \
            else CallSiteTable()
        self.trace = trace
        #: callback name -> bound hooks of the observers that have it,
        #: in registration order (see :meth:`add_observer`). The lists
        #: are extended in place, so a view may bind them once.
        self._hooks = {name: [] for name in _HOOKS}
        #: Sync-point controller (duck-typed: before_load / after_store).
        self.controller = None
        #: word offset -> frozenset of labels carried by the stored value.
        self._shadow = {}

    def add_observer(self, observer):
        # Observers that resolve interned instruction ids expose a
        # ``callsites`` attribute; wire them to this context's table
        # unless they were constructed with one explicitly.
        if getattr(observer, "callsites", False) is None:
            observer.callsites = self.callsites
        # Each event kind calls only the hooks that do something: an
        # inherited ``Observer`` no-op is left out. Any other callback,
        # duck-typed observers' included, is kept.
        for name, hooks in self._hooks.items():
            hook = getattr(observer, name, None)
            if hook is None or \
                    getattr(hook, "__func__", None) is getattr(Observer, name):
                continue
            hooks.append(hook)
        return observer

    # ------------------------------------------------------------------
    # shadow taint

    def shadow_store(self, addr, size, labels):
        if not self.taint_enabled:
            return
        shadow = self._shadow
        if labels:
            for word in words_of(addr, max(size, 1)):
                shadow[word] = labels
        elif shadow:
            for word in words_of(addr, max(size, 1)):
                shadow.pop(word, None)

    def shadow_load(self, addr, size):
        if not self.taint_enabled:
            return EMPTY
        shadow = self._shadow
        if not shadow:
            return EMPTY
        labels = EMPTY
        for word in words_of(addr, max(size, 1)):
            extra = shadow.get(word)
            if extra:
                labels = labels | extra
        return labels

    # ------------------------------------------------------------------
    # dispatch

    def dispatch_load(self, event):
        """Fan a load event out; returns labels minted by the checkers.

        ``on_dirty_load`` hooks run first, and only when the load saw
        non-persisted writers; then every ``on_load`` hook.
        """
        labels = EMPTY
        hooks = self._hooks
        if event.nonpersisted:
            for hook in hooks["on_dirty_load"]:
                minted = hook(event)
                if minted:
                    labels = labels | minted
        for hook in hooks["on_load"]:
            minted = hook(event)
            if minted:
                labels = labels | minted
        return labels

    def dispatch_store(self, event, annotation=_LOOKUP):
        """Fan a store event out: ``on_tainted_store`` hooks when it
        carries taint, every ``on_store`` hook, then
        ``on_annotated_store`` hooks when it hit an annotated address.

        Args:
            annotation: The store's annotation as the caller already
                looked it up (None for none); looked up here if not
                given.
        """
        hooks = self._hooks
        if event.taint:
            for hook in hooks["on_tainted_store"]:
                hook(event)
        for hook in hooks["on_store"]:
            hook(event)
        annotated = hooks["on_annotated_store"]
        if not annotated:
            return
        if annotation is _LOOKUP:
            annotation = self.annotations.lookup(event.addr, event.size) \
                if self.annotations is not None else None
        if annotation is not None:
            for hook in annotated:
                hook(annotation, event)

    def dispatch_flush(self, event):
        for hook in self._hooks["on_flush"]:
            hook(event)

    def dispatch_fence(self, event):
        for hook in self._hooks["on_fence"]:
            hook(event)
