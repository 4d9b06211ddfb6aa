"""The benign-read whitelist (§4.4).

Some reads of non-persisted data are crash-consistent by construction —
they are protected by redo logging or checksums — and post-failure
validation cannot see that (the protection acts by *disregarding*
inconsistent contents, not by overwriting them). Developers list such code
locations; any inconsistency whose stack trace contains a listed location
is marked safe.

The default whitelist covers PMDK's transactional allocations (redo-log
protected, §4.4) and memcached-pmem's checksummed value reads.

Matching happens on record stacks, which hold resolved
``module:function:line`` strings (the checker resolves interned event ids
when the record is created), so entries remain plain substrings.
"""

#: Stack-location substrings that are crash-consistent by construction.
DEFAULT_WHITELIST = (
    # mini-PMDK transactional allocation path (redo logging)
    "repro.pmdk.alloc:",
    "repro.pmdk.tx:tx_alloc",
    # memcached-pmem checksummed value verification
    "repro.targets.memcached:_verify_checksum",
    # pmring's CAS-validated cursor claims: a stale (non-persisted)
    # cursor read is re-checked by the CAS itself and recovery
    # recomputes both cursors from the slot sequence words
    "repro.targets.pmring:push:",
)


class Whitelist:
    """Matches inconsistency stack traces against benign code locations."""

    def __init__(self, entries=DEFAULT_WHITELIST):
        self.entries = list(entries)

    def add(self, location):
        """Append a ``module:function`` (or any substring) rule."""
        self.entries.append(location)

    def matches_location(self, location):
        """True if one resolved ``module:function:line`` stack frame hits
        an entry (any entry that is a substring of it)."""
        return any(entry in location for entry in self.entries)

    def matches(self, record):
        """True if any stack frame of ``record`` hits a whitelist entry.

        Both the candidate read's stack and the side effect's stack are
        consulted, mirroring "the stack trace of a detected inconsistency".
        """
        stacks = [getattr(record, "stack", ()) or ()]
        candidate = getattr(record, "candidate", None)
        if candidate is not None:
            stacks.append(candidate.stack or ())
        for stack in stacks:
            for frame in stack:
                if self.matches_location(frame):
                    return True
        return False
