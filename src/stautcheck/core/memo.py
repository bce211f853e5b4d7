"""The cache-fill rule of module-level tables: build on first lookup, store,
never evict.

A ``LazyTable`` holds its ``make``, so it serves the tables that live as
long as the process: the matrix kernels' memos and the relation composers.
The memo of one object is a plain dict that the object fills on first use.
A table holding a bound method or a closure of its owner would make a
reference cycle, and the CLI runs without the cyclic collector, so the
owner would outlive its last use (README, "Memory").  ``objects.Interner``
fills its own dict inline: every handle passes through there."""


class LazyTable(dict):
    """A dict that fills a missing key with ``make(key)`` on first lookup.

    A build that raises stores nothing, so the next lookup of that key
    builds again and raises again.  ``make`` may look up other keys of the
    same table (a recursive family)."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value
