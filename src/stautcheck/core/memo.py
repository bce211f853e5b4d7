"""The one cache-fill rule: build on first lookup, store, never evict.
``objects.Interner`` states it inline: every handle passes through there."""


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
