"""Immutable records that only their constructor builds.

The package's record types are ``collections.namedtuple`` subclasses:
tuples with named fields, frozen, hashable and cheap to define. Some of
them check or coerce their inputs in ``__new__`` and derive trailing
fields from them. A namedtuple's ``_make`` and ``_replace`` skip
``__new__``, and its pickling passes every field to it, so such a
record routes all three through its constructor instead.
"""


class Constructed:
    """Mixin, listed before its namedtuple base, for a record whose
    ``__new__`` takes its leading fields and derives the trailing ones
    named in ``_derived``.

    ``_make`` builds from the leading values and derives the rest
    afresh, so ``_make(tuple(record)) == record``. ``_replace`` accepts
    leading fields only; naming a derived one raises TypeError. Either
    way the derived fields follow from the inputs, checked and coerced
    as the constructor does it.
    """

    __slots__ = ()
    _derived = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"expected {len(cls._fields)} values, got {len(values)}")
        return cls(*values[:len(values) - len(cls._derived)])

    def _replace(self, /, **changes):
        inputs = dict(zip(self._fields, self.__getnewargs__()))
        return type(self)(**{**inputs, **changes})

    # copy.replace (Python 3.13) calls this one.
    __replace__ = _replace

    def __getnewargs__(self):
        # Pickling and copying call __new__ with these.
        return tuple(self)[:len(self) - len(self._derived)]
