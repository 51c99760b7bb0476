"""Copies of the package's tables and quivers with some fields changed.

The tests that feed a corrupted table or quiver to a check build it here,
through the class's own constructor.
"""


def forged(obj, **changes):
    """A copy of `obj` with `changes` in place of those fields, built through its constructor.

    The fields are the class's namedtuple `_fields` where it has them and
    its `__slots__` otherwise, which its constructor takes by the same
    names; an unknown name raises TypeError.
    """
    fields = getattr(type(obj), "_fields", type(obj).__slots__)
    return type(obj)(**({name: getattr(obj, name) for name in fields} | changes))
