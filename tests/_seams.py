"""How a test sets a value the system never uses.

A knob that only tests turn is a class attribute in ``src`` (a ring's
capacity, a fleet's churn, a sweep's crash modes), not an option of a
constructor.  :func:`overriding` is the subclass that turns it; a
``dataclasses.replace`` of an instance keeps its class, so the value
rides along.
"""


def overriding(cls: type, **attrs) -> type:
    """``cls`` with the class attributes ``attrs`` overridden."""
    unknown = [name for name in attrs if not hasattr(cls, name)]
    assert not unknown, f"{cls.__name__} has no {unknown}"
    return type(cls.__name__, (cls,), attrs)
