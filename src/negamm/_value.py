"""The frozen base of the value classes: what ``@dataclass(frozen=True)`` writes, from the
class's annotations and defaults, without importing ``dataclasses`` until the dataclass
protocol (``fields``, ``replace``, ``asdict``, ``is_dataclass``) is first used.

The one place a value object's fields are stored: each class's ``__init__``, written here,
stores the field dict whole as the object's ``__dict__``, past the frozen ``__setattr__``.
On CPython 3.11 those fields read more than twice as fast as from a ``__dict__`` filled in
place, and build faster than through per-field ``object.__setattr__``.  Copies and pickles
rebuild from the fields, so slots that are not fields (``_branch``, ``_checked``) never copy."""

from operator import attrgetter


class Factory:
    """A default made afresh for each object, as ``field(default_factory=make)``."""

    def __init__(self, make):
        self.make = make


class _Protocol:
    """``__dataclass_fields__`` or ``__dataclass_params__``: on first read, copied onto the
    class from a twin that the real decorator builds from the same annotations and defaults."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls):
        if cls is Value:
            raise AttributeError(self.name)
        import dataclasses
        ns = {name: dataclasses.field(default_factory=value.make)
              if isinstance(value, Factory) else value for name, value in cls._defaults.items()}
        ns.update(__annotations__=vars(cls)["__annotations__"], __module__=cls.__module__,
                  __qualname__=cls.__qualname__)
        twin = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), ns))
        for attr in ("__dataclass_fields__", "__dataclass_params__"):
            setattr(cls, attr, getattr(twin, attr))
        return getattr(cls, self.name)


def _init(cls, names):
    """``cls.__init__``, written with ``exec`` as ``dataclasses`` writes it: the fields with the
    class's defaults (a ``Factory`` one made afresh), one store of the field dict through the
    class's own ``__dict__`` descriptor, then ``self.__post_init__()`` where the class has one."""
    defaults = cls._defaults
    ns = {"_store": vars(cls)["__dict__"].__set__, **{f"_d_{n}": d for n, d in defaults.items()}}
    params = ", ".join(f"{n}=_d_{n}" if n in defaults else n for n in names)
    make = "".join(f"    if {n} is _d_{n}: {n} = _d_{n}.make()\n"
                   for n, d in defaults.items() if isinstance(d, Factory))
    fields = ", ".join(f"{n!r}: {n}" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self, {params}):\n{make}    _store(self, {{{fields}}})\n{post}", ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"  # a wrong call's TypeError names cls
    return init


class Value:
    __slots__ = ()
    __dataclass_fields__ = _Protocol()
    __dataclass_params__ = _Protocol()

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = attrgetter(*names)  # every value class has two fields or more: a tuple
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
        cls.__init__ = _init(cls, names)

    def __reduce__(self):  # copies and pickles: the fields only, rebuilt through __init__
        return type(self), self._fields(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value, verb="assign to"):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None, "delete")
