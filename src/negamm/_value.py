"""The frozen base of the value classes: what ``@dataclass(frozen=True)`` writes, from the
class's annotations and defaults, without importing ``dataclasses`` until the dataclass
protocol (``fields``, ``replace``, ``asdict``, ``is_dataclass``) is first used."""

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


class Value:
    __slots__ = ()
    __dataclass_fields__ = _Protocol()
    __dataclass_params__ = _Protocol()

    def __init_subclass__(cls):
        names = cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))
        cls._fields = attrgetter(*names)  # every value class has two fields or more: a tuple
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}

    # Set through object.__setattr__: CPython 3.11 reads attributes faster from an instance
    # dict built that way (its keys shared with the class) than from one filled via __dict__.
    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        given = dict(zip(names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {names}, "
                            f"got {args} and {kwargs}")
        for name in names:
            value = values[name]
            object.__setattr__(self, name, value.make() if isinstance(value, Factory) else value)

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
