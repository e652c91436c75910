"""Open registries for engine backends and delivery scenarios.

Until PR 4 the selectable backends lived in a closed module-level dict in
:mod:`repro.engine.runner` and the scenario names in string literals inside
:func:`repro.engine.scenarios.resolve_scenario`; adding a delivery model
meant editing library internals.  This module replaces both with open
registries: a backend or scenario class anywhere (library, benchmark,
notebook) registers itself with a decorator and is immediately selectable
by name everywhere a name is accepted — :func:`repro.engine.run_algorithm`,
:class:`repro.experiments.ExperimentSpec`, the benchmark grids.

Usage::

    from repro.engine.registry import register_scenario

    @register_scenario("solar-flare")
    class SolarFlareScenario(DeliveryScenario):
        ...

    resolve_scenario("solar-flare")   # now works everywhere

The registries hold *classes*; lookup instantiates with no arguments, so a
registered class must have defaults for every constructor parameter.  To
run a configured instance, pass the instance instead of the name — every
resolver accepts both.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T", bound=type)


class Registry:
    """An open name -> class registry with self-describing lookup errors.

    Attributes:
        kind: what the registry holds (``"backend"`` / ``"scenario"``);
            used in error messages.
        entries: the live name -> class mapping.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.entries: dict[str, type] = {}
        # Modules whose import registers further entries, loaded on the
        # first lookup that misses.  Lets subsystems (repro.robust) keep
        # their registrations out of the engine's import graph — no cycle,
        # no import cost until a name is actually asked for.
        self.lazy_modules: list[str] = []

    def register(self, name_or_class: str | T | None = None) -> Callable[[T], T] | T:
        """Class decorator: ``@register(...)`` with or without a name.

        With an explicit name (``@register("bursty")``) the name is also
        stored on the class as its ``name`` attribute — unless the class
        already *declares its own* ``name`` (in its ``__dict__``, not
        inherited), in which case registering under a second name is an
        alias: the entry is added, the class keeps its canonical name.
        Without an explicit name (``@register``) the class must declare a
        ``name`` attribute of its own.  Re-registering a name overwrites
        the previous entry (latest wins), so tests and notebooks can
        shadow built-ins freely.
        """
        if isinstance(name_or_class, type):  # bare @register
            return self._add(name_or_class, None)

        def decorator(cls: T) -> T:
            return self._add(cls, name_or_class)

        return decorator

    def _add(self, cls: T, name: str | None) -> T:
        owned = cls.__dict__.get("name")
        if name is None:
            # Only a name the class itself declares counts: inheriting the
            # base class's placeholder must not silently register under it.
            name = owned
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"cannot register {cls!r} as a {self.kind}: give the decorator "
                f"an explicit name or set a ``name`` class attribute"
            )
        if not owned:
            cls.name = name
        self.entries[name] = cls
        return cls

    def get(self, name: str) -> type:
        """The class registered under ``name``; error lists all known names."""
        try:
            return self.entries[name]
        except KeyError:
            if not self._load_lazy_modules():
                raise ValueError(
                    f"unknown {self.kind} {name!r}; known: {self.names()}"
                ) from None
        try:
            return self.entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def _load_lazy_modules(self) -> bool:
        """Import any pending lazy modules; ``True`` if something loaded."""
        if not self.lazy_modules:
            return False
        import importlib

        pending, self.lazy_modules = self.lazy_modules, []
        for module in pending:
            importlib.import_module(module)
        return True

    def names(self) -> list[str]:
        """Sorted registry names."""
        self._load_lazy_modules()
        return sorted(self.entries)

    def __contains__(self, name: str) -> bool:
        if name not in self.entries:
            self._load_lazy_modules()
        return name in self.entries

    def __iter__(self):
        return iter(self.entries)


backend_registry = Registry("backend")
scenario_registry = Registry("scenario")

# The robust subsystem's vertex-fault scenarios register on import; loading
# them lazily on the first lookup keeps ``repro.engine`` free of a
# dependency on ``repro.robust`` (which imports the engine).
scenario_registry.lazy_modules.append("repro.robust.scenarios")

register_backend = backend_registry.register
register_scenario = scenario_registry.register


def available_backends() -> list[str]:
    """Registry names of the selectable backends."""
    return backend_registry.names()


def available_scenarios() -> list[str]:
    """Registry names of the selectable delivery scenarios."""
    return scenario_registry.names()
