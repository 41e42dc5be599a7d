"""Unified registry framework for every pluggable component.

One :class:`Registry` instance backs each family of components — compressors,
models, datasets, optimizers, LR-schedule pieces, networks and trainer
callbacks.  All of them share the same surface:

* ``register`` — add an entry, either directly or as a decorator, with
  optional aliases and a one-line description;
* ``get`` — look up the registered object (class, factory or value) by a
  case/punctuation-insensitive name;
* ``create`` — look up a factory and call it with forwarded kwargs;
* ``list`` — sorted canonical names;
* ``describe`` — ``{name: description}`` for help text and CLI listings.

Unknown names raise :class:`RegistryKeyError` (a ``KeyError``) whose message
names the registry, lists what *is* available and suggests close matches —
the error a user actually needs when they typo ``--algorithm topK1``.

Registries behave like read-only mappings (``in``, ``len``, iteration,
``registry[name]``).
"""

from __future__ import annotations

import difflib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


def normalize_name(name: str) -> str:
    """Canonicalise a lookup key: lowercase, drop ``-``/``_``/spaces.

    ``"Top-K"``, ``"top_k"`` and ``"topk"`` all normalise to ``"topk"``.
    Path-style separators (``"fnn3/tiny"``) are preserved so composite keys
    stay distinguishable.
    """
    return name.strip().lower().replace("-", "").replace("_", "").replace(" ", "")


def unknown_field_problems(keys: Sequence[str], known: Sequence[str],
                           label: str = "field") -> List[str]:
    """Did-you-mean messages for dict keys that are not known field names.

    Shared by the declarative spec parsers (``ExperimentSpec.from_dict``,
    ``SyncSpec.from_dict``) so the suggestion wording and matching stay in
    one place.  Returns one message per unknown key; empty when all keys
    are known.
    """
    known = list(known)
    problems: List[str] = []
    for key in keys:
        if key not in known:
            suggestions = difflib.get_close_matches(str(key), known, n=1)
            hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
            problems.append(f"unknown {label} {key!r}{hint} (known fields: {known})")
    return problems


#: Registries that opted into CLI/introspection listing (``expose=...``),
#: keyed by their public label (e.g. ``"compressors"``).  ``repro components``
#: derives its listing from this mapping, so a new registry shows up there the
#: moment its module is imported — no hand-maintained table to forget.
PUBLIC_REGISTRIES: Dict[str, "Registry"] = {}


def public_registries() -> Dict[str, "Registry"]:
    """The live label → :class:`Registry` mapping of exposed registries."""
    return PUBLIC_REGISTRIES


class RegistryKeyError(KeyError):
    """Unknown-name lookup error carrying the available options."""

    def __init__(self, kind: str, name: str, available: Sequence[str],
                 suggestions: Sequence[str] = ()):
        self.kind = kind
        self.name = name
        self.available = list(available)
        self.suggestions = list(suggestions)
        message = f"unknown {kind} {name!r}; available: {self.available}"
        if self.suggestions:
            message += f" (did you mean {' or '.join(repr(s) for s in self.suggestions)}?)"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0]


class Registry:
    """A named mapping from component names to factories/objects."""

    def __init__(self, kind: str, *, expose: Optional[str] = None):
        #: Human-readable singular kind ("compressor", "model", ...) used in errors.
        self.kind = kind
        self._entries: Dict[str, Any] = {}          # canonical name -> object
        self._descriptions: Dict[str, str] = {}     # canonical name -> description
        self._index: Dict[str, str] = {}            # normalized name/alias -> canonical
        #: Public label under which this registry is listed (None = internal).
        self.expose = expose
        if expose is not None:
            existing = PUBLIC_REGISTRIES.get(expose)
            if existing is not None and existing is not self:
                raise ValueError(f"a registry is already exposed as {expose!r}")
            PUBLIC_REGISTRIES[expose] = self

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, name: Optional[str] = None, obj: Any = None, *,
                 aliases: Sequence[str] = (), description: Optional[str] = None,
                 overwrite: bool = False):
        """Register ``obj`` under ``name`` (or use as a decorator).

        Direct form::

            registry.register("sgd", SGD, description="vanilla momentum SGD")

        Decorator form (name defaults to the decorated object's ``__name__``)::

            @registry.register("progress", description="log every k iterations")
            class ProgressCallback(Callback): ...
        """
        def _do_register(target: Any) -> Any:
            canonical = name if name is not None else target.__name__
            if canonical in self._entries and not overwrite:
                raise ValueError(f"{self.kind} {canonical!r} is already registered; "
                                 f"pass overwrite=True to replace it")
            for key in (canonical, *aliases):
                normalized = normalize_name(key)
                existing = self._index.get(normalized)
                if existing is not None and existing != canonical and not overwrite:
                    raise ValueError(
                        f"{self.kind} name {key!r} already registered (for {existing!r})")
                self._index[normalized] = canonical
            self._entries[canonical] = target
            text = description
            if text is None:
                doc = (getattr(target, "__doc__", None) or "").strip()
                text = doc.splitlines()[0] if doc else ""
            self._descriptions[canonical] = text
            return target

        if obj is not None:
            return _do_register(obj)
        return _do_register

    def alias(self, alias: str, target: str) -> None:
        """Add an extra lookup name for an already-registered entry."""
        canonical = self._resolve(target)
        self._index[normalize_name(alias)] = canonical

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _resolve(self, name: str) -> str:
        normalized = normalize_name(str(name))
        if normalized not in self._index:
            suggestions = difflib.get_close_matches(normalized, list(self._index), n=2)
            canonical_suggestions = sorted({self._index[s] for s in suggestions})
            raise RegistryKeyError(self.kind, name, self.list(), canonical_suggestions)
        return self._index[normalized]

    def get(self, name: str) -> Any:
        """The registered object (class/factory/value) for ``name``."""
        return self._entries[self._resolve(name)]

    def create(self, name: str, *args, **kwargs) -> Any:
        """Instantiate the factory registered under ``name``."""
        return self.get(name)(*args, **kwargs)

    def construction_problems(self, name: str, kwargs: Dict[str, Any], *args,
                              kind: Optional[str] = None) -> List[str]:
        """Validation's constructibility idiom: build what the run will build.

        Empty when ``create(name, *args, **kwargs)`` succeeds, else the one
        message ``"<kind> <name> cannot be constructed with <kwargs>: <error>"``
        — a factory may raise anything on bad kwargs, hence the broad catch.
        """
        try:
            self.create(name, *args, **kwargs)
        except Exception as error:
            return [f"{kind or self.kind} {name!r} cannot be constructed "
                    f"with {kwargs!r}: {error}"]
        return []

    def canonical(self, name: str) -> str:
        """The canonical registered name for ``name`` (resolving aliases)."""
        return self._resolve(name)

    def list(self) -> List[str]:
        """Sorted canonical names (aliases are not listed)."""
        return sorted(self._entries)

    def describe(self) -> Dict[str, str]:
        """``{canonical name: one-line description}`` for every entry."""
        return {name: self._descriptions.get(name, "") for name in self.list()}

    # ------------------------------------------------------------------ #
    # read-only mapping behaviour (legacy *_REGISTRY dict compatibility)
    # ------------------------------------------------------------------ #
    def __contains__(self, name: object) -> bool:
        try:
            self._resolve(str(name))
            return True
        except KeyError:
            return False

    def __getitem__(self, name: str) -> Any:
        return self.get(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.list())

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return [(name, self._entries[name]) for name in self.list()]

    def keys(self):
        return self.list()

    def values(self):
        return [self._entries[name] for name in self.list()]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Registry(kind={self.kind!r}, entries={self.list()})"
