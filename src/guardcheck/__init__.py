"""guardcheck: enumerative checking of monoid sharing protocols plus an
exhaustive interleaving explorer for lock and hash-table implementations.

The pieces compose bottom-up:

* :mod:`guardcheck.terms` / :mod:`guardcheck.monoid` — canonical carrier
  terms and partial commutative monoids with enumeration-based decision
  procedures (extension order, frame-preserving update, overlap premise,
  law reports).
* :mod:`guardcheck.protocol` — storage protocols (protocol monoid,
  storage monoid, completeness, storage map) and their derived
  exchange / deposit / withdraw / update / guard relations.
* :mod:`guardcheck.library` — ready-made constructions: exclusive and
  agreement monoids, fractional / counting / forever protocols, the
  reader-writer lock protocol (single and multi counter), and the
  linear-probing hash-table monoid.
* :mod:`guardcheck.lang` — a small-step interpreter with sequentially
  consistent and two-step non-atomic heap operations that get stuck on
  data races.
* :mod:`guardcheck.ghost` — the ghost ledger validating scripted
  protocol actions against the relation checkers at every step.
* :mod:`guardcheck.explore` — deterministic DFS over thread
  interleavings with state memoization, properties, and replay.
* :mod:`guardcheck.resolvers` — the case studies' runtime: the lock and
  hash-table resolvers and properties that scenarios name, and the
  sequential oracle used to judge terminal outcomes.
* :mod:`guardcheck.studies` — the builders that write the lock and
  hash-table scenario documents.
* :mod:`guardcheck.formats` / :mod:`guardcheck.cli` — JSON schemas and
  the command-line front end.

Each module is imported on the path that uses it. The names in
``__all__`` load their module on first use (PEP 562), so importing the
package loads no layer. ``guardcheck check`` and ``guardcheck demo`` on a
protocol load terms, monoid, protocol, library, formats, demos and cli;
``guardcheck explore`` and ``guardcheck demo`` on a scenario also load
lang, ghost, explore and resolvers; no command loads studies. Importing
:mod:`guardcheck.explore` imports :mod:`guardcheck.resolvers`, so the
case studies' resolvers and properties are registered wherever a
scenario is read or run.
"""

import importlib
import sys
from types import ModuleType

# name in __all__ -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "CheckResult",
        "ElementEnumerator",
        "LawReport",
        "MonoidSpec",
        "and_premise",
        "carrier",
        "check_pcm_laws",
        "compose",
        "frame_preserving_update",
        "leq",
    ), "monoid"),
    **dict.fromkeys((
        "ExchangeQuery",
        "StorageProtocolSpec",
        "check_wellformed",
        "exchange_holds",
        "guard_holds",
        "valid_fragment",
    ), "protocol"),
    **dict.fromkeys((
        "HashFunctionSpec",
        "build_agn",
        "build_agnvec",
        "build_counting",
        "build_excl",
        "build_forever",
        "build_fractional",
        "build_hashtable_monoid",
        "build_rwlock",
        "build_rwlock_multi",
    ), "library"),
    **dict.fromkeys(("ExplorationResult", "Scenario", "explore", "replay"), "explore"),
    **dict.fromkeys((
        "HashTableScenarioParams",
        "RwLockScenarioParams",
        "build_hashtable_scenario",
        "build_race_scenario",
        "build_rwlock_scenario",
    ), "studies"),
    "sequential_oracle": "resolvers",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing guardcheck.explore binds the submodule to the package's
        # "explore", which names the function
        if isinstance(value, ModuleType) and name in _EXPORTS:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
