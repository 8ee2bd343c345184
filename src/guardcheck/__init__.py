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
* :mod:`guardcheck.studies` — executable lock / hash-table scenarios and
  the sequential oracle used to judge terminal outcomes.
* :mod:`guardcheck.formats` / :mod:`guardcheck.cli` — JSON schemas and
  the command-line front end.
"""

from .monoid import (
    CheckResult,
    ElementEnumerator,
    LawReport,
    MonoidSpec,
    and_premise,
    carrier,
    check_pcm_laws,
    compose,
    frame_preserving_update,
    leq,
)
from .protocol import (
    ExchangeQuery,
    StorageProtocolSpec,
    check_wellformed,
    exchange_holds,
    guard_holds,
    valid_fragment,
)
from .library import (
    HashFunctionSpec,
    build_agn,
    build_agnvec,
    build_counting,
    build_excl,
    build_forever,
    build_fractional,
    build_hashtable_monoid,
    build_rwlock,
    build_rwlock_multi,
)
from .explore import ExplorationResult, Scenario, explore, replay
from .studies import (
    HashTableScenarioParams,
    RwLockScenarioParams,
    build_hashtable_scenario,
    build_race_scenario,
    build_rwlock_scenario,
    sequential_oracle,
)

__all__ = [
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
    "ExchangeQuery",
    "StorageProtocolSpec",
    "check_wellformed",
    "exchange_holds",
    "guard_holds",
    "valid_fragment",
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
    "ExplorationResult",
    "Scenario",
    "explore",
    "replay",
    "HashTableScenarioParams",
    "RwLockScenarioParams",
    "build_hashtable_scenario",
    "build_race_scenario",
    "build_rwlock_scenario",
    "sequential_oracle",
]
