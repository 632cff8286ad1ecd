"""repro.analysis: a domain-aware static checker for this repository.

The paper's argument rests on *complete accounting*: every operation's
core-seconds and I/O-path CPU must be charged to a machine, or Equations
(1)-(6) and the ~45 s breakeven silently go wrong.  Nothing in Python
enforces that a new code path charges the :class:`~repro.hardware.cpu
.CpuModel`, stays deterministic under replay, or orders durable writes
behind the log — so this package enforces it mechanically, the way a
type checker enforces signatures.  (Fleet counter sums need no rule:
they are derived from the one ``STATS`` declaration in
:mod:`repro.deuteronomy.engine`, so they cannot drift from it.)

Rules (ids usable in ``--select`` and ``# repro: ignore[...]``):

* ``cost-accounting`` — public methods in the engine packages that touch
  pages or logs must charge CPU / I/O-path work on every path;
* ``determinism`` — no wall-clock or unseeded randomness inside
  ``src/repro`` outside ``bench/wallclock.py``; simulated time comes from
  ``hardware/clock.py``;
* ``slots-dataclass`` — hot-path dataclasses carry ``__slots__``;
* ``mutable-default`` — no mutable default argument values;
* ``wal-ordering`` — durable-content mutations (DC posts, dirty record
  appends, checkpoints) must be dominated by a recovery-log append or
  sync on every non-raising path, and checkpoint invalidation must
  follow the flush of its replacement;
* ``epoch-discipline`` — latch-free dereferences (mapping table, delta
  chains, record heap) happen only under an epoch/latch charge, and
  ``epoch_enter``/``epoch_exit`` pair on every path;
* ``fault-site-coverage`` — durability mutations in the storage/TC
  layers are preceded by a registered :data:`repro.faults.FAULT_SITES`
  hit, so the crash matrix can reach them.

Rule-by-rule examples live in ``docs/ANALYSIS.md``.

Run ``python -m repro lint`` (or see :mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from .core import Finding, LintConfig, Rule, SourceFile, all_rules
from .runner import lint_paths, render_findings

__all__ = [
    "Finding",
    "LintConfig",
    "Rule",
    "SourceFile",
    "all_rules",
    "lint_paths",
    "render_findings",
]
