"""Sharded sweeps over the workload matrix.

:mod:`.runner` is the mechanism — picklable per-workload task
functions and :func:`~repro.sweep.runner.run_sharded`, which runs a
task list inline (one worker) or in a
:class:`~concurrent.futures.ProcessPoolExecutor` (more) and merges the
results in submission order.  Every sweep goes through it at every
``--jobs``: ``collect_metrics``, ``run_campaign``,
``run_lint_validation`` and ``collect_profile`` beside their
per-workload code, and :mod:`.drivers`' ``sharded_lint``,
``sharded_analyze`` and the ``repro sweep`` matrix driver.  Shards
share the content-addressed cure cache (:mod:`repro.cache`), so the
matrix pays each parse/cure once.
"""

from repro.sweep.drivers import (SweepArtifact, SweepSummary,
                                 count_sweep_shards, run_sweep,
                                 sharded_analyze, sharded_lint)
from repro.sweep.progress import ProgressLine
from repro.sweep.runner import (resolve_jobs, run_sharded, run_task,
                                run_task_traced)

__all__ = [
    "SweepArtifact", "SweepSummary", "count_sweep_shards",
    "run_sweep", "sharded_analyze", "sharded_lint",
    "ProgressLine",
    "resolve_jobs", "run_sharded", "run_task", "run_task_traced",
]
