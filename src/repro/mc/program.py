"""Session programs for the model checker: announce-then-perform steps.

The model checker drives programs written in **announce-then-perform**
style::

    def session(world):
        yield Op("w:qar", kvs=[KEY])      # announce the next operation
        world.backend.qar(tid, KEY)       # ...then perform it
        yield Op("w:commit", sql=True)    # announce the next one
        ...

Each ``yield`` hands the scheduler an :class:`Op` describing the
operation the code *after* the yield will perform -- its label and the
shared resources it reads and writes.  At every explored state the
scheduler thus knows each unfinished program's *pending* operation
without running it, which is exactly what sleep-set (DPOR-lite) pruning
needs to decide which interleavings commute.  A program that performed
first and labelled afterwards would tell the scheduler what a step
touched only once the step had already run.

An :class:`MCRun` drives one program's generator: advancing it executes
the previously announced operation and captures the next announcement.
Program exceptions surface as :class:`ProgramCrash` with the schedule
prefix attached, so a crashing schedule is as replayable as a violating
one.
"""

from repro.errors import ReproError

__all__ = ["Op", "MCProgram", "MCRun", "ProgramCrash", "independent"]


class ProgramCrash(ReproError):
    """A program raised while performing a scheduled step.

    The bare exception is useless to a shrinker or fuzzer -- by the time
    it propagates, the interleaving that provoked it is gone.  This
    wrapper carries the program name, the label of the announced
    operation that raised (``None`` when the program raised before its
    first announcement), and the schedule prefix executed before that
    step, so the failure is replayable: re-running ``schedule_prefix``
    and advancing ``program`` once more reproduces it deterministically.
    """

    def __init__(self, program, step_label, schedule_prefix, original):
        self.program = program
        self.step_label = step_label
        self.schedule_prefix = tuple(schedule_prefix)
        self.original = original
        super().__init__(
            "program {!r} crashed after step {!r} under schedule prefix "
            "{!r}: {}: {}".format(
                program, step_label, list(self.schedule_prefix),
                type(original).__name__, original,
            )
        )


class Op:
    """One announced operation: a label plus its shared-resource footprint.

    ``reads``/``writes`` are collections of opaque resource names.  Two
    operations are *dependent* when one writes a resource the other
    touches; dependent operations do not commute, so their orders must
    both be explored.  Convenience keywords:

    * ``kvs=[key, ...]`` -- touches the cache/lease state of those keys
      (always a write: lease tables mutate even on reads);
    * ``sql=True`` -- touches the shared RDBMS (snapshots, row locks,
      commit order);
    * ``local=True`` (implied by an empty footprint) -- a purely
      program-local step that commutes with everything.
    """

    __slots__ = ("label", "reads", "writes")

    def __init__(self, label, reads=(), writes=(), kvs=(), sql=False,
                 local=False):
        self.label = label
        reads = set(reads)
        writes = set(writes)
        for key in kvs:
            writes.add("kvs:{}".format(key))
        if sql:
            writes.add("sql")
        if local:
            reads.clear()
            writes.clear()
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)

    @property
    def footprint(self):
        return self.reads | self.writes

    def __repr__(self):
        return "Op({!r})".format(self.label)

    def __str__(self):
        return self.label


def independent(op_a, op_b):
    """True when the two operations commute (disjoint conflict footprint)."""
    if op_a is None or op_b is None:
        return True
    if op_a.writes & (op_b.reads | op_b.writes):
        return False
    if op_b.writes & (op_a.reads | op_a.writes):
        return False
    return True


class MCProgram:
    """A named announce-then-perform session program factory.

    ``factory(world)`` must return a generator yielding :class:`Op`
    announcements.  ``trace_id`` tags every step the program executes
    with one trace, so the :class:`~repro.obs.audit.IQAuditor` can
    correlate its lease events into sessions.
    """

    def __init__(self, name, factory):
        self.name = name
        self.factory = factory

    def __repr__(self):
        return "MCProgram({!r})".format(self.name)


class MCRun:
    """Execution state of one announce-then-perform program.

    Construction advances the generator to its first announcement; the
    code before the first ``yield`` must therefore be free of shared
    side effects (bind locals, nothing more).  A program that raises
    there crashes at schedule prefix ``()``.
    """

    def __init__(self, mc_program, world):
        self.name = mc_program.name
        self.trace_id = world.new_trace_id(self.name)
        self._generator = mc_program.factory(world)
        self.finished = False
        #: the generator's return value once it finished
        self.result = None
        #: labels of every executed (performed) operation, in order
        self.history = []
        self.pending = None
        self.pending = self._advance([])

    def _advance(self, executed_prefix):
        """Run the generator to its next announcement (or completion).

        A program exception marks the run finished -- its generator is
        dead -- and is re-raised as :class:`ProgramCrash`.
        """
        from repro.obs.trace import trace_context

        try:
            with trace_context(self.trace_id):
                label = next(self._generator)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            return None
        except Exception as exc:
            self.finished = True
            raise ProgramCrash(
                self.name, self.pending.label if self.pending else None,
                executed_prefix, exc,
            ) from exc
        if not isinstance(label, Op):
            raise TypeError(
                "mc program {!r} must yield Op announcements, got {!r}"
                .format(self.name, label)
            )
        return label

    def close(self):
        """Abandon the program mid-run (its execution is closing)."""
        self._generator.close()

    def step(self, executed_prefix):
        """Perform the announced operation; capture the next announcement.

        Returns the label of the operation that was executed.
        """
        if self.finished:
            raise ProgramCrash(
                self.name, self.pending.label if self.pending else None,
                executed_prefix,
                RuntimeError("stepping a finished program"),
            )
        performed = self.pending
        self.pending = self._advance(executed_prefix)
        self.history.append(performed.label)
        return performed.label
