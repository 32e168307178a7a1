"""Delta-debugging shrinker: violating schedule -> minimal repro script.

A schedule the explorer (or fuzzer) flags is usually much longer than
the race it contains.  :func:`shrink` applies ddmin (Zeller's
delta-debugging minimization) over the schedule sequence: repeatedly
try removing chunks, keep any subsequence that still violates, halve
the chunk size, until the schedule is **1-minimal** -- removing any
single entry makes the violation disappear.

Replay of candidate subsequences is *lenient* (entries for finished
programs are skipped) and *completing* (programs still unfinished when
the schedule runs out are drained round-robin in program order, see
:func:`repro.mc.explorer.replay`), so every subsequence denotes a full,
deterministic execution.  The minimal schedule is therefore read as:
"force exactly these steps in this order; let everything else run to
completion" -- which is exactly the shape of a figure scenario's paper
``schedule``, and :func:`emit_script` renders it as a script.
"""

from repro.mc.explorer import replay

__all__ = ["ShrinkResult", "shrink", "emit_script"]


class ShrinkResult:
    """A minimized violating schedule plus its replay evidence."""

    __slots__ = ("scenario_name", "original", "schedule", "violations",
                 "steps", "replays", "minimal")

    def __init__(self, scenario_name, original, schedule, violations,
                 steps, replays, minimal):
        self.scenario_name = scenario_name
        self.original = tuple(original)
        self.schedule = tuple(schedule)
        self.violations = list(violations)
        #: executed (program, step label) pairs of the minimal replay
        self.steps = tuple(steps)
        #: how many candidate replays ddmin burned
        self.replays = replays
        #: True when verified 1-minimal (always, unless input was clean)
        self.minimal = minimal

    def __repr__(self):
        return "ShrinkResult({} -> {} steps, {} replays)".format(
            len(self.original), len(self.schedule), self.replays
        )


def _violates(scenario, schedule, counter):
    counter[0] += 1
    result = replay(scenario, schedule, complete=True)
    return (bool(result.violations) or result.crash is not None), result


def shrink(scenario, schedule):
    """ddmin ``schedule`` to a 1-minimal violating subsequence.

    Returns a :class:`ShrinkResult`; when the input schedule does not
    violate at all (nothing to shrink), ``minimal`` is False and the
    original schedule is returned unchanged.
    """
    counter = [0]
    failing = list(schedule)
    violates, result = _violates(scenario, failing, counter)
    if not violates:
        return ShrinkResult(
            scenario.name, schedule, schedule, result.violations,
            result.steps, counter[0], minimal=False,
        )

    chunks = 2
    while len(failing) >= 2:
        size = max(1, len(failing) // chunks)
        reduced = False
        start = 0
        while start < len(failing):
            candidate = failing[:start] + failing[start + size:]
            violates, candidate_result = _violates(
                scenario, candidate, counter
            )
            if violates:
                failing = candidate
                result = candidate_result
                chunks = max(chunks - 1, 2)
                reduced = True
                break
            start += size
        if not reduced:
            if size <= 1:
                break
            chunks = min(len(failing), chunks * 2)

    # ddmin with halving is 1-minimal on exit (final pass used size 1),
    # but the empty schedule short-circuits that argument; verify it.
    if failing:
        violates, empty_result = _violates(scenario, [], counter)
        if violates:
            failing = []
            result = empty_result

    return ShrinkResult(
        scenario.name, schedule, failing, result.violations, result.steps,
        counter[0], minimal=True,
    )


def emit_script(result):
    """Render a :class:`ShrinkResult` as a replayable script.

    The output is an executable Python snippet plus a step-by-step
    comment timeline (program -> announced step label), mirroring the
    paper's numbered figure interleavings.
    """
    lines = [
        "# Minimal violating schedule for scenario {!r}".format(
            result.scenario_name
        ),
        "# (shrunk from {} forced steps to {}; {} candidate replays)".format(
            len(result.original), len(result.schedule), result.replays
        ),
        "#",
        "# Interleaving (forced steps first, then the deterministic",
        "# round-robin drain):",
    ]
    forced = len(result.schedule)
    for index, (name, label) in enumerate(result.steps):
        marker = "forced" if index < forced else "drain"
        lines.append("#   {:>2}. [{:<6}] {:<4} {}".format(
            index + 1, marker, name, label
        ))
    lines.extend([
        "#",
        "# Violations:",
    ])
    for message in result.violations:
        lines.append("#   - {}".format(message))
    lines.extend([
        "",
        "from repro.mc import get_scenario, replay",
        "",
        "result = replay(",
        "    get_scenario({!r}),".format(result.scenario_name),
        "    {!r},".format(list(result.schedule)),
        "    complete=True,",
        ")",
        "assert not result.ok, \"expected the violation to reproduce\"",
        "for message in result.violations:",
        "    print(message)",
        "",
    ])
    return "\n".join(lines)
