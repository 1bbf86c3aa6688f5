"""Credit cells: a plan's per-tick application crediting, laid out flat.

Scalar stepping calls ``app.execute(thread, done, now)`` for every planned
credit, every tick — a min-clamp, one subtraction from the thread's
barrier budget or the app's shared pool, one addition to the app's
completed-instruction counter, and a phase-advance check.  Far from
exhaustion neither the clamp nor the advance can fire, so a tick reduces
to those subtractions and additions on a few float *cells*.

Both fast kernels credit that way inside a *horizon*: the number of ticks
the cells provably stay clear of both, keeping at least ``RESERVE`` full
ticks of decrement in every budget cell (crushing the ``min(done,
remaining)`` clamp and the ``1e-12`` phase-advance threshold, with orders
of magnitude to spare over accumulated rounding).  Inside it no
runnable-thread set can change either.  The single-board window
(:mod:`repro.board.fastpath`) replays a horizon's ticks on one lane's
cells in Python (:meth:`_LaneCells.replay`); the bank lays every lane's
cells out as the rows of one array (``_CreditSchedule`` in
:mod:`repro.board.bank`).  Both take their horizons from
:meth:`_LaneCells.horizon`.
"""

from __future__ import annotations

import math

from ..workloads.app import Application

_THREAD = 0
_POOL = 1
_DONE = 2

RESERVE = 3  # ticks of decrement every budget cell keeps at its horizon


class _LaneCells:
    """One plan's credit list laid out as the cells of one lane.

    Row 0 is scratch (padding slots add 0.0 there); cell rows follow in
    first-use order.  Credit ``j`` subtracts ``done[j]`` from row
    ``vrow[j]`` and adds it to row ``drow[j]``; ``decs`` is each row's
    per-tick decrement.  ``exact`` is False when an app's ``execute`` is
    not :meth:`Application.execute` (it may do more than the cells
    replay), and such cells have no horizon.  Every pricing of one layout
    (:meth:`priced`) shares its ``cells``, ``vrow`` and ``drow``.
    """

    __slots__ = ("cells", "vrow", "drow", "done", "decs", "exact")

    def __init__(self, credits):
        cells = []
        index = {}
        vrow = []
        drow = []
        dones = []
        decs = [0.0]
        exact = True
        for app, thread, done in credits:
            if type(app).execute is not Application.execute:
                exact = False
            if app.current_phase.barrier:
                key, cell = id(thread), (_THREAD, thread)
            else:
                key, cell = -1 - id(app), (_POOL, app)  # disjoint from ids
            v = index.get(key)
            if v is None:
                v = index[key] = len(decs)
                cells.append(cell)
                decs.append(0.0)
            ckey = ("c", id(app))
            c = index.get(ckey)
            if c is None:
                c = index[ckey] = len(decs)
                cells.append((_DONE, app))
                decs.append(0.0)
            decs[v] += done
            vrow.append(v)
            drow.append(c)
            dones.append(done)
        self.cells = cells
        self.vrow = vrow
        self.drow = drow
        self.done = dones
        self.decs = decs
        self.exact = exact

    def priced(self, done):
        """The same cells credited ``done`` (a list, one per credit)."""
        cells = _LaneCells.__new__(_LaneCells)
        cells.cells = self.cells
        cells.vrow = self.vrow
        cells.drow = self.drow
        cells.exact = self.exact
        cells.done = done
        decs = [0.0] * len(self.decs)
        for v, d in zip(self.vrow, done):
            decs[v] += d
        cells.decs = decs
        return cells

    def horizon(self, ratio):
        """Ticks from now these cells credit exactly, given ``ratio``, the
        least value/decrement over their decrementing cells (``inf`` if
        none decrements); ``None`` means unbounded."""
        if not self.exact:
            return 0
        if ratio == math.inf:
            return None
        # Truncation is monotone, so int(min(v/d)) == min(int(v/d)).
        return max(int(ratio) - RESERVE, 0)

    def row(self):
        """A fresh row: the scratch slot, then the live cell values."""
        return [0.0, *self.read()]

    def ratio(self, row):
        """The least value/decrement of ``row`` over decrementing cells."""
        return min((v / d for v, d in zip(row, self.decs) if d > 0.0),
                   default=math.inf)

    def replay(self, row, ticks):
        """Credit ``ticks`` ticks inside the horizon to ``row`` — per
        credit, the subtraction and the addition ``execute`` makes there,
        in credit order — and store it into the live objects."""
        credits = list(zip(self.vrow, self.drow, self.done))
        for _ in range(ticks):
            for v, c, d in credits:
                row[v] -= d
                row[c] += d
        self.write(row)

    def read(self):
        """The live cell values (without the scratch row)."""
        return [
            obj.remaining if kind == _THREAD
            else obj.pool_remaining if kind == _POOL
            else obj.completed_instructions
            for kind, obj in self.cells
        ]

    def write(self, row):
        """Store a lane's cell values back into the live objects."""
        for value, (kind, obj) in zip(row[1:], self.cells):
            if kind == _THREAD:
                obj.remaining = value
            elif kind == _POOL:
                obj.pool_remaining = value
            else:
                obj.completed_instructions = value


_NO_CELLS = _LaneCells(())
