"""Exact outputs of the experiments that drive their own closed loop.

``exhaustion``, ``three_layer`` and ``scheduling`` build their boards and
coordinators by hand and run them through the shared period loop
(:func:`repro.experiments.runner.drive`).  These pins hold their results
to the last bit at a small size, so a change to the loop, to the stepping
kernel under it or to the coordinators shows up here.
"""

import copy
import dataclasses

import pytest

from repro.experiments import (
    YUKTA_HW_SSV_OS_SSV,
    exhaustion,
    prime_designs,
    scheduling,
    three_layer,
)


@pytest.fixture
def context(design_context):
    """The shared design context over a private copy of its board spec.

    The heatsink fault of ``exhaustion`` ages the capacitance of the spec
    its board runs on, which is the context's own, and never reverts it;
    a private copy keeps that from reaching any other test.
    """
    prime_designs(design_context, [YUKTA_HW_SSV_OS_SSV])
    return dataclasses.replace(design_context,
                               spec=copy.deepcopy(design_context.spec))


@pytest.mark.slow
class TestExperimentPins:
    def test_exhaustion(self, context):
        result = exhaustion.run(context)
        assert result == exhaustion.ExhaustionResult(
            healthy_flagged=False, heatsink_flagged=True,
            heatsink_stable=True, sensor_flagged=False,
            fault_time=66.66666666666667, sensor_detection_delay=-1)

    def test_exhaustion_leaves_the_context_alone(self, context):
        """The heatsink fault ages a board-local spec, never the context's:
        a cell re-run after ``exhaustion.run`` matches the run before it."""
        from repro.experiments import run_workload
        from repro.verify.oracles import _Comparator, compare_runs

        def cell():
            return run_workload("coordinated-heuristic", "blackscholes",
                                context, max_time=20.0)

        before = cell()
        exhaustion.run(context)
        after = cell()
        cmp = compare_runs(_Comparator(), [("blackscholes", "heuristic")],
                           [before], [after])
        assert cmp.first is None, cmp.first

    def test_three_layer(self, context):
        result = three_layer.run(context, targets=(3.5,), app_samples=60)
        assert result.rows_data == [
            ["two-layer (fixed quality)", "-", 3.767660910518007, 1.0,
             364.06304759239595, 159.25000000000196],
            ["three-layer @ 3.5", 3.5, 3.412969283276339, 0.8500000000000001,
             394.45999615539966, 175.80000000000572],
        ]

    def test_scheduling(self, context):
        result = scheduling.run(context, workloads=("mcf",),
                                samples_per_program=48)
        assert result.single == {"mcf": 2.503460049294158}
        assert result.scheduled == {"mcf": 3.1384862098539714}
        assert result.switches == {"mcf": 1.0}
