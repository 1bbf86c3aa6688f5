"""The controller-scheme registry (Table IV plus the LQG variants).

A *scheme* knows how to build a fresh control session (the pair of layer
controllers plus optimizers) against a shared :class:`DesignContext`.  The
expensive artifacts — characterization data and synthesized controllers —
are built once per context and cached, so sweeping fourteen workloads over
six schemes stays tractable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    CoordinatedHeuristicHW,
    CoordinatedHeuristicOS,
    DecoupledHeuristicHW,
    DecoupledHeuristicOS,
    MonolithicLQGAdapter,
    design_lqg_hw,
    design_lqg_sw,
    design_monolithic_lqg,
)
from ..board import default_xu3_spec
from ..cache import DesignCache, fingerprint
from ..core import (
    ExDOptimizer,
    MultilayerCoordinator,
    TargetChannel,
    characterize_board,
    design_layer,
    hardware_layer_spec,
    software_layer_spec,
)

__all__ = [
    "DesignContext",
    "SchemeSession",
    "SCHEMES",
    "build_session",
    "prime_designs",
    "scheme_descriptions",
]

# Table IV names (the registry keys used by every figure module).
COORDINATED_HEURISTIC = "coordinated-heuristic"
DECOUPLED_HEURISTIC = "decoupled-heuristic"
YUKTA_HW_SSV_OS_HEUR = "yukta-hwssv-osheur"
YUKTA_HW_SSV_OS_SSV = "yukta-hwssv-osssv"
DECOUPLED_LQG = "decoupled-lqg"
MONOLITHIC_LQG = "monolithic-lqg"

SCHEMES = [
    COORDINATED_HEURISTIC,
    DECOUPLED_HEURISTIC,
    YUKTA_HW_SSV_OS_HEUR,
    YUKTA_HW_SSV_OS_SSV,
    DECOUPLED_LQG,
    MONOLITHIC_LQG,
]

_DESCRIPTIONS = {
    COORDINATED_HEURISTIC: (
        "OS: HMP-style scheduler using number/type/frequency of cores. "
        "HW: raises frequency/#cores while safe, backs off using the thread "
        "distribution. (Table IV-a, the baseline.)"
    ),
    DECOUPLED_HEURISTIC: (
        "OS: round-robin placement. HW: performance governor at maximum, "
        "threshold backoff on violations, ignores threads. (Table IV-b.)"
    ),
    YUKTA_HW_SSV_OS_HEUR: (
        "OS: coordinated heuristic. HW: SSV controller of Sec. IV-A. "
        "(Table IV-c.)"
    ),
    YUKTA_HW_SSV_OS_SSV: (
        "OS: SSV controller of Sec. IV-B. HW: SSV controller of Sec. IV-A. "
        "(Table IV-d.)"
    ),
    DECOUPLED_LQG: (
        "Independent LQG controllers in each layer, no coordination channel. "
        "(Sec. VI-B.)"
    ),
    MONOLITHIC_LQG: (
        "A single LQG controller sensing and actuating both layers. "
        "(Sec. VI-B.)"
    ),
}


def scheme_descriptions():
    return dict(_DESCRIPTIONS)


@dataclass
class DesignContext:
    """Shared, cached design artifacts for a board spec.

    Build once (``DesignContext.create()``), then mint per-run sessions.
    """

    spec: object
    characterization: object
    hw_design: object = None
    sw_design: object = None
    lqg_hw: object = None
    lqg_sw: object = None
    lqg_mono: object = None
    overrides: dict = field(default_factory=dict)
    cache: object = None  # DesignCache, or None to keep everything in-memory
    char_fingerprint: str = ""  # identifies (spec, characterization params)

    @classmethod
    def create(cls, spec=None, samples_per_program=160, seed=1234,
               bounds_override=None, guardband_override=None,
               input_weight_override=None, cache=None):
        """Characterize the board and synthesize every controller needed.

        ``cache`` (see :meth:`repro.cache.DesignCache.resolve`) memoizes the
        characterization campaign and all synthesized controllers on disk:
        both are deterministic functions of ``(spec, samples_per_program,
        seed)`` plus the design overrides, so a warm cache makes context
        construction near-instant.
        """
        spec = spec or default_xu3_spec()
        cache = DesignCache.resolve(cache)
        char_fp = fingerprint("characterization", spec, samples_per_program,
                              seed)
        build = lambda: characterize_board(
            spec, samples_per_program=samples_per_program, seed=seed
        )
        if cache is not None:
            characterization = cache.fetch(char_fp, build)
        else:
            characterization = build()
        ctx = cls(spec=spec, characterization=characterization,
                  cache=cache, char_fingerprint=char_fp)
        ctx.overrides = {
            "bounds": bounds_override,
            "guardband": guardband_override,
            "input_weight": input_weight_override,
        }
        return ctx

    def variant(self, bounds_override=None, guardband_override=None,
                input_weight_override=None):
        """A sibling context sharing this one's characterization data.

        Sensitivity sweeps (Figs. 15-17) redesign controllers under
        different bounds/guardbands/weights without re-running the training
        campaign — exactly what a design team would do.  The persistent
        cache carries over, so re-synthesized variants hit disk too.
        """
        ctx = DesignContext(spec=self.spec, characterization=self.characterization,
                            cache=self.cache,
                            char_fingerprint=self.char_fingerprint)
        ctx.overrides = {
            "bounds": bounds_override,
            "guardband": guardband_override,
            "input_weight": input_weight_override,
        }
        return ctx

    def _design(self, slot, kind, build):
        """Memoized design lookup: in-memory slot first, then the cache."""
        value = getattr(self, slot)
        if value is not None:
            return value
        if self.cache is not None and self.char_fingerprint:
            key = fingerprint("design", kind, self.char_fingerprint,
                              self.overrides)
            value = self.cache.fetch(key, build)
        else:
            value = build()
        setattr(self, slot, value)
        return value

    # --- lazy designs ------------------------------------------------------
    def _hw_spec(self):
        layer = hardware_layer_spec(self.spec)
        if self.overrides.get("bounds") is not None:
            layer = layer.with_bounds(self.overrides["bounds"])
        if self.overrides.get("guardband") is not None:
            layer = layer.with_guardband(self.overrides["guardband"])
        if self.overrides.get("input_weight") is not None:
            layer = layer.with_input_weights(self.overrides["input_weight"])
        return layer

    def _sw_spec(self):
        layer = software_layer_spec(self.spec)
        if self.overrides.get("guardband") is not None:
            # SW guardband stays 10 points above the HW one, as in the paper.
            layer = layer.with_guardband(
                min(self.overrides["guardband"] + 0.10, 5.0)
            )
        return layer

    def get_hw_design(self):
        return self._design(
            "hw_design", "hw-ssv",
            lambda: design_layer(self._hw_spec(), self.characterization,
                                 reduce_to=20, effort_scale=5.0,
                                 accuracy_boost=10.0),
        )

    def get_sw_design(self):
        # Placement moves are cheap relative to DVFS/hotplug, so the
        # software design runs with a lighter internal effort scale
        # (the user-facing weight stays the paper's 2).
        return self._design(
            "sw_design", "sw-ssv",
            lambda: design_layer(self._sw_spec(), self.characterization,
                                 reduce_to=20, effort_scale=2.5,
                                 accuracy_boost=10.0),
        )

    def get_lqg_hw(self):
        return self._design(
            "lqg_hw", "lqg-hw",
            lambda: design_lqg_hw(self._hw_spec(), self.characterization),
        )

    def get_lqg_sw(self):
        return self._design(
            "lqg_sw", "lqg-sw",
            lambda: design_lqg_sw(self._sw_spec(), self.characterization),
        )

    def get_lqg_mono(self):
        return self._design(
            "lqg_mono", "lqg-mono",
            lambda: design_monolithic_lqg(
                self._hw_spec(), self._sw_spec(), self.characterization
            ),
        )

    # --- optimizer factories ------------------------------------------------
    def hw_optimizer(self):
        char = self.characterization
        perf_hi = char.output_ranges["bips_total"][1]
        return ExDOptimizer(
            [
                TargetChannel("bips_total", initial=0.6 * perf_hi, low=0.3,
                              high=perf_hi, role="performance"),
                TargetChannel("power_big", initial=2.2, low=0.5,
                              high=self.spec.power_limit_big, role="power",
                              forward_step=0.12, backward_step=0.06),
                TargetChannel("power_little", initial=0.15, low=0.04,
                              high=self.spec.power_limit_little, role="power",
                              forward_step=0.12, backward_step=0.06),
                TargetChannel("temperature", initial=self.spec.temp_limit - 1.0,
                              low=45.0, high=self.spec.temp_limit, role="fixed"),
            ]
        )

    def sw_optimizer(self):
        char = self.characterization
        big_hi = char.output_ranges["bips_big"][1]
        little_hi = char.output_ranges["bips_little"][1]
        # Both cluster performances are ceiling-tracked performance
        # channels; the spare-compute difference steers the split.
        return ExDOptimizer(
            [
                TargetChannel("bips_little", initial=0.15 * little_hi, low=0.02,
                              high=little_hi, role="performance"),
                TargetChannel("bips_big", initial=0.6 * big_hi, low=0.2,
                              high=big_hi, role="performance"),
                # Good placements on this board sit at deeply negative
                # spare-compute differences (big cluster fully loaded),
                # so the balance envelope must reach them.
                TargetChannel("delta_spare_capacity", initial=-2.0, low=-9.0,
                              high=3.0, role="balance",
                              forward_step=-0.05, backward_step=-0.05),
            ]
        )


@dataclass
class SchemeSession:
    """A per-run control session: fresh controller state, shared designs."""

    name: str
    hw_controller: object
    sw_controller: object = None
    hw_optimizer: object = None
    sw_optimizer: object = None
    monolithic: object = None  # MonolithicLQGAdapter, if applicable

    def coordinator(self, telemetry=None, monitor=None):
        """A :class:`~repro.core.MultilayerCoordinator` over this session."""
        return MultilayerCoordinator(
            self.hw_controller, self.sw_controller,
            self.hw_optimizer, self.sw_optimizer,
            telemetry=telemetry, monitor=monitor,
        )


# Which lazy designs each scheme pulls in (heuristic schemes need none).
_SCHEME_DESIGNS = {
    YUKTA_HW_SSV_OS_HEUR: ("get_hw_design",),
    YUKTA_HW_SSV_OS_SSV: ("get_hw_design", "get_sw_design"),
    DECOUPLED_LQG: ("get_lqg_hw", "get_lqg_sw"),
    MONOLITHIC_LQG: ("get_lqg_mono",),
}


def prime_designs(context: DesignContext, schemes=None):
    """Force-synthesize every design the given schemes will need.

    The parallel experiment engine ships the context to workers by pickling
    it once; priming first means every worker receives finished designs (no
    redundant per-worker synthesis, and — since synthesis is the only
    context mutation — the parent/worker contexts stay identical).
    """
    for scheme in schemes if schemes is not None else SCHEMES:
        for getter in _SCHEME_DESIGNS.get(scheme, ()):
            getattr(context, getter)()
    return context


def build_session(scheme_name, context: DesignContext) -> SchemeSession:
    """Instantiate one run's controllers for a named scheme."""
    spec = context.spec
    if scheme_name == COORDINATED_HEURISTIC:
        return SchemeSession(
            scheme_name,
            hw_controller=CoordinatedHeuristicHW(spec),
            sw_controller=CoordinatedHeuristicOS(spec),
        )
    if scheme_name == DECOUPLED_HEURISTIC:
        return SchemeSession(
            scheme_name,
            hw_controller=DecoupledHeuristicHW(spec),
            sw_controller=DecoupledHeuristicOS(spec),
        )
    if scheme_name == YUKTA_HW_SSV_OS_HEUR:
        return SchemeSession(
            scheme_name,
            hw_controller=context.get_hw_design().controller.fresh_copy(),
            sw_controller=CoordinatedHeuristicOS(spec),
            hw_optimizer=context.hw_optimizer(),
        )
    if scheme_name == YUKTA_HW_SSV_OS_SSV:
        return SchemeSession(
            scheme_name,
            hw_controller=context.get_hw_design().controller.fresh_copy(),
            sw_controller=context.get_sw_design().controller.fresh_copy(),
            hw_optimizer=context.hw_optimizer(),
            sw_optimizer=context.sw_optimizer(),
        )
    if scheme_name == DECOUPLED_LQG:
        hw = copy.deepcopy(context.get_lqg_hw()[0])
        sw = copy.deepcopy(context.get_lqg_sw()[0])
        hw.reset()
        sw.reset()
        return SchemeSession(
            scheme_name,
            hw_controller=hw,
            sw_controller=sw,
            hw_optimizer=context.hw_optimizer(),
            sw_optimizer=context.sw_optimizer(),
        )
    if scheme_name == MONOLITHIC_LQG:
        mono = MonolithicLQGAdapter(copy.deepcopy(context.get_lqg_mono()[0]))
        mono.reset()
        return SchemeSession(
            scheme_name,
            hw_controller=mono,
            sw_controller=None,
            hw_optimizer=context.hw_optimizer(),
            sw_optimizer=context.sw_optimizer(),
            monolithic=mono,
        )
    raise KeyError(f"unknown scheme {scheme_name!r}; known: {SCHEMES}")
