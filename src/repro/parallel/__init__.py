"""Experiment and design-space point execution: one executor, a serial
and a supervised policy."""

from .engine import (BenchReport, EngineError, ExperimentRun, Outcome,
                     ResilienceConfig, Serial, Supervised, execute,
                     run_experiments, run_sweep)

__all__ = ["BenchReport", "EngineError", "ExperimentRun", "Outcome",
           "ResilienceConfig", "Serial", "Supervised", "execute",
           "run_experiments", "run_sweep"]
