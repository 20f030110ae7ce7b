"""Experiment configuration, the 810-cell grid, runners, campaign driver,
and the sweep-service layers (content-addressed cache + work queue).

Import the submodule you need (:mod:`~repro.experiments.config`,
:mod:`~repro.experiments.cache`, ...): the package itself loads nothing,
so a process that only reads the cache never loads an engine.
"""
