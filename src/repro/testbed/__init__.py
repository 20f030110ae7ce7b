"""FABRIC-testbed facade: sites (:mod:`~repro.testbed.sites`), the paper's
dumbbell (:mod:`~repro.testbed.dumbbell`), tc-style config
(:mod:`~repro.testbed.tc`) and a FABlib-style slice builder
(:mod:`~repro.testbed.fablib`).

Import the submodule you need: the fluid engines read the site delays
without loading the packet network the dumbbell is built from.
"""
